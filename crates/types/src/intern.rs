//! The name pool: every distinct domain name the stores hold, once, and
//! the 4-byte ids the stores hold instead of the names.
//!
//! The DNS store holds millions of name values, and the same name recurs
//! constantly (every flow from a CDN edge resolves to the same handful of
//! names; rotation keeps every entry across two generations). A table
//! entry therefore holds a [`NameId`] — a `u32` slot number in a
//! [`NameInterner`] — and the pool holds each text once, as one shared
//! `Arc<str>`, with a count of the table entries that reference it.
//!
//! ## Id lifetime
//!
//! An id is *held* while it is counted. [`NameInterner::intern`] hands
//! out an id with one count taken for the caller, who passes it on to a
//! table or gives it back with [`NameInterner::release`]; a table that
//! lets an entry go (overwrite, clear-up) releases the ids it held. A
//! slot whose count reaches 0 stays pooled until the next sweep, which
//! frees it for reuse by another name — so an uncounted id may later name
//! a different text, and code that reads an id must hold a count on it or
//! the lock of a table that does.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::domain::DomainName;

/// A pooled name: the number of its slot in one [`NameInterner`].
///
/// Ids are plain values — 4 bytes, `Copy`, compared and hashed as
/// integers — so a map keyed by names never reads or hashes their text.
/// Two ids a pool holds at the same time are equal exactly when their
/// texts are; the text itself comes from the pool
/// ([`NameInterner::domain`]). See the [module docs](self) for how long
/// an id keeps its meaning.
///
/// # Examples
///
/// ```
/// use flowdns_types::NameInterner;
///
/// let pool = NameInterner::new();
/// let a = pool.intern("edge7.cdn.example.net");
/// let b = pool.intern("edge7.cdn.example.net");
/// assert_eq!(a, b);
/// assert_ne!(a, pool.intern("edge8.cdn.example.net"));
/// assert_eq!(pool.domain(a).unwrap().as_str(), "edge7.cdn.example.net");
/// assert_eq!(std::mem::size_of_val(&a), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

/// Default shard count of the pool: lock stripes, which spread the shard
/// workers' per-record pool calls over 32 `RwLock`s.
const DEFAULT_INTERNER_SHARDS: usize = 32;

/// Names a stripe indexes before it sweeps the unreferenced ones. Keeps
/// the pool bounded by the *live* name population rather than every name
/// ever seen on a week-long stream.
const PURGE_HIGH_WATER: usize = 4096;

/// An empty entry of a stripe's index.
const EMPTY: u32 = u32::MAX;

/// One pooled name: its text (`None` while the slot is free), the high
/// half of its text hash (its tag, which places it in the index), and
/// the number of table entries that reference it. 24 bytes.
#[derive(Debug)]
struct Slot {
    name: Option<Arc<str>>,
    tag: u32,
    refs: AtomicU32,
}

/// One lock stripe: the slot table, the slots a sweep freed for reuse,
/// and an index of the occupied slots by text hash.
///
/// The index is open-addressed and linearly probed, 4 bytes an entry and
/// at most half full, so a probe sequence always ends at an empty entry.
/// An entry holds only a slot number; the slot's tag and text confirm a
/// match. A sweep rebuilds it in place from the surviving slots.
#[derive(Debug)]
struct Stripe {
    index: Vec<u32>,
    /// Occupied slots.
    live: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    purge_at: usize,
    /// Σ text length × count over the stripe's slots: the name bytes the
    /// tables would hold if every entry kept its own copy.
    referenced_bytes: AtomicUsize,
}

/// Put `slot` at the first empty entry of `tag`'s probe sequence.
fn place(index: &mut [u32], tag: u32, slot: u32) {
    let mask = index.len() - 1;
    let mut pos = tag as usize & mask;
    while index[pos] != EMPTY {
        pos = (pos + 1) & mask;
    }
    index[pos] = slot;
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            index: Vec::new(),
            live: 0,
            slots: Vec::new(),
            free: Vec::new(),
            purge_at: PURGE_HIGH_WATER,
            referenced_bytes: AtomicUsize::new(0),
        }
    }

    /// The slot holding `name`, whose hash tag is `tag`.
    fn find(&self, tag: u32, name: &str) -> Option<u32> {
        let mask = self.index.len().checked_sub(1)?;
        let mut pos = tag as usize & mask;
        loop {
            let slot = *self.index.get(pos)?;
            if slot == EMPTY {
                return None;
            }
            let entry = self.slots.get(slot as usize)?;
            if entry.tag == tag && entry.name.as_deref() == Some(name) {
                return Some(slot);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Make room in the index for `more` names beyond the live ones.
    fn reserve(&mut self, more: usize) {
        let needed = ((self.live + more) * 2).next_power_of_two().max(16);
        if needed > self.index.len() {
            self.rebuild(needed);
        }
    }

    /// Re-place every occupied slot in an index of `capacity` entries.
    fn rebuild(&mut self, capacity: usize) {
        if capacity == self.index.len() {
            self.index.fill(EMPTY);
        } else {
            self.index = vec![EMPTY; capacity];
        }
        for (slot, entry) in self.slots.iter().enumerate() {
            if entry.name.is_some() {
                place(&mut self.index, entry.tag, slot as u32);
            }
        }
    }

    /// The slot of `name`, pooling it as `make()` if it is new. Takes no
    /// count.
    fn slot_of(&mut self, tag: u32, name: &str, make: impl FnOnce() -> Arc<str>) -> u32 {
        match self.find(tag, name) {
            Some(slot) => slot,
            None => self.occupy(tag, make()),
        }
    }

    /// Pool `name` in a free slot, or a new one, uncounted.
    fn occupy(&mut self, tag: u32, name: Arc<str>) -> u32 {
        self.reserve(1);
        let entry = Slot {
            name: Some(name),
            tag,
            refs: AtomicU32::new(0),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                u32::try_from(self.slots.len() - 1).expect("name pool stripe is full")
            }
        };
        place(&mut self.index, tag, slot);
        self.live += 1;
        slot
    }

    /// Free every slot nobody references. Returns how many.
    fn sweep(&mut self) -> usize {
        let mut freed = 0;
        for (slot, entry) in self.slots.iter_mut().enumerate() {
            if entry.name.is_some() && *entry.refs.get_mut() == 0 {
                entry.name = None;
                self.free.push(slot as u32);
                freed += 1;
            }
        }
        if freed > 0 {
            self.live -= freed;
            self.rebuild(self.index.len());
        }
        freed
    }

    /// The text length of an occupied slot's name, and its count.
    fn occupied(&self, slot: u32) -> Option<(usize, &AtomicU32)> {
        let entry = self.slots.get(slot as usize)?;
        Some((entry.name.as_ref()?.len(), &entry.refs))
    }

    /// Count one more reference to `slot`.
    fn retain(&self, slot: u32) {
        let Some((len, refs)) = self.occupied(slot) else {
            debug_assert!(false, "retained a free slot");
            return;
        };
        // ordering: counts and byte sums are compared with 0 or summed
        // only under the stripe's write lock (a sweep) or as an estimate
        // that tolerates a stale sum; the lock orders them against every
        // reader that changed them.
        refs.fetch_add(1, Ordering::Relaxed);
        // ordering: as for `refs` above.
        self.referenced_bytes.fetch_add(len, Ordering::Relaxed);
    }

    /// Give back one reference to `slot`.
    fn release(&self, slot: u32) {
        let Some((len, refs)) = self.occupied(slot) else {
            debug_assert!(false, "released a free slot");
            return;
        };
        // ordering: as in `retain`.
        let before = refs.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(before > 0, "name released more often than held");
        // ordering: as in `retain`.
        self.referenced_bytes.fetch_sub(len, Ordering::Relaxed);
    }
}

/// A sharded deduplicating pool of domain names, numbered by slot.
///
/// [`NameInterner::intern`] returns a name's id, pooling the text only on
/// first sight, and counts one reference for the caller. A stripe that
/// grows past a high-water mark sweeps the slots nobody references and
/// reuses them, so the pool tracks the live population of the stores
/// feeding from it. Reading or counting an id takes its stripe's read
/// lock; only a new name or a sweep takes the write lock.
///
/// # Examples
///
/// ```
/// use flowdns_types::NameInterner;
///
/// let pool = NameInterner::new();
/// let a = pool.intern("edge7.cdn.example.net");
/// let b = pool.intern("edge7.cdn.example.net");
/// // One slot backs every copy of a pooled name…
/// assert_eq!(a, b);
/// assert_eq!(pool.len(), 1);
/// assert_eq!(pool.ref_count(a), 2);
/// // …and a slot nobody references is freed by the next sweep.
/// pool.release(a);
/// pool.release(b);
/// assert_eq!(pool.purge_unreferenced(), 1);
/// assert!(pool.is_empty());
/// ```
#[derive(Debug)]
pub struct NameInterner {
    stripes: Vec<RwLock<Stripe>>,
    /// Low bits of an id that number its stripe.
    stripe_bits: u32,
    /// Keyed text hash: its low bits pick a name's stripe, its high half
    /// is the name's tag in the stripe's index.
    hasher: RandomState,
}

impl Default for NameInterner {
    fn default() -> Self {
        NameInterner::with_shards(DEFAULT_INTERNER_SHARDS)
    }
}

impl NameInterner {
    /// A pool with the default shard count.
    pub fn new() -> Self {
        NameInterner::default()
    }

    /// A pool with `shards` lock-striped shards.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "interner shard count must be positive");
        NameInterner {
            stripes: (0..shards).map(|_| RwLock::new(Stripe::new())).collect(),
            stripe_bits: usize::BITS - (shards - 1).leading_zeros(),
            hasher: RandomState::new(),
        }
    }

    /// The stripe of a text and its tag there: one hash of the text.
    fn stripe_of(&self, s: &str) -> (usize, u32) {
        let hash = self.hasher.hash_one(s);
        let stripe = (hash % self.stripes.len() as u64) as usize;
        (stripe, (hash >> 32) as u32)
    }

    fn id(&self, stripe: usize, slot: u32) -> NameId {
        NameId(slot << self.stripe_bits | stripe as u32)
    }

    /// The stripe and slot an id numbers.
    fn locate(&self, id: NameId) -> (usize, u32) {
        let mask = (1u32 << self.stripe_bits) - 1;
        ((id.0 & mask) as usize, id.0 >> self.stripe_bits)
    }

    fn read(&self, stripe: usize) -> Option<RwLockReadGuard<'_, Stripe>> {
        let lock = self.stripes.get(stripe)?;
        Some(lock.read().expect("interner stripe poisoned"))
    }

    fn write_all(&self) -> Vec<RwLockWriteGuard<'_, Stripe>> {
        self.stripes
            .iter()
            .map(|stripe| stripe.write().expect("interner stripe poisoned"))
            .collect()
    }

    /// The id of `s`, pooling a copy of the text if it is new, with one
    /// count taken for the caller.
    pub fn intern(&self, s: &str) -> NameId {
        self.intern_with(s, || Arc::from(s))
    }

    /// The id of a parsed domain name, with one count taken for the
    /// caller. On first sight the pool adopts the domain's allocation
    /// instead of copying the text.
    pub fn intern_domain(&self, name: &DomainName) -> NameId {
        self.intern_with(name.as_str(), || name.shared_str())
    }

    fn intern_with(&self, s: &str, make: impl FnOnce() -> Arc<str>) -> NameId {
        let (stripe, tag) = self.stripe_of(s);
        if let Some(guard) = self.read(stripe) {
            if let Some(slot) = guard.find(tag, s) {
                guard.retain(slot);
                return self.id(stripe, slot);
            }
        }
        let lock = &self.stripes[stripe];
        let mut guard = lock.write().expect("interner stripe poisoned");
        let slot = guard.slot_of(tag, s, make);
        *guard.slots[slot as usize].refs.get_mut() += 1;
        *guard.referenced_bytes.get_mut() += s.len();
        if guard.live >= guard.purge_at {
            // The count just taken keeps the new name out of the sweep.
            guard.sweep();
            guard.purge_at = (guard.live * 2).max(PURGE_HIGH_WATER);
        }
        self.id(stripe, slot)
    }

    /// Count one more reference to a held id.
    pub fn retain(&self, id: NameId) {
        let (stripe, slot) = self.locate(id);
        if let Some(guard) = self.read(stripe) {
            guard.retain(slot);
        }
    }

    /// Give back one reference to `id`. Once its count is 0 the next
    /// sweep may free the slot, and the id stops naming its text.
    pub fn release(&self, id: NameId) {
        let (stripe, slot) = self.locate(id);
        if let Some(guard) = self.read(stripe) {
            guard.release(slot);
        }
    }

    /// The name a held id stands for, sharing the pool's allocation (a
    /// reference-count bump, no copy). The pool must have been fed
    /// normalized names, which holds for every name interned from a
    /// [`DomainName`]. `None` for an id no slot holds.
    pub fn domain(&self, id: NameId) -> Option<DomainName> {
        self.text(id).map(DomainName::from_shared)
    }

    /// The pooled text of a held id (the pool's own allocation).
    pub fn text(&self, id: NameId) -> Option<Arc<str>> {
        let (stripe, slot) = self.locate(id);
        self.read(stripe)?.slots.get(slot as usize)?.name.clone()
    }

    /// How many references `id` holds (0 for a free slot).
    pub fn ref_count(&self, id: NameId) -> u32 {
        let (stripe, slot) = self.locate(id);
        self.read(stripe)
            .and_then(|guard| {
                let entry = guard.slots.get(slot as usize)?;
                entry.name.as_ref()?;
                Some(entry.refs.load(Ordering::Relaxed))
            })
            .unwrap_or(0)
    }

    /// Pool a snapshot's name table for an import. Each input gets an id,
    /// pinned with one count until [`NameImport::settle`] replaces the
    /// pins with the references the tables took through
    /// [`NameImport::take`]. Inputs with one text share an id; a text the
    /// pool does not hold yet is pooled as the given allocation rather
    /// than copied, so a decoded snapshot's name table becomes the pool's
    /// with no allocation per name.
    ///
    /// The import is one pass, not one [`NameInterner::intern`] per name:
    /// each text is hashed once for its stripe and index position, every
    /// stripe's write lock is taken once (in index order) and its index
    /// and slot table reserved to their final size, and each name then
    /// costs one index probe. Nothing is swept during the import; afterwards each
    /// stripe's high-water mark is re-armed at twice its size, where the
    /// per-name path's sweeps converge.
    pub fn import_names(&self, names: &[Arc<str>]) -> NameImport<'_> {
        let placed: Vec<(usize, u32)> = names.iter().map(|name| self.stripe_of(name)).collect();
        let mut guards = self.write_all();
        let mut incoming = vec![0usize; guards.len()];
        for &(stripe, _) in &placed {
            incoming[stripe] += 1;
        }
        for (guard, count) in guards.iter_mut().zip(incoming) {
            guard.reserve(count);
            let fresh = count.saturating_sub(guard.free.len());
            guard.slots.reserve_exact(fresh);
        }
        let ids: Vec<NameId> = names
            .iter()
            .zip(&placed)
            .map(|(name, &(stripe, tag))| {
                let guard = &mut guards[stripe];
                let slot = guard.slot_of(tag, name, || Arc::clone(name));
                *guard.slots[slot as usize].refs.get_mut() += 1;
                *guard.referenced_bytes.get_mut() += name.len();
                self.id(stripe, slot)
            })
            .collect();
        for guard in &mut guards {
            guard.purge_at = (guard.live * 2).max(PURGE_HIGH_WATER);
        }
        NameImport {
            pool: self,
            refs: vec![0; ids.len()],
            ids,
        }
    }

    /// Free every pooled name nobody references. Returns how many.
    pub fn purge_unreferenced(&self) -> usize {
        self.write_all().iter_mut().map(|guard| guard.sweep()).sum()
    }

    /// Number of distinct names currently pooled.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().expect("interner stripe poisoned").live)
            .sum()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ text length × references over every pooled name: the name bytes
    /// of every table entry, counted per entry as if each held its own
    /// copy. O(stripes).
    pub fn referenced_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.read()
                    .expect("interner stripe poisoned")
                    .referenced_bytes
                    .load(Ordering::Relaxed)
            })
            .sum()
    }
}

/// A snapshot's name table pooled by [`NameInterner::import_names`]: the
/// id of every image name index, each pinned with one count, and the
/// table references taken per index so far.
///
/// The tables take ids with [`NameImport::take`], which counts nothing
/// in the pool; [`NameImport::settle`] then writes each name's final
/// count once. Until it settles, every imported name is pinned and no
/// sweep frees it.
#[derive(Debug)]
pub struct NameImport<'a> {
    pool: &'a NameInterner,
    ids: Vec<NameId>,
    refs: Vec<u32>,
}

impl NameImport<'_> {
    /// The id of image name index `idx`, counting one table reference to
    /// it. `None` for an index past the name table.
    pub fn take(&mut self, idx: u32) -> Option<NameId> {
        let id = *self.ids.get(idx as usize)?;
        self.refs[idx as usize] += 1;
        Some(id)
    }

    /// Replace the pins with the references the tables took: each name's
    /// count becomes its count before the import plus its takes. Every
    /// stripe's write lock is taken once and each count is written once,
    /// with no atomic operation.
    pub fn settle(self) {
        let mut guards = self.pool.write_all();
        for (&id, &held) in self.ids.iter().zip(&self.refs) {
            let (stripe, slot) = self.pool.locate(id);
            let guard = &mut guards[stripe];
            let Some(entry) = guard.slots.get_mut(slot as usize) else {
                continue;
            };
            let len = entry.name.as_ref().map_or(0, |name| name.len());
            let count = entry.refs.get_mut();
            *count = *count + held - 1;
            let bytes = guard.referenced_bytes.get_mut();
            *bytes = *bytes + len * held as usize - len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_ids_are_four_bytes() {
        assert_eq!(std::mem::size_of::<NameId>(), 4);
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[test]
    fn interning_deduplicates_and_counts() {
        let pool = NameInterner::new();
        let a = pool.intern("cdn.example.net");
        let b = pool.intern("cdn.example.net");
        assert_eq!(a, b);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.ref_count(a), 2);
        assert_eq!(pool.referenced_bytes(), 2 * "cdn.example.net".len());
        let c = pool.intern("other.example.net");
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        pool.release(a);
        assert_eq!(pool.ref_count(a), 1);
        assert_eq!(
            pool.referenced_bytes(),
            "cdn.example.net".len() + "other.example.net".len()
        );
    }

    #[test]
    fn intern_domain_adopts_the_domain_allocation() {
        let pool = NameInterner::new();
        let domain = DomainName::literal("edge7.cdn.example.net");
        let id = pool.intern_domain(&domain);
        // The pool adopted the domain's Arc rather than copying it, and
        // hands the same allocation back out.
        assert!(Arc::ptr_eq(&domain.shared_str(), &pool.text(id).unwrap()));
        assert_eq!(pool.domain(id), Some(domain));
        assert_eq!(id, pool.intern("edge7.cdn.example.net"));
    }

    #[test]
    fn purge_frees_only_unreferenced_slots_and_reuses_them() {
        let pool = NameInterner::with_shards(2);
        let kept = pool.intern("kept.example");
        let dropped = pool.intern("dropped.example");
        pool.release(dropped);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.purge_unreferenced(), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.domain(dropped), None);
        assert_eq!(kept, pool.intern("kept.example"));
        // A freed slot is reused by the next name of its stripe.
        let again = pool.intern("dropped.example");
        assert_eq!(again, dropped);
        assert_eq!(pool.domain(again).unwrap().as_str(), "dropped.example");
    }

    #[test]
    fn ids_encode_stripe_and_slot() {
        for shards in [1, 2, 3, 32] {
            let pool = NameInterner::with_shards(shards);
            let ids: Vec<NameId> = (0..200)
                .map(|i| pool.intern(&format!("h{i}.example")))
                .collect();
            for (i, id) in ids.iter().enumerate() {
                let text = format!("h{i}.example");
                assert_eq!(pool.locate(*id).0, pool.stripe_of(&text).0);
                assert_eq!(&*pool.text(*id).unwrap(), text);
            }
        }
    }

    #[test]
    fn import_adopts_new_allocations_and_reuses_pooled_ones() {
        let pool = NameInterner::with_shards(4);
        let pooled = pool.intern("old.example");
        let table: Vec<Arc<str>> = vec!["new.example".into(), "old.example".into()];
        let mut import = pool.import_names(&table);
        let fresh = import.take(0).unwrap();
        assert_eq!(import.take(1), Some(pooled));
        assert_eq!(import.take(2), None);
        // A new name is pooled as the table's own allocation…
        assert!(Arc::ptr_eq(&pool.text(fresh).unwrap(), &table[0]));
        // …and a pooled one resolves to the pool's.
        assert!(!Arc::ptr_eq(&pool.text(pooled).unwrap(), &table[1]));
        assert_eq!(pool.len(), 2);
        // Each id is pinned until the import settles; takes count only
        // in the handle.
        import.take(0);
        import.take(0);
        assert_eq!((pool.ref_count(fresh), pool.ref_count(pooled)), (1, 2));
        import.settle();
        assert_eq!((pool.ref_count(fresh), pool.ref_count(pooled)), (3, 2));
        assert_eq!(
            pool.referenced_bytes(),
            3 * "new.example".len() + 2 * "old.example".len()
        );
    }

    #[test]
    fn import_pools_a_repeated_text_once() {
        let pool = NameInterner::with_shards(4);
        let table: Vec<Arc<str>> = vec![
            "dup.example".into(),
            "other.example".into(),
            "dup.example".into(),
        ];
        let mut import = pool.import_names(&table);
        let dup = import.take(0).unwrap();
        assert_eq!(import.take(2), Some(dup));
        // The first occurrence is pooled; the second resolves to it.
        assert!(Arc::ptr_eq(&pool.text(dup).unwrap(), &table[0]));
        assert_eq!(pool.len(), 2);
        import.settle();
        assert_eq!(pool.ref_count(dup), 2);
        assert_eq!(pool.purge_unreferenced(), 1);
    }

    fn host_table(prefix: &str, count: usize) -> Vec<Arc<str>> {
        (0..count)
            .map(|i| Arc::from(format!("{prefix}{i}.example")))
            .collect()
    }

    #[test]
    fn bulk_import_keeps_every_name_past_the_high_water_mark() {
        let pool = NameInterner::with_shards(1);
        let table = host_table("host", 3 * PURGE_HIGH_WATER);
        let mut import = pool.import_names(&table);
        assert_eq!(pool.len(), table.len());
        for (idx, name) in table.iter().enumerate() {
            let id = import.take(idx as u32).unwrap();
            assert!(
                Arc::ptr_eq(&pool.text(id).unwrap(), name),
                "{name} was copied"
            );
        }
    }

    #[test]
    fn high_water_sweep_resumes_after_a_bulk_import() {
        let pool = NameInterner::with_shards(1);
        let imported = 3 * PURGE_HIGH_WATER;
        // No table takes the imported names.
        pool.import_names(&host_table("host", imported)).settle();
        // The mark is re-armed at twice the stripe's size, so the stripe
        // doubles…
        for name in host_table("fresh", imported - 1) {
            pool.release(pool.intern(&name));
        }
        assert_eq!(pool.len(), 2 * imported - 1);
        // …and the intern that reaches the mark sweeps every other name.
        let kept = pool.intern("last.example");
        assert_eq!(pool.len(), 1);
        assert_eq!(kept, pool.intern("last.example"));
    }

    #[test]
    fn high_water_sweep_keeps_the_pool_bounded() {
        let pool = NameInterner::with_shards(1);
        for i in 0..3 * PURGE_HIGH_WATER {
            // Every id is released at once, so sweeps reclaim it.
            pool.release(pool.intern(&format!("host{i}.example")));
        }
        assert!(pool.len() < PURGE_HIGH_WATER + 2);
        assert_eq!(pool.referenced_bytes(), 0);
    }
}
