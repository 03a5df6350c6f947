//! Interned domain-name handles.
//!
//! The DNS store holds millions of domain-name values, and the same name
//! recurs constantly (every flow from a CDN edge resolves to the same
//! handful of names; rotation copies every entry once per interval).
//! [`NameRef`] is a cheap-to-clone handle over an `Arc<str>` — cloning is
//! a reference-count bump, like [`ServiceLabel`](crate::ServiceLabel) —
//! and [`NameInterner`] is a sharded pool that deduplicates handles so
//! one allocation backs every copy of a name across the Active, Inactive
//! and Long generations.
//!
//! [`NameId`] is the same handle with *identity* semantics: only a pool
//! can mint one, and it hashes and compares by allocation address, so a
//! map keyed by names never reads or hashes their text.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use crate::domain::DomainName;

/// A shared, immutable handle to a normalized domain name.
///
/// Equality and hashing are by *content* (so `NameRef` works as a hashmap
/// key), with a pointer-identity fast path for the common case where both
/// handles came out of the same [`NameInterner`].
#[derive(Debug, Clone)]
pub struct NameRef(Arc<str>);

impl NameRef {
    /// Build a handle directly from text, without interning. The text is
    /// used as-is; callers that need DNS normalization should go through
    /// [`DomainName`] first.
    pub fn new(s: &str) -> Self {
        NameRef(Arc::from(s))
    }

    /// The name text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length of the name in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the name empty? (Never true for a handle derived from a parsed
    /// [`DomainName`].)
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Do two handles share one allocation? True whenever both came from
    /// the same interner pool.
    pub fn ptr_eq(a: &NameRef, b: &NameRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// View the handle as a [`DomainName`] without copying the text. The
    /// handle must hold a normalized name, which is guaranteed for every
    /// `NameRef` derived from a `DomainName` (directly or via an
    /// interner).
    pub fn to_domain(&self) -> DomainName {
        DomainName::from_shared(Arc::clone(&self.0))
    }
}

impl PartialEq for NameRef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for NameRef {}

impl Hash for NameRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `str::hash` so `Borrow<str>` map lookups work.
        self.0.hash(state)
    }
}

impl PartialOrd for NameRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Borrow<str> for NameRef {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for NameRef {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for NameRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&DomainName> for NameRef {
    /// Share the domain's existing allocation — no copy.
    fn from(name: &DomainName) -> Self {
        NameRef(name.shared_str())
    }
}

impl From<NameRef> for DomainName {
    /// Rewrap the shared allocation as a domain name — no copy.
    fn from(name: NameRef) -> Self {
        DomainName::from_shared(name.0)
    }
}

impl From<NameRef> for Arc<str> {
    /// The shared allocation itself — no copy.
    fn from(name: NameRef) -> Self {
        name.0
    }
}

/// The identity of a pooled name: a handle that only a [`NameInterner`]
/// can construct, hashed and compared by the address of its allocation.
///
/// Two ids from one pool are equal exactly when their texts are. The
/// pool holds one allocation per live text, so equal texts share an
/// address; and it only purges allocations nobody else references, so an
/// id — which holds a reference — keeps its allocation (and with it the
/// address) pooled for as long as the id lives. Ids from *different*
/// pools are equal only when both pools adopted one allocation (see
/// [`NameInterner::import_ids`]), which still means equal text; equal
/// texts from two pools are otherwise unequal ids.
///
/// # Examples
///
/// ```
/// use flowdns_types::NameInterner;
///
/// let pool = NameInterner::new();
/// let a = pool.intern_id("edge7.cdn.example.net");
/// let b = pool.intern_id("edge7.cdn.example.net");
/// assert_eq!(a, b);
/// assert_ne!(a, pool.intern_id("edge8.cdn.example.net"));
/// assert_eq!(a.as_str(), "edge7.cdn.example.net");
/// ```
#[derive(Debug, Clone)]
pub struct NameId(Arc<str>);

impl NameId {
    /// The name text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length of the name in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the name empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn address(&self) -> usize {
        Arc::as_ptr(&self.0) as *const u8 as usize
    }
}

impl PartialEq for NameId {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for NameId {}

impl Hash for NameId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.address());
    }
}

impl AsRef<str> for NameId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<NameId> for DomainName {
    /// Rewrap the pooled allocation as a domain name — no copy.
    fn from(name: NameId) -> Self {
        DomainName::from_shared(name.0)
    }
}

impl From<NameId> for Arc<str> {
    /// The pooled allocation itself — no copy.
    fn from(name: NameId) -> Self {
        name.0
    }
}

/// Default shard count of the intern pool: lock stripes, so the shard
/// workers interning names at once rarely meet on one `RwLock`.
const DEFAULT_INTERNER_SHARDS: usize = 32;

/// Entries a shard accumulates before it sweeps handles nobody else
/// references. Keeps the pool bounded by the *live* name population
/// rather than every name ever seen on a week-long stream.
const PURGE_HIGH_WATER: usize = 4096;

#[derive(Debug, Default)]
struct Shard {
    names: HashSet<Arc<str>>,
    purge_at: usize,
}

/// A sharded deduplicating pool of domain-name handles.
///
/// `intern` returns the pooled handle for a name, allocating only on
/// first sight. Shards sweep themselves when they grow past a high-water
/// mark, dropping entries whose only remaining reference is the pool
/// itself, so the pool tracks the live population of the stores feeding
/// from it.
///
/// # Examples
///
/// ```
/// use flowdns_types::{NameInterner, NameRef};
///
/// let pool = NameInterner::new();
/// let a = pool.intern("edge7.cdn.example.net");
/// let b = pool.intern("edge7.cdn.example.net");
/// // One allocation backs every copy of a pooled name.
/// assert!(NameRef::ptr_eq(&a, &b));
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug)]
pub struct NameInterner {
    shards: Vec<RwLock<Shard>>,
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
            shards: (0..shards)
                .map(|_| {
                    RwLock::new(Shard {
                        names: HashSet::new(),
                        purge_at: PURGE_HIGH_WATER,
                    })
                })
                .collect(),
        }
    }

    fn shard_index(&self, s: &str) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// The pooled handle for `s`, allocating only if the name is new.
    pub fn intern(&self, s: &str) -> NameRef {
        self.intern_with(s, || Arc::from(s))
    }

    /// The pooled handle for a parsed domain name. On first sight the
    /// pool adopts the domain's existing allocation instead of copying
    /// the text.
    pub fn intern_domain(&self, name: &DomainName) -> NameRef {
        self.intern_with(name.as_str(), || name.shared_str())
    }

    fn intern_with<F: FnOnce() -> Arc<str>>(&self, s: &str, make: F) -> NameRef {
        let idx = self.shard_index(s);
        {
            let shard = self.shards[idx].read().expect("interner shard poisoned");
            if let Some(existing) = shard.names.get(s) {
                return NameRef(Arc::clone(existing));
            }
        }
        let mut shard = self.shards[idx].write().expect("interner shard poisoned");
        if let Some(existing) = shard.names.get(s) {
            return NameRef(Arc::clone(existing));
        }
        let arc = make();
        shard.names.insert(Arc::clone(&arc));
        if shard.names.len() >= shard.purge_at {
            // `arc` above holds a second reference, so the entry we just
            // inserted survives the sweep.
            shard.names.retain(|name| Arc::strong_count(name) > 1);
            shard.purge_at = (shard.names.len() * 2).max(PURGE_HIGH_WATER);
        }
        NameRef(arc)
    }

    /// The pooled identity of `s` (see [`NameId`]).
    pub fn intern_id(&self, s: &str) -> NameId {
        NameId(self.intern(s).0)
    }

    /// The pooled identity of a parsed domain name, adopting its
    /// allocation on first sight like [`NameInterner::intern_domain`].
    pub fn intern_domain_id(&self, name: &DomainName) -> NameId {
        NameId(self.intern_domain(name).0)
    }

    /// Bulk-intern a snapshot's name table, returning the pooled identity
    /// for each input in order. Every stored entry then resolves its name
    /// index to the *same* identity, so the dedup invariant (one
    /// allocation per distinct name) is reconstructed exactly. A name the
    /// pool does not hold yet is pooled as the given allocation rather
    /// than copied, so a decoded snapshot's name table becomes the pool's
    /// with no allocation per name.
    pub fn import_ids(&self, names: &[Arc<str>]) -> Vec<NameId> {
        names
            .iter()
            .map(|name| NameId(self.intern_with(name, || Arc::clone(name)).0))
            .collect()
    }

    /// Drop every pooled name whose only reference is the pool itself.
    /// Returns how many entries were removed.
    pub fn purge_unreferenced(&self) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.write().expect("interner shard poisoned");
            let before = shard.names.len();
            shard.names.retain(|name| Arc::strong_count(name) > 1);
            removed += before - shard.names.len();
        }
        removed
    }

    /// Number of distinct names currently pooled.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("interner shard poisoned").names.len())
            .sum()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates_allocations() {
        let pool = NameInterner::new();
        let a = pool.intern("cdn.example.net");
        let b = pool.intern("cdn.example.net");
        assert_eq!(a, b);
        assert!(NameRef::ptr_eq(&a, &b));
        assert_eq!(pool.len(), 1);
        let c = pool.intern("other.example.net");
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn intern_domain_adopts_the_domain_allocation() {
        let pool = NameInterner::new();
        let domain = DomainName::literal("edge7.cdn.example.net");
        let handle = pool.intern_domain(&domain);
        assert_eq!(handle.as_str(), domain.as_str());
        // The pool adopted the domain's Arc rather than copying it.
        assert!(Arc::ptr_eq(&domain.shared_str(), &handle.0));
        // A later plain intern of the same text returns the same handle.
        assert!(NameRef::ptr_eq(
            &handle,
            &pool.intern("edge7.cdn.example.net")
        ));
    }

    #[test]
    fn name_ref_round_trips_to_domain_without_copying() {
        let domain = DomainName::literal("www.shop.example");
        let handle = NameRef::from(&domain);
        assert_eq!(handle.len(), domain.len());
        assert!(!handle.is_empty());
        let back: DomainName = handle.clone().into();
        assert_eq!(back, domain);
        assert_eq!(handle.to_domain(), domain);
        assert_eq!(handle.to_string(), "www.shop.example");
    }

    #[test]
    fn content_equality_spans_pools() {
        let a = NameRef::new("svc.example");
        let b = NameRef::new("svc.example");
        assert_eq!(a, b);
        assert!(!NameRef::ptr_eq(&a, &b));
        use std::collections::HashMap;
        let mut m: HashMap<NameRef, u32> = HashMap::new();
        m.insert(a, 7);
        assert_eq!(m.get("svc.example"), Some(&7));
        assert_eq!(m.get(&b), Some(&7));
    }

    #[test]
    fn purge_drops_only_unreferenced_names() {
        let pool = NameInterner::with_shards(2);
        let kept = pool.intern("kept.example");
        let _ = pool.intern("dropped.example");
        assert_eq!(pool.len(), 2);
        let removed = pool.purge_unreferenced();
        assert_eq!(removed, 1);
        assert_eq!(pool.len(), 1);
        assert!(NameRef::ptr_eq(&kept, &pool.intern("kept.example")));
    }

    #[test]
    fn import_ids_adopts_new_allocations_and_reuses_pooled_ones() {
        let pool = NameInterner::with_shards(4);
        let pooled = pool.intern_id("old.example");
        let table: Vec<Arc<str>> = vec!["new.example".into(), "old.example".into()];
        let ids = pool.import_ids(&table);
        // A new name is pooled as the table's own allocation…
        assert!(Arc::ptr_eq(&Arc::from(ids[0].clone()), &table[0]));
        // …and a pooled one resolves to the pool's.
        assert_eq!(ids[1], pooled);
        assert!(!Arc::ptr_eq(&Arc::from(ids[1].clone()), &table[1]));
        assert_eq!(ids[0], pool.intern_id("new.example"));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn high_water_sweep_keeps_the_pool_bounded() {
        let pool = NameInterner::with_shards(1);
        for i in 0..3 * PURGE_HIGH_WATER {
            // Handles are dropped immediately, so sweeps reclaim them.
            let _ = pool.intern(&format!("host{i}.example"));
        }
        assert!(pool.len() < PURGE_HIGH_WATER + 2);
    }
}
