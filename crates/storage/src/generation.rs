//! The rotating Active/Inactive/Long store (Algorithm 1's storage side).
//!
//! FlowDNS cannot expire DNS records by their exact TTL (too expensive —
//! see Appendix A.8 and [`crate::exact_ttl`]) and cannot keep them forever
//! (memory). Instead it rotates:
//!
//! * new records with TTL below the clear-up interval go to the **Active**
//!   generation;
//! * every `clear_up_interval` seconds of *data time* Active becomes
//!   **Inactive** (replacing the previous Inactive) and a new, empty
//!   Active starts;
//! * records with TTL ≥ the interval go to the **Long** map, which is
//!   never cleared;
//! * look-ups cascade Active → Inactive → Long.
//!
//! [`RotationPolicy`] exposes the switches used by the paper's ablation
//! variants (No Clear-Up, No Rotation, No Long Hashmaps).
//!
//! [`GenerationTable`] keeps `key → (value, epoch)` in one *short* map:
//! an entry is Active iff its epoch is the table's current epoch, and
//! Inactive iff it is the previous one and rotation is on. A clear-up is
//! an epoch bump plus one `retain` over the short map that drops whatever
//! just fell out of view; the Long map is never swept. A lookup is at
//! most two probes — short map, then Long — each with one keyed hash.
//!
//! The table has no clock of its own: a [`RotationClock`] says when a
//! clear-up is due and its owner calls [`GenerationTable::rotate`], so
//! several tables can rotate on one clock (a correlator partition keeps
//! IPv4 and IPv6 keys in two tables under one clock). [`GenerationStore`]
//! pairs one clock with one table. Its oracle is the plain-`HashMap`
//! model of Algorithm 1 in `tests/proptest_storage.rs`: three maps, one
//! clock and the counters, checked against the store on every lookup,
//! counter and snapshot round trip.
//!
//! Entry and payload counts are kept up to date on every insert,
//! overwrite, rotation and import, so sizing a table is O(1). A count is
//! a distinct *visible* entry: a key re-inserted into Active replaces its
//! Inactive copy rather than shadowing it, because the shadowed copy can
//! never be read again — Active answers first until the next rotation,
//! which replaces Inactive with Active anyway.
//!
//! A table hands back everything it lets go of: `insert`, `memoize` and
//! `restore` return the key and value they did not keep (the displaced
//! value of an overwrite, or the offered entry when it loses), and
//! `rotate` passes every entry it drops to a sink. An owner whose keys or
//! values are counted references — pooled name ids — releases exactly
//! those, so every reference a table holds is counted once.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use flowdns_types::{SimDuration, SimTime};

use crate::keys::{StoreKey, StoreValue};
use crate::memory::MemoryEstimate;

/// A plain-data picture of one rotating store: the three generation maps
/// as entry lists plus the rotation clock. This is the storage half of
/// the snapshot/warm-restart path — `flowdns-snapshot` defines the byte
/// format, this type carries live keys and values between a store and
/// the codec.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationsImage<K, V> {
    /// When the store last cleared up, in data time (`None`: never; the
    /// clock arms at the first inserted record).
    pub last_clear_ts: Option<SimTime>,
    /// The latest data timestamp the store observed (`None`: no record
    /// or `observe_time` call yet, or a store that never clears up —
    /// those skip the clock entirely, and their import skips aging).
    pub last_seen_ts: Option<SimTime>,
    /// Entries of the Active generation.
    pub active: Vec<(K, V)>,
    /// Entries of the Inactive generation.
    pub inactive: Vec<(K, V)>,
    /// Entries of the Long generation.
    pub long: Vec<(K, V)>,
}

impl<K, V> GenerationsImage<K, V> {
    /// An image with the given clock and no entries.
    pub fn empty(last_clear_ts: Option<SimTime>, last_seen_ts: Option<SimTime>) -> Self {
        GenerationsImage {
            last_clear_ts,
            last_seen_ts,
            active: Vec::new(),
            inactive: Vec::new(),
            long: Vec::new(),
        }
    }

    /// Total entries across the three generations.
    pub fn entry_count(&self) -> usize {
        self.active.len() + self.inactive.len() + self.long.len()
    }

    /// The entry list of one generation.
    pub fn generation_mut(&mut self, generation: Generation) -> &mut Vec<(K, V)> {
        match generation {
            Generation::Active => &mut self.active,
            Generation::Inactive => &mut self.inactive,
            Generation::Long => &mut self.long,
        }
    }
}

impl<K, V> Default for GenerationsImage<K, V> {
    fn default() -> Self {
        GenerationsImage::empty(None, None)
    }
}

/// Which generation a lookup hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// The actively written map.
    Active,
    /// The previous generation kept by buffer rotation.
    Inactive,
    /// The long-TTL map.
    Long,
}

/// Policy switches of a rotating store, corresponding to the paper's
/// benchmark variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationPolicy {
    /// The clear-up interval in seconds of data time (`AClearUpInterval` /
    /// `CClearUpInterval`). Ignored when `clear_up` is false.
    pub clear_up_interval: SimDuration,
    /// Perform clear-up at all (`false` ⇒ the *No Clear-Up* variant: maps
    /// grow forever).
    pub clear_up: bool,
    /// Keep an Inactive copy when clearing (`false` ⇒ the *No Rotation*
    /// variant: clear-up simply discards the Active contents).
    pub rotation: bool,
    /// Divert records with TTL ≥ the interval into the Long map
    /// (`false` ⇒ the *No Long Hashmaps* variant: they land in Active and
    /// are cleared like everything else).
    pub long_maps: bool,
}

impl RotationPolicy {
    /// The paper's A/AAAA policy: 3600-second clear-up with rotation and
    /// long maps.
    pub fn address_default() -> Self {
        RotationPolicy {
            clear_up_interval: SimDuration::from_secs(3600),
            clear_up: true,
            rotation: true,
            long_maps: true,
        }
    }

    /// The paper's CNAME policy: 7200-second clear-up with rotation and
    /// long maps.
    pub fn cname_default() -> Self {
        RotationPolicy {
            clear_up_interval: SimDuration::from_secs(7200),
            clear_up: true,
            rotation: true,
            long_maps: true,
        }
    }
}

/// The clear-up clock of Algorithm 1, driven by data time.
///
/// The clock arms at the first timestamp it observes and reports a
/// clear-up whenever a later timestamp is one `clear_up_interval` past
/// the previous clear-up. A policy without clear-up never arms.
#[derive(Debug, Clone)]
pub struct RotationClock {
    policy: RotationPolicy,
    last_clear_ts: Option<SimTime>,
    last_seen_ts: Option<SimTime>,
    clear_ups: u64,
}

/// How an imported section's generations land, by the age of its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionAge {
    /// Less than one interval since the section's last clear-up: every
    /// generation loads as it was.
    Current,
    /// One rotation was missed: Active loads as Inactive, Inactive is
    /// dropped.
    OneBehind,
    /// Older: only Long survives.
    Stale,
}

impl SectionAge {
    /// Where an entry exported in `generation` lands under `policy`, or
    /// `None` if it aged out. Without Long maps, Long entries age with
    /// Active.
    pub fn place(self, generation: Generation, policy: RotationPolicy) -> Option<Generation> {
        let generation = match generation {
            Generation::Long if !policy.long_maps => Generation::Active,
            other => other,
        };
        match (self, generation) {
            (_, Generation::Long) => Some(Generation::Long),
            (SectionAge::Current, Generation::Active) => Some(Generation::Active),
            (SectionAge::Current, Generation::Inactive) => {
                policy.rotation.then_some(Generation::Inactive)
            }
            (SectionAge::OneBehind, Generation::Active) => Some(Generation::Inactive),
            _ => None,
        }
    }
}

impl RotationClock {
    /// An unarmed clock for `policy`.
    pub fn new(policy: RotationPolicy) -> Self {
        RotationClock {
            policy,
            last_clear_ts: None,
            last_seen_ts: None,
            clear_ups: 0,
        }
    }

    /// Observe data time `ts`. Returns `true` when a clear-up is due now
    /// (and counts it); the caller rotates its tables.
    pub fn tick(&mut self, ts: SimTime) -> bool {
        if !self.policy.clear_up {
            return false;
        }
        if self.last_seen_ts.map_or(true, |last| ts > last) {
            self.last_seen_ts = Some(ts);
        }
        match self.last_clear_ts {
            None => {
                self.last_clear_ts = Some(ts);
                false
            }
            Some(last) if ts.saturating_since(last) >= self.policy.clear_up_interval => {
                self.last_clear_ts = Some(ts);
                self.clear_ups += 1;
                true
            }
            Some(_) => false,
        }
    }

    /// When the clock last cleared up (`None`: never armed).
    pub fn last_clear_ts(&self) -> Option<SimTime> {
        self.last_clear_ts
    }

    /// The latest data time observed (`None`: nothing yet).
    pub fn last_seen_ts(&self) -> Option<SimTime> {
        self.last_seen_ts
    }

    /// Clear-ups reported so far.
    pub fn clear_ups(&self) -> u64 {
        self.clear_ups
    }

    /// Age an imported section exported with the given clock readings
    /// against `now`, and move this clock to the latest of its own state and what the
    /// section implies: the section's last clear-up when it is current,
    /// `now` otherwise. Sections aged one after the other therefore
    /// leave the clock at the latest of them, whatever their order.
    pub fn age_import(
        &mut self,
        last_clear_ts: Option<SimTime>,
        last_seen_ts: Option<SimTime>,
        now: SimTime,
    ) -> SectionAge {
        let anchor = last_clear_ts.or(last_seen_ts);
        let elapsed = match (self.policy.clear_up, anchor) {
            (false, _) | (_, None) => SimDuration::ZERO,
            (true, Some(anchor)) => now.saturating_since(anchor),
        };
        let interval = self.policy.clear_up_interval;
        if self.last_seen_ts.map_or(true, |cur| cur < now) {
            self.last_seen_ts = Some(now);
        }
        let (age, resume) = if elapsed < interval {
            (SectionAge::Current, anchor)
        } else if self.policy.rotation && elapsed < interval + interval {
            (SectionAge::OneBehind, Some(now))
        } else {
            (SectionAge::Stale, Some(now))
        };
        if resume > self.last_clear_ts {
            self.last_clear_ts = resume;
        }
        age
    }
}

/// Insert and rotation counters of one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Inserts routed to the short map as Active.
    pub active_inserts: u64,
    /// Inserts routed to the Long map.
    pub long_inserts: u64,
    /// Entries that turned Inactive across all rotations.
    pub rotated_entries: u64,
}

#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    epoch: u32,
}

/// The generation an entry tagged `tag` belongs to when the table is at
/// `epoch`, if it is visible at all.
fn generation_of(tag: u32, epoch: u32, rotation: bool) -> Option<Generation> {
    if tag == epoch {
        Some(Generation::Active)
    } else if rotation && tag == epoch.wrapping_sub(1) {
        Some(Generation::Inactive)
    } else {
        None
    }
}

/// A single-owner Active/Inactive/Long table (see the module docs).
#[derive(Debug)]
pub struct GenerationTable<K, V> {
    policy: RotationPolicy,
    epoch: u32,
    short: HashMap<K, Slot<V>>,
    long: HashMap<K, V>,
    /// Short-map entries tagged with the current epoch.
    active: usize,
    short_payload: usize,
    long_payload: usize,
    stats: TableStats,
}

impl<K: StoreKey, V: StoreValue> GenerationTable<K, V> {
    /// An empty table with the given policy.
    pub fn new(policy: RotationPolicy) -> Self {
        GenerationTable {
            policy,
            epoch: 0,
            short: HashMap::new(),
            long: HashMap::new(),
            active: 0,
            short_payload: 0,
            long_payload: 0,
            stats: TableStats::default(),
        }
    }

    /// The table's policy.
    pub fn policy(&self) -> RotationPolicy {
        self.policy
    }

    /// Make room for `short` more short-map and `long` more Long entries.
    pub fn reserve(&mut self, short: usize, long: usize) {
        self.short.reserve(short);
        self.long.reserve(long);
    }

    /// Store a record: Long if its TTL reaches the clear-up interval (and
    /// the policy keeps Long maps), Active otherwise. Returns the key and
    /// the displaced value when the key was already stored there.
    pub fn insert(&mut self, key: K, value: V, ttl: u32) -> Option<(K, V)> {
        let goes_long = self.policy.long_maps
            && SimDuration::from_secs(ttl as u64) >= self.policy.clear_up_interval;
        if goes_long {
            self.stats.long_inserts += 1;
            self.put_long(key, value)
        } else {
            self.stats.active_inserts += 1;
            self.put_short(key, value, self.epoch)
        }
    }

    /// Store a derived mapping as Active without counting an insert
    /// (CNAME memoization). Returns what it displaced, like `insert`.
    pub fn memoize(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.put_short(key, value, self.epoch)
    }

    /// Put an entry back in the generation it was exported from (after
    /// aging, see [`SectionAge::place`]). An Inactive copy never replaces
    /// an Active entry of the same key, so the order of restores does not
    /// matter. Returns the key and value the table did not keep: the
    /// displaced value of an overwrite, or the offered entry itself when
    /// it loses or its generation is not kept.
    pub fn restore(&mut self, key: K, value: V, generation: Generation) -> Option<(K, V)> {
        match generation {
            Generation::Long if self.policy.long_maps => self.put_long(key, value),
            Generation::Inactive if self.policy.rotation => {
                self.put_short(key, value, self.epoch.wrapping_sub(1))
            }
            Generation::Inactive => Some((key, value)),
            Generation::Active | Generation::Long => self.put_short(key, value, self.epoch),
        }
    }

    fn put_short(&mut self, key: K, value: V, tag: u32) -> Option<(K, V)> {
        let value_bytes = value.estimate_bytes();
        let displaced = match self.short.entry(key) {
            Entry::Occupied(mut entry) => {
                let key = entry.key().clone();
                let slot = entry.get_mut();
                if slot.epoch == self.epoch {
                    if tag != self.epoch {
                        // A restored Inactive copy loses to the live Active entry.
                        return Some((key, value));
                    }
                    self.active -= 1;
                }
                self.short_payload = self.short_payload - slot.value.estimate_bytes() + value_bytes;
                let old = std::mem::replace(slot, Slot { value, epoch: tag });
                Some((key, old.value))
            }
            Entry::Vacant(entry) => {
                self.short_payload += entry.key().estimate_bytes() + value_bytes;
                entry.insert(Slot { value, epoch: tag });
                None
            }
        };
        if tag == self.epoch {
            self.active += 1;
        }
        displaced
    }

    fn put_long(&mut self, key: K, value: V) -> Option<(K, V)> {
        let value_bytes = value.estimate_bytes();
        match self.long.entry(key) {
            Entry::Occupied(mut entry) => {
                self.long_payload = self.long_payload - entry.get().estimate_bytes() + value_bytes;
                let key = entry.key().clone();
                Some((key, entry.insert(value)))
            }
            Entry::Vacant(entry) => {
                self.long_payload += entry.key().estimate_bytes() + value_bytes;
                entry.insert(value);
                None
            }
        }
    }

    /// The `deepLookUp` of Algorithm 2: the short map (Active or
    /// Inactive), then Long.
    pub fn get<Q>(&self, key: &Q) -> Option<(&V, Generation)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(slot) = self.short.get(key) {
            if let Some(generation) = generation_of(slot.epoch, self.epoch, self.policy.rotation) {
                return Some((&slot.value, generation));
            }
        }
        self.long.get(key).map(|value| (value, Generation::Long))
    }

    /// One clear-up: Active becomes Inactive (or is dropped without
    /// rotation) and the previous Inactive is dropped, each dropped entry
    /// passing through `dropped`.
    pub fn rotate(&mut self, mut dropped: impl FnMut(K, V)) {
        if self.policy.rotation {
            self.stats.rotated_entries += self.active as u64;
        }
        let leaving = if self.policy.rotation {
            self.short.len() - self.active
        } else {
            self.short.len()
        };
        self.epoch = self.epoch.wrapping_add(1);
        self.active = 0;
        if leaving == 0 {
            // The bump alone turned Active into Inactive; nothing to drop.
            return;
        }
        let (epoch, rotation) = (self.epoch, self.policy.rotation);
        let mut dropped_bytes = 0;
        self.short.retain(|key, slot| {
            let keep = generation_of(slot.epoch, epoch, rotation).is_some();
            if !keep {
                dropped_bytes += key.estimate_bytes() + slot.value.estimate_bytes();
                dropped(key.clone(), slot.value.clone());
            }
            keep
        });
        self.short_payload -= dropped_bytes;
    }

    /// Visible entries per generation: (active, inactive, long).
    pub fn entry_counts(&self) -> (usize, usize, usize) {
        (self.active, self.short.len() - self.active, self.long.len())
    }

    /// Visible entries.
    pub fn len(&self) -> usize {
        self.short.len() + self.long.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries and payload bytes, from the maintained counters.
    pub fn memory(&self) -> MemoryEstimate {
        MemoryEstimate {
            entries: self.len(),
            payload_bytes: self.short_payload + self.long_payload,
        }
    }

    /// Insert and rotation counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Every visible entry with its generation.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, Generation)> + '_ {
        let (epoch, rotation) = (self.epoch, self.policy.rotation);
        self.short
            .iter()
            .filter_map(move |(key, slot)| {
                generation_of(slot.epoch, epoch, rotation).map(|g| (key, &slot.value, g))
            })
            .chain(
                self.long
                    .iter()
                    .map(|(key, value)| (key, value, Generation::Long)),
            )
    }

    /// Entries and payload bytes by walking every entry: the oracle the
    /// maintained counters are checked against.
    #[cfg(test)]
    fn walked_memory(&self) -> MemoryEstimate {
        let mut est = MemoryEstimate::new();
        for (key, value, _) in self.iter() {
            est.add_entry(key.estimate_bytes(), value.estimate_bytes());
        }
        est
    }
}

/// One [`RotationClock`] driving one [`GenerationTable`]: the clock,
/// TTL routing, lookup cascade, snapshot image and import aging of one
/// rotating store. Every mutator passes what the store lets go of —
/// entries a clear-up drops, and whatever the table does not keep (see
/// the module docs) — to its `dropped` sink.
#[derive(Debug)]
pub struct GenerationStore<K, V> {
    clock: RotationClock,
    table: GenerationTable<K, V>,
}

impl<K: StoreKey, V: StoreValue> GenerationStore<K, V> {
    /// An empty store with the given policy.
    pub fn new(policy: RotationPolicy) -> Self {
        GenerationStore {
            clock: RotationClock::new(policy),
            table: GenerationTable::new(policy),
        }
    }

    /// Insert a record observed at `ts`: clear-up check first
    /// (Algorithm 1), then Active or Long by TTL.
    pub fn insert(
        &mut self,
        key: K,
        value: V,
        ttl: u32,
        ts: SimTime,
        mut dropped: impl FnMut(K, V),
    ) {
        self.observe_time(ts, &mut dropped);
        if let Some((key, value)) = self.table.insert(key, value, ttl) {
            dropped(key, value);
        }
    }

    /// Advance the clear-up clock without inserting.
    pub fn observe_time(&mut self, ts: SimTime, dropped: impl FnMut(K, V)) {
        if self.clock.tick(ts) {
            self.table.rotate(dropped);
        }
    }

    /// Active → Inactive → Long lookup.
    pub fn lookup<Q>(&self, key: &Q) -> Option<(&V, Generation)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.table.get(key)
    }

    /// Store a derived mapping as Active, bypassing the clock.
    pub fn memoize(&mut self, key: K, value: V, mut dropped: impl FnMut(K, V)) {
        if let Some((key, value)) = self.table.memoize(key, value) {
            dropped(key, value);
        }
    }

    /// The store's clock.
    pub fn clock(&self) -> &RotationClock {
        &self.clock
    }

    /// The store's table.
    pub fn table(&self) -> &GenerationTable<K, V> {
        &self.table
    }

    /// The clock and every visible entry as a plain-data image.
    pub fn export_image(&self) -> GenerationsImage<K, V> {
        let mut image =
            GenerationsImage::empty(self.clock.last_clear_ts(), self.clock.last_seen_ts());
        for (key, value, generation) in self.table.iter() {
            image
                .generation_mut(generation)
                .push((key.clone(), value.clone()));
        }
        image
    }

    /// Load an image exported earlier, aged to `now` (see
    /// [`RotationClock::age_import`]). Entries land on top of the current
    /// contents.
    pub fn import_image(
        &mut self,
        image: GenerationsImage<K, V>,
        now: SimTime,
        dropped: impl FnMut(K, V),
    ) {
        self.import_entries(
            image.last_clear_ts,
            image.last_seen_ts,
            now,
            [&image.active, &image.inactive, &image.long],
            |(key, value)| Some((key.clone(), value.clone())),
            dropped,
        );
    }

    /// Load one store's exported generations straight from their encoded
    /// form: `generations` lists the Active, Inactive and Long entries,
    /// aged to `now` by the exported clock readings (see
    /// [`RotationClock::age_import`]), and `decode` turns each surviving
    /// entry into a key and value (`None` skips it). Entries of a
    /// generation that aged out are neither decoded nor passed to
    /// `dropped`. The table is reserved once for every entry that
    /// survives aging, so the import never regrows it. Entries land on
    /// top of the current contents.
    pub fn import_entries<T>(
        &mut self,
        last_clear_ts: Option<SimTime>,
        last_seen_ts: Option<SimTime>,
        now: SimTime,
        generations: [&[T]; 3],
        mut decode: impl FnMut(&T) -> Option<(K, V)>,
        mut dropped: impl FnMut(K, V),
    ) {
        let age = self.clock.age_import(last_clear_ts, last_seen_ts, now);
        let policy = self.table.policy();
        let placed = [Generation::Active, Generation::Inactive, Generation::Long]
            .map(|exported| age.place(exported, policy));
        let (mut short, mut long) = (0, 0);
        for (generation, entries) in placed.iter().zip(generations) {
            match generation {
                Some(Generation::Long) => long += entries.len(),
                Some(_) => short += entries.len(),
                None => {}
            }
        }
        self.table.reserve(short, long);
        for (generation, entries) in placed.into_iter().zip(generations) {
            let Some(generation) = generation else {
                continue;
            };
            for (key, value) in entries.iter().filter_map(&mut decode) {
                if let Some((key, value)) = self.table.restore(key, value, generation) {
                    dropped(key, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn policy(secs: u64) -> RotationPolicy {
        RotationPolicy {
            clear_up_interval: SimDuration::from_secs(secs),
            clear_up: true,
            rotation: true,
            long_maps: true,
        }
    }

    #[test]
    fn one_probe_cascade_and_distinct_counts() {
        let mut store: GenerationStore<u32, String> = GenerationStore::new(policy(100));
        store.insert(1, "old".into(), 30, SimTime::from_secs(0), |_, _| {});
        store.insert(2, "long".into(), 500, SimTime::from_secs(0), |_, _| {});
        store.observe_time(SimTime::from_secs(100), |_, _| {});
        assert_eq!(
            store.lookup(&1),
            Some((&"old".into(), Generation::Inactive))
        );
        // Re-inserting an Inactive key makes it Active and replaces the
        // copy: one entry, not two.
        store.insert(1, "new".into(), 30, SimTime::from_secs(150), |_, _| {});
        assert_eq!(store.lookup(&1), Some((&"new".into(), Generation::Active)));
        assert_eq!(store.table().entry_counts(), (1, 0, 1));
        assert_eq!(store.lookup(&2), Some((&"long".into(), Generation::Long)));
        // Two rotations later only Long is left.
        store.observe_time(SimTime::from_secs(200), |_, _| {});
        store.observe_time(SimTime::from_secs(300), |_, _| {});
        assert_eq!(store.lookup(&1), None);
        assert_eq!(store.table().len(), 1);
        assert_eq!(store.clock().clear_ups(), 3);
        assert_eq!(store.table().stats().rotated_entries, 2);
    }

    #[test]
    fn short_map_shadows_long() {
        let mut store: GenerationStore<u32, String> = GenerationStore::new(policy(100));
        store.insert(7, "long".into(), 500, SimTime::from_secs(0), |_, _| {});
        store.insert(7, "short".into(), 30, SimTime::from_secs(1), |_, _| {});
        assert_eq!(store.lookup(&7).unwrap().1, Generation::Active);
        store.observe_time(SimTime::from_secs(100), |_, _| {});
        store.observe_time(SimTime::from_secs(200), |_, _| {});
        assert_eq!(store.lookup(&7), Some((&"long".into(), Generation::Long)));
    }

    #[test]
    fn inactive_restore_never_replaces_active() {
        let mut table: GenerationTable<u32, String> = GenerationTable::new(policy(100));
        assert_eq!(table.restore(1, "active".into(), Generation::Active), None);
        // The losing copy is handed back…
        assert_eq!(
            table.restore(1, "inactive".into(), Generation::Inactive),
            Some((1, "inactive".into()))
        );
        assert_eq!(table.get(&1), Some((&"active".into(), Generation::Active)));
        table.restore(2, "inactive".into(), Generation::Inactive);
        // …and so is the copy a winner displaces.
        assert_eq!(
            table.restore(2, "active".into(), Generation::Active),
            Some((2, "inactive".into()))
        );
        assert_eq!(table.get(&2), Some((&"active".into(), Generation::Active)));
        assert_eq!(table.entry_counts(), (2, 0, 0));
    }

    /// The bucket sizes the store's memory rests on: a `HashMap<K, V>`
    /// bucket is one `(K, V)`, so a pooled name costs 4 bytes in each.
    #[test]
    fn buckets_hold_names_as_four_byte_ids() {
        use flowdns_types::NameId;
        use std::mem::size_of;
        // IPv4 Long, and NAME-CNAME Long (name key, name value).
        assert_eq!(size_of::<(u32, NameId)>(), 8);
        assert_eq!(size_of::<(NameId, NameId)>(), 8);
        // IPv4 short: key, value and epoch tag.
        assert_eq!(size_of::<(u32, Slot<NameId>)>(), 12);
        assert_eq!(size_of::<(NameId, Slot<NameId>)>(), 12);
    }

    #[test]
    fn clock_ages_sections_and_keeps_the_latest() {
        let mut clock = RotationClock::new(policy(100));
        let now = SimTime::from_secs(1_000);
        let at = |s| Some(SimTime::from_secs(s));
        assert_eq!(clock.age_import(at(950), at(990), now), SectionAge::Current);
        assert_eq!(clock.last_clear_ts(), at(950));
        assert_eq!(clock.age_import(at(960), None, now), SectionAge::Current);
        assert_eq!(clock.last_clear_ts(), at(960));
        assert_eq!(clock.age_import(at(910), None, now), SectionAge::Current);
        assert_eq!(clock.last_clear_ts(), at(960));
        assert_eq!(clock.age_import(at(850), None, now), SectionAge::OneBehind);
        assert_eq!(clock.last_clear_ts(), Some(now));
        assert_eq!(clock.age_import(at(10), None, now), SectionAge::Stale);
        assert_eq!(clock.last_seen_ts(), Some(now));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u8, bool),
        Memoize(u8, u8),
        Rotate,
        Restore(u8, u8, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u8..32, any::<u8>(), any::<bool>()).prop_map(|(k, v, l)| Op::Insert(k, v, l)),
            1 => (0u8..32, any::<u8>()).prop_map(|(k, v)| Op::Memoize(k, v)),
            1 => Just(Op::Rotate),
            2 => (0u8..32, any::<u8>(), 0u8..3).prop_map(|(k, v, g)| Op::Restore(k, v, g)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The O(1) counters agree with a walk of the table after every
        /// step of any insert/memoize/rotate/restore schedule, under every
        /// policy combination, and every offered entry is either held or
        /// handed back exactly once.
        #[test]
        fn counters_match_a_walk(ops in proptest::collection::vec(op(), 0..120), variant in 0u8..4) {
            let mut p = policy(100);
            match variant {
                1 => p.clear_up = false,
                2 => p.rotation = false,
                3 => p.long_maps = false,
                _ => {}
            }
            let mut table: GenerationTable<u32, String> = GenerationTable::new(p);
            let (mut offered, mut handed_back) = (0usize, 0usize);
            for op in ops {
                let returned = match op {
                    // Values of varying length so overwrites move the payload.
                    Op::Insert(k, v, long) => {
                        offered += 1;
                        table.insert(k as u32, "v".repeat(v as usize % 7), if long { 500 } else { 30 })
                    }
                    Op::Memoize(k, v) => {
                        offered += 1;
                        table.memoize(k as u32, "m".repeat(v as usize % 5))
                    }
                    Op::Rotate => {
                        table.rotate(|_, _| handed_back += 1);
                        None
                    }
                    Op::Restore(k, v, g) => {
                        offered += 1;
                        let generation = [Generation::Active, Generation::Inactive, Generation::Long][g as usize];
                        table.restore(k as u32, "r".repeat(v as usize % 9), generation)
                    }
                };
                handed_back += usize::from(returned.is_some());
                prop_assert_eq!(offered, table.len() + handed_back);
                prop_assert_eq!(table.memory(), table.walked_memory());
                let (a, i, l) = table.entry_counts();
                let walked = |g| table.iter().filter(|(_, _, x)| *x == g).count();
                prop_assert_eq!(
                    (a, i, l),
                    (walked(Generation::Active), walked(Generation::Inactive), walked(Generation::Long))
                );
            }
        }
    }
}
