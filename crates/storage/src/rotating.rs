//! The rotating Active/Inactive/Long store (Algorithm 1's storage side).
//!
//! FlowDNS cannot expire DNS records by their exact TTL (too expensive —
//! see Appendix A.8 and [`crate::exact_ttl`]) and cannot keep them forever
//! (memory). Instead it rotates:
//!
//! * new records with TTL below the clear-up interval go to the **Active**
//!   map;
//! * every `clear_up_interval` seconds of *data time* the Active contents
//!   are copied to the **Inactive** map (replacing its previous contents)
//!   and the Active map is cleared;
//! * records with TTL ≥ the interval go to the **Long** map, which is
//!   never cleared;
//! * look-ups cascade Active → Inactive → Long.
//!
//! [`RotationPolicy`] exposes the switches used by the paper's ablation
//! variants (No Clear-Up, No Rotation, No Long Hashmaps).

use parking_lot::Mutex;

use flowdns_types::{SimDuration, SimTime};

use crate::keys::{StoreKey, StoreValue};
use crate::memory::MemoryEstimate;
use crate::sharded::ShardedMap;

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

/// Statistics of one rotating store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RotatingStoreStats {
    /// Inserts into the Active map.
    pub active_inserts: u64,
    /// Inserts into the Long map.
    pub long_inserts: u64,
    /// Number of clear-up rounds performed.
    pub clear_ups: u64,
    /// Entries copied into the Inactive map across all rotations.
    pub rotated_entries: u64,
    /// Lookup hits per generation: (active, inactive, long).
    pub hits: (u64, u64, u64),
    /// Lookup misses.
    pub misses: u64,
}

/// A typed rotating store.
///
/// Generic over its key and value: the IP-NAME store keys by compact
/// [`flowdns_types::IpKey`] with interned [`flowdns_types::NameRef`]
/// values, the NAME-CNAME store keys interned names by interned names —
/// in both cases matching the paper's "the key is the answer section,
/// and the value is the query". Plain `String` keys/values still satisfy
/// the bounds for tests and ad-hoc tooling.
#[derive(Debug)]
pub struct RotatingStore<K: StoreKey, V: StoreValue> {
    policy: RotationPolicy,
    active: ShardedMap<K, V>,
    inactive: ShardedMap<K, V>,
    long: ShardedMap<K, V>,
    state: Mutex<ClockState>,
    stats: Mutex<RotatingStoreStats>,
}

#[derive(Debug, Clone, Copy)]
struct ClockState {
    last_clear_ts: Option<SimTime>,
    /// Latest data timestamp observed — exported with snapshots so a
    /// warm restart knows how old the image is in data time.
    last_seen_ts: Option<SimTime>,
}

impl<K: StoreKey, V: StoreValue> RotatingStore<K, V> {
    /// Create a store with the given policy and shard count per map.
    pub fn new(policy: RotationPolicy, shards: usize) -> Self {
        RotatingStore {
            policy,
            active: ShardedMap::new(shards),
            inactive: ShardedMap::new(shards),
            long: ShardedMap::new(shards),
            state: Mutex::new(ClockState {
                last_clear_ts: None,
                last_seen_ts: None,
            }),
            stats: Mutex::new(RotatingStoreStats::default()),
        }
    }

    /// The store's policy.
    pub fn policy(&self) -> RotationPolicy {
        self.policy
    }

    /// Insert a record observed at `ts` with the given TTL.
    ///
    /// This performs the clear-up check of Algorithm 1 first (driven by
    /// the record's own timestamp), then routes the record to the Active
    /// or Long map depending on its TTL.
    pub fn insert(&self, key: K, value: V, ttl: u32, ts: SimTime) {
        self.maybe_clear_up(ts);
        let goes_long = self.policy.long_maps
            && SimDuration::from_secs(ttl as u64) >= self.policy.clear_up_interval;
        if goes_long {
            self.long.insert(key, value);
            self.stats.lock().long_inserts += 1;
        } else {
            self.active.insert(key, value);
            self.stats.lock().active_inserts += 1;
        }
    }

    /// Advance the store's clear-up clock without inserting (used by
    /// workers that only see flow records for long stretches).
    pub fn observe_time(&self, ts: SimTime) {
        self.maybe_clear_up(ts);
    }

    fn maybe_clear_up(&self, ts: SimTime) {
        if !self.policy.clear_up {
            // Keep the pre-snapshot fast path: a store that never clears
            // up (the NoClearUp variant) takes no clock lock per record.
            // Its snapshot aging is skipped on import anyway, so not
            // tracking last_seen_ts costs nothing.
            return;
        }
        let mut state = self.state.lock();
        if state.last_seen_ts.map_or(true, |last| ts > last) {
            state.last_seen_ts = Some(ts);
        }
        match state.last_clear_ts {
            None => {
                state.last_clear_ts = Some(ts);
            }
            Some(last) => {
                if ts.saturating_since(last) >= self.policy.clear_up_interval {
                    // Perform the rotation while holding the clock lock so
                    // concurrent inserts cannot trigger a second clear-up
                    // for the same window.
                    if self.policy.rotation {
                        self.inactive.clear();
                        self.active.copy_into(&self.inactive);
                        let mut stats = self.stats.lock();
                        stats.rotated_entries += self.active.len() as u64;
                        stats.clear_ups += 1;
                    } else {
                        self.stats.lock().clear_ups += 1;
                    }
                    self.active.clear();
                    state.last_clear_ts = Some(ts);
                }
            }
        }
    }

    /// The `deepLookUp` of Algorithm 2: Active, then Inactive, then Long.
    ///
    /// Accepts any borrowed form of the key (`&str` for `String` keys,
    /// `&IpKey` for typed keys) so callers never materialize an owned key
    /// just to look it up.
    pub fn lookup<Q>(&self, key: &Q) -> Option<(V, Generation)>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        if let Some(v) = self.active.get(key) {
            self.stats.lock().hits.0 += 1;
            return Some((v, Generation::Active));
        }
        if self.policy.rotation {
            if let Some(v) = self.inactive.get(key) {
                self.stats.lock().hits.1 += 1;
                return Some((v, Generation::Inactive));
            }
        }
        if self.policy.long_maps {
            if let Some(v) = self.long.get(key) {
                self.stats.lock().hits.2 += 1;
                return Some((v, Generation::Long));
            }
        }
        self.stats.lock().misses += 1;
        None
    }

    /// Insert directly into the Active map without the clear-up check.
    /// Used by the LookUp workers to memoize multi-hop CNAME resolutions
    /// ("we add it to NAME-CNAMEactive for later use").
    pub fn memoize(&self, key: K, value: V) {
        self.active.insert(key, value);
    }

    /// Entry counts per generation: (active, inactive, long).
    pub fn entry_counts(&self) -> (usize, usize, usize) {
        (self.active.len(), self.inactive.len(), self.long.len())
    }

    /// Total entries across generations.
    pub fn total_entries(&self) -> usize {
        let (a, i, l) = self.entry_counts();
        a + i + l
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RotatingStoreStats {
        *self.stats.lock()
    }

    /// Export the store's generations and clock as a plain-data image.
    ///
    /// The export walks each map shard under its *read* lock — concurrent
    /// inserts are never blocked globally, so this is safe to call from a
    /// background snapshot thread against a live store. The image is a
    /// point-in-time-ish view: entries inserted while the walk is in
    /// flight may or may not appear, which is exactly the guarantee a
    /// periodic snapshot needs (the next snapshot catches them).
    ///
    /// Generation *boundaries* are exact, though: if a clear-up rotates
    /// the maps mid-walk (which would duplicate the Active contents into
    /// both the active and inactive sections of the image, resurrecting
    /// them a generation fresher than the truth), the walk is retried.
    /// Clear-ups happen at most once per `clear_up_interval` of data
    /// time, so a retry is vanishingly rare; after a few collisions the
    /// export falls back to holding the clock lock, which keeps clear-up
    /// (and inserts) out for one final walk.
    pub fn export_image(&self) -> GenerationsImage<K, V> {
        let collect = |map: &ShardedMap<K, V>| {
            map.fold(Vec::with_capacity(map.len()), |mut acc, k, v| {
                acc.push((k.clone(), v.clone()));
                acc
            })
        };
        for _ in 0..3 {
            // Read the clear-up counter *under the clock lock*: rotations
            // run entirely inside that lock, so an unchanged counter at
            // both fence points proves no rotation overlapped the walk.
            let (clock, clear_ups_before) = {
                let state = self.state.lock();
                (*state, self.stats.lock().clear_ups)
            };
            let image = GenerationsImage {
                last_clear_ts: clock.last_clear_ts,
                last_seen_ts: clock.last_seen_ts,
                active: collect(&self.active),
                inactive: collect(&self.inactive),
                long: collect(&self.long),
            };
            let clear_ups_after = {
                let _state = self.state.lock();
                self.stats.lock().clear_ups
            };
            if clear_ups_after == clear_ups_before {
                return image;
            }
        }
        // Pathological clock churn: take the clock lock so no clear-up
        // can run during this walk (inserts block on the same lock in
        // `maybe_clear_up`, so this is a bounded, last-resort stall).
        let state = self.state.lock();
        GenerationsImage {
            last_clear_ts: state.last_clear_ts,
            last_seen_ts: state.last_seen_ts,
            active: collect(&self.active),
            inactive: collect(&self.inactive),
            long: collect(&self.long),
        }
    }

    /// Import an image exported earlier, aging its generations to `now`
    /// (data time) so TTL/rotation semantics survive the round trip:
    ///
    /// * less than one `clear_up_interval` since the image's last
    ///   clear-up: all three generations load verbatim and the rotation
    ///   clock resumes where it left off;
    /// * between one and two intervals: the snapshotted Active generation
    ///   would have been rotated by now, so it loads as Inactive, the
    ///   snapshotted Inactive is discarded, and the clock restarts at
    ///   `now`;
    /// * two intervals or more: only the Long generation (which a live
    ///   store never clears) survives.
    ///
    /// Policy switches are honored: without `rotation` nothing is demoted
    /// (stale Active entries are simply dropped), without `long_maps` the
    /// image's Long entries join the Active generation, and without
    /// `clear_up` everything loads verbatim. Entries land *on top of* any
    /// current contents; importing into a freshly built store (the warm
    /// restart path) reproduces the exported state exactly when `now` is
    /// within the rotation window.
    pub fn import_image(&self, image: GenerationsImage<K, V>, now: SimTime) {
        let GenerationsImage {
            last_clear_ts,
            last_seen_ts,
            mut active,
            inactive,
            mut long,
        } = image;
        if !self.policy.long_maps {
            // No Long maps: those entries live (and die) with Active.
            active.append(&mut long);
        }
        let anchor = last_clear_ts.or(last_seen_ts);
        let elapsed = match (self.policy.clear_up, anchor) {
            (false, _) | (_, None) => SimDuration::ZERO,
            (true, Some(anchor)) => now.saturating_since(anchor),
        };
        let interval = self.policy.clear_up_interval;
        let mut state = self.state.lock();
        if state.last_seen_ts.map_or(true, |cur| cur < now) {
            state.last_seen_ts = Some(now);
        }
        if elapsed < interval {
            // Same window: restore verbatim and resume the clock.
            for (k, v) in active {
                self.active.insert(k, v);
            }
            if self.policy.rotation {
                for (k, v) in inactive {
                    self.inactive.insert(k, v);
                }
            }
            if state.last_clear_ts.is_none() {
                state.last_clear_ts = anchor;
            }
        } else if self.policy.rotation && elapsed < interval + interval {
            // One missed rotation: the old Active is now the Inactive
            // generation; the old Inactive aged out.
            for (k, v) in active {
                self.inactive.insert(k, v);
            }
            if state.last_clear_ts.map_or(true, |cur| cur < now) {
                state.last_clear_ts = Some(now);
            }
        } else {
            // Older than the rotation window: short-TTL state is stale.
            if state.last_clear_ts.map_or(true, |cur| cur < now) {
                state.last_clear_ts = Some(now);
            }
        }
        for (k, v) in long {
            self.long.insert(k, v);
        }
    }

    /// Estimate the memory held by the store.
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = MemoryEstimate::new();
        for map in [&self.active, &self.inactive, &self.long] {
            let partial = map.fold(MemoryEstimate::new(), |mut acc, k, v| {
                acc.add_entry(k.estimate_bytes(), v.estimate_bytes());
                acc
            });
            est.merge(partial);
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(secs: u64) -> RotationPolicy {
        RotationPolicy {
            clear_up_interval: SimDuration::from_secs(secs),
            clear_up: true,
            rotation: true,
            long_maps: true,
        }
    }

    #[test]
    fn short_ttl_goes_active_long_ttl_goes_long() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 8);
        store.insert(
            "1.2.3.4".into(),
            "a.example".into(),
            300,
            SimTime::from_secs(0),
        );
        store.insert(
            "5.6.7.8".into(),
            "b.example".into(),
            86_400,
            SimTime::from_secs(1),
        );
        let (a, i, l) = store.entry_counts();
        assert_eq!((a, i, l), (1, 0, 1));
        assert_eq!(
            store.lookup("1.2.3.4"),
            Some(("a.example".into(), Generation::Active))
        );
        assert_eq!(
            store.lookup("5.6.7.8"),
            Some(("b.example".into(), Generation::Long))
        );
        assert_eq!(store.lookup("9.9.9.9"), None);
        let s = store.stats();
        assert_eq!(s.active_inserts, 1);
        assert_eq!(s.long_inserts, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn clear_up_rotates_active_into_inactive() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 8);
        store.insert(
            "1.1.1.1".into(),
            "one.example".into(),
            60,
            SimTime::from_secs(0),
        );
        // One hour later a new record triggers the clear-up.
        store.insert(
            "2.2.2.2".into(),
            "two.example".into(),
            60,
            SimTime::from_secs(3600),
        );
        let (a, i, _) = store.entry_counts();
        assert_eq!((a, i), (1, 1));
        // The old record is now only reachable via the Inactive map.
        assert_eq!(
            store.lookup("1.1.1.1"),
            Some(("one.example".into(), Generation::Inactive))
        );
        assert_eq!(
            store.lookup("2.2.2.2"),
            Some(("two.example".into(), Generation::Active))
        );
        assert_eq!(store.stats().clear_ups, 1);
    }

    #[test]
    fn second_clear_up_overwrites_inactive() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(100), 4);
        store.insert("gen0".into(), "v0".into(), 1, SimTime::from_secs(0));
        store.insert("gen1".into(), "v1".into(), 1, SimTime::from_secs(100));
        store.insert("gen2".into(), "v2".into(), 1, SimTime::from_secs(200));
        // gen0 lived in Inactive after the first clear-up, but the second
        // clear-up replaced Inactive with {gen1}; gen0 is gone.
        assert_eq!(store.lookup("gen0"), None);
        assert_eq!(
            store.lookup("gen1"),
            Some(("v1".into(), Generation::Inactive))
        );
        assert_eq!(
            store.lookup("gen2"),
            Some(("v2".into(), Generation::Active))
        );
        assert_eq!(store.stats().clear_ups, 2);
    }

    #[test]
    fn no_clear_up_variant_keeps_everything() {
        let mut p = policy(100);
        p.clear_up = false;
        let store: RotatingStore<String, String> = RotatingStore::new(p, 4);
        for i in 0..10u64 {
            store.insert(
                format!("k{i}"),
                format!("v{i}"),
                1,
                SimTime::from_secs(i * 1000),
            );
        }
        assert_eq!(store.entry_counts().0, 10);
        assert_eq!(store.stats().clear_ups, 0);
        assert!(store.lookup("k0").is_some());
    }

    #[test]
    fn no_rotation_variant_discards_on_clear_up() {
        let mut p = policy(100);
        p.rotation = false;
        let store: RotatingStore<String, String> = RotatingStore::new(p, 4);
        store.insert("old".into(), "v".into(), 1, SimTime::from_secs(0));
        store.insert("new".into(), "v".into(), 1, SimTime::from_secs(150));
        assert_eq!(store.lookup("old"), None);
        assert!(store.lookup("new").is_some());
        assert_eq!(store.entry_counts().1, 0);
    }

    #[test]
    fn no_long_variant_routes_long_ttls_to_active() {
        let mut p = policy(3600);
        p.long_maps = false;
        let store: RotatingStore<String, String> = RotatingStore::new(p, 4);
        store.insert(
            "ip".into(),
            "stable.example".into(),
            86_400,
            SimTime::from_secs(0),
        );
        assert_eq!(store.entry_counts(), (1, 0, 0));
        // After a clear-up + another, the long-TTL record is lost — the
        // behaviour that costs the NoLong variant 0.6% correlation rate.
        store.insert("x1".into(), "v".into(), 1, SimTime::from_secs(3600));
        store.insert("x2".into(), "v".into(), 1, SimTime::from_secs(7200));
        assert_eq!(store.lookup("ip"), None);
    }

    #[test]
    fn observe_time_alone_triggers_clear_up() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(100), 4);
        store.insert("k".into(), "v".into(), 1, SimTime::from_secs(0));
        store.observe_time(SimTime::from_secs(500));
        assert_eq!(store.lookup("k"), Some(("v".into(), Generation::Inactive)));
    }

    #[test]
    fn memoize_bypasses_clear_up_clock() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(100), 4);
        store.memoize("alias".into(), "canonical.example".into());
        assert_eq!(
            store.lookup("alias"),
            Some(("canonical.example".into(), Generation::Active))
        );
        // memoize must not have started the clear-up clock
        assert_eq!(store.stats().clear_ups, 0);
    }

    #[test]
    fn same_key_overwrites_value() {
        // The accuracy caveat of Section 4: a second domain observed for
        // the same IP overwrites the first.
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        store.insert(
            "9.9.9.9".into(),
            "first.example".into(),
            60,
            SimTime::from_secs(0),
        );
        store.insert(
            "9.9.9.9".into(),
            "second.example".into(),
            60,
            SimTime::from_secs(1),
        );
        assert_eq!(
            store.lookup("9.9.9.9").unwrap().0,
            "second.example".to_string()
        );
        assert_eq!(store.total_entries(), 1);
    }

    #[test]
    fn export_import_round_trips_within_the_window() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        store.insert("a".into(), "v-a".into(), 60, SimTime::from_secs(0));
        store.insert("b".into(), "v-b".into(), 86_400, SimTime::from_secs(10));
        store.insert("c".into(), "v-c".into(), 60, SimTime::from_secs(3600)); // rotates a
        let image = store.export_image();
        assert_eq!(image.entry_count(), 3);
        assert_eq!(image.last_clear_ts, Some(SimTime::from_secs(3600)));
        assert_eq!(image.last_seen_ts, Some(SimTime::from_secs(3600)));

        // Restart within the same window: every generation survives.
        let restored: RotatingStore<String, String> = RotatingStore::new(policy(3600), 8);
        restored.import_image(image.clone(), SimTime::from_secs(3700));
        assert_eq!(
            restored.lookup("a"),
            Some(("v-a".into(), Generation::Inactive))
        );
        assert_eq!(restored.lookup("b"), Some(("v-b".into(), Generation::Long)));
        assert_eq!(
            restored.lookup("c"),
            Some(("v-c".into(), Generation::Active))
        );
        // The rotation clock resumed: the next clear-up comes one interval
        // after the snapshot's last clear-up, not after the import.
        restored.observe_time(SimTime::from_secs(7200));
        assert_eq!(restored.lookup("c").unwrap().1, Generation::Inactive);
        assert_eq!(restored.lookup("a"), None);
    }

    #[test]
    fn import_ages_one_missed_rotation() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        store.insert("act".into(), "v".into(), 60, SimTime::from_secs(0));
        store.insert("inact".into(), "v".into(), 60, SimTime::from_secs(3600));
        store.insert("long".into(), "v".into(), 86_400, SimTime::from_secs(3601));
        // "inact" is Active, "act" is Inactive in the image.
        let image = store.export_image();
        let restored: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        // Restart 1.5 intervals after the last clear-up: the snapshotted
        // Active demotes to Inactive, the snapshotted Inactive ages out.
        restored.import_image(image, SimTime::from_secs(3600 + 5400));
        assert_eq!(
            restored.lookup("inact"),
            Some(("v".into(), Generation::Inactive))
        );
        assert_eq!(restored.lookup("act"), None);
        assert_eq!(restored.lookup("long").unwrap().1, Generation::Long);
    }

    #[test]
    fn import_of_a_stale_image_keeps_only_long() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        store.insert("short".into(), "v".into(), 60, SimTime::from_secs(0));
        store.insert("stable".into(), "v".into(), 86_400, SimTime::from_secs(1));
        let image = store.export_image();
        let restored: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        restored.import_image(image, SimTime::from_secs(50_000));
        assert_eq!(restored.lookup("short"), None);
        assert_eq!(
            restored.lookup("stable"),
            Some(("v".into(), Generation::Long))
        );
    }

    #[test]
    fn import_honors_policy_switches() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        store.insert("a".into(), "v".into(), 60, SimTime::from_secs(0));
        store.insert("l".into(), "v".into(), 86_400, SimTime::from_secs(1));
        let image = store.export_image();

        // No Long maps: the Long entry joins Active.
        let mut p = policy(3600);
        p.long_maps = false;
        let no_long: RotatingStore<String, String> = RotatingStore::new(p, 4);
        no_long.import_image(image.clone(), SimTime::from_secs(100));
        assert_eq!(no_long.lookup("l").unwrap().1, Generation::Active);
        assert_eq!(no_long.entry_counts(), (2, 0, 0));

        // No rotation: a one-interval-old Active cannot demote; it drops.
        let mut p = policy(3600);
        p.rotation = false;
        let no_rot: RotatingStore<String, String> = RotatingStore::new(p, 4);
        no_rot.import_image(image.clone(), SimTime::from_secs(5400));
        assert_eq!(no_rot.lookup("a"), None);
        assert_eq!(no_rot.lookup("l").unwrap().1, Generation::Long);

        // No clear-up: age is irrelevant, everything loads.
        let mut p = policy(3600);
        p.clear_up = false;
        let no_clear: RotatingStore<String, String> = RotatingStore::new(p, 4);
        no_clear.import_image(image, SimTime::from_secs(1_000_000));
        assert!(no_clear.lookup("a").is_some());
        assert!(no_clear.lookup("l").is_some());
    }

    #[test]
    fn export_does_not_disturb_the_live_store() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        store.insert("k".into(), "v".into(), 60, SimTime::from_secs(0));
        let before = store.stats();
        let _ = store.export_image();
        assert_eq!(store.stats(), before);
        assert_eq!(store.lookup("k").unwrap().1, Generation::Active);
    }

    #[test]
    fn memory_estimate_tracks_entries() {
        let store: RotatingStore<String, String> = RotatingStore::new(policy(3600), 4);
        assert_eq!(store.memory_estimate().entries, 0);
        store.insert("1.2.3.4".into(), "example.com".into(), 60, SimTime::ZERO);
        store.insert("5.6.7.8".into(), "other.org".into(), 999_999, SimTime::ZERO);
        let est = store.memory_estimate();
        assert_eq!(est.entries, 2);
        assert!(est.total_bytes() > est.payload_bytes);
    }
}
