//! Property-based tests for the storage substrate.
//!
//! * `ShardedMap` must behave exactly like a `HashMap` under any sequence
//!   of insert/remove/get/clear operations (single-threaded linearization
//!   check).
//! * `RotatingStore` must agree with a simple reference simulator of the
//!   Active/Inactive/Long semantics for any sequence of timestamped
//!   inserts and lookups with non-decreasing timestamps.
//! * `GenerationStore` (one clock, one epoch-tagged table) must agree with
//!   `RotatingStore` — the three-map store it replaced on the live path —
//!   on every lookup, counter and snapshot round trip, under each of the
//!   four policy combinations the ablation variants use.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use flowdns_storage::{
    Generation, GenerationStore, GenerationsImage, RotatingStore, RotationPolicy, ShardedMap,
};
use flowdns_types::{IpKey, NameInterner, SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Remove(u8),
    Get(u8),
    Clear,
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => any::<u8>().prop_map(MapOp::Remove),
        3 => any::<u8>().prop_map(MapOp::Get),
        1 => Just(MapOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sharded_map_matches_hashmap(ops in proptest::collection::vec(map_op(), 0..200),
                                   shards in 1usize..32) {
        let sharded: ShardedMap<u8, u16> = ShardedMap::new(shards);
        let mut model: HashMap<u8, u16> = HashMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(sharded.insert(k, v), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(sharded.remove(&k), model.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(sharded.get(&k), model.get(&k).copied());
                }
                MapOp::Clear => {
                    sharded.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(sharded.len(), model.len());
        }
        prop_assert_eq!(sharded.snapshot(), model);
    }
}

/// Reference model of the rotating store: plain HashMaps plus the same
/// clear-up rule, written as directly from Algorithm 1 as possible.
struct ModelStore {
    interval: u64,
    active: HashMap<String, String>,
    inactive: HashMap<String, String>,
    long: HashMap<String, String>,
    last_clear: Option<u64>,
}

impl ModelStore {
    fn new(interval: u64) -> Self {
        ModelStore {
            interval,
            active: HashMap::new(),
            inactive: HashMap::new(),
            long: HashMap::new(),
            last_clear: None,
        }
    }

    fn maybe_clear(&mut self, ts: u64) {
        match self.last_clear {
            None => self.last_clear = Some(ts),
            Some(last) if ts.saturating_sub(last) >= self.interval => {
                self.inactive = std::mem::take(&mut self.active);
                self.last_clear = Some(ts);
            }
            _ => {}
        }
    }

    fn insert(&mut self, key: String, value: String, ttl: u32, ts: u64) {
        self.maybe_clear(ts);
        if ttl as u64 >= self.interval {
            self.long.insert(key, value);
        } else {
            self.active.insert(key, value);
        }
    }

    fn lookup(&self, key: &str) -> Option<(String, Generation)> {
        if let Some(v) = self.active.get(key) {
            return Some((v.clone(), Generation::Active));
        }
        if let Some(v) = self.inactive.get(key) {
            return Some((v.clone(), Generation::Inactive));
        }
        self.long.get(key).map(|v| (v.clone(), Generation::Long))
    }
}

#[derive(Debug, Clone)]
enum StoreOp {
    /// Insert key (small space), ttl, time advance.
    Insert(u8, u32, u64),
    Lookup(u8),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        3 => (any::<u8>(), 0u32..10_000, 0u64..2_000).prop_map(|(k, ttl, dt)| StoreOp::Insert(k, ttl, dt)),
        2 => any::<u8>().prop_map(StoreOp::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rotating_store_matches_reference_model(ops in proptest::collection::vec(store_op(), 0..200)) {
        let interval_secs = 3600u64;
        let policy = RotationPolicy {
            clear_up_interval: SimDuration::from_secs(interval_secs),
            clear_up: true,
            rotation: true,
            long_maps: true,
        };
        let store: RotatingStore<String, String> = RotatingStore::new(policy, 8);
        let mut model = ModelStore::new(interval_secs);
        let mut now = 0u64;
        for op in ops {
            match op {
                StoreOp::Insert(k, ttl, dt) => {
                    now += dt;
                    let key = format!("10.0.0.{k}");
                    let value = format!("host-{k}.example");
                    store.insert(key.clone(), value.clone(), ttl, SimTime::from_secs(now));
                    model.insert(key, value, ttl, now);
                }
                StoreOp::Lookup(k) => {
                    let key = format!("10.0.0.{k}");
                    prop_assert_eq!(store.lookup(&key), model.lookup(&key));
                }
            }
        }
        let (a, i, l) = store.entry_counts();
        prop_assert_eq!(a, model.active.len());
        prop_assert_eq!(i, model.inactive.len());
        prop_assert_eq!(l, model.long.len());
    }

    #[test]
    fn no_clear_up_store_never_loses_records(
        inserts in proptest::collection::vec((any::<u8>(), 0u32..10_000, 0u64..5_000), 1..100)
    ) {
        let policy = RotationPolicy {
            clear_up_interval: SimDuration::from_secs(3600),
            clear_up: false,
            rotation: true,
            long_maps: true,
        };
        let store: RotatingStore<String, String> = RotatingStore::new(policy, 8);
        let mut now = 0u64;
        let mut keys = Vec::new();
        for (k, ttl, dt) in inserts {
            now += dt;
            let key = format!("key-{k}");
            store.insert(key.clone(), "value".into(), ttl, SimTime::from_secs(now));
            keys.push(key);
        }
        for key in keys {
            prop_assert!(store.lookup(&key).is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The typed-key store must expose the same Active/Inactive/Long and
    /// TTL-routing semantics as the string-keyed reference model when
    /// keyed by `IpKey` with interned `NameRef` values.
    #[test]
    fn typed_key_store_matches_reference_model(
        ops in proptest::collection::vec(store_op(), 0..200)
    ) {
        let interval_secs = 3600u64;
        let policy = RotationPolicy {
            clear_up_interval: SimDuration::from_secs(interval_secs),
            clear_up: true,
            rotation: true,
            long_maps: true,
        };
        let names = NameInterner::new();
        let store: RotatingStore<IpKey, flowdns_types::NameRef> =
            RotatingStore::new(policy, 8);
        let mut model = ModelStore::new(interval_secs);
        let mut now = 0u64;
        for op in ops {
            match op {
                StoreOp::Insert(k, ttl, dt) => {
                    now += dt;
                    let ip: std::net::IpAddr = format!("10.0.0.{k}").parse().unwrap();
                    let value = names.intern(&format!("host-{k}.example"));
                    store.insert(IpKey::from_ip(ip), value, ttl, SimTime::from_secs(now));
                    model.insert(
                        format!("10.0.0.{k}"),
                        format!("host-{k}.example"),
                        ttl,
                        now,
                    );
                }
                StoreOp::Lookup(k) => {
                    let ip: std::net::IpAddr = format!("10.0.0.{k}").parse().unwrap();
                    let got = store
                        .lookup(&IpKey::from_ip(ip))
                        .map(|(v, g)| (v.as_str().to_string(), g));
                    prop_assert_eq!(got, model.lookup(&format!("10.0.0.{k}")));
                }
            }
        }
        let (a, i, l) = store.entry_counts();
        prop_assert_eq!(a, model.active.len());
        prop_assert_eq!(i, model.inactive.len());
        prop_assert_eq!(l, model.long.len());
        // Typed keys shrink the per-entry footprint versus the textual
        // baseline whenever anything is stored.
        if store.total_entries() > 0 {
            prop_assert!(store.memory_estimate().total_bytes() > 0);
        }
    }
}

/// Clear-up interval of the differential schedules, in seconds.
const INTERVAL: u64 = 100;
/// Keys the schedules draw from: small, so overwrites, shadowing and
/// Active/Inactive/Long overlaps are common.
const KEYS: u32 = 24;

#[derive(Debug, Clone)]
enum TableOp {
    /// Insert (key, value, TTL class) after advancing data time.
    Insert(u32, u8, u32, u64),
    /// Memoize (key, value) without touching the clock.
    Memoize(u32, u8),
    /// Advance data time and observe it.
    Observe(u64),
    Lookup(u32),
    /// Export both stores and import each into a fresh one, this many
    /// seconds after the last observed time.
    RoundTrip(u64),
}

/// Time steps within an interval, around one, and across several.
fn step() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..20,
        2 => (INTERVAL - 10)..(INTERVAL + 10),
        1 => (2 * INTERVAL - 10)..(5 * INTERVAL),
    ]
}

fn table_op() -> impl Strategy<Value = TableOp> {
    // TTLs straddle the Long threshold (the interval) and go far past it.
    let ttl = prop_oneof![Just(1u32), Just(99u32), Just(100u32), Just(86_400u32)];
    prop_oneof![
        6 => (0..KEYS, any::<u8>(), ttl, step()).prop_map(|(k, v, t, s)| TableOp::Insert(k, v, t, s)),
        1 => (0..KEYS, any::<u8>()).prop_map(|(k, v)| TableOp::Memoize(k, v)),
        2 => step().prop_map(TableOp::Observe),
        3 => (0..KEYS).prop_map(TableOp::Lookup),
        1 => (0u64..3 * INTERVAL).prop_map(TableOp::RoundTrip),
    ]
}

/// The four policy combinations of the ablation variants: Main,
/// NoClearUp (which also keeps no Inactive copy), NoRotation, NoLong.
fn policies() -> [(&'static str, RotationPolicy); 4] {
    let main = RotationPolicy {
        clear_up_interval: SimDuration::from_secs(INTERVAL),
        clear_up: true,
        rotation: true,
        long_maps: true,
    };
    [
        ("Main", main),
        (
            "NoClearUp",
            RotationPolicy {
                clear_up: false,
                rotation: false,
                ..main
            },
        ),
        (
            "NoRotation",
            RotationPolicy {
                rotation: false,
                ..main
            },
        ),
        (
            "NoLong",
            RotationPolicy {
                long_maps: false,
                ..main
            },
        ),
    ]
}

type Oracle = RotatingStore<u32, String>;
type Table = GenerationStore<u32, String>;

/// Every key resolves identically, and the table holds exactly the
/// oracle's visible entries: its Active and Long generations, plus the
/// Inactive keys Active does not shadow.
fn assert_same_contents(oracle: &Oracle, table: &Table, label: &str) {
    for key in 0..KEYS {
        let expected = oracle.lookup(&key);
        let got = table.lookup(&key).map(|(v, g)| (v.clone(), g));
        assert_eq!(got, expected, "{label}: key {key}");
    }
    let map = |entries: Vec<(u32, String)>| entries.into_iter().collect::<BTreeMap<_, _>>();
    let (o, t) = (oracle.export_image(), table.export_image());
    let (o_active, o_long) = (map(o.active), map(o.long));
    let o_inactive: BTreeMap<_, _> = map(o.inactive)
        .into_iter()
        .filter(|(k, _)| !o_active.contains_key(k))
        .collect();
    assert_eq!(map(t.active), o_active, "{label}: Active");
    assert_eq!(map(t.inactive), o_inactive, "{label}: Inactive");
    assert_eq!(map(t.long), o_long, "{label}: Long");
    assert_eq!(
        table.table().entry_counts(),
        (o_active.len(), o_inactive.len(), o_long.len()),
        "{label}: counts"
    );
    let visible: BTreeSet<u32> = o_active.keys().chain(o_inactive.keys()).copied().collect();
    assert_eq!(
        table.table().len(),
        visible.len() + o_long.len(),
        "{label}: len"
    );
    assert_eq!(
        (t.last_clear_ts, t.last_seen_ts),
        (o.last_clear_ts, o.last_seen_ts),
        "{label}: clock"
    );
}

fn assert_same_counters(oracle: &Oracle, table: &Table, label: &str) {
    let (o, t) = (oracle.stats(), table.table().stats());
    assert_eq!(
        (t.active_inserts, t.long_inserts, t.rotated_entries),
        (o.active_inserts, o.long_inserts, o.rotated_entries),
        "{label}: insert/rotation counters"
    );
    assert_eq!(table.clock().clear_ups(), o.clear_ups, "{label}: clear-ups");
    let (a, _, l) = oracle.entry_counts();
    let (ta, _, tl) = table.table().entry_counts();
    assert_eq!((ta, tl), (a, l), "{label}: Active/Long counts");
}

fn import_fresh<T>(policy: RotationPolicy, image: GenerationsImage<u32, String>, now: u64) -> T
where
    T: Importable,
{
    T::fresh(policy, image, SimTime::from_secs(now))
}

trait Importable {
    fn fresh(policy: RotationPolicy, image: GenerationsImage<u32, String>, now: SimTime) -> Self;
}

impl Importable for Oracle {
    fn fresh(policy: RotationPolicy, image: GenerationsImage<u32, String>, now: SimTime) -> Self {
        let store = RotatingStore::new(policy, 4);
        store.import_image(image, now);
        store
    }
}

impl Importable for Table {
    fn fresh(policy: RotationPolicy, image: GenerationsImage<u32, String>, now: SimTime) -> Self {
        let mut store = GenerationStore::new(policy);
        store.import_image(image, now);
        store
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The generation table against its oracle: every lookup returns the
    /// same (value, Generation), the insert/rotation/clear-up counters
    /// agree after every step, and an export → import round trip at any
    /// age leaves both with the same lookup table and clock.
    #[test]
    fn generation_store_matches_rotating_store(ops in proptest::collection::vec(table_op(), 1..60)) {
        for (name, policy) in policies() {
            let mut oracle: Oracle = RotatingStore::new(policy, 4);
            let mut table: Table = GenerationStore::new(policy);
            let mut now = 0u64;
            for (i, op) in ops.iter().enumerate() {
                let label = format!("{name} step {i} {op:?}");
                match *op {
                    TableOp::Insert(key, value, ttl, dt) => {
                        now += dt;
                        let ts = SimTime::from_secs(now);
                        oracle.insert(key, format!("v{value}"), ttl, ts);
                        table.insert(key, format!("v{value}"), ttl, ts);
                    }
                    TableOp::Memoize(key, value) => {
                        oracle.memoize(key, format!("m{value}"));
                        table.memoize(key, format!("m{value}"));
                    }
                    TableOp::Observe(dt) => {
                        now += dt;
                        oracle.observe_time(SimTime::from_secs(now));
                        table.observe_time(SimTime::from_secs(now));
                    }
                    TableOp::Lookup(key) => {
                        let got = table.lookup(&key).map(|(v, g)| (v.clone(), g));
                        prop_assert_eq!(got, oracle.lookup(&key), "{}", label);
                    }
                    TableOp::RoundTrip(age) => {
                        now += age;
                        oracle = import_fresh(policy, oracle.export_image(), now);
                        table = import_fresh(policy, table.export_image(), now);
                        assert_same_contents(&oracle, &table, &label);
                    }
                }
                assert_same_counters(&oracle, &table, &label);
            }
            assert_same_contents(&oracle, &table, name);
        }
    }
}
