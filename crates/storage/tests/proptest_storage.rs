//! Property-based tests for the storage substrate.
//!
//! `GenerationStore` (one clock, one epoch-tagged table) must agree with
//! `ModelStore` — Algorithm 1 written as three plain `HashMap`s, one clock
//! and the counters — on every lookup, counter and export/import round
//! trip, under each of the four policy combinations the ablation variants
//! use. The store is exported through `iter()` and imported through
//! `import_entries`, the paths a snapshot takes.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use flowdns_storage::{Generation, GenerationStore, RotationPolicy};
use flowdns_types::{SimDuration, SimTime};
use proptest::prelude::*;

/// A store's clock and its entries per generation, as exported.
struct Image {
    last_clear_ts: Option<SimTime>,
    last_seen_ts: Option<SimTime>,
    /// Active, Inactive and Long entries.
    generations: [Vec<(u32, String)>; 3],
}

impl Image {
    /// The clock and every visible entry of `store`.
    fn of(store: &Table) -> Self {
        let mut generations: [Vec<(u32, String)>; 3] = Default::default();
        for (&key, value, generation) in store.table().iter() {
            generations[generation as usize].push((key, value.clone()));
        }
        Image {
            last_clear_ts: store.clock().last_clear_ts(),
            last_seen_ts: store.clock().last_seen_ts(),
            generations,
        }
    }

    /// A fresh store loaded from the image at data time `now`.
    fn import(&self, policy: RotationPolicy, now: u64) -> Table {
        let mut store = GenerationStore::new(policy);
        let [active, inactive, long] = &self.generations;
        store.import_entries(
            self.last_clear_ts,
            self.last_seen_ts,
            SimTime::from_secs(now),
            [active, inactive, long],
            |(key, value)| Some((*key, value.clone())),
            |_, _| {},
        );
        store
    }
}

/// Reference model of the rotating store: plain HashMaps plus the same
/// clear-up rule, written as directly from Algorithm 1 as possible.
/// Times are whole seconds of data time.
struct ModelStore {
    policy: RotationPolicy,
    active: HashMap<u32, String>,
    inactive: HashMap<u32, String>,
    long: HashMap<u32, String>,
    last_clear: Option<u64>,
    last_seen: Option<u64>,
    active_inserts: u64,
    long_inserts: u64,
    /// Entries that turned Inactive across all rotations.
    rotated_entries: u64,
    clear_ups: u64,
}

impl ModelStore {
    fn new(policy: RotationPolicy) -> Self {
        ModelStore {
            policy,
            active: HashMap::new(),
            inactive: HashMap::new(),
            long: HashMap::new(),
            last_clear: None,
            last_seen: None,
            active_inserts: 0,
            long_inserts: 0,
            rotated_entries: 0,
            clear_ups: 0,
        }
    }

    fn interval(&self) -> u64 {
        self.policy.clear_up_interval.as_secs()
    }

    /// The clear-up check: arm at the first timestamp, then every
    /// interval move Active to Inactive (or drop it without rotation).
    /// A store without clear-up keeps no clock at all.
    fn observe_time(&mut self, ts: u64) {
        if !self.policy.clear_up {
            return;
        }
        self.last_seen = self.last_seen.max(Some(ts));
        match self.last_clear {
            None => self.last_clear = Some(ts),
            Some(last) if ts.saturating_sub(last) >= self.interval() => {
                let active = std::mem::take(&mut self.active);
                if self.policy.rotation {
                    self.rotated_entries += active.len() as u64;
                    self.inactive = active;
                }
                self.clear_ups += 1;
                self.last_clear = Some(ts);
            }
            Some(_) => {}
        }
    }

    fn insert(&mut self, key: u32, value: String, ttl: u32, ts: u64) {
        self.observe_time(ts);
        if self.policy.long_maps && ttl as u64 >= self.interval() {
            self.long.insert(key, value);
            self.long_inserts += 1;
        } else {
            self.active.insert(key, value);
            self.active_inserts += 1;
        }
    }

    /// CNAME memoization: into Active, no clock, no counter.
    fn memoize(&mut self, key: u32, value: String) {
        self.active.insert(key, value);
    }

    /// Active, then Inactive, then Long. (Inactive stays empty without
    /// rotation, Long without Long maps.)
    fn lookup(&self, key: u32) -> Option<(String, Generation)> {
        [
            (&self.active, Generation::Active),
            (&self.inactive, Generation::Inactive),
            (&self.long, Generation::Long),
        ]
        .into_iter()
        .find_map(|(map, generation)| map.get(&key).map(|v| (v.clone(), generation)))
    }

    fn export_image(&self) -> Image {
        let entries = |map: &HashMap<u32, String>| map.clone().into_iter().collect();
        Image {
            last_clear_ts: self.last_clear.map(SimTime::from_secs),
            last_seen_ts: self.last_seen.map(SimTime::from_secs),
            generations: [
                entries(&self.active),
                entries(&self.inactive),
                entries(&self.long),
            ],
        }
    }

    /// A fresh store loaded from `image` at data time `now`, aged by how
    /// long ago the image's clock last cleared up:
    ///
    /// * under one interval: every generation loads verbatim and the
    ///   clock resumes at the image's last clear-up;
    /// * under two, with rotation: the old Active is the Inactive
    ///   generation by now, the old Inactive aged out, the clock restarts
    ///   at `now`;
    /// * older: only Long survives.
    ///
    /// Without Long maps the image's Long entries age with Active; without
    /// clear-up the image never ages.
    fn import_image(policy: RotationPolicy, image: Image, now: u64) -> Self {
        let mut model = ModelStore::new(policy);
        let Image {
            last_clear_ts,
            last_seen_ts,
            generations: [mut active, inactive, mut long],
        } = image;
        if !policy.long_maps {
            active.append(&mut long);
        }
        let anchor = last_clear_ts.or(last_seen_ts).map(|t| t.as_secs());
        let elapsed = match anchor {
            Some(anchor) if policy.clear_up => now.saturating_sub(anchor),
            _ => 0,
        };
        model.last_seen = Some(now);
        if elapsed < model.interval() {
            model.active.extend(active);
            if policy.rotation {
                model.inactive.extend(inactive);
            }
            model.last_clear = anchor;
        } else {
            if policy.rotation && elapsed < 2 * model.interval() {
                model.inactive.extend(active);
            }
            model.last_clear = Some(now);
        }
        model.long.extend(long);
        model
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

type Table = GenerationStore<u32, String>;

/// Every key resolves identically, and the table holds exactly the
/// model's visible entries: its Active and Long generations, plus the
/// Inactive keys Active does not shadow.
fn assert_same_contents(model: &ModelStore, table: &Table, label: &str) {
    for key in 0..KEYS {
        let expected = model.lookup(key);
        let got = table.lookup(&key).map(|(v, g)| (v.clone(), g));
        assert_eq!(got, expected, "{label}: key {key}");
    }
    let map = |entries: Vec<(u32, String)>| entries.into_iter().collect::<BTreeMap<_, _>>();
    let (o, t) = (model.export_image(), Image::of(table));
    let [o_active, o_inactive, o_long] = o.generations;
    let (o_active, o_long) = (map(o_active), map(o_long));
    let o_inactive: BTreeMap<_, _> = map(o_inactive)
        .into_iter()
        .filter(|(k, _)| !o_active.contains_key(k))
        .collect();
    let [t_active, t_inactive, t_long] = t.generations;
    assert_eq!(map(t_active), o_active, "{label}: Active");
    assert_eq!(map(t_inactive), o_inactive, "{label}: Inactive");
    assert_eq!(map(t_long), o_long, "{label}: Long");
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

fn assert_same_counters(model: &ModelStore, table: &Table, label: &str) {
    let t = table.table().stats();
    assert_eq!(
        (t.active_inserts, t.long_inserts, t.rotated_entries),
        (
            model.active_inserts,
            model.long_inserts,
            model.rotated_entries
        ),
        "{label}: insert/rotation counters"
    );
    assert_eq!(
        table.clock().clear_ups(),
        model.clear_ups,
        "{label}: clear-ups"
    );
    let (ta, _, tl) = table.table().entry_counts();
    assert_eq!(
        (ta, tl),
        (model.active.len(), model.long.len()),
        "{label}: Active/Long counts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The generation store against the model: every lookup returns the
    /// same (value, Generation), the insert/rotation/clear-up counters
    /// agree after every step, an export → import round trip at any
    /// age leaves both with the same lookup table and clock, and every
    /// entry offered to the store is either held or handed to its
    /// `dropped` sink exactly once.
    #[test]
    fn generation_store_matches_model(ops in proptest::collection::vec(table_op(), 1..60)) {
        for (name, policy) in policies() {
            let mut model = ModelStore::new(policy);
            let mut table: Table = GenerationStore::new(policy);
            let mut now = 0u64;
            let (mut offered, mut handed_back) = (0usize, 0usize);
            for (i, op) in ops.iter().enumerate() {
                let mut dropped = |_: u32, _: String| handed_back += 1;
                let label = format!("{name} step {i} {op:?}");
                match *op {
                    TableOp::Insert(key, value, ttl, dt) => {
                        now += dt;
                        model.insert(key, format!("v{value}"), ttl, now);
                        offered += 1;
                        table.insert(key, format!("v{value}"), ttl, SimTime::from_secs(now), &mut dropped);
                    }
                    TableOp::Memoize(key, value) => {
                        model.memoize(key, format!("m{value}"));
                        offered += 1;
                        table.memoize(key, format!("m{value}"), &mut dropped);
                    }
                    TableOp::Observe(dt) => {
                        now += dt;
                        model.observe_time(now);
                        table.observe_time(SimTime::from_secs(now), &mut dropped);
                    }
                    TableOp::Lookup(key) => {
                        let got = table.lookup(&key).map(|(v, g)| (v.clone(), g));
                        prop_assert_eq!(got, model.lookup(key), "{}", label);
                    }
                    TableOp::RoundTrip(age) => {
                        now += age;
                        model = ModelStore::import_image(policy, model.export_image(), now);
                        table = Image::of(&table).import(policy, now);
                        // Entries of aged-out generations are never
                        // offered; count from what the import holds.
                        (offered, handed_back) = (table.table().len(), 0);
                        assert_same_contents(&model, &table, &label);
                    }
                }
                assert_same_counters(&model, &table, &label);
                prop_assert_eq!(offered, table.table().len() + handed_back, "{}", label);
            }
            assert_same_contents(&model, &table, name);
        }
    }
}
