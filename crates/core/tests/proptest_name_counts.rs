//! Property-based test of the name pool's reference counts against the
//! tables that hold the ids: after any sequence of A/AAAA and CNAME
//! inserts and overwrites, resolves that memoize shortcuts, clear-ups,
//! snapshot imports (into a fresh store and on top of a live one) and
//! pool sweeps,
//!
//! * every pooled name's count equals the table entries that reference
//!   it (IP-NAME values, NAME-CNAME keys and values),
//! * the store's payload estimate equals its key bytes plus the length
//!   of every referenced name, once per reference, and
//! * no sweep frees a name a table still references: every entry still
//!   names its text.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use flowdns_core::{
    shard_of_dns, shard_of_ip, CorrelatorConfig, FillUpStats, LookUpStats, ShardedStore,
};
use flowdns_snapshot::{Columns, DnsStoreImage};
use flowdns_types::{DnsRecord, DomainName, SimDuration, SimTime};
use proptest::prelude::*;

const NAMES: usize = 10;
const SHARDS: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    Address {
        ip: u8,
        name: usize,
        long: bool,
    },
    Cname {
        alias: usize,
        target: usize,
        long: bool,
    },
    Resolve(u8),
    Advance(u64),
    RoundTrip,
    ImportOnTop,
    Sweep,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..16, 0..NAMES, any::<bool>())
            .prop_map(|(ip, name, long)| Op::Address { ip, name, long }),
        2 => (0..NAMES, 0..NAMES, any::<bool>())
            .prop_map(|(alias, target, long)| Op::Cname { alias, target, long }),
        2 => (0u8..16).prop_map(Op::Resolve),
        2 => (0u64..5_000).prop_map(Op::Advance),
        1 => Just(Op::RoundTrip),
        1 => Just(Op::ImportOnTop),
        1 => Just(Op::Sweep),
    ]
}

fn ip(i: u8) -> IpAddr {
    if i % 4 == 0 {
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i as u16).into()
    } else {
        Ipv4Addr::new(198, 51, 100, i).into()
    }
}

fn name(i: usize) -> DomainName {
    DomainName::literal(&format!("n{i}.{}.example", "x".repeat(i)))
}

fn config() -> CorrelatorConfig {
    CorrelatorConfig {
        correlator_shards: SHARDS,
        ..CorrelatorConfig::default()
    }
}

/// References per name text, and key bytes, of every entry an export
/// lists.
fn references(image: &DnsStoreImage) -> (HashMap<String, u32>, usize) {
    let mut refs: HashMap<String, u32> = HashMap::new();
    let mut key_bytes = 0;
    let mut count = |idx: u32| {
        *refs
            .entry(image.names[idx as usize].to_string())
            .or_default() += 1;
    };
    for generation in image
        .ip_name
        .iter()
        .flat_map(|section| section.generations())
    {
        key_bytes += 4 * generation.v4.len() + 16 * generation.v6.len();
        generation.name_indices().for_each(&mut count);
    }
    for generation in image.name_cname.generations() {
        generation.name_indices().for_each(&mut count);
    }
    (refs, key_bytes)
}

fn check_counts(store: &ShardedStore, step: &str) {
    let image = store.export_image();
    // An entry whose name a sweep freed would be missing from the export.
    prop_assert_eq!(image.entry_count(), store.total_entries(), "{}", step);
    let (refs, key_bytes) = references(&image);
    let pool = store.name_pool();
    let mut name_bytes = 0;
    for (text, &held) in &refs {
        let id = pool.intern(text);
        prop_assert_eq!(pool.ref_count(id), held + 1, "{}: {}", step, text);
        pool.release(id);
        name_bytes += text.len() * held as usize;
    }
    // Names no entry references hold no count: the per-reference sum
    // covers the referenced ones exactly.
    prop_assert_eq!(pool.referenced_bytes(), name_bytes, "{}", step);
    let memory = store.memory_estimate();
    prop_assert_eq!(memory.entries, image.entry_count(), "{}", step);
    prop_assert_eq!(memory.payload_bytes, key_bytes + name_bytes, "{}", step);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pool_counts_match_table_references(ops in proptest::collection::vec(op(), 1..80)) {
        let mut store = ShardedStore::new(&config());
        let mut ts = SimTime::from_secs(1);
        let mut fillup = FillUpStats::default();
        for (i, op) in ops.iter().enumerate() {
            let ttl = |long: bool| if long { 86_400 } else { 60 };
            let record = match *op {
                Op::Address { ip: i, name: n, long } => {
                    Some(DnsRecord::address(ts, name(n), ip(i), ttl(long)))
                }
                Op::Cname { alias, target, long } => {
                    Some(DnsRecord::cname(ts, name(alias), name(target), ttl(long)))
                }
                _ => None,
            };
            if let Some(record) = record {
                store
                    .partition(shard_of_dns(&record, SHARDS))
                    .lock()
                    .process_dns(&store, &record, &mut fillup);
            }
            match *op {
                Op::Resolve(i) => {
                    let mut stats = LookUpStats::default();
                    let partition = store.partition(shard_of_ip(ip(i), SHARDS)).lock();
                    partition.resolve(&store, ip(i), &mut stats);
                }
                Op::Advance(secs) => {
                    ts += SimDuration::from_secs(secs);
                    store.observe_time_all(ts);
                }
                Op::RoundTrip => {
                    let restored = ShardedStore::new(&config());
                    restored.import_image(&store.export_image(), None).unwrap();
                    store = restored;
                }
                Op::ImportOnTop => {
                    // Every entry lands on its own key again: each
                    // restore displaces (or loses to) the live entry.
                    let image = store.export_image();
                    store.import_image(&image, None).unwrap();
                }
                Op::Sweep => {
                    store.name_pool().purge_unreferenced();
                }
                Op::Address { .. } | Op::Cname { .. } => {}
            }
            check_counts(&store, &format!("step {i} {op:?}"));
        }
    }
}
