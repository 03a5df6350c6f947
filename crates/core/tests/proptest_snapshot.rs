//! Property-based test of the ShardedStore snapshot round trip: for any
//! shard count from 1 to 4 and any sequence of timestamped A/AAAA and
//! CNAME inserts (spanning multiple clear-up rotations), export → import
//! into a fresh store must reproduce the store contents, the generation
//! each key lives in, and the interner's one-allocation-per-distinct-name
//! invariant exactly.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use flowdns_core::{
    shard_of_dns, shard_of_ip, CorrelatorConfig, FillUpStats, LookUpStats, ShardedStore,
};
use flowdns_snapshot::{DnsStoreImage, StoreImage};
use flowdns_types::{DnsRecord, DomainName, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Insert {
    Address {
        ip: IpAddr,
        name_idx: usize,
        ttl: u32,
    },
    Cname {
        target_idx: usize,
        alias_idx: usize,
        ttl: u32,
    },
}

const NAME_POOL: usize = 12;

fn name(idx: usize) -> DomainName {
    DomainName::literal(&format!("host{idx}.cdn.example"))
}

fn ttl() -> impl Strategy<Value = u32> {
    prop_oneof![Just(60u32), Just(86_400u32)]
}

fn insert_op() -> impl Strategy<Value = Insert> {
    let v4 = any::<u32>().prop_map(|bits| IpAddr::V4(Ipv4Addr::from(bits & 0xff)));
    let v6 = any::<u32>().prop_map(|bits| {
        IpAddr::V6(Ipv6Addr::new(
            0x2001,
            0xdb8,
            0,
            0,
            0,
            0,
            0,
            (bits & 0x3f) as u16,
        ))
    });
    prop_oneof![
        3 => (prop_oneof![v4, v6], 0..NAME_POOL, ttl())
            .prop_map(|(ip, name_idx, ttl)| Insert::Address { ip, name_idx, ttl }),
        1 => (0..NAME_POOL, 0..NAME_POOL, ttl())
            .prop_map(|(target_idx, alias_idx, ttl)| Insert::Cname {
                target_idx,
                alias_idx,
                ttl
            }),
    ]
}

/// One stored entry of an image with its names spelled out: the section
/// (`None` for NAME-CNAME), the generation (0 Active, 1 Inactive,
/// 2 Long), the key and the value.
type Entry = (Option<usize>, u8, String, String);

/// A section's `(last_clear_ts, last_seen_ts)`.
type Clock = (Option<SimTime>, Option<SimTime>);

/// Every entry and section clock of an image, independent of the order
/// the export happened to number its names in.
fn contents(image: &DnsStoreImage) -> (Vec<Entry>, Vec<Clock>) {
    let text = |idx: &u32| image.names[*idx as usize].to_string();
    let mut entries = Vec::new();
    let sections = image
        .ip_name
        .iter()
        .enumerate()
        .map(|(i, section)| (Some(i), section))
        .chain([(None, &image.name_cname)]);
    let mut clocks = Vec::new();
    for (section_idx, section) in sections {
        let StoreImage {
            last_clear_ts,
            last_seen_ts,
            active,
            inactive,
            long,
        } = section;
        clocks.push((*last_clear_ts, *last_seen_ts));
        for (generation, columns) in [(0u8, active), (1, inactive), (2, long)] {
            for (bits, value) in &columns.v4 {
                entries.push((
                    section_idx,
                    generation,
                    format!("v4:{bits:#x}"),
                    text(value),
                ));
            }
            for (bytes, value) in &columns.v6 {
                let bits = u128::from_le_bytes(*bytes);
                entries.push((
                    section_idx,
                    generation,
                    format!("v6:{bits:#x}"),
                    text(value),
                ));
            }
            for (key, value) in &columns.names {
                entries.push((section_idx, generation, text(key), text(value)));
            }
        }
    }
    entries.sort();
    (entries, clocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn export_import_reproduces_contents_generations_and_dedup(
        shards in 1usize..5,
        ops in proptest::collection::vec((insert_op(), 0u64..900), 1..120),
    ) {
        let config = CorrelatorConfig {
            correlator_shards: shards,
            ..CorrelatorConfig::default()
        };
        let donor = ShardedStore::new(&config);
        // Apply the inserts at non-decreasing timestamps; steps of up to
        // 900 s across up to 120 ops span several 3600 s rotations.
        let mut ts = SimTime::ZERO;
        let mut ips: Vec<IpAddr> = Vec::new();
        let mut fillup = FillUpStats::default();
        for (op, step) in &ops {
            ts += flowdns_types::SimDuration::from_secs(*step);
            let record = match op {
                Insert::Address { ip, name_idx, ttl } => {
                    ips.push(*ip);
                    DnsRecord::address(ts, name(*name_idx), *ip, *ttl)
                }
                Insert::Cname { target_idx, alias_idx, ttl } => {
                    DnsRecord::cname(ts, name(*alias_idx), name(*target_idx), *ttl)
                }
            };
            donor
                .partition(shard_of_dns(&record, shards))
                .lock()
                .process_dns(&donor, &record, &mut fillup);
        }
        prop_assert_eq!(fillup.total(), ops.len() as u64);
        // Sync every partition's rotation clock to the final data time, as
        // a live pipeline's flow traffic does continuously; the exported
        // image is then aged consistently on import.
        donor.observe_time_all(ts);

        let image = donor.export_image();
        prop_assert_eq!(image.as_of, ts);
        prop_assert_eq!(image.shards as usize, shards);
        let restored = ShardedStore::new(&config);
        restored.import_image(&image, None).expect("import must succeed");

        // Contents, generations and clocks: the restored store exports
        // exactly the entries it imported, section by section.
        prop_assert_eq!(restored.total_entries(), donor.total_entries());
        prop_assert_eq!(contents(&restored.export_image()), contents(&image));

        // Interner dedup: the snapshot's name table holds each distinct
        // name once, the import pooled exactly those, and every outcome
        // naming the same text shares one allocation.
        prop_assert!(image.names.len() <= NAME_POOL);
        let distinct: std::collections::HashSet<&str> =
            image.names.iter().map(|n| &**n).collect();
        prop_assert_eq!(distinct.len(), image.names.len());
        prop_assert_eq!(restored.interned_names(), image.names.len());

        // Behaviour: every IP resolves to the same outcome in both stores.
        let mut by_name: HashMap<String, *const u8> = HashMap::new();
        for ip in &ips {
            let shard = shard_of_ip(*ip, shards);
            let mut stats = LookUpStats::default();
            let before = donor.partition(shard).lock().resolve(&donor, *ip, &mut stats);
            let after = restored.partition(shard).lock().resolve(&restored, *ip, &mut stats);
            prop_assert_eq!(&before, &after, "IP {} diverged", ip);
            for name in after.names() {
                let ptr = name.as_str().as_ptr();
                let first = *by_name.entry(name.as_str().to_string()).or_insert(ptr);
                prop_assert!(
                    std::ptr::eq(first, ptr),
                    "name {} not deduplicated after import",
                    name.as_str()
                );
            }
        }
    }
}
