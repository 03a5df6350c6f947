//! A committed version-3 snapshot file, decoded and imported by today's
//! code: the format is the contract between a daemon that wrote its
//! snapshot and the build that warm-starts from it.
//!
//! `crates/snapshot/tests/fixtures/golden_v3.fdns` holds two shards,
//! IPv4 and IPv6 keys, a CNAME chain across two generations, and entries
//! in all three generations of both stores. `write_golden_fixture`
//! wrote it; rerun it with
//! `cargo test -p flowdns-core --test golden_snapshot -- --ignored`
//! only if the fixture's *scenario* changes, since the point of the file
//! is that it was written by an older build. (`golden_v2.fdns` beside it
//! is the same scenario in the version-2 format, kept to prove that such
//! a file is rejected.)

use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::path::PathBuf;

use flowdns_core::{
    shard_of_dns, shard_of_ip, CorrelatorConfig, FillUpStats, LookUpStats, ShardedStore,
};
use flowdns_snapshot::DnsStoreImage;
use flowdns_types::{DnsRecord, DomainName, SimTime};

const SHARDS: usize = 2;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../snapshot/tests/fixtures/golden_v3.fdns")
}

fn config() -> CorrelatorConfig {
    CorrelatorConfig {
        correlator_shards: SHARDS,
        ..CorrelatorConfig::default()
    }
}

fn v4(last: u8) -> IpAddr {
    Ipv4Addr::new(198, 51, 100, last).into()
}

fn v6(last: u16) -> IpAddr {
    Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, last).into()
}

fn address(secs: u64, name: &str, ip: IpAddr, ttl: u32) -> DnsRecord {
    DnsRecord::address(SimTime::from_secs(secs), DomainName::literal(name), ip, ttl)
}

fn cname(secs: u64, alias: &str, target: &str, ttl: u32) -> DnsRecord {
    DnsRecord::cname(
        SimTime::from_secs(secs),
        DomainName::literal(alias),
        DomainName::literal(target),
        ttl,
    )
}

/// Every fixture IP and the names a flow from it resolves to, first
/// (the A record's name) to last (the customer-facing alias). No two
/// multi-hop chains start at one name: the first chase memoizes a
/// shortcut that a second would take.
fn expected_chains() -> Vec<(IpAddr, Vec<&'static str>)> {
    vec![
        // Inactive A records behind a chain whose first hop is Inactive
        // and whose second is Active.
        (
            v4(7),
            vec![
                "edge7.cdn.example.net",
                "shop.cdn.example.net",
                "www.shop.example",
            ],
        ),
        (
            v6(7),
            vec![
                "edge6.cdn.example.net",
                "shop.cdn.example.net",
                "www.shop.example",
            ],
        ),
        (v4(8), vec!["old.example.org"]),
        // Active A records, one behind a Long CNAME.
        (v4(20), vec!["fresh.example.org"]),
        (v6(20), vec!["fresh6.example.org"]),
        (v4(21), vec!["api.cdn.example.net", "api.example.com"]),
        // Long A records.
        (v4(30), vec!["steady.example.net"]),
        (v6(30), vec!["steady6.example.net"]),
    ]
}

/// The records the fixture's store saw, in order, with the clock
/// broadcasts that rotate it: at 0 s, a rotation of both stores at
/// 7,200 s, then fresh records at 7,300 s.
fn fill_fixture_store() -> ShardedStore {
    let store = ShardedStore::new(&config());
    let mut stats = FillUpStats::default();
    let mut apply = |records: Vec<DnsRecord>| {
        for record in records {
            store
                .partition(shard_of_dns(&record, SHARDS))
                .lock()
                .process_dns(&store, &record, &mut stats);
        }
    };
    apply(vec![
        cname(0, "shop.cdn.example.net", "edge7.cdn.example.net", 600),
        cname(0, "shop.cdn.example.net", "edge6.cdn.example.net", 600),
        address(0, "edge7.cdn.example.net", v4(7), 60),
        address(0, "edge6.cdn.example.net", v6(7), 60),
        address(0, "old.example.org", v4(8), 60),
    ]);
    store.observe_time_all(SimTime::from_secs(0));
    store.observe_time_all(SimTime::from_secs(7_200));
    apply(vec![
        cname(7_300, "www.shop.example", "shop.cdn.example.net", 600),
        cname(7_300, "api.example.com", "api.cdn.example.net", 86_400),
        address(7_300, "fresh.example.org", v4(20), 60),
        address(7_300, "fresh6.example.org", v6(20), 60),
        address(7_300, "api.cdn.example.net", v4(21), 60),
        address(7_300, "steady.example.net", v4(30), 86_400),
        address(7_300, "steady6.example.net", v6(30), 86_400),
    ]);
    store.observe_time_all(SimTime::from_secs(7_300));
    assert_eq!(stats.filtered, 0);
    store
}

/// Rewrite the fixture from the scenario above.
#[test]
#[ignore = "rewrites the committed fixture"]
fn write_golden_fixture() {
    let store = fill_fixture_store();
    let image = store.export_image();
    flowdns_snapshot::write_snapshot(fixture_path(), &image).expect("fixture written");
}

/// The names a flow from `ip` resolves to in `store`.
fn resolved(store: &ShardedStore, ip: IpAddr) -> Vec<String> {
    let mut stats = LookUpStats::default();
    store
        .partition(shard_of_ip(ip, SHARDS))
        .lock()
        .resolve(store, ip, &mut stats)
        .names()
        .iter()
        .map(|name| name.as_str().to_string())
        .collect()
}

#[test]
fn the_scenario_resolves_as_written() {
    let store = fill_fixture_store();
    for (ip, chain) in expected_chains() {
        assert_eq!(resolved(&store, ip), chain, "{ip}");
    }
}

/// One entry of an image with its names spelled out: section (`None`
/// for NAME-CNAME), generation (0 Active, 1 Inactive, 2 Long), key and
/// value.
type Entry = (Option<usize>, usize, String, String);

/// Every entry of an image, independent of the order its export
/// numbered the names in.
fn entry_sets(image: &DnsStoreImage) -> BTreeSet<Entry> {
    let text = |idx: u32| image.names[idx as usize].to_string();
    let mut entries = BTreeSet::new();
    for (section_idx, section) in image.ip_name.iter().enumerate() {
        for (g, columns) in section.generations().into_iter().enumerate() {
            for &(bits, value) in &columns.v4 {
                let key = Ipv4Addr::from(bits).to_string();
                entries.insert((Some(section_idx), g, key, text(value)));
            }
            for &(bytes, value) in &columns.v6 {
                let key = Ipv6Addr::from(u128::from_le_bytes(bytes)).to_string();
                entries.insert((Some(section_idx), g, key, text(value)));
            }
        }
    }
    for (g, columns) in image.name_cname.generations().into_iter().enumerate() {
        for &(key, value) in columns {
            entries.insert((None, g, text(key), text(value)));
        }
    }
    entries
}

#[test]
fn the_committed_file_imports_resolves_and_round_trips() {
    let bytes = std::fs::read(fixture_path()).expect("fixture present");
    let image = flowdns_snapshot::decode_snapshot(&bytes).expect("fixture decodes");
    assert_eq!(image.ip_name.len(), SHARDS);
    let store = ShardedStore::new(&config());
    let loaded = store.import_image(&image, None).expect("fixture imports");
    assert_eq!(loaded, image.entry_count());
    // Export before any resolve memoizes a shortcut.
    let exported = store.export_image();
    let again = flowdns_snapshot::decode_snapshot(&flowdns_snapshot::encode_snapshot(&exported))
        .expect("the export decodes");
    assert_eq!(entry_sets(&again), entry_sets(&image));
    assert_eq!(entry_sets(&image).len(), image.entry_count());
    for (ip, chain) in expected_chains() {
        assert_eq!(resolved(&store, ip), chain, "{ip}");
    }
}
