//! The committed snapshot files: the version-3 one decodes and encodes
//! back to the same bytes, and the version-2 one is rejected by the
//! version gate instead of being misparsed.
//!
//! Both fixtures were written by the build of their day's
//! `encode_snapshot` (see `write_golden_fixture` in
//! `crates/core/tests/golden_snapshot.rs`) from the same scenario.

use flowdns_snapshot::{decode_snapshot, encode_snapshot, Columns};
use flowdns_types::FlowDnsError;

fn fixture(name: &str) -> Vec<u8> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    std::fs::read(format!("{dir}{name}")).expect("fixture present")
}

#[test]
fn the_golden_file_decodes_and_re_encodes_byte_for_byte() {
    let bytes = fixture("golden_v3.fdns");
    let image = decode_snapshot(&bytes).expect("fixture decodes");
    assert_eq!(encode_snapshot(&image), bytes);
}

#[test]
fn the_golden_file_covers_every_kind_and_generation() {
    let image = decode_snapshot(&fixture("golden_v3.fdns")).unwrap();
    assert_eq!(image.ip_name.len(), 2, "one section per shard");
    let generations = || image.ip_name.iter().flat_map(|s| s.generations());
    // Every generation of the IP-NAME store holds entries, and both
    // address families appear.
    for g in 0..3 {
        assert!(image.ip_name.iter().any(|s| !s.generations()[g].is_empty()));
    }
    assert!(generations().any(|g| !g.v4.is_empty()));
    assert!(generations().any(|g| !g.v6.is_empty()));
    for generation in image.name_cname.generations() {
        assert!(!generation.is_empty());
    }
}

#[test]
fn the_version_2_file_is_rejected_not_misparsed() {
    match decode_snapshot(&fixture("golden_v2.fdns")) {
        Err(FlowDnsError::Snapshot(msg)) => {
            assert!(msg.contains("unsupported snapshot version 2"), "{msg}")
        }
        other => panic!("expected a version rejection, got {other:?}"),
    }
}
