//! The committed version-2 snapshot decodes, and encodes back to the
//! same bytes: the in-memory layout changed, the file format did not.
//!
//! `fixtures/golden_v2.fdns` was written by an earlier build's
//! `encode_snapshot` (see `write_golden_fixture` in
//! `crates/core/tests/golden_snapshot.rs`), whose export listed each
//! generation's IPv4 entries before its IPv6 ones — the order in which
//! today's encoder writes the columns.

use flowdns_snapshot::{decode_snapshot, encode_snapshot, StoreImage};

fn fixture() -> Vec<u8> {
    std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_v2.fdns"
    ))
    .expect("fixture present")
}

#[test]
fn the_golden_file_decodes_and_re_encodes_byte_for_byte() {
    let bytes = fixture();
    let image = decode_snapshot(&bytes).expect("fixture decodes");
    assert_eq!(encode_snapshot(&image), bytes);
}

#[test]
fn the_golden_file_covers_every_kind_and_generation() {
    let image = decode_snapshot(&fixture()).unwrap();
    assert_eq!((image.shards, image.num_split), (2, 1));
    assert_eq!(image.ip_name.len(), 2);
    let sections: Vec<&StoreImage> = image.ip_name.iter().collect();
    // Every generation of the IP-NAME store holds entries, and both
    // address families appear.
    for g in 0..3 {
        assert!(sections.iter().any(|s| !s.generations()[g].is_empty()));
    }
    assert!(sections
        .iter()
        .flat_map(|s| s.generations())
        .any(|g| !g.v4.is_empty()));
    assert!(sections
        .iter()
        .flat_map(|s| s.generations())
        .any(|g| !g.v6.is_empty()));
    for generation in image.name_cname.generations() {
        assert!(!generation.names.is_empty());
    }
}
