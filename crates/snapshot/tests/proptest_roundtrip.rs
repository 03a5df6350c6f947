//! Property-based tests of the snapshot codec: any well-formed image
//! must survive encode → decode byte-exactly, and any prefix truncation
//! of the encoded file must be rejected (never mis-decoded).

use std::sync::Arc;

use flowdns_snapshot::{
    decode_snapshot, encode_snapshot, Columns, DnsStoreImage, IpColumns, NameColumns, StoreImage,
};
use flowdns_types::SimTime;
use proptest::prelude::*;

fn ip_entries(names: u32) -> impl Strategy<Value = IpColumns> {
    (
        proptest::collection::vec((any::<u32>(), 0..names), 0..12),
        proptest::collection::vec((any::<u128>(), 0..names), 0..8),
    )
        .prop_map(|(v4, v6)| IpColumns {
            v4,
            v6: v6
                .into_iter()
                .map(|(bits, value)| (bits.to_le_bytes(), value))
                .collect(),
        })
}

fn name_entries(names: u32) -> impl Strategy<Value = NameColumns> {
    proptest::collection::vec((0..names, 0..names), 0..20)
}

fn opt_ts() -> impl Strategy<Value = Option<SimTime>> {
    prop_oneof![
        Just(None),
        (0u64..1_000_000_000).prop_map(|micros| Some(SimTime::from_micros(micros))),
    ]
}

fn store_image<C: Columns + std::fmt::Debug, S: Strategy<Value = C>>(
    generation: impl Fn() -> S,
) -> impl Strategy<Value = StoreImage<C>> {
    (opt_ts(), opt_ts(), generation(), generation(), generation()).prop_map(
        |(last_clear_ts, last_seen_ts, active, inactive, long)| StoreImage {
            last_clear_ts,
            last_seen_ts,
            active,
            inactive,
            long,
        },
    )
}

fn ip_store_image(names: u32) -> impl Strategy<Value = StoreImage<IpColumns>> {
    store_image(move || ip_entries(names))
}

fn cname_store_image(names: u32) -> impl Strategy<Value = StoreImage<NameColumns>> {
    store_image(move || name_entries(names))
}

const NAMES: u32 = 8;

fn name_table() -> impl Strategy<Value = Vec<Arc<str>>> {
    proptest::collection::vec(
        proptest::string::string_regex("[a-z0-9]{1,12}\\.[a-z]{2,8}")
            .unwrap()
            .prop_map(Arc::from),
        NAMES as usize..(NAMES as usize + 1),
    )
}

fn dns_store_image() -> impl Strategy<Value = DnsStoreImage> {
    (
        0u64..1_000_000_000,
        name_table(),
        // One section per shard, 1 to 4 shards.
        proptest::collection::vec(ip_store_image(NAMES), 1..5),
        cname_store_image(NAMES),
        0u64..100_000,
        0u64..100_000,
    )
        .prop_map(
            |(as_of, names, ip_name, name_cname, a_secs, c_secs)| DnsStoreImage {
                as_of: SimTime::from_micros(as_of),
                a_interval_secs: a_secs,
                c_interval_secs: c_secs,
                names,
                ip_name,
                name_cname,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_is_the_identity(image in dns_store_image()) {
        let bytes = encode_snapshot(&image);
        let back = decode_snapshot(&bytes).expect("well-formed image must decode");
        prop_assert_eq!(back, image);
    }

    #[test]
    fn every_truncation_is_rejected(image in dns_store_image(), cut_back in 1usize..64) {
        let bytes = encode_snapshot(&image);
        // Cut anywhere — header, checksum, or payload — and the loader
        // must reject rather than return a partial store.
        let cut = bytes.len().saturating_sub(cut_back);
        prop_assert!(decode_snapshot(&bytes[..cut]).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_equal(image in dns_store_image(), pos in any::<u16>(), bit in 0u8..8) {
        let bytes = encode_snapshot(&image);
        let pos = (pos as usize) % bytes.len();
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << bit;
        // Flips in the payload are caught by the checksum; flips in the
        // header fail the magic/version/length/checksum checks. A flip
        // of the stored checksum itself also fails (payload no longer
        // matches). No flip may decode successfully.
        prop_assert!(decode_snapshot(&flipped).is_err());
    }
}
