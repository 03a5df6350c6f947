//! Property-based tests for the resolver-feed framing: arbitrary
//! (valid-shaped) records must round-trip under any chunking, and the
//! decoder must never panic on arbitrary bytes.

use flowdns_dns::{FrameDecoder, FrameEncoder};
use flowdns_types::{DnsAnswer, DnsRecord, DomainName, RecordType, SimTime};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Strategy for DNS-safe labels (letters/digits/hyphens, 1..=15 chars).
fn label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9-]{0,14}").unwrap()
}

/// Strategy for domain names with 1..=5 labels.
fn domain() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(label(), 1..=5)
        .prop_map(|labels| DomainName::literal(&labels.join(".")))
}

fn dns_record() -> impl Strategy<Value = DnsRecord> {
    (
        any::<u64>(),
        domain(),
        0u32..1_000_000,
        prop_oneof![
            any::<[u8; 4]>().prop_map(|b| DnsAnswer::Ip(Ipv4Addr::from(b).into())),
            any::<[u8; 16]>().prop_map(|b| DnsAnswer::Ip(Ipv6Addr::from(b).into())),
            domain().prop_map(DnsAnswer::Name),
        ],
    )
        .prop_map(|(ts, query, ttl, answer)| {
            let rtype = match &answer {
                DnsAnswer::Ip(std::net::IpAddr::V4(_)) => RecordType::A,
                DnsAnswer::Ip(std::net::IpAddr::V6(_)) => RecordType::Aaaa,
                _ => RecordType::Cname,
            };
            DnsRecord {
                ts: SimTime::from_micros(ts % (1 << 50)),
                query,
                rtype,
                ttl,
                answer,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frames_round_trip(records in proptest::collection::vec(dns_record(), 0..32)) {
        let encoded = FrameEncoder::new().encode_batch(&records).unwrap();
        let mut decoder = FrameDecoder::new();
        let decoded = decoder.feed(&encoded).unwrap();
        prop_assert_eq!(decoded, records);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn frames_round_trip_under_arbitrary_chunking(
        records in proptest::collection::vec(dns_record(), 1..16),
        chunk in 1usize..64,
    ) {
        let encoded = FrameEncoder::new().encode_batch(&records).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in encoded.chunks(chunk) {
            decoded.extend(decoder.feed(piece).unwrap());
        }
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn frame_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut decoder = FrameDecoder::new();
        let _ = decoder.feed(&bytes);
    }
}
