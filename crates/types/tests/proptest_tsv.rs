//! `CorrelatedRecord::write_tsv` against an oracle that shares no code
//! with it.
//!
//! The benchmark's reference implementation renders its expected lines
//! with `to_tsv`, which is a wrapper over `write_tsv` — so the output
//! gate compares the formatter with itself. The oracle here is the
//! `format!`-based body `to_tsv` had before the formatter was rebuilt:
//! `Display` of every column, joined by tabs.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use flowdns_types::{CorrelatedRecord, CorrelationOutcome, DomainName, FlowRecord, SimTime};
use proptest::prelude::*;

fn oracle(record: &CorrelatedRecord) -> String {
    let query = record
        .outcome
        .first_name()
        .map(|n| n.as_str().to_string())
        .unwrap_or_else(|| "-".to_string());
    let final_name = record
        .outcome
        .final_name()
        .map(|n| n.as_str().to_string())
        .unwrap_or_else(|| "-".to_string());
    let asn_col = |asn: Option<u32>| match asn {
        Some(asn) => asn.to_string(),
        None => "-".to_string(),
    };
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        record.flow.ts.as_secs(),
        record.flow.key.src_ip,
        record.flow.key.dst_ip,
        record.flow.bytes,
        asn_col(record.src_asn),
        asn_col(record.dst_asn),
        query,
        final_name
    )
}

/// 0, the maximum, or anything.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
}

/// IPv6 segments drawn mostly from {0, 1, ffff} so that `::` runs of
/// every length and position, including two competing runs, come up.
fn v6_segment() -> impl Strategy<Value = u16> {
    prop_oneof![4 => Just(0u16), 1 => Just(1u16), 1 => Just(0xffffu16), 2 => any::<u16>()]
}

fn ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        4 => any::<u32>().prop_map(|bits| IpAddr::V4(Ipv4Addr::from(bits))),
        1 => prop_oneof![Just(0u32), Just(u32::MAX), Just(0x0a00_0001u32)]
            .prop_map(|bits| IpAddr::V4(Ipv4Addr::from(bits))),
        4 => proptest::collection::vec(v6_segment(), 8).prop_map(|s| {
            IpAddr::V6(Ipv6Addr::new(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]))
        }),
        1 => any::<u32>().prop_map(|bits| IpAddr::V6(Ipv4Addr::from(bits).to_ipv6_mapped())),
        1 => Just(IpAddr::V6(Ipv6Addr::UNSPECIFIED)),
        1 => Just(IpAddr::V6(Ipv6Addr::from(u128::MAX))),
        1 => any::<u128>().prop_map(|bits| IpAddr::V6(Ipv6Addr::from(bits))),
    ]
}

fn asn() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![
        Just(None),
        Just(Some(0u32)),
        Just(Some(u32::MAX)),
        any::<u32>().prop_map(Some)
    ]
}

fn name() -> impl Strategy<Value = DomainName> {
    let label = proptest::string::string_regex("[a-z0-9_-]{1,30}").expect("supported regex");
    proptest::collection::vec(label, 1..=7)
        .prop_map(|labels| DomainName::literal(&labels.join(".")))
}

fn outcome() -> impl Strategy<Value = CorrelationOutcome> {
    prop_oneof![
        Just(CorrelationOutcome::NotFound),
        name().prop_map(CorrelationOutcome::Name),
        proptest::collection::vec(name(), 1..=5).prop_map(CorrelationOutcome::Chain),
    ]
}

fn record() -> impl Strategy<Value = CorrelatedRecord> {
    (edge_u64(), ip(), ip(), edge_u64(), asn(), asn(), outcome()).prop_map(
        |(micros, src, dst, bytes, src_asn, dst_asn, outcome)| {
            CorrelatedRecord::new(
                FlowRecord::inbound(SimTime::from_micros(micros), src, dst, bytes),
                outcome,
            )
            .with_asns(src_asn, dst_asn)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn write_tsv_appends_exactly_the_oracle_line(
        record in record(),
        prefix in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let expected = oracle(&record);
        let mut out = prefix.clone();
        record.write_tsv(&mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(std::str::from_utf8(&out[prefix.len()..]).unwrap(), expected.as_str());
        prop_assert_eq!(record.to_tsv(), expected.clone());
        prop_assert_eq!(record.to_string(), expected);
    }
}

fn v4(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
    Ipv4Addr::new(a, b, c, d).into()
}

#[test]
fn golden_lines() {
    let name = DomainName::literal;
    let cases = [
        (
            CorrelatedRecord::new(
                FlowRecord::inbound(
                    SimTime::from_secs(42),
                    v4(203, 0, 113, 9),
                    v4(10, 1, 2, 3),
                    5000,
                ),
                CorrelationOutcome::Name(name("video.example.com")),
            )
            .with_asns(Some(64500), None),
            "42\t203.0.113.9\t10.1.2.3\t5000\t64500\t-\tvideo.example.com\tvideo.example.com",
        ),
        (
            CorrelatedRecord::new(
                FlowRecord::inbound(SimTime::ZERO, v4(0, 0, 0, 0), v4(255, 255, 255, 255), 0),
                CorrelationOutcome::NotFound,
            ),
            "0\t0.0.0.0\t255.255.255.255\t0\t-\t-\t-\t-",
        ),
        (
            CorrelatedRecord::new(
                FlowRecord::inbound(
                    SimTime::from_micros(u64::MAX),
                    "2001:db8::1".parse().unwrap(),
                    "::ffff:192.0.2.7".parse().unwrap(),
                    u64::MAX,
                ),
                CorrelationOutcome::Chain(vec![
                    name("www.shop.example"),
                    name("shop.cdn.example.net"),
                    name("edge7.cdn.example.net"),
                ]),
            )
            .with_asns(Some(0), Some(u32::MAX)),
            "18446744073709\t2001:db8::1\t::ffff:192.0.2.7\t18446744073709551615\t0\t4294967295\t\
             www.shop.example\tedge7.cdn.example.net",
        ),
        (
            CorrelatedRecord::new(
                FlowRecord::inbound(
                    SimTime::from_secs(1_700_000_000),
                    "::".parse().unwrap(),
                    "1:0:0:2:0:0:0:3".parse().unwrap(),
                    1,
                ),
                CorrelationOutcome::Chain(vec![name("only.example")]),
            ),
            "1700000000\t::\t1:0:0:2::3\t1\t-\t-\tonly.example\tonly.example",
        ),
    ];
    for (record, line) in cases {
        assert_eq!(record.to_tsv(), line);
        let mut out = Vec::new();
        record.write_tsv(&mut out);
        assert_eq!(out, line.as_bytes());
    }
}
