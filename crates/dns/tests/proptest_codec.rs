//! Property-based tests for the resolver-feed framing: arbitrary
//! (valid-shaped) records must round-trip under any chunking, names of
//! any bytes must decode as the lossy-copy path did, and the decoder
//! must never panic on arbitrary bytes.

use flowdns_dns::{FrameDecoder, FrameEncoder};
use flowdns_types::{
    DnsAnswer, DnsRecord, DomainName, DomainParseError, FlowDnsError, RecordType, SimTime,
};
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

/// Name bytes a resolver may send that the encoder never writes: the
/// empty name, the root, doubled trailing dots, invalid UTF-8 and
/// non-ASCII text in either case.
const ODD_NAMES: &[&[u8]] = &[
    b"",
    b".",
    b"..",
    b"a..",
    b"A.B.",
    b"\xff.example",
    b"\xc3",
    b"caf\xc3\xa9.EXAMPLE",
    b"\xc3\x89COLE.Fr.",
];

/// Strategy for the bytes of one name: mixed-case labels with zero to
/// two trailing dots, one of [`ODD_NAMES`], or arbitrary bytes.
fn name_bytes() -> impl Strategy<Value = Vec<u8>> {
    let labels = proptest::collection::vec(
        proptest::string::string_regex("[a-zA-Z0-9_-]{1,6}").unwrap(),
        1..=4,
    );
    prop_oneof![
        4 => (labels, 0usize..3).prop_map(|(labels, dots)| {
            let mut name = labels.join(".");
            name.push_str(&".".repeat(dots));
            name.into_bytes()
        }),
        1 => (0..ODD_NAMES.len()).prop_map(|i| ODD_NAMES[i].to_vec()),
        1 => proptest::collection::vec(any::<u8>(), 0..12),
    ]
}

/// The name path the decoder replaced, kept as its oracle: a lossy UTF-8
/// copy, then a per-`char` lower-casing collect.
fn old_path_name(bytes: &[u8]) -> Result<String, DomainParseError> {
    let text = String::from_utf8_lossy(bytes);
    let trimmed = text.strip_suffix('.').unwrap_or(&text);
    if trimmed.is_empty() {
        return Err(DomainParseError::Empty);
    }
    Ok(trimmed.chars().map(|c| c.to_ascii_lowercase()).collect())
}

/// One hand-built frame: `query` answered by `answer` (a CNAME) or by
/// an IPv4 address.
fn push_frame(query: &[u8], answer: Option<&[u8]>, wire: &mut Vec<u8>) {
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_be_bytes());
    payload.extend_from_slice(&60u32.to_be_bytes());
    let (rtype, tag) = match answer {
        Some(_) => (RecordType::Cname, 2u8),
        None => (RecordType::A, 0u8),
    };
    payload.extend_from_slice(&rtype.to_u16().to_be_bytes());
    payload.push(tag);
    payload.extend_from_slice(&(query.len() as u16).to_be_bytes());
    payload.extend_from_slice(query);
    match answer {
        Some(name) => {
            payload.extend_from_slice(&(name.len() as u16).to_be_bytes());
            payload.extend_from_slice(name);
        }
        None => payload.extend_from_slice(&[4, 192, 0, 2, 1]),
    }
    wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    wire.extend_from_slice(&payload);
}

/// What the old path decodes `bytes` to, checked against
/// `DomainName::parse` of the lossy text; `Err` holds the decoder's
/// error message for a name in the `field` position.
fn expected_name(bytes: &[u8], field: &str) -> Result<DomainName, String> {
    let parsed = DomainName::parse(&String::from_utf8_lossy(bytes));
    match old_path_name(bytes) {
        Ok(text) => {
            let name = parsed.expect("the old path accepted the name");
            assert_eq!(name.as_str(), text);
            Ok(name)
        }
        Err(e) => {
            assert_eq!(parsed, Err(e.clone()));
            Err(format!("bad {field} name in frame: {e}"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn names_decode_as_the_lossy_copy_path_did(
        raw in proptest::collection::vec(name_bytes(), 1..5),
        picks in proptest::collection::vec((0usize..8, 0usize..12), 1..24),
        chunk in 1usize..128,
    ) {
        // A small pool makes runs of one name and CNAME chains likely;
        // a pick past the pool's end answers with an address. The pool
        // also holds each raw name's normalized text, which the decoder
        // may take from the previous name ("a.." normalizes to "a.",
        // whose own bytes do not).
        let normalized = raw
            .iter()
            .filter_map(|bytes| old_path_name(bytes).ok().map(String::into_bytes));
        let pool: Vec<Vec<u8>> = raw.iter().cloned().chain(normalized).collect();
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        let mut error = None;
        for &(q, a) in &picks {
            let query = &pool[q % pool.len()];
            let answer = pool.get(a).map(Vec::as_slice);
            push_frame(query, answer, &mut wire);
            if error.is_some() {
                continue;
            }
            let record = expected_name(query, "query").and_then(|query| {
                Ok(match answer {
                    Some(a) => DnsRecord::cname(
                        SimTime::from_micros(7),
                        query,
                        expected_name(a, "answer")?,
                        60,
                    ),
                    None => DnsRecord::address(
                        SimTime::from_micros(7),
                        query,
                        std::net::Ipv4Addr::new(192, 0, 2, 1).into(),
                        60,
                    ),
                })
            });
            match record {
                Ok(record) => expected.push(record),
                Err(message) => error = Some(message),
            }
        }

        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut failed = None;
        for piece in wire.chunks(chunk) {
            if let Err(e) = decoder.feed_into(piece, &mut decoded) {
                failed = Some(e);
                break;
            }
        }
        prop_assert_eq!(&decoded, &expected);
        match (failed, error) {
            (None, None) => prop_assert_eq!(decoder.buffered(), 0),
            (Some(FlowDnsError::DnsParse(got)), Some(want)) => prop_assert_eq!(got, want),
            (got, want) => panic!("decoder error {got:?}, oracle error {want:?}"),
        }
    }

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
