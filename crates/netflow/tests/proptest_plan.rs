//! Differential test of the live decoder against the generic parse.
//!
//! `ExporterDecoder` reads template-based records by a per-template
//! extraction plan, straight from the datagram. The oracle here is the
//! every-field path that knows nothing of plans: `V9Parser::parse` /
//! `IpfixParser::parse` into `DataRecord`s, then
//! `FlowExtractor::from_v9` / `from_data_records` (and, for v5,
//! `V5Packet::decode` then `from_v5`), with the counters the decoder
//! keeps derived from it. On every datagram of every generated exchange
//! the two must agree on accept/reject, on the flows and their order, and
//! on `DecodeStats`; a rejected datagram must leave the caller's vector
//! untouched.

use std::net::{IpAddr, Ipv4Addr};

use flowdns_netflow::v5::{V5Header, V5Packet, V5Record};
use flowdns_netflow::{
    DecodeStats, ExporterDecoder, ExtractorConfig, FieldSpec, FieldType, FlowExtractor,
    FlowProtocol, IpfixMessageBuilder, IpfixParser, Template, V9PacketBuilder, V9Parser,
};
use flowdns_types::{FlowRecord, SimTime};
use proptest::prelude::*;

/// The parent commit's `ExporterDecoder::decode_datagram`, kept as the
/// reference: generic parse, generic extraction, counters on the side.
#[derive(Default)]
struct Oracle {
    v9: V9Parser,
    ipfix: IpfixParser,
    extractor: FlowExtractor,
    stats: DecodeStats,
}

impl Oracle {
    fn decode(&mut self, bytes: &[u8]) -> Option<Vec<FlowRecord>> {
        let mut unknown = 0;
        let flows = match FlowProtocol::detect(bytes) {
            Some(FlowProtocol::V5) => V5Packet::decode(bytes)
                .ok()
                .map(|p| self.extractor.from_v5(&p)),
            Some(FlowProtocol::V9) => self.v9.parse(bytes).ok().map(|p| {
                unknown = p
                    .flowsets
                    .iter()
                    .filter(|fs| matches!(fs, flowdns_netflow::FlowSet::UnknownTemplate { .. }))
                    .count();
                self.extractor.from_v9(&p)
            }),
            Some(FlowProtocol::Ipfix) => self.ipfix.parse(bytes).ok().map(|m| {
                unknown = m.unknown_template_sets;
                let records: Vec<_> = m.records.iter().collect();
                self.extractor
                    .from_data_records(SimTime::from_secs(m.export_time as u64), &records)
            }),
            None => None,
        };
        match &flows {
            Some(flows) => {
                self.stats.datagrams += 1;
                self.stats.flows += flows.len() as u64;
                self.stats.unknown_template_drops += unknown as u64;
            }
            None => self.stats.malformed += 1,
        }
        self.stats.skipped_records = self.extractor.skipped;
        flows
    }
}

/// Decoder and oracle side by side; `feed` holds them to each other.
struct Pair {
    decoder: ExporterDecoder,
    oracle: Oracle,
}

impl Pair {
    fn new() -> Self {
        Pair {
            decoder: ExporterDecoder::new(ExtractorConfig::default()),
            oracle: Oracle::default(),
        }
    }

    /// Decode one datagram on both sides into a vector that already
    /// holds a record, and return the flows it contributed.
    fn feed(&mut self, bytes: &[u8]) -> Option<Vec<FlowRecord>> {
        let sentinel = FlowRecord::inbound(
            SimTime::from_secs(1),
            IpAddr::from([192, 0, 2, 1]),
            IpAddr::from([192, 0, 2, 2]),
            77,
        );
        let mut out = vec![sentinel.clone()];
        let got = self.decoder.decode_datagram_into(bytes, &mut out);
        let want = self.oracle.decode(bytes);
        assert_eq!(out[0], sentinel);
        match (&got, &want) {
            (Ok(n), Some(flows)) => {
                assert_eq!(*n, flows.len());
                assert_eq!(&out[1..], flows.as_slice());
            }
            (Err(_), None) => assert_eq!(out.len(), 1, "a rejected datagram left records behind"),
            _ => panic!("decoder {got:?}, oracle {want:?}"),
        }
        assert_eq!(self.decoder.stats, self.oracle.stats);
        want
    }
}

#[derive(Debug, Clone, Copy)]
enum Proto {
    V9,
    Ipfix,
}

/// One datagram of `source` at export time 1 000: `announce` as a
/// template set, then one data set per entry of `data`.
fn datagram(
    proto: Proto,
    source: u32,
    announce: &[Template],
    data: &[(&Template, Vec<Vec<u8>>)],
) -> Vec<u8> {
    match proto {
        Proto::V9 => {
            let mut b = V9PacketBuilder::new(source, 1, 1_000);
            if !announce.is_empty() {
                b.add_templates(announce);
            }
            for (template, records) in data {
                b.add_data(template, records).unwrap();
            }
            b.build(0)
        }
        Proto::Ipfix => {
            let mut b = IpfixMessageBuilder::new(source, 1, 1_000);
            if !announce.is_empty() {
                b.add_templates(announce);
            }
            for (template, records) in data {
                b.add_data(template, records).unwrap();
            }
            b.build()
        }
    }
}

/// Field types as the generator draws them: the types a flow is built
/// from come up more often, so a fair share of templates yields flows.
const FIELD_TYPES: [FieldType; 26] = [
    FieldType::Ipv4SrcAddr,
    FieldType::Ipv4SrcAddr,
    FieldType::Ipv4SrcAddr,
    FieldType::Ipv6SrcAddr,
    FieldType::Ipv6SrcAddr,
    FieldType::Ipv4DstAddr,
    FieldType::Ipv4DstAddr,
    FieldType::Ipv4DstAddr,
    FieldType::Ipv6DstAddr,
    FieldType::Ipv6DstAddr,
    FieldType::InBytes,
    FieldType::InBytes,
    FieldType::InBytes,
    FieldType::InBytes,
    FieldType::InPkts,
    FieldType::InPkts,
    FieldType::L4SrcPort,
    FieldType::L4DstPort,
    FieldType::Protocol,
    FieldType::Protocol,
    FieldType::FirstSwitched,
    FieldType::LastSwitched,
    FieldType::Other(3),
    FieldType::Other(150),
    FieldType::Other(5_000),
    // A known wire value behind `Other`: the record map keys by wire
    // value, so this is the IPv4 source address.
    FieldType::Other(8),
];
const ODD_WIDTHS: [u16; 8] = [1, 2, 3, 4, 5, 8, 9, 16];

fn field() -> impl Strategy<Value = FieldSpec> {
    (0..FIELD_TYPES.len(), 0usize..24).prop_map(|(t, w)| {
        let ftype = FIELD_TYPES[t];
        // One draw in three takes an odd width, the rest the default.
        let length = ODD_WIDTHS.get(w).copied().unwrap_or(ftype.default_len());
        FieldSpec { ftype, length }
    })
}

/// Record bytes: mostly zero or small, so counters are often valid
/// (bytes > 0, packets <= bytes) and often not.
fn record_byte() -> impl Strategy<Value = u8> {
    prop_oneof![3 => Just(0u8), 2 => 0u8..4, 2 => any::<u8>()]
}

/// A template's fields, how many records its data set carries, and the
/// byte pool those records are cut from.
type SetSpec = (Vec<FieldSpec>, usize, Vec<u8>);

fn set_spec() -> impl Strategy<Value = SetSpec> {
    (
        proptest::collection::vec(field(), 1..=16),
        0usize..6,
        proptest::collection::vec(record_byte(), 64..=256),
    )
}

fn records_of(template: &Template, count: usize, pool: &[u8]) -> Vec<Vec<u8>> {
    let mut bytes = pool.iter().copied().cycle();
    (0..count)
        .map(|_| bytes.by_ref().take(template.record_len()).collect())
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    FlipBit(usize),
    Truncate(usize),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::FlipBit),
        any::<usize>().prop_map(Damage::Truncate),
    ]
}

fn damaged(bytes: &[u8], damage: Damage) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    match damage {
        Damage::FlipBit(at) => {
            let bit = at % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        Damage::Truncate(at) => bytes.truncate(at % bytes.len()),
    }
    bytes
}

/// One generated exchange with an exporter: optionally the templates
/// ahead of the data, a damaged copy of the data datagram, the datagram
/// itself, then the same data sets with no template set.
fn exchange(
    proto: Proto,
    sets: &[SetSpec],
    templates_ahead: bool,
    templates_inline: bool,
    damage: Damage,
) {
    let templates: Vec<Template> = sets
        .iter()
        .zip(256u16..)
        .map(|((fields, _, _), id)| Template {
            id,
            fields: fields.clone(),
        })
        .collect();
    let data: Vec<(&Template, Vec<Vec<u8>>)> = templates
        .iter()
        .zip(sets)
        .map(|(t, (_, count, pool))| (t, records_of(t, *count, pool)))
        .collect();
    let inline: &[Template] = if templates_inline { &templates } else { &[] };

    let mut pair = Pair::new();
    if templates_ahead {
        pair.feed(&datagram(proto, 9, &templates, &[]));
    }
    let full = datagram(proto, 9, inline, &data);
    pair.feed(&damaged(&full, damage));
    pair.feed(&full);
    pair.feed(&datagram(proto, 9, &[], &data));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    #[test]
    fn v9_decoder_agrees_with_the_generic_parse(
        sets in proptest::collection::vec(set_spec(), 1..=2),
        templates_ahead in any::<bool>(),
        templates_inline in any::<bool>(),
        damage in damage(),
    ) {
        exchange(Proto::V9, &sets, templates_ahead, templates_inline, damage);
    }

    #[test]
    fn ipfix_decoder_agrees_with_the_generic_parse(
        sets in proptest::collection::vec(set_spec(), 1..=2),
        templates_ahead in any::<bool>(),
        templates_inline in any::<bool>(),
        damage in damage(),
    ) {
        exchange(Proto::Ipfix, &sets, templates_ahead, templates_inline, damage);
    }

    #[test]
    fn v5_decoder_agrees_with_the_generic_parse(
        records in proptest::collection::vec(
            (any::<[u8; 4]>(), any::<[u8; 4]>(), any::<u16>(), any::<u16>(), any::<u8>(), 0u32..4, 0u32..4),
            1..=30),
        secs in any::<u32>(),
        damage in damage(),
    ) {
        let packet = V5Packet {
            header: V5Header { unix_secs: secs, ..V5Header::default() },
            records: records
                .into_iter()
                .map(|(src, dst, src_port, dst_port, proto, packets, octets)| V5Record {
                    src_addr: Ipv4Addr::from(src),
                    dst_addr: Ipv4Addr::from(dst),
                    src_port,
                    dst_port,
                    proto,
                    packets,
                    octets,
                    ..V5Record::default()
                })
                .collect(),
        };
        let bytes = packet.encode().unwrap();
        let mut pair = Pair::new();
        pair.feed(&damaged(&bytes, damage));
        pair.feed(&bytes);
    }
}

fn spec(ftype: FieldType, length: u16) -> FieldSpec {
    FieldSpec { ftype, length }
}

/// src 10.0.0.`n`, dst 10.0.1.`n`, `bytes` in a 2-byte counter.
fn small_template(id: u16) -> Template {
    Template {
        id,
        fields: vec![
            spec(FieldType::Ipv4SrcAddr, 4),
            spec(FieldType::Ipv4DstAddr, 4),
            spec(FieldType::InBytes, 2),
        ],
    }
}

fn small_record(n: u8, bytes: u16) -> Vec<u8> {
    [&[10, 0, 0, n, 10, 0, 1, n][..], &bytes.to_be_bytes()].concat()
}

/// The same three values as [`small_template`], in the opposite order.
fn reversed_template(id: u16) -> Template {
    let mut t = small_template(id);
    t.fields.reverse();
    t
}

fn reversed_record(n: u8, bytes: u16) -> Vec<u8> {
    [&bytes.to_be_bytes()[..], &[10, 0, 1, n, 10, 0, 0, n]].concat()
}

#[test]
fn reannounced_template_decodes_the_next_set_by_the_new_layout() {
    for proto in [Proto::V9, Proto::Ipfix] {
        let (old, new) = (small_template(300), reversed_template(300));
        let mut pair = Pair::new();
        let flows = pair
            .feed(&datagram(
                proto,
                1,
                std::slice::from_ref(&old),
                &[(&old, vec![small_record(1, 500)])],
            ))
            .unwrap();
        assert_eq!(flows[0].bytes, 500);
        // Re-announced in the same datagram as the data that follows it.
        let flows = pair
            .feed(&datagram(
                proto,
                1,
                std::slice::from_ref(&new),
                &[(&new, vec![reversed_record(2, 900)])],
            ))
            .unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 900);
        assert_eq!(flows[0].key.src_ip, IpAddr::from([10, 0, 0, 2]));
        // And it stays: a data-only datagram reads by the new layout too.
        let flows = pair
            .feed(&datagram(
                proto,
                1,
                &[],
                &[(&new, vec![reversed_record(3, 700)])],
            ))
            .unwrap();
        assert_eq!(flows[0].bytes, 700);
        assert_eq!(flows[0].key.dst_ip, IpAddr::from([10, 0, 1, 3]));
    }
}

#[test]
fn sources_reusing_a_template_id_stay_isolated() {
    for proto in [Proto::V9, Proto::Ipfix] {
        let (a, b) = (small_template(256), reversed_template(256));
        let mut pair = Pair::new();
        pair.feed(&datagram(proto, 1, std::slice::from_ref(&a), &[]));
        pair.feed(&datagram(proto, 2, std::slice::from_ref(&b), &[]));
        let of_a = pair
            .feed(&datagram(
                proto,
                1,
                &[],
                &[(&a, vec![small_record(1, 111)])],
            ))
            .unwrap();
        let of_b = pair
            .feed(&datagram(
                proto,
                2,
                &[],
                &[(&b, vec![reversed_record(2, 222)])],
            ))
            .unwrap();
        assert_eq!((of_a[0].bytes, of_b[0].bytes), (111, 222));
        assert_eq!(of_a[0].key.src_ip, IpAddr::from([10, 0, 0, 1]));
        assert_eq!(of_b[0].key.src_ip, IpAddr::from([10, 0, 0, 2]));
    }
}

#[test]
fn data_before_its_template_is_a_counted_drop_then_decodes() {
    for proto in [Proto::V9, Proto::Ipfix] {
        let t = small_template(256);
        let data = [(&t, vec![small_record(1, 40), small_record(2, 50)])];
        let mut pair = Pair::new();
        assert!(pair
            .feed(&datagram(proto, 1, &[], &data))
            .unwrap()
            .is_empty());
        assert_eq!(pair.decoder.stats.unknown_template_drops, 1);
        assert_eq!(pair.decoder.stats.malformed, 0);
        pair.feed(&datagram(proto, 1, std::slice::from_ref(&t), &[]));
        assert_eq!(pair.feed(&datagram(proto, 1, &[], &data)).unwrap().len(), 2);
        assert_eq!(pair.decoder.stats.flows, 2);
    }
}

#[test]
fn an_ipv4_address_type_announced_sixteen_wide_carries_an_ipv6_address() {
    for proto in [Proto::V9, Proto::Ipfix] {
        let t = Template {
            id: 260,
            fields: vec![
                spec(FieldType::Ipv4SrcAddr, 16),
                spec(FieldType::Ipv6DstAddr, 4),
                spec(FieldType::InBytes, 1),
                spec(FieldType::InPkts, 1),
            ],
        };
        let mut record = vec![0u8; 22];
        record[0] = 0x20;
        record[15] = 1;
        record[16..20].copy_from_slice(&[10, 0, 0, 1]);
        record[20] = 9; // bytes
        let mut more_packets_than_bytes = record.clone();
        more_packets_than_bytes[21] = 10;
        let mut pair = Pair::new();
        let flows = pair
            .feed(&datagram(
                proto,
                1,
                std::slice::from_ref(&t),
                &[(&t, vec![record, more_packets_than_bytes])],
            ))
            .unwrap();
        assert_eq!(flows.len(), 1);
        assert!(flows[0].key.src_ip.is_ipv6());
        assert!(flows[0].key.dst_ip.is_ipv4());
        assert_eq!(pair.decoder.stats.skipped_records, 1);
    }
}

#[test]
fn a_template_without_bytes_skips_every_record() {
    for proto in [Proto::V9, Proto::Ipfix] {
        let t = Template {
            id: 256,
            fields: vec![
                spec(FieldType::Ipv4SrcAddr, 4),
                spec(FieldType::Ipv4DstAddr, 4),
                spec(FieldType::InPkts, 4),
            ],
        };
        let mut pair = Pair::new();
        let flows = pair
            .feed(&datagram(
                proto,
                1,
                std::slice::from_ref(&t),
                &[(&t, vec![vec![1u8; 12]; 3])],
            ))
            .unwrap();
        assert!(flows.is_empty());
        assert_eq!(pair.decoder.stats.datagrams, 1);
        assert_eq!(pair.decoder.stats.skipped_records, 3);
    }
}
