//! Per-exporter datagram decoding with protocol auto-detection.
//!
//! A collector socket receives export datagrams from many exporters, and
//! nothing but the first two bytes says which protocol a datagram speaks:
//! the version word is 5 for NetFlow v5, 9 for NetFlow v9 and 10 for
//! IPFIX. [`ExporterDecoder`] sniffs that word and dispatches to the
//! right codec while keeping **per-exporter** parser state (template
//! registries, counters), so the ingest layer can hold one decoder per
//! peer address and two exporters can never corrupt each other's
//! templates — even when they reuse the same source id and template id
//! with different field layouts.

use flowdns_types::{FlowDnsError, FlowRecord, SimTime};

use crate::extract::{v5_flow, ExtractorConfig};
use crate::ipfix;
use crate::template::TemplateRegistry;
use crate::v5::{split_packet, V5Record, V5_RECORD_LEN};
use crate::v9::{walk_packet, Section};

/// The export protocol spoken by a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowProtocol {
    /// Fixed-layout NetFlow version 5.
    V5,
    /// Template-based NetFlow version 9 (RFC 3954).
    V9,
    /// IPFIX (RFC 7011).
    Ipfix,
}

impl FlowProtocol {
    /// Sniff the protocol from the version word of a datagram. Returns
    /// `None` when the datagram is too short or the version is unknown.
    pub fn detect(bytes: &[u8]) -> Option<FlowProtocol> {
        if bytes.len() < 2 {
            return None;
        }
        match u16::from_be_bytes([bytes[0], bytes[1]]) {
            5 => Some(FlowProtocol::V5),
            9 => Some(FlowProtocol::V9),
            10 => Some(FlowProtocol::Ipfix),
            _ => None,
        }
    }

    /// The label used in logs and stats lines.
    pub fn label(&self) -> &'static str {
        match self {
            FlowProtocol::V5 => "v5",
            FlowProtocol::V9 => "v9",
            FlowProtocol::Ipfix => "ipfix",
        }
    }
}

impl std::fmt::Display for FlowProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters of one exporter's decode state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Datagrams successfully decoded.
    pub datagrams: u64,
    /// Flow records extracted from decoded datagrams.
    pub flows: u64,
    /// Datagrams rejected as malformed (bad version word, truncation,
    /// corrupt flowsets, ...).
    pub malformed: u64,
    /// Data flowsets/sets dropped because their template was not (yet)
    /// known — the paper's warm-up loss, counted as drops, not errors.
    pub unknown_template_drops: u64,
    /// Records of decoded datagrams that yielded no flow: the template
    /// has no usable source, destination or bytes field, or the record
    /// fails [`FlowRecord::is_valid`] (zero bytes, more packets than
    /// bytes). With `flows`, this accounts for every record of every
    /// accepted datagram.
    pub skipped_records: u64,
}

impl DecodeStats {
    /// Fold another exporter's counters into this one.
    pub fn merge(&mut self, other: &DecodeStats) {
        self.datagrams += other.datagrams;
        self.flows += other.flows;
        self.malformed += other.malformed;
        self.unknown_template_drops += other.unknown_template_drops;
        self.skipped_records += other.skipped_records;
    }
}

/// Stateful decoder for **one** exporter peer.
///
/// Keeps independent v9 and IPFIX template state (a per-source
/// [`TemplateRegistry`] each) and turns raw datagrams into
/// [`FlowRecord`]s. Template-based data sets are decoded by the
/// extraction plan compiled when their template arrived: each record is
/// read straight from the datagram into the caller's vector.
#[derive(Debug, Default)]
pub struct ExporterDecoder {
    v9_templates: TemplateRegistry,
    ipfix_templates: TemplateRegistry,
    config: ExtractorConfig,
    /// Decode counters for this exporter.
    pub stats: DecodeStats,
}

/// What one datagram adds to [`DecodeStats`] if it is accepted.
#[derive(Default)]
struct Tally {
    skipped_records: u64,
    unknown_template_sets: u64,
}

impl ExporterDecoder {
    /// A fresh decoder with empty template state.
    pub fn new(config: ExtractorConfig) -> Self {
        ExporterDecoder {
            v9_templates: TemplateRegistry::new(),
            ipfix_templates: TemplateRegistry::new(),
            config,
            stats: DecodeStats::default(),
        }
    }

    /// Decode one datagram into flow records, auto-detecting the protocol.
    ///
    /// Malformed datagrams return an error *and* increment
    /// [`DecodeStats::malformed`]; data arriving before its template is
    /// not an error — it yields fewer (possibly zero) records and
    /// increments [`DecodeStats::unknown_template_drops`].
    pub fn decode_datagram(&mut self, bytes: &[u8]) -> Result<Vec<FlowRecord>, FlowDnsError> {
        let mut flows = Vec::new();
        self.decode_datagram_into(bytes, &mut flows)?;
        Ok(flows)
    }

    /// Like [`decode_datagram`](Self::decode_datagram), but appends the
    /// decoded records to `out` instead of allocating a fresh vector —
    /// the batched listeners decode a whole socket drain into one
    /// reusable buffer and push it to the pipeline in a single batch.
    /// Returns how many records this datagram contributed. A datagram is
    /// accepted whole or not at all: a malformed one is counted (and
    /// reported as `Err`) and leaves `out` exactly as it was handed in.
    pub fn decode_datagram_into(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<FlowRecord>,
    ) -> Result<usize, FlowDnsError> {
        let len_on_entry = out.len();
        let mut tally = Tally::default();
        let result = match FlowProtocol::detect(bytes) {
            Some(FlowProtocol::V5) => append_v5(&self.config, bytes, out, &mut tally),
            Some(FlowProtocol::V9) => {
                let config = &self.config;
                walk_packet(bytes, &mut self.v9_templates, |header, section| {
                    let ts = SimTime::from_secs(header.unix_secs as u64);
                    append_section(config, ts, section, out, &mut tally);
                })
                .map(|_| ())
            }
            Some(FlowProtocol::Ipfix) => {
                let config = &self.config;
                ipfix::walk_message(bytes, &mut self.ipfix_templates, |header, section| {
                    let ts = SimTime::from_secs(header.export_time as u64);
                    append_section(config, ts, section, out, &mut tally);
                })
                .map(|_| ())
            }
            None => Err(FlowDnsError::NetflowParse(
                "unrecognized export protocol version".into(),
            )),
        };
        match result {
            Ok(()) => {
                let flows = out.len() - len_on_entry;
                self.stats.datagrams += 1;
                self.stats.flows += flows as u64;
                self.stats.skipped_records += tally.skipped_records;
                self.stats.unknown_template_drops += tally.unknown_template_sets;
                Ok(flows)
            }
            Err(e) => {
                out.truncate(len_on_entry);
                self.stats.malformed += 1;
                Err(e)
            }
        }
    }
}

/// One v9 flowset / IPFIX set of the live decode: data sets are read by
/// their template's plan, everything else only counted.
fn append_section(
    config: &ExtractorConfig,
    ts: SimTime,
    section: Section<'_>,
    out: &mut Vec<FlowRecord>,
    tally: &mut Tally,
) {
    match section {
        Section::Data { plan, records, .. } => {
            tally.skipped_records += plan.append_flows(records, ts, config, out);
        }
        Section::UnknownTemplate { .. } => tally.unknown_template_sets += 1,
        Section::Templates(_) | Section::OptionsTemplate => {}
    }
}

/// A v5 datagram: the export timestamp of the packet is the record
/// timestamp (v5 per-flow times are router-uptime-relative).
fn append_v5(
    config: &ExtractorConfig,
    bytes: &[u8],
    out: &mut Vec<FlowRecord>,
    tally: &mut Tally,
) -> Result<(), FlowDnsError> {
    let (header, records) = split_packet(bytes)?;
    let ts = SimTime::from_secs(header.unix_secs as u64);
    for record in records.chunks_exact(V5_RECORD_LEN) {
        let flow = v5_flow(config, ts, &V5Record::from_wire(record));
        if flow.is_valid() {
            out.push(flow);
        } else {
            tally.skipped_records += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use crate::v9::{encode_standard_ipv4_record, V9PacketBuilder};
    use crate::IpfixMessageBuilder;
    use std::net::Ipv4Addr;

    fn v9_packet(with_template: bool, bytes: u32) -> Vec<u8> {
        let template = Template::standard_ipv4(256);
        let mut b = V9PacketBuilder::new(7, 1, 1_700_000_000);
        if with_template {
            b.add_templates(std::slice::from_ref(&template));
        }
        let rec = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            51000,
            6,
            bytes,
            10,
            0,
            1,
        );
        b.add_data(&template, &[rec]).unwrap();
        b.build(1)
    }

    #[test]
    fn detects_all_three_protocols() {
        assert_eq!(FlowProtocol::detect(&[0, 5, 0, 0]), Some(FlowProtocol::V5));
        assert_eq!(FlowProtocol::detect(&[0, 9, 0, 0]), Some(FlowProtocol::V9));
        assert_eq!(
            FlowProtocol::detect(&[0, 10, 0, 0]),
            Some(FlowProtocol::Ipfix)
        );
        assert_eq!(FlowProtocol::detect(&[0, 11]), None);
        assert_eq!(FlowProtocol::detect(&[5]), None);
        assert_eq!(FlowProtocol::detect(&[]), None);
    }

    #[test]
    fn decodes_v5_v9_and_ipfix_through_one_decoder() {
        let mut d = ExporterDecoder::new(ExtractorConfig::default());

        let v5 = crate::v5::V5Packet {
            header: crate::v5::V5Header {
                unix_secs: 100,
                ..Default::default()
            },
            records: vec![crate::v5::V5Record {
                src_addr: Ipv4Addr::new(198, 51, 100, 1),
                dst_addr: Ipv4Addr::new(10, 0, 0, 2),
                packets: 3,
                octets: 900,
                ..Default::default()
            }],
        };
        let flows = d.decode_datagram(&v5.encode().unwrap()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 900);

        let flows = d.decode_datagram(&v9_packet(true, 5_000)).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 5_000);

        let template = Template::standard_ipv4(400);
        let mut b = IpfixMessageBuilder::new(55, 1, 200);
        b.add_templates(std::slice::from_ref(&template));
        let rec = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 9),
            Ipv4Addr::new(10, 0, 0, 3),
            443,
            50000,
            17,
            7_000,
            5,
            0,
            1,
        );
        b.add_data(&template, &[rec]).unwrap();
        let flows = d.decode_datagram(&b.build()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 7_000);

        assert_eq!(d.stats.datagrams, 3);
        assert_eq!(d.stats.flows, 3);
        assert_eq!(d.stats.malformed, 0);
    }

    #[test]
    fn data_before_template_is_a_drop_not_an_error() {
        let mut d = ExporterDecoder::new(ExtractorConfig::default());
        let flows = d.decode_datagram(&v9_packet(false, 1_000)).unwrap();
        assert!(flows.is_empty());
        assert_eq!(d.stats.unknown_template_drops, 1);
        assert_eq!(d.stats.malformed, 0);
        // Once the template arrives, data decodes.
        let flows = d.decode_datagram(&v9_packet(true, 1_000)).unwrap();
        assert_eq!(flows.len(), 1);
    }

    #[test]
    fn malformed_datagrams_are_counted() {
        let mut d = ExporterDecoder::new(ExtractorConfig::default());
        assert!(d.decode_datagram(&[0xde, 0xad, 0xbe, 0xef]).is_err());
        assert!(d.decode_datagram(&[]).is_err());
        let truncated = &v9_packet(true, 1)[..10];
        assert!(d.decode_datagram(truncated).is_err());
        assert_eq!(d.stats.malformed, 3);
        assert_eq!(d.stats.datagrams, 0);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = DecodeStats {
            datagrams: 1,
            flows: 2,
            malformed: 3,
            unknown_template_drops: 4,
            skipped_records: 5,
        };
        a.merge(&DecodeStats {
            datagrams: 10,
            flows: 20,
            malformed: 30,
            unknown_template_drops: 40,
            skipped_records: 50,
        });
        assert_eq!(a.datagrams, 11);
        assert_eq!(a.flows, 22);
        assert_eq!(a.malformed, 33);
        assert_eq!(a.unknown_template_drops, 44);
        assert_eq!(a.skipped_records, 55);
    }
}
