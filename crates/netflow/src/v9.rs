//! NetFlow version 9 packet codec (RFC 3954).
//!
//! A v9 packet is a 20-byte header followed by *flowsets*. A template
//! flowset (id 0) announces templates; a data flowset (id ≥ 256) carries
//! records laid out according to a previously announced template. The
//! [`V9Parser`] keeps a [`TemplateCache`](crate::template::TemplateCache)
//! across packets, exactly like a real collector, so data flowsets
//! arriving before their templates are counted instead of crashing the
//! parse.

use std::collections::BTreeMap;
use std::net::IpAddr;

use flowdns_types::FlowDnsError;

use crate::plan::ExtractionPlan;
use crate::template::{FieldSpec, FieldType, PlannedTemplate, Template, TemplateRegistry};

fn err(msg: impl Into<String>) -> FlowDnsError {
    FlowDnsError::NetflowParse(msg.into())
}

/// Size of the v9 packet header in bytes.
pub const V9_HEADER_LEN: usize = 20;
/// Flowset id announcing data templates.
pub const TEMPLATE_FLOWSET_ID: u16 = 0;
/// Flowset id announcing options templates (parsed and skipped).
pub const OPTIONS_TEMPLATE_FLOWSET_ID: u16 = 1;

/// One decoded data record: field values keyed by field type.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataRecord {
    /// Raw field values, keyed by wire field-type value to keep an
    /// unambiguous ordering for tests.
    pub fields: BTreeMap<u16, Vec<u8>>,
}

impl DataRecord {
    /// Split one record's bytes into its template's fields. Of a
    /// repeated field type the last occurrence is kept.
    pub(crate) fn from_wire(template: &Template, bytes: &[u8]) -> Self {
        let mut record = DataRecord::default();
        let mut pos = 0usize;
        for field in &template.fields {
            let len = field.length as usize;
            record
                .fields
                .insert(field.ftype.to_u16(), bytes[pos..pos + len].to_vec());
            pos += len;
        }
        record
    }

    /// Get a field's raw bytes.
    pub fn raw(&self, ftype: FieldType) -> Option<&[u8]> {
        self.fields.get(&ftype.to_u16()).map(|v| v.as_slice())
    }

    /// Interpret a field as a big-endian unsigned integer (1–8 bytes).
    pub fn uint(&self, ftype: FieldType) -> Option<u64> {
        let raw = self.raw(ftype)?;
        if raw.is_empty() || raw.len() > 8 {
            return None;
        }
        let mut v = 0u64;
        for b in raw {
            v = (v << 8) | *b as u64;
        }
        Some(v)
    }

    /// Interpret a field as an IP address (4 or 16 bytes).
    pub fn ip(&self, ftype: FieldType) -> Option<IpAddr> {
        let raw = self.raw(ftype)?;
        match raw.len() {
            4 => Some(IpAddr::from([raw[0], raw[1], raw[2], raw[3]])),
            16 => {
                let mut o = [0u8; 16];
                o.copy_from_slice(raw);
                Some(IpAddr::from(o))
            }
            _ => None,
        }
    }
}

/// One flowset of a parsed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowSet {
    /// A template flowset carrying template definitions.
    Templates(Vec<Template>),
    /// A data flowset whose template was known: decoded records.
    Data {
        /// The template id the records follow.
        template_id: u16,
        /// The decoded records.
        records: Vec<DataRecord>,
    },
    /// A data flowset whose template was not (yet) known.
    UnknownTemplate {
        /// The referenced template id.
        template_id: u16,
        /// The undecoded payload bytes.
        bytes: usize,
    },
    /// An options-template flowset (recognized but not interpreted).
    OptionsTemplate,
}

/// A parsed NetFlow v9 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V9Packet {
    /// Milliseconds since the exporter booted.
    pub sys_uptime_ms: u32,
    /// Export time in seconds since the Unix epoch.
    pub unix_secs: u32,
    /// Packet sequence number.
    pub sequence: u32,
    /// Exporter source id.
    pub source_id: u32,
    /// The flowsets carried by the packet.
    pub flowsets: Vec<FlowSet>,
}

impl V9Packet {
    /// All successfully decoded data records in the packet.
    pub fn data_records(&self) -> impl Iterator<Item = &DataRecord> {
        self.flowsets.iter().flat_map(|fs| match fs {
            FlowSet::Data { records, .. } => records.as_slice(),
            _ => &[],
        })
    }
}

/// Stateful NetFlow v9 parser (one per exporter peer).
#[derive(Debug, Default)]
pub struct V9Parser {
    /// Per-source template caches shared across packets.
    pub templates: TemplateRegistry,
    /// Total packets parsed.
    pub packets: u64,
    /// Total data records decoded.
    pub records: u64,
}

impl V9Parser {
    /// A fresh parser with an empty template cache.
    pub fn new() -> Self {
        V9Parser::default()
    }

    /// Parse one export packet, updating the template cache.
    pub fn parse(&mut self, bytes: &[u8]) -> Result<V9Packet, FlowDnsError> {
        let mut flowsets = Vec::new();
        let (header, decoded_records) = walk_packet(bytes, &mut self.templates, |_, section| {
            flowsets.push(match section {
                Section::Templates(templates) => FlowSet::Templates(templates.to_vec()),
                Section::OptionsTemplate => FlowSet::OptionsTemplate,
                Section::Data {
                    template, records, ..
                } => FlowSet::Data {
                    template_id: template.id,
                    records: records
                        .chunks_exact(template.record_len())
                        .map(|r| DataRecord::from_wire(template, r))
                        .collect(),
                },
                Section::UnknownTemplate { template_id, bytes } => {
                    FlowSet::UnknownTemplate { template_id, bytes }
                }
            });
        })?;
        self.packets += 1;
        self.records += decoded_records as u64;
        Ok(V9Packet {
            sys_uptime_ms: header.sys_uptime_ms,
            unix_secs: header.unix_secs,
            sequence: header.sequence,
            source_id: header.source_id,
            flowsets,
        })
    }
}

/// The fields of a v9 packet header (after version and count).
#[derive(Debug, Clone, Copy)]
pub(crate) struct V9Header {
    pub(crate) sys_uptime_ms: u32,
    pub(crate) unix_secs: u32,
    pub(crate) sequence: u32,
    pub(crate) source_id: u32,
}

/// One flowset (v9) or set (IPFIX) of a datagram, as the packet walks
/// hand it to their caller.
pub(crate) enum Section<'a> {
    /// Templates just announced; the walk stores them after the call.
    Templates(&'a [Template]),
    /// An options-template set (recognized, not interpreted).
    OptionsTemplate,
    /// A data set whose template is cached. `records` is the set body cut
    /// to a whole number of records of `plan.record_len()` (non-zero)
    /// bytes each.
    Data {
        template: &'a Template,
        plan: &'a ExtractionPlan,
        records: &'a [u8],
    },
    /// A data set whose template is not (yet) cached; already counted
    /// against its source.
    UnknownTemplate { template_id: u16, bytes: usize },
}

/// Walk one v9 packet: every header and flowset framing check of the
/// format, the template cache updates, and a `visit` per flowset in wire
/// order. Returns the header and the number of data records handed to
/// `visit`.
///
/// This is the one place that decides which v9 datagrams are rejected:
/// [`V9Parser::parse`] and the live decoder
/// ([`ExporterDecoder`](crate::decode::ExporterDecoder)) differ only in
/// what their `visit` keeps. Template updates and unknown-template
/// counts of the flowsets before an error are not rolled back.
pub(crate) fn walk_packet(
    bytes: &[u8],
    templates: &mut TemplateRegistry,
    mut visit: impl FnMut(&V9Header, Section<'_>),
) -> Result<(V9Header, usize), FlowDnsError> {
    if bytes.len() < V9_HEADER_LEN {
        return Err(err("packet shorter than v9 header"));
    }
    let version = u16::from_be_bytes([bytes[0], bytes[1]]);
    if version != 9 {
        return Err(err(format!("not a v9 packet (version {version})")));
    }
    let declared_count = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    let header = V9Header {
        sys_uptime_ms: be32(&bytes[4..8]),
        unix_secs: be32(&bytes[8..12]),
        sequence: be32(&bytes[12..16]),
        source_id: be32(&bytes[16..20]),
    };
    let source_id = header.source_id;

    let mut decoded_records = 0usize;
    let mut offset = V9_HEADER_LEN;
    while offset + 4 <= bytes.len() {
        let flowset_id = u16::from_be_bytes([bytes[offset], bytes[offset + 1]]);
        let length = u16::from_be_bytes([bytes[offset + 2], bytes[offset + 3]]) as usize;
        if length < 4 {
            return Err(err(format!("flowset length {length} too small")));
        }
        if offset + length > bytes.len() {
            return Err(err("flowset runs past end of packet"));
        }
        let body = &bytes[offset + 4..offset + length];
        match flowset_id {
            TEMPLATE_FLOWSET_ID => {
                let announced = parse_template_flowset(body)?;
                visit(&header, Section::Templates(&announced));
                for t in announced {
                    templates.insert(source_id, t);
                }
            }
            OPTIONS_TEMPLATE_FLOWSET_ID => visit(&header, Section::OptionsTemplate),
            id if id >= 256 => match templates.planned(source_id, id) {
                Some(PlannedTemplate { template, plan }) => {
                    let records = whole_records(body, plan.record_len())?;
                    // Remaining bytes must be padding (< rec_len and < 4
                    // per RFC; we allow up to rec_len - 1 zero bytes).
                    let padding = &body[records.len()..];
                    if padding.len() >= 4 && padding.iter().any(|b| *b != 0) {
                        return Err(err("trailing non-padding bytes in data flowset"));
                    }
                    decoded_records += records.len() / plan.record_len();
                    visit(
                        &header,
                        Section::Data {
                            template,
                            plan,
                            records,
                        },
                    );
                }
                None => {
                    templates.note_unknown(source_id);
                    visit(
                        &header,
                        Section::UnknownTemplate {
                            template_id: id,
                            bytes: body.len(),
                        },
                    );
                }
            },
            id => {
                return Err(err(format!("reserved flowset id {id}")));
            }
        }
        offset += length;
    }
    if offset != bytes.len() {
        return Err(err(format!(
            "{} trailing bytes after last flowset",
            bytes.len() - offset
        )));
    }

    // The header count field counts both data records and templates; a
    // strict check is impossible when templates are unknown, but a
    // decoded-record count wildly exceeding the declared count means
    // corruption.
    if declared_count > 0 && decoded_records > declared_count * 4 {
        return Err(err(format!(
            "decoded {decoded_records} records but header declares {declared_count}"
        )));
    }
    Ok((header, decoded_records))
}

/// The leading part of a data set body that holds whole records.
pub(crate) fn whole_records(body: &[u8], record_len: usize) -> Result<&[u8], FlowDnsError> {
    if record_len == 0 {
        return Err(err("template describes zero-length records"));
    }
    Ok(&body[..body.len() - body.len() % record_len])
}

fn parse_template_flowset(body: &[u8]) -> Result<Vec<Template>, FlowDnsError> {
    let mut templates = Vec::new();
    let mut off = 0usize;
    // Template flowsets may carry padding at the end; stop when fewer than
    // 4 bytes remain.
    while off + 4 <= body.len() {
        let id = u16::from_be_bytes([body[off], body[off + 1]]);
        let field_count = u16::from_be_bytes([body[off + 2], body[off + 3]]) as usize;
        if id == 0 && field_count == 0 {
            break; // padding
        }
        if id < 256 {
            return Err(err(format!("template id {id} below 256")));
        }
        if field_count == 0 || field_count > 128 {
            return Err(err(format!("implausible field count {field_count}")));
        }
        off += 4;
        if off + field_count * 4 > body.len() {
            return Err(err("template flowset truncated"));
        }
        let mut fields = Vec::with_capacity(field_count);
        for i in 0..field_count {
            let base = off + i * 4;
            let ftype = u16::from_be_bytes([body[base], body[base + 1]]);
            let length = u16::from_be_bytes([body[base + 2], body[base + 3]]);
            if length == 0 {
                return Err(err("zero-length template field"));
            }
            fields.push(FieldSpec {
                ftype: FieldType::from_u16(ftype),
                length,
            });
        }
        off += field_count * 4;
        templates.push(Template { id, fields });
    }
    if templates.is_empty() {
        return Err(err("template flowset carries no templates"));
    }
    Ok(templates)
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// Builder for NetFlow v9 export packets (used by the synthetic exporter
/// and by tests).
#[derive(Debug)]
pub struct V9PacketBuilder {
    source_id: u32,
    sequence: u32,
    unix_secs: u32,
    flowsets: Vec<u8>,
    count: u16,
}

impl V9PacketBuilder {
    /// Start a packet for `source_id` exported at `unix_secs`.
    pub fn new(source_id: u32, sequence: u32, unix_secs: u32) -> Self {
        V9PacketBuilder {
            source_id,
            sequence,
            unix_secs,
            flowsets: Vec::new(),
            count: 0,
        }
    }

    /// Append a template flowset announcing `templates`.
    pub fn add_templates(&mut self, templates: &[Template]) {
        let mut body = Vec::new();
        for t in templates {
            body.extend_from_slice(&t.id.to_be_bytes());
            body.extend_from_slice(&(t.fields.len() as u16).to_be_bytes());
            for f in &t.fields {
                body.extend_from_slice(&f.ftype.to_u16().to_be_bytes());
                body.extend_from_slice(&f.length.to_be_bytes());
            }
            self.count += 1;
        }
        self.push_flowset(TEMPLATE_FLOWSET_ID, &body);
    }

    /// Append a data flowset with pre-encoded records following `template`.
    /// Each record must be exactly `template.record_len()` bytes.
    pub fn add_data(
        &mut self,
        template: &Template,
        records: &[Vec<u8>],
    ) -> Result<(), FlowDnsError> {
        let rec_len = template.record_len();
        let mut body = Vec::with_capacity(records.len() * rec_len);
        for r in records {
            if r.len() != rec_len {
                return Err(err(format!(
                    "record length {} does not match template record length {rec_len}",
                    r.len()
                )));
            }
            body.extend_from_slice(r);
            self.count += 1;
        }
        // Pad to a 4-byte boundary as the RFC recommends.
        while (body.len() + 4) % 4 != 0 {
            body.push(0);
        }
        self.push_flowset(template.id, &body);
        Ok(())
    }

    fn push_flowset(&mut self, id: u16, body: &[u8]) {
        self.flowsets.extend_from_slice(&id.to_be_bytes());
        self.flowsets
            .extend_from_slice(&((body.len() + 4) as u16).to_be_bytes());
        self.flowsets.extend_from_slice(body);
    }

    /// Finish the packet, producing wire bytes.
    pub fn build(self, sys_uptime_ms: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(V9_HEADER_LEN + self.flowsets.len());
        out.extend_from_slice(&9u16.to_be_bytes());
        out.extend_from_slice(&self.count.to_be_bytes());
        out.extend_from_slice(&sys_uptime_ms.to_be_bytes());
        out.extend_from_slice(&self.unix_secs.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.source_id.to_be_bytes());
        out.extend_from_slice(&self.flowsets);
        out
    }
}

/// Encode one IPv4 flow record for [`Template::standard_ipv4`].
///
/// One argument per template field, in template order — splitting them
/// into a struct would obscure the 1:1 mapping to the wire layout.
#[allow(clippy::too_many_arguments)]
pub fn encode_standard_ipv4_record(
    src: std::net::Ipv4Addr,
    dst: std::net::Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    proto: u8,
    bytes: u32,
    packets: u32,
    first_ms: u32,
    last_ms: u32,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(29);
    out.extend_from_slice(&src.octets());
    out.extend_from_slice(&dst.octets());
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.push(proto);
    out.extend_from_slice(&bytes.to_be_bytes());
    out.extend_from_slice(&packets.to_be_bytes());
    out.extend_from_slice(&first_ms.to_be_bytes());
    out.extend_from_slice(&last_ms.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn template() -> Template {
        Template::standard_ipv4(256)
    }

    fn sample_packet(with_template: bool) -> Vec<u8> {
        let mut b = V9PacketBuilder::new(7, 1, 1_700_000_000);
        if with_template {
            b.add_templates(&[template()]);
        }
        let rec1 = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            51000,
            6,
            150_000,
            120,
            1000,
            2000,
        );
        let rec2 = encode_standard_ipv4_record(
            Ipv4Addr::new(198, 51, 100, 9),
            Ipv4Addr::new(10, 0, 0, 2),
            443,
            51001,
            17,
            9_000,
            12,
            1500,
            2500,
        );
        b.add_data(&template(), &[rec1, rec2]).unwrap();
        b.build(123)
    }

    #[test]
    fn template_then_data_round_trip() {
        let mut parser = V9Parser::new();
        let pkt = parser.parse(&sample_packet(true)).unwrap();
        assert_eq!(pkt.source_id, 7);
        let records: Vec<&DataRecord> = pkt.data_records().collect();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].ip(FieldType::Ipv4SrcAddr),
            Some(IpAddr::from([203, 0, 113, 1]))
        );
        assert_eq!(records[0].uint(FieldType::InBytes), Some(150_000));
        assert_eq!(records[0].uint(FieldType::Protocol), Some(6));
        assert_eq!(records[1].uint(FieldType::L4DstPort), Some(51001));
        assert_eq!(parser.records, 2);
    }

    #[test]
    fn data_before_template_is_counted_not_fatal() {
        let mut parser = V9Parser::new();
        let pkt = parser.parse(&sample_packet(false)).unwrap();
        assert!(matches!(
            pkt.flowsets[0],
            FlowSet::UnknownTemplate {
                template_id: 256,
                ..
            }
        ));
        assert_eq!(parser.templates.unknown_template_hits(), 1);
        // After the template arrives, subsequent data decodes.
        let pkt2 = parser.parse(&sample_packet(true)).unwrap();
        assert_eq!(pkt2.data_records().count(), 2);
    }

    #[test]
    fn templates_persist_across_packets() {
        let mut parser = V9Parser::new();
        parser.parse(&sample_packet(true)).unwrap();
        // Second packet has no template flowset but decodes via the cache.
        let pkt = parser.parse(&sample_packet(false)).unwrap();
        assert_eq!(pkt.data_records().count(), 2);
        assert_eq!(parser.packets, 2);
    }

    #[test]
    fn wrong_version_and_truncation_are_errors() {
        let mut parser = V9Parser::new();
        let mut bytes = sample_packet(true);
        assert!(parser.parse(&bytes[..10]).is_err());
        assert!(parser.parse(&bytes[..V9_HEADER_LEN + 2]).is_err());
        bytes[1] = 5;
        assert!(parser.parse(&bytes).is_err());
    }

    #[test]
    fn flowset_overrun_is_an_error() {
        let mut bytes = sample_packet(true);
        // Inflate the first flowset length beyond the packet.
        let len_off = V9_HEADER_LEN + 2;
        bytes[len_off] = 0xFF;
        bytes[len_off + 1] = 0xFF;
        let mut parser = V9Parser::new();
        assert!(parser.parse(&bytes).is_err());
    }

    #[test]
    fn malformed_templates_are_rejected() {
        // Template with id < 256.
        let mut b = V9PacketBuilder::new(1, 1, 0);
        b.add_templates(&[Template {
            id: 300,
            fields: vec![FieldSpec {
                ftype: FieldType::InBytes,
                length: 4,
            }],
        }]);
        let mut bytes = b.build(0);
        // Patch template id to 5 (offset: header 20 + flowset hdr 4 = 24).
        bytes[24] = 0;
        bytes[25] = 5;
        let mut parser = V9Parser::new();
        assert!(parser.parse(&bytes).is_err());
    }

    #[test]
    fn ipv6_template_round_trip() {
        let t6 = Template::standard_ipv6(260);
        let mut b = V9PacketBuilder::new(3, 9, 1_700_000_100);
        b.add_templates(std::slice::from_ref(&t6));
        let mut rec = Vec::new();
        let src: std::net::Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: std::net::Ipv6Addr = "2001:db8::2".parse().unwrap();
        rec.extend_from_slice(&src.octets());
        rec.extend_from_slice(&dst.octets());
        rec.extend_from_slice(&443u16.to_be_bytes());
        rec.extend_from_slice(&55555u16.to_be_bytes());
        rec.push(6);
        rec.extend_from_slice(&1_000_000u32.to_be_bytes());
        rec.extend_from_slice(&800u32.to_be_bytes());
        b.add_data(&t6, &[rec]).unwrap();
        let mut parser = V9Parser::new();
        let pkt = parser.parse(&b.build(1)).unwrap();
        let records: Vec<&DataRecord> = pkt.data_records().collect();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].ip(FieldType::Ipv6SrcAddr),
            Some(IpAddr::from(src))
        );
        assert_eq!(records[0].uint(FieldType::InBytes), Some(1_000_000));
    }

    #[test]
    fn builder_rejects_mismatched_record_length() {
        let mut b = V9PacketBuilder::new(1, 1, 0);
        assert!(b.add_data(&template(), &[vec![0u8; 5]]).is_err());
    }
}
