//! IPFIX (RFC 7011) subset reader.
//!
//! IPFIX is the IETF standardization of NetFlow v9: a 16-byte message
//! header followed by *sets*. Set id 2 carries templates (same layout as
//! v9 template records), set id 3 carries options templates, and set ids
//! ≥ 256 carry data records. Enterprise-specific information elements
//! (high bit of the field type set) are parsed but stored opaquely.
//!
//! The reader shares the per-source [`TemplateRegistry`] machinery and
//! record model with the v9 parser, so the extraction layer treats both
//! identically.

use flowdns_types::FlowDnsError;

use crate::template::{FieldSpec, FieldType, PlannedTemplate, Template, TemplateRegistry};
use crate::v9::{whole_records, DataRecord, Section};

fn err(msg: impl Into<String>) -> FlowDnsError {
    FlowDnsError::NetflowParse(msg.into())
}

/// Size of the IPFIX message header in bytes.
pub const IPFIX_HEADER_LEN: usize = 16;
/// Set id carrying template records.
pub const TEMPLATE_SET_ID: u16 = 2;
/// Set id carrying options-template records.
pub const OPTIONS_TEMPLATE_SET_ID: u16 = 3;

/// A parsed IPFIX message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpfixMessage {
    /// Export time, seconds since the Unix epoch.
    pub export_time: u32,
    /// Message sequence number.
    pub sequence: u32,
    /// Observation domain id (plays the role of v9's source id).
    pub observation_domain: u32,
    /// Decoded data records (template and options sets update the cache
    /// but do not appear here).
    pub records: Vec<DataRecord>,
    /// Number of data sets that referenced an unknown template.
    pub unknown_template_sets: usize,
}

/// Stateful IPFIX reader (one per exporter peer).
#[derive(Debug, Default)]
pub struct IpfixParser {
    /// Per-observation-domain template caches shared across messages.
    pub templates: TemplateRegistry,
    /// Messages parsed so far.
    pub messages: u64,
    /// Data records decoded so far.
    pub records: u64,
}

impl IpfixParser {
    /// A fresh parser.
    pub fn new() -> Self {
        IpfixParser::default()
    }

    /// Parse one IPFIX message.
    pub fn parse(&mut self, bytes: &[u8]) -> Result<IpfixMessage, FlowDnsError> {
        let mut records = Vec::new();
        let mut unknown_template_sets = 0usize;
        let header = walk_message(bytes, &mut self.templates, |_, section| match section {
            Section::Data {
                template,
                records: body,
                ..
            } => records.extend(
                body.chunks_exact(template.record_len())
                    .map(|r| DataRecord::from_wire(template, r)),
            ),
            Section::UnknownTemplate { .. } => unknown_template_sets += 1,
            Section::Templates(_) | Section::OptionsTemplate => {}
        })?;
        self.messages += 1;
        self.records += records.len() as u64;
        Ok(IpfixMessage {
            export_time: header.export_time,
            sequence: header.sequence,
            observation_domain: header.observation_domain,
            records,
            unknown_template_sets,
        })
    }
}

/// The fields of an IPFIX message header (after version and length).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IpfixHeader {
    pub(crate) export_time: u32,
    pub(crate) sequence: u32,
    pub(crate) observation_domain: u32,
}

/// Walk one IPFIX message: every header and set framing check of the
/// format, the template cache updates, and a `visit` per set in wire
/// order.
///
/// Like [`walk_packet`](crate::v9::walk_packet) for v9, this is the one
/// place that decides which IPFIX datagrams are rejected;
/// [`IpfixParser::parse`] and the live decoder differ only in what their
/// `visit` keeps.
pub(crate) fn walk_message(
    bytes: &[u8],
    templates: &mut TemplateRegistry,
    mut visit: impl FnMut(&IpfixHeader, Section<'_>),
) -> Result<IpfixHeader, FlowDnsError> {
    if bytes.len() < IPFIX_HEADER_LEN {
        return Err(err("message shorter than IPFIX header"));
    }
    let version = u16::from_be_bytes([bytes[0], bytes[1]]);
    if version != 10 {
        return Err(err(format!("not an IPFIX message (version {version})")));
    }
    let length = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    if length != bytes.len() {
        return Err(err(format!(
            "IPFIX length field {length} does not match buffer length {}",
            bytes.len()
        )));
    }
    let header = IpfixHeader {
        export_time: be32(&bytes[4..8]),
        sequence: be32(&bytes[8..12]),
        observation_domain: be32(&bytes[12..16]),
    };
    let observation_domain = header.observation_domain;

    let mut offset = IPFIX_HEADER_LEN;
    while offset + 4 <= bytes.len() {
        let set_id = u16::from_be_bytes([bytes[offset], bytes[offset + 1]]);
        let set_len = u16::from_be_bytes([bytes[offset + 2], bytes[offset + 3]]) as usize;
        if set_len < 4 {
            return Err(err(format!("set length {set_len} too small")));
        }
        if offset + set_len > bytes.len() {
            return Err(err("set runs past end of message"));
        }
        let body = &bytes[offset + 4..offset + set_len];
        match set_id {
            TEMPLATE_SET_ID => {
                let announced = parse_template_set(body)?;
                visit(&header, Section::Templates(&announced));
                for t in announced {
                    templates.insert(observation_domain, t);
                }
            }
            // Recognized, not interpreted.
            OPTIONS_TEMPLATE_SET_ID => visit(&header, Section::OptionsTemplate),
            id if id >= 256 => match templates.planned(observation_domain, id) {
                Some(PlannedTemplate { template, plan }) => visit(
                    &header,
                    Section::Data {
                        template,
                        plan,
                        records: whole_records(body, plan.record_len())?,
                    },
                ),
                None => {
                    templates.note_unknown(observation_domain);
                    visit(
                        &header,
                        Section::UnknownTemplate {
                            template_id: id,
                            bytes: body.len(),
                        },
                    );
                }
            },
            id => return Err(err(format!("reserved set id {id}"))),
        }
        offset += set_len;
    }
    Ok(header)
}

fn parse_template_set(body: &[u8]) -> Result<Vec<Template>, FlowDnsError> {
    let mut templates = Vec::new();
    let mut off = 0usize;
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
        let mut fields = Vec::with_capacity(field_count);
        for _ in 0..field_count {
            if off + 4 > body.len() {
                return Err(err("template set truncated"));
            }
            let raw_type = u16::from_be_bytes([body[off], body[off + 1]]);
            let length = u16::from_be_bytes([body[off + 2], body[off + 3]]);
            off += 4;
            // Enterprise-specific elements carry a 4-byte enterprise number.
            if raw_type & 0x8000 != 0 {
                if off + 4 > body.len() {
                    return Err(err("enterprise field truncated"));
                }
                off += 4;
            }
            if length == 0 {
                return Err(err("zero-length template field"));
            }
            fields.push(FieldSpec {
                ftype: FieldType::from_u16(raw_type & 0x7FFF),
                length,
            });
        }
        templates.push(Template { id, fields });
    }
    if templates.is_empty() {
        return Err(err("template set carries no templates"));
    }
    Ok(templates)
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// Builder for IPFIX messages (used by tests and the synthetic exporter).
#[derive(Debug)]
pub struct IpfixMessageBuilder {
    observation_domain: u32,
    sequence: u32,
    export_time: u32,
    sets: Vec<u8>,
}

impl IpfixMessageBuilder {
    /// Start a message.
    pub fn new(observation_domain: u32, sequence: u32, export_time: u32) -> Self {
        IpfixMessageBuilder {
            observation_domain,
            sequence,
            export_time,
            sets: Vec::new(),
        }
    }

    /// Append a template set.
    pub fn add_templates(&mut self, templates: &[Template]) {
        let mut body = Vec::new();
        for t in templates {
            body.extend_from_slice(&t.id.to_be_bytes());
            body.extend_from_slice(&(t.fields.len() as u16).to_be_bytes());
            for f in &t.fields {
                body.extend_from_slice(&f.ftype.to_u16().to_be_bytes());
                body.extend_from_slice(&f.length.to_be_bytes());
            }
        }
        self.push_set(TEMPLATE_SET_ID, &body);
    }

    /// Append a data set of pre-encoded records following `template`.
    pub fn add_data(
        &mut self,
        template: &Template,
        records: &[Vec<u8>],
    ) -> Result<(), FlowDnsError> {
        let rec_len = template.record_len();
        let mut body = Vec::with_capacity(records.len() * rec_len);
        for r in records {
            if r.len() != rec_len {
                return Err(err("record length does not match template"));
            }
            body.extend_from_slice(r);
        }
        self.push_set(template.id, &body);
        Ok(())
    }

    fn push_set(&mut self, id: u16, body: &[u8]) {
        self.sets.extend_from_slice(&id.to_be_bytes());
        self.sets
            .extend_from_slice(&((body.len() + 4) as u16).to_be_bytes());
        self.sets.extend_from_slice(body);
    }

    /// Finish the message.
    pub fn build(self) -> Vec<u8> {
        let total = IPFIX_HEADER_LEN + self.sets.len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&10u16.to_be_bytes());
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&self.export_time.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.observation_domain.to_be_bytes());
        out.extend_from_slice(&self.sets);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::v9::encode_standard_ipv4_record;
    use std::net::Ipv4Addr;

    fn template() -> Template {
        Template::standard_ipv4(400)
    }

    fn message(with_template: bool) -> Vec<u8> {
        let mut b = IpfixMessageBuilder::new(55, 3, 1_700_000_000);
        if with_template {
            b.add_templates(&[template()]);
        }
        let rec = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 77),
            Ipv4Addr::new(10, 3, 0, 1),
            443,
            50123,
            6,
            2_000_000,
            1500,
            100,
            200,
        );
        b.add_data(&template(), &[rec]).unwrap();
        b.build()
    }

    #[test]
    fn template_then_data_round_trip() {
        let mut p = IpfixParser::new();
        let msg = p.parse(&message(true)).unwrap();
        assert_eq!(msg.observation_domain, 55);
        assert_eq!(msg.records.len(), 1);
        assert_eq!(
            msg.records[0].ip(FieldType::Ipv4SrcAddr),
            Some(std::net::IpAddr::from([203, 0, 113, 77]))
        );
        assert_eq!(msg.records[0].uint(FieldType::InBytes), Some(2_000_000));
    }

    #[test]
    fn data_before_template_counts_unknown() {
        let mut p = IpfixParser::new();
        let msg = p.parse(&message(false)).unwrap();
        assert_eq!(msg.records.len(), 0);
        assert_eq!(msg.unknown_template_sets, 1);
        let msg2 = p.parse(&message(true)).unwrap();
        assert_eq!(msg2.records.len(), 1);
    }

    #[test]
    fn length_field_is_validated() {
        let mut bytes = message(true);
        bytes[2] = 0;
        bytes[3] = 20;
        let mut p = IpfixParser::new();
        assert!(p.parse(&bytes).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = message(true);
        bytes[1] = 9;
        let mut p = IpfixParser::new();
        assert!(p.parse(&bytes).is_err());
    }

    #[test]
    fn truncated_message_is_rejected() {
        let bytes = message(true);
        let mut p = IpfixParser::new();
        assert!(p.parse(&bytes[..IPFIX_HEADER_LEN - 2]).is_err());
    }
}
