//! Field and template definitions shared by NetFlow v9 and IPFIX.
//!
//! Both formats describe data records via *templates*: an ordered list of
//! (field type, field length) pairs announced in template flowsets/sets
//! and referenced by id from data flowsets/sets. Exporters may emit data
//! before templates or refresh templates periodically, so parsers keep a
//! [`TemplateRegistry`] — one [`TemplateCache`] (keyed by template id)
//! per source id, so sources can never clobber each other's layouts.
//!
//! Storing a template also compiles its extraction plan (the private
//! `plan` module): the offsets of the fields a flow record is built
//! from, which the live decoder reads straight out of the datagram.

use std::collections::HashMap;

use crate::plan::ExtractionPlan;

/// The field types FlowDNS cares about (a subset of the IANA IPFIX
/// registry / Cisco NetFlow v9 field types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// IN_BYTES (1): bytes of the flow.
    InBytes,
    /// IN_PKTS (2): packets of the flow.
    InPkts,
    /// PROTOCOL (4).
    Protocol,
    /// L4_SRC_PORT (7).
    L4SrcPort,
    /// IPV4_SRC_ADDR (8).
    Ipv4SrcAddr,
    /// L4_DST_PORT (11).
    L4DstPort,
    /// IPV4_DST_ADDR (12).
    Ipv4DstAddr,
    /// LAST_SWITCHED (21).
    LastSwitched,
    /// FIRST_SWITCHED (22).
    FirstSwitched,
    /// IPV6_SRC_ADDR (27).
    Ipv6SrcAddr,
    /// IPV6_DST_ADDR (28).
    Ipv6DstAddr,
    /// Any other field type (carried opaquely).
    Other(u16),
}

impl FieldType {
    /// The wire value of the field type.
    pub fn to_u16(self) -> u16 {
        match self {
            FieldType::InBytes => 1,
            FieldType::InPkts => 2,
            FieldType::Protocol => 4,
            FieldType::L4SrcPort => 7,
            FieldType::Ipv4SrcAddr => 8,
            FieldType::L4DstPort => 11,
            FieldType::Ipv4DstAddr => 12,
            FieldType::LastSwitched => 21,
            FieldType::FirstSwitched => 22,
            FieldType::Ipv6SrcAddr => 27,
            FieldType::Ipv6DstAddr => 28,
            FieldType::Other(v) => v,
        }
    }

    /// Build from the wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => FieldType::InBytes,
            2 => FieldType::InPkts,
            4 => FieldType::Protocol,
            7 => FieldType::L4SrcPort,
            8 => FieldType::Ipv4SrcAddr,
            11 => FieldType::L4DstPort,
            12 => FieldType::Ipv4DstAddr,
            21 => FieldType::LastSwitched,
            22 => FieldType::FirstSwitched,
            27 => FieldType::Ipv6SrcAddr,
            28 => FieldType::Ipv6DstAddr,
            other => FieldType::Other(other),
        }
    }

    /// The conventional wire length of this field in bytes (used by the
    /// standard template builder; exporters may choose other lengths).
    pub fn default_len(self) -> u16 {
        match self {
            FieldType::InBytes | FieldType::InPkts => 4,
            FieldType::Protocol => 1,
            FieldType::L4SrcPort | FieldType::L4DstPort => 2,
            FieldType::Ipv4SrcAddr | FieldType::Ipv4DstAddr => 4,
            FieldType::LastSwitched | FieldType::FirstSwitched => 4,
            FieldType::Ipv6SrcAddr | FieldType::Ipv6DstAddr => 16,
            FieldType::Other(_) => 4,
        }
    }
}

/// One (type, length) entry of a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The field type.
    pub ftype: FieldType,
    /// The field length in bytes.
    pub length: u16,
}

impl FieldSpec {
    /// A field spec with the conventional length for its type.
    pub fn standard(ftype: FieldType) -> Self {
        FieldSpec {
            ftype,
            length: ftype.default_len(),
        }
    }
}

/// A template: an id plus an ordered list of field specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Template id (>= 256 for data templates).
    pub id: u16,
    /// Ordered field specs.
    pub fields: Vec<FieldSpec>,
}

impl Template {
    /// The standard IPv4 flow template used by the synthetic exporter:
    /// srcIP, dstIP, srcPort, dstPort, protocol, bytes, packets,
    /// first/last switched.
    pub fn standard_ipv4(id: u16) -> Self {
        Template {
            id,
            fields: vec![
                FieldSpec::standard(FieldType::Ipv4SrcAddr),
                FieldSpec::standard(FieldType::Ipv4DstAddr),
                FieldSpec::standard(FieldType::L4SrcPort),
                FieldSpec::standard(FieldType::L4DstPort),
                FieldSpec::standard(FieldType::Protocol),
                FieldSpec::standard(FieldType::InBytes),
                FieldSpec::standard(FieldType::InPkts),
                FieldSpec::standard(FieldType::FirstSwitched),
                FieldSpec::standard(FieldType::LastSwitched),
            ],
        }
    }

    /// The standard IPv6 flow template.
    pub fn standard_ipv6(id: u16) -> Self {
        Template {
            id,
            fields: vec![
                FieldSpec::standard(FieldType::Ipv6SrcAddr),
                FieldSpec::standard(FieldType::Ipv6DstAddr),
                FieldSpec::standard(FieldType::L4SrcPort),
                FieldSpec::standard(FieldType::L4DstPort),
                FieldSpec::standard(FieldType::Protocol),
                FieldSpec::standard(FieldType::InBytes),
                FieldSpec::standard(FieldType::InPkts),
            ],
        }
    }

    /// Total length in bytes of one data record described by this template.
    pub fn record_len(&self) -> usize {
        self.fields.iter().map(|f| f.length as usize).sum()
    }
}

/// A cached template and the extraction plan compiled from it. They are
/// one entry so a re-announced template can never leave a stale plan
/// behind.
#[derive(Debug, Clone)]
pub(crate) struct PlannedTemplate {
    pub(crate) template: Template,
    pub(crate) plan: ExtractionPlan,
}

/// Cache of the templates announced by **one** source (one NetFlow v9
/// source id / IPFIX observation domain), keyed by template id.
///
/// Template ids are only unique within a source, so a cache never mixes
/// sources; [`TemplateRegistry`] holds one cache per source. Records
/// received before their template are counted so operators can see the
/// warm-up loss.
#[derive(Debug, Default, Clone)]
pub struct TemplateCache {
    templates: HashMap<u16, PlannedTemplate>,
    /// Data flowsets that referenced an unknown template.
    pub unknown_template_hits: u64,
}

impl TemplateCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        TemplateCache::default()
    }

    /// Insert or refresh a template, compiling its extraction plan.
    pub fn insert(&mut self, template: Template) {
        let plan = ExtractionPlan::compile(&template.fields);
        self.templates
            .insert(template.id, PlannedTemplate { template, plan });
    }

    /// Look up a template.
    pub fn get(&self, template_id: u16) -> Option<&Template> {
        self.planned(template_id).map(|p| &p.template)
    }

    pub(crate) fn planned(&self, template_id: u16) -> Option<&PlannedTemplate> {
        self.templates.get(&template_id)
    }

    /// Record a data flowset that arrived before its template.
    pub fn note_unknown(&mut self) {
        self.unknown_template_hits += 1;
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

/// Per-source template state for one transport peer.
///
/// A collector socket receives packets from many exporters, and each
/// exporter may use several source ids (v9) or observation domains
/// (IPFIX). The registry keeps one [`TemplateCache`] per source id so two
/// sources reusing the same template id with different field layouts can
/// never clobber each other. The ingest layer goes one step further and
/// keeps a whole registry per exporter *address*, mirroring how production
/// collectors isolate decode state per peer.
#[derive(Debug, Default, Clone)]
pub struct TemplateRegistry {
    sources: HashMap<u32, TemplateCache>,
}

impl TemplateRegistry {
    /// A fresh registry with no sources.
    pub fn new() -> Self {
        TemplateRegistry::default()
    }

    /// The cache for `source_id`, created empty on first use.
    pub fn source_mut(&mut self, source_id: u32) -> &mut TemplateCache {
        self.sources.entry(source_id).or_default()
    }

    /// The cache for `source_id`, if any template or unknown-template hit
    /// was ever recorded for it.
    pub fn source(&self, source_id: u32) -> Option<&TemplateCache> {
        self.sources.get(&source_id)
    }

    /// Insert or refresh a template for a source.
    pub fn insert(&mut self, source_id: u32, template: Template) {
        self.source_mut(source_id).insert(template);
    }

    /// Look up a template of a source.
    pub fn get(&self, source_id: u32, template_id: u16) -> Option<&Template> {
        self.sources.get(&source_id)?.get(template_id)
    }

    pub(crate) fn planned(&self, source_id: u32, template_id: u16) -> Option<&PlannedTemplate> {
        self.sources.get(&source_id)?.planned(template_id)
    }

    /// Record a data flowset of `source_id` that arrived before its
    /// template.
    pub fn note_unknown(&mut self, source_id: u32) {
        self.source_mut(source_id).note_unknown();
    }

    /// Total templates cached across all sources.
    pub fn len(&self) -> usize {
        self.sources.values().map(TemplateCache::len).sum()
    }

    /// Is the registry empty of templates?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct sources seen.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Total data flowsets (across all sources) that referenced an unknown
    /// template.
    pub fn unknown_template_hits(&self) -> u64 {
        self.sources.values().map(|c| c.unknown_template_hits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_type_round_trip() {
        for v in [1u16, 2, 4, 7, 8, 11, 12, 21, 22, 27, 28, 150, 65535] {
            assert_eq!(FieldType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn standard_templates_have_expected_layout() {
        let t4 = Template::standard_ipv4(256);
        assert_eq!(t4.record_len(), 4 + 4 + 2 + 2 + 1 + 4 + 4 + 4 + 4);
        let t6 = Template::standard_ipv6(257);
        assert_eq!(t6.record_len(), 16 + 16 + 2 + 2 + 1 + 4 + 4);
    }

    #[test]
    fn registry_is_keyed_by_source_and_id() {
        let mut reg = TemplateRegistry::new();
        reg.insert(1, Template::standard_ipv4(256));
        reg.insert(2, Template::standard_ipv6(256));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.source_count(), 2);
        assert_eq!(
            reg.get(1, 256).unwrap().fields[0].ftype,
            FieldType::Ipv4SrcAddr
        );
        assert_eq!(
            reg.get(2, 256).unwrap().fields[0].ftype,
            FieldType::Ipv6SrcAddr
        );
        assert!(reg.get(3, 256).is_none());
        assert!(!reg.is_empty());
    }

    #[test]
    fn template_refresh_overwrites() {
        let mut reg = TemplateRegistry::new();
        reg.insert(1, Template::standard_ipv4(300));
        reg.insert(1, Template::standard_ipv6(300));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(1, 300).unwrap().fields.len(), 7);
    }

    #[test]
    fn unknown_template_counters_are_per_source() {
        let mut reg = TemplateRegistry::new();
        reg.note_unknown(1);
        reg.note_unknown(1);
        reg.note_unknown(9);
        assert_eq!(reg.source(1).unwrap().unknown_template_hits, 2);
        assert_eq!(reg.source(9).unwrap().unknown_template_hits, 1);
        assert_eq!(reg.unknown_template_hits(), 3);
        assert!(reg.source(2).is_none());
    }

    #[test]
    fn per_source_cache_stands_alone() {
        let mut cache = TemplateCache::new();
        cache.insert(Template::standard_ipv4(256));
        cache.insert(Template::standard_ipv6(256));
        // Same id: the refresh wins; a cache never holds two layouts.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(256).unwrap().fields.len(), 7);
        assert!(cache.get(300).is_none());
        cache.note_unknown();
        assert_eq!(cache.unknown_template_hits, 1);
    }
}
