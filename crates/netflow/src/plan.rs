//! Per-template extraction plans: what the flow extractor asks of a data
//! record, answered once when the template arrives.
//!
//! [`FlowExtractor::from_data_records`](crate::extract::FlowExtractor::from_data_records)
//! reads seven values out of a [`DataRecord`](crate::v9::DataRecord)
//! keyed by field type. Where each of them sits in the record bytes
//! is a function of the template alone, so [`ExtractionPlan::compile`]
//! resolves the seven offsets at template receipt and
//! [`ExtractionPlan::append_flows`] reads them straight from the
//! datagram: no per-record map, no per-field copy. The two must agree
//! on every template and every record;
//! `tests/proptest_plan.rs` holds them to it.

use std::net::IpAddr;

use flowdns_types::{FlowKey, FlowRecord, Protocol, SimTime};

use crate::extract::ExtractorConfig;
use crate::template::{FieldSpec, FieldType};

/// Where one field sits inside a data record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    offset: usize,
    width: usize,
}

impl Slot {
    /// `DataRecord::ip` reads 4 or 16 bytes, whichever field type
    /// announced them.
    fn holds_address(&self) -> bool {
        self.width == 4 || self.width == 16
    }

    /// `DataRecord::uint` reads 1 to 8 bytes.
    fn holds_uint(&self) -> bool {
        (1..=8).contains(&self.width)
    }

    fn bytes<'a>(&self, record: &'a [u8]) -> &'a [u8] {
        &record[self.offset..self.offset + self.width]
    }

    fn address(&self, record: &[u8]) -> IpAddr {
        let raw = self.bytes(record);
        match <[u8; 4]>::try_from(raw) {
            Ok(v4) => IpAddr::from(v4),
            Err(_) => {
                let mut v6 = [0u8; 16];
                v6.copy_from_slice(raw);
                IpAddr::from(v6)
            }
        }
    }

    fn uint(&self, record: &[u8]) -> u64 {
        self.bytes(record)
            .iter()
            .fold(0, |v, b| (v << 8) | u64::from(*b))
    }
}

/// The slots of a template a flow can be built from: the three mandatory
/// values and the four with defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlowSlots {
    src: Slot,
    dst: Slot,
    bytes: Slot,
    packets: Option<Slot>,
    src_port: Option<Slot>,
    dst_port: Option<Slot>,
    proto: Option<Slot>,
}

impl FlowSlots {
    fn flow(&self, record: &[u8], ts: SimTime, config: &ExtractorConfig) -> FlowRecord {
        let uint_or = |slot: &Option<Slot>, default| slot.map_or(default, |s| s.uint(record));
        FlowRecord {
            ts,
            key: FlowKey {
                src_ip: self.src.address(record),
                dst_ip: self.dst.address(record),
                src_port: uint_or(&self.src_port, 0) as u16,
                dst_port: uint_or(&self.dst_port, 0) as u16,
                proto: Protocol::from_u8(uint_or(&self.proto, 6) as u8),
            },
            packets: uint_or(&self.packets, 1).max(1),
            bytes: self.bytes.uint(record),
            stream: config.stream,
            direction: config.direction,
            trace: None,
        }
    }
}

/// The last occurrence of each field type the extractor reads.
#[derive(Default)]
struct LastSeen {
    src4: Option<Slot>,
    src6: Option<Slot>,
    dst4: Option<Slot>,
    dst6: Option<Slot>,
    bytes: Option<Slot>,
    packets: Option<Slot>,
    src_port: Option<Slot>,
    dst_port: Option<Slot>,
    proto: Option<Slot>,
}

/// The compiled form of one template, stored beside it in the
/// [`TemplateCache`](crate::template::TemplateCache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExtractionPlan {
    record_len: usize,
    /// `None` when the template has no usable source, destination or
    /// bytes field: its records yield no flows.
    slots: Option<FlowSlots>,
}

impl ExtractionPlan {
    /// Resolve the extractor's lookups against a template's field list.
    ///
    /// A `DataRecord` is a map keyed by wire field type, so of a repeated
    /// type the last occurrence is the one the extractor sees — usable
    /// or not. Addresses try the IPv4 field type before the IPv6 one.
    pub(crate) fn compile(fields: &[FieldSpec]) -> Self {
        let mut last = LastSeen::default();
        let mut offset = 0;
        for field in fields {
            let slot = Slot {
                offset,
                width: usize::from(field.length),
            };
            offset += slot.width;
            // Through the wire value, so `Other(8)` is the IPv4 source
            // address here as it is in a `DataRecord`.
            let seat = match FieldType::from_u16(field.ftype.to_u16()) {
                FieldType::Ipv4SrcAddr => &mut last.src4,
                FieldType::Ipv6SrcAddr => &mut last.src6,
                FieldType::Ipv4DstAddr => &mut last.dst4,
                FieldType::Ipv6DstAddr => &mut last.dst6,
                FieldType::InBytes => &mut last.bytes,
                FieldType::InPkts => &mut last.packets,
                FieldType::L4SrcPort => &mut last.src_port,
                FieldType::L4DstPort => &mut last.dst_port,
                FieldType::Protocol => &mut last.proto,
                FieldType::LastSwitched | FieldType::FirstSwitched | FieldType::Other(_) => {
                    continue
                }
            };
            *seat = Some(slot);
        }
        let address = |v4: Option<Slot>, v6: Option<Slot>| {
            v4.filter(Slot::holds_address)
                .or(v6.filter(Slot::holds_address))
        };
        let uint = |slot: Option<Slot>| slot.filter(Slot::holds_uint);
        let mandatory = (
            address(last.src4, last.src6),
            address(last.dst4, last.dst6),
            uint(last.bytes),
        );
        let slots = match mandatory {
            (Some(src), Some(dst), Some(bytes)) => Some(FlowSlots {
                src,
                dst,
                bytes,
                packets: uint(last.packets),
                src_port: uint(last.src_port),
                dst_port: uint(last.dst_port),
                proto: uint(last.proto),
            }),
            _ => None,
        };
        ExtractionPlan {
            record_len: offset,
            slots,
        }
    }

    /// Length in bytes of one data record of the template.
    pub(crate) fn record_len(&self) -> usize {
        self.record_len
    }

    /// Append the valid flows of `records` to `out` and return how many
    /// records were skipped (no usable mandatory field, or failing
    /// [`FlowRecord::is_valid`]). `records` must be a whole number of
    /// records of non-zero length; the packet walks check both.
    pub(crate) fn append_flows(
        &self,
        records: &[u8],
        ts: SimTime,
        config: &ExtractorConfig,
        out: &mut Vec<FlowRecord>,
    ) -> u64 {
        let Some(slots) = &self.slots else {
            return (records.len() / self.record_len) as u64;
        };
        let mut skipped = 0;
        for record in records.chunks_exact(self.record_len) {
            let flow = slots.flow(record, ts, config);
            if flow.is_valid() {
                out.push(flow);
            } else {
                skipped += 1;
            }
        }
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;

    fn spec(ftype: FieldType, length: u16) -> FieldSpec {
        FieldSpec { ftype, length }
    }

    fn flows(plan: &ExtractionPlan, records: &[u8]) -> (Vec<FlowRecord>, u64) {
        let mut out = Vec::new();
        let skipped = plan.append_flows(
            records,
            SimTime::from_secs(7),
            &ExtractorConfig::default(),
            &mut out,
        );
        (out, skipped)
    }

    #[test]
    fn standard_templates_compile_to_their_wire_offsets() {
        let plan = ExtractionPlan::compile(&Template::standard_ipv4(256).fields);
        assert_eq!(plan.record_len(), 29);
        let slots = plan.slots.unwrap();
        assert_eq!(
            slots.src,
            Slot {
                offset: 0,
                width: 4
            }
        );
        assert_eq!(
            slots.dst,
            Slot {
                offset: 4,
                width: 4
            }
        );
        assert_eq!(
            slots.bytes,
            Slot {
                offset: 13,
                width: 4
            }
        );
        assert_eq!(
            slots.proto,
            Some(Slot {
                offset: 12,
                width: 1
            })
        );
        let plan = ExtractionPlan::compile(&Template::standard_ipv6(257).fields);
        assert_eq!(plan.record_len(), 45);
        assert_eq!(
            plan.slots.unwrap().dst,
            Slot {
                offset: 16,
                width: 16
            }
        );
    }

    #[test]
    fn last_occurrence_wins_even_when_unusable() {
        // The second IPv4 source field is 5 bytes wide: the extractor
        // sees only it, finds no address there and falls back to the
        // IPv6 type.
        let plan = ExtractionPlan::compile(&[
            spec(FieldType::Ipv4SrcAddr, 4),
            spec(FieldType::Ipv4SrcAddr, 5),
            spec(FieldType::Ipv6SrcAddr, 4),
            spec(FieldType::Ipv4DstAddr, 4),
            spec(FieldType::InBytes, 2),
            spec(FieldType::InBytes, 1),
        ]);
        let slots = plan.slots.unwrap();
        assert_eq!(
            slots.src,
            Slot {
                offset: 9,
                width: 4
            }
        );
        assert_eq!(
            slots.bytes,
            Slot {
                offset: 19,
                width: 1
            }
        );
        let mut record = vec![0u8; plan.record_len()];
        record[9..13].copy_from_slice(&[192, 0, 2, 1]);
        record[13..17].copy_from_slice(&[10, 0, 0, 1]);
        record[19] = 200;
        let (out, skipped) = flows(&plan, &record);
        assert_eq!(skipped, 0);
        assert_eq!(out[0].key.src_ip, IpAddr::from([192, 0, 2, 1]));
        assert_eq!(out[0].bytes, 200);
        // The absent packets, ports and protocol take their defaults.
        assert_eq!(out[0].packets, 1);
        assert_eq!((out[0].key.src_port, out[0].key.dst_port), (0, 0));
        assert_eq!(out[0].key.proto, Protocol::Tcp);
    }

    #[test]
    fn template_without_a_mandatory_field_skips_every_record() {
        let plan = ExtractionPlan::compile(&[
            spec(FieldType::Ipv4SrcAddr, 4),
            spec(FieldType::Ipv4DstAddr, 4),
            spec(FieldType::InBytes, 9),
        ]);
        assert!(plan.slots.is_none());
        let (out, skipped) = flows(&plan, &[1u8; 17 * 3]);
        assert!(out.is_empty());
        assert_eq!(skipped, 3);
    }

    #[test]
    fn invalid_records_are_skipped_and_wide_integers_truncate() {
        let plan = ExtractionPlan::compile(&[
            spec(FieldType::Ipv6SrcAddr, 16),
            spec(FieldType::Ipv4DstAddr, 16),
            spec(FieldType::InBytes, 8),
            spec(FieldType::L4SrcPort, 4),
            spec(FieldType::Protocol, 2),
        ]);
        let mut good = vec![0u8; plan.record_len()];
        good[15] = 1;
        good[31] = 2;
        good[32..40].copy_from_slice(&u64::MAX.to_be_bytes());
        good[40..44].copy_from_slice(&0x0001_01bbu32.to_be_bytes());
        good[44..46].copy_from_slice(&0x0111u16.to_be_bytes());
        let zero_bytes = vec![0u8; plan.record_len()];
        let (out, skipped) = flows(&plan, &[zero_bytes, good].concat());
        assert_eq!(skipped, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, u64::MAX);
        assert_eq!(out[0].key.src_port, 443);
        assert_eq!(out[0].key.proto, Protocol::Udp);
        assert!(out[0].key.dst_ip.is_ipv6());
        assert_eq!(out[0].ts, SimTime::from_secs(7));
    }
}
