//! The generic flow-extraction layer.
//!
//! FlowDNS "is not bound to NetFlow data and can be adapted to use other
//! data formats containing IP addresses and timestamps in a configuration
//! file" (Section 3). This module is that adaptation layer: it converts
//! parsed NetFlow v5 packets, v9/IPFIX data records, or already-structured
//! tuples into [`FlowRecord`]s according to an [`ExtractorConfig`] that
//! says which address to correlate on and which direction the flows
//! represent.

use std::net::IpAddr;

use flowdns_types::{FlowDirection, FlowKey, FlowRecord, Protocol, SimTime, StreamId};

use crate::template::FieldType;
use crate::v5::{V5Packet, V5Record};
use crate::v9::{DataRecord, V9Packet};

/// Which IP address the correlator should use when looking flows up in the
/// DNS store. The paper uses the **source** address ("we are interested in
/// analyzing the source of the traffic, hence we use the source IP
/// address. Nonetheless, destination address or both ... can be used").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrelationAddress {
    /// Correlate on the flow's source address (paper default).
    #[default]
    Source,
    /// Correlate on the flow's destination address.
    Destination,
}

/// Configuration of the extraction layer (the paper's "configuration
/// file" knob, as a struct).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractorConfig {
    /// Which address the downstream correlation uses.
    pub correlation_address: CorrelationAddress,
    /// Direction label attached to extracted flows.
    pub direction: FlowDirection,
    /// Stream id attached to extracted flows.
    pub stream: StreamId,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        ExtractorConfig {
            correlation_address: CorrelationAddress::Source,
            direction: FlowDirection::Inbound,
            stream: StreamId::new(0),
        }
    }
}

/// Converts parsed export packets into [`FlowRecord`]s.
#[derive(Debug, Default)]
pub struct FlowExtractor {
    config: ExtractorConfig,
    /// Records successfully extracted.
    pub extracted: u64,
    /// Records skipped because mandatory fields were missing.
    pub skipped: u64,
}

impl FlowExtractor {
    /// An extractor with the given configuration.
    pub fn new(config: ExtractorConfig) -> Self {
        FlowExtractor {
            config,
            extracted: 0,
            skipped: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> ExtractorConfig {
        self.config
    }

    /// The address of `record` the correlator should look up, according to
    /// the configuration.
    pub fn correlation_ip(&self, record: &FlowRecord) -> IpAddr {
        match self.config.correlation_address {
            CorrelationAddress::Source => record.key.src_ip,
            CorrelationAddress::Destination => record.key.dst_ip,
        }
    }

    /// Extract flow records from a NetFlow v5 packet. The export timestamp
    /// of the packet is used as the record timestamp (v5 per-flow times
    /// are router-uptime-relative).
    pub fn from_v5(&mut self, packet: &V5Packet) -> Vec<FlowRecord> {
        let ts = SimTime::from_secs(packet.header.unix_secs as u64);
        let mut out = Vec::with_capacity(packet.records.len());
        for r in &packet.records {
            let flow = v5_flow(&self.config, ts, r);
            if flow.is_valid() {
                self.extracted += 1;
                out.push(flow);
            } else {
                self.skipped += 1;
            }
        }
        out
    }

    /// Extract flow records from the decoded data records of a v9 packet.
    pub fn from_v9(&mut self, packet: &V9Packet) -> Vec<FlowRecord> {
        let ts = SimTime::from_secs(packet.unix_secs as u64);
        let records: Vec<&DataRecord> = packet.data_records().collect();
        self.from_data_records(ts, &records)
    }

    /// Extract flow records from template-based data records (v9 or IPFIX)
    /// with an explicit export timestamp.
    pub fn from_data_records(&mut self, ts: SimTime, records: &[&DataRecord]) -> Vec<FlowRecord> {
        let mut out = Vec::with_capacity(records.len());
        for r in records {
            match self.data_record_to_flow(ts, r) {
                Some(flow) if flow.is_valid() => {
                    self.extracted += 1;
                    out.push(flow);
                }
                _ => self.skipped += 1,
            }
        }
        out
    }

    fn data_record_to_flow(&self, ts: SimTime, r: &DataRecord) -> Option<FlowRecord> {
        let src_ip = r
            .ip(FieldType::Ipv4SrcAddr)
            .or_else(|| r.ip(FieldType::Ipv6SrcAddr))?;
        let dst_ip = r
            .ip(FieldType::Ipv4DstAddr)
            .or_else(|| r.ip(FieldType::Ipv6DstAddr))?;
        let bytes = r.uint(FieldType::InBytes)?;
        let packets = r.uint(FieldType::InPkts).unwrap_or(1).max(1);
        let src_port = r.uint(FieldType::L4SrcPort).unwrap_or(0) as u16;
        let dst_port = r.uint(FieldType::L4DstPort).unwrap_or(0) as u16;
        let proto = Protocol::from_u8(r.uint(FieldType::Protocol).unwrap_or(6) as u8);
        Some(FlowRecord {
            ts,
            key: FlowKey {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
            },
            packets,
            bytes,
            stream: self.config.stream,
            direction: self.config.direction,
            trace: None,
        })
    }
}

/// The flow a v5 record describes, before the validity filter.
pub(crate) fn v5_flow(config: &ExtractorConfig, ts: SimTime, r: &V5Record) -> FlowRecord {
    FlowRecord {
        ts,
        key: FlowKey {
            src_ip: IpAddr::V4(r.src_addr),
            dst_ip: IpAddr::V4(r.dst_addr),
            src_port: r.src_port,
            dst_port: r.dst_port,
            proto: Protocol::from_u8(r.proto),
        },
        packets: r.packets as u64,
        bytes: r.octets as u64,
        stream: config.stream,
        direction: config.direction,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use crate::v5::V5Header;
    use crate::v9::{encode_standard_ipv4_record, V9PacketBuilder, V9Parser};
    use std::net::Ipv4Addr;

    #[test]
    fn v5_extraction_preserves_fields() {
        let packet = V5Packet {
            header: V5Header {
                unix_secs: 1000,
                ..V5Header::default()
            },
            records: vec![V5Record {
                src_addr: Ipv4Addr::new(203, 0, 113, 4),
                dst_addr: Ipv4Addr::new(10, 0, 0, 9),
                src_port: 443,
                dst_port: 54000,
                proto: 6,
                packets: 10,
                octets: 15_000,
                ..V5Record::default()
            }],
        };
        let mut ex = FlowExtractor::new(ExtractorConfig::default());
        let flows = ex.from_v5(&packet);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].ts, SimTime::from_secs(1000));
        assert_eq!(flows[0].src_ip(), IpAddr::from([203, 0, 113, 4]));
        assert_eq!(flows[0].bytes, 15_000);
        assert_eq!(ex.extracted, 1);
        assert_eq!(ex.correlation_ip(&flows[0]), IpAddr::from([203, 0, 113, 4]));
    }

    #[test]
    fn destination_correlation_config() {
        let cfg = ExtractorConfig {
            correlation_address: CorrelationAddress::Destination,
            ..ExtractorConfig::default()
        };
        let ex = FlowExtractor::new(cfg);
        let flow = FlowRecord::inbound(
            SimTime::ZERO,
            Ipv4Addr::new(1, 1, 1, 1).into(),
            Ipv4Addr::new(2, 2, 2, 2).into(),
            100,
        );
        assert_eq!(ex.correlation_ip(&flow), IpAddr::from([2, 2, 2, 2]));
    }

    #[test]
    fn invalid_v5_records_are_skipped() {
        let packet = V5Packet {
            header: V5Header::default(),
            records: vec![V5Record {
                octets: 0, // invalid
                packets: 5,
                ..V5Record::default()
            }],
        };
        let mut ex = FlowExtractor::new(ExtractorConfig::default());
        assert!(ex.from_v5(&packet).is_empty());
        assert_eq!(ex.skipped, 1);
    }

    #[test]
    fn v9_extraction_end_to_end() {
        let template = Template::standard_ipv4(256);
        let mut b = V9PacketBuilder::new(1, 1, 5000);
        b.add_templates(std::slice::from_ref(&template));
        let rec = encode_standard_ipv4_record(
            Ipv4Addr::new(198, 51, 100, 20),
            Ipv4Addr::new(10, 0, 0, 5),
            443,
            40000,
            17,
            700_000,
            500,
            0,
            1,
        );
        b.add_data(&template, &[rec]).unwrap();
        let mut parser = V9Parser::new();
        let pkt = parser.parse(&b.build(0)).unwrap();
        let mut ex = FlowExtractor::new(ExtractorConfig::default());
        let flows = ex.from_v9(&pkt);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].ts, SimTime::from_secs(5000));
        assert_eq!(flows[0].bytes, 700_000);
        assert_eq!(flows[0].key.proto, Protocol::Udp);
        assert_eq!(flows[0].key.dst_port, 40000);
    }

    #[test]
    fn records_missing_mandatory_fields_are_skipped() {
        let r = DataRecord::default();
        let mut ex = FlowExtractor::new(ExtractorConfig::default());
        let flows = ex.from_data_records(SimTime::ZERO, &[&r]);
        assert!(flows.is_empty());
        assert_eq!(ex.skipped, 1);
    }
}
