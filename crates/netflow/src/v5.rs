//! NetFlow version 5 packet codec.
//!
//! NetFlow v5 is the fixed-layout ancestor of v9: a 24-byte header
//! followed by up to 30 records of 48 bytes each. Many ISP ingress routers
//! still export v5, so FlowDNS's flow reader must understand it.

use std::net::Ipv4Addr;

use flowdns_types::FlowDnsError;

fn err(msg: impl Into<String>) -> FlowDnsError {
    FlowDnsError::NetflowParse(msg.into())
}

/// Size of the v5 packet header in bytes.
pub const V5_HEADER_LEN: usize = 24;
/// Size of one v5 flow record in bytes.
pub const V5_RECORD_LEN: usize = 48;
/// Maximum number of records in one v5 packet.
pub const V5_MAX_RECORDS: usize = 30;

/// NetFlow v5 packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct V5Header {
    /// Milliseconds since the exporting device booted.
    pub sys_uptime_ms: u32,
    /// Export time, seconds since the Unix epoch.
    pub unix_secs: u32,
    /// Export time, residual nanoseconds.
    pub unix_nsecs: u32,
    /// Sequence counter of total flows seen.
    pub flow_sequence: u32,
    /// Type of flow-switching engine.
    pub engine_type: u8,
    /// Slot number of the flow-switching engine.
    pub engine_id: u8,
    /// Sampling mode (2 bits) and interval (14 bits).
    pub sampling: u16,
}

/// One NetFlow v5 flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V5Record {
    /// Source IP address.
    pub src_addr: Ipv4Addr,
    /// Destination IP address.
    pub dst_addr: Ipv4Addr,
    /// Next-hop router IP address.
    pub next_hop: Ipv4Addr,
    /// SNMP index of the input interface.
    pub input_if: u16,
    /// SNMP index of the output interface.
    pub output_if: u16,
    /// Packets in the flow.
    pub packets: u32,
    /// Bytes in the flow.
    pub octets: u32,
    /// SysUptime at the first packet of the flow.
    pub first: u32,
    /// SysUptime at the last packet of the flow.
    pub last: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Cumulative TCP flags.
    pub tcp_flags: u8,
    /// IP protocol number.
    pub proto: u8,
    /// Type of service.
    pub tos: u8,
    /// Source autonomous system number.
    pub src_as: u16,
    /// Destination autonomous system number.
    pub dst_as: u16,
    /// Source prefix mask length.
    pub src_mask: u8,
    /// Destination prefix mask length.
    pub dst_mask: u8,
}

impl Default for V5Record {
    fn default() -> Self {
        V5Record {
            src_addr: Ipv4Addr::UNSPECIFIED,
            dst_addr: Ipv4Addr::UNSPECIFIED,
            next_hop: Ipv4Addr::UNSPECIFIED,
            input_if: 0,
            output_if: 0,
            packets: 0,
            octets: 0,
            first: 0,
            last: 0,
            src_port: 0,
            dst_port: 0,
            tcp_flags: 0,
            proto: 6,
            tos: 0,
            src_as: 0,
            dst_as: 0,
            src_mask: 0,
            dst_mask: 0,
        }
    }
}

impl V5Record {
    /// Decode one record from its [`V5_RECORD_LEN`] wire bytes.
    pub(crate) fn from_wire(b: &[u8]) -> Self {
        V5Record {
            src_addr: Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            dst_addr: Ipv4Addr::new(b[4], b[5], b[6], b[7]),
            next_hop: Ipv4Addr::new(b[8], b[9], b[10], b[11]),
            input_if: u16::from_be_bytes([b[12], b[13]]),
            output_if: u16::from_be_bytes([b[14], b[15]]),
            packets: be32(&b[16..20]),
            octets: be32(&b[20..24]),
            first: be32(&b[24..28]),
            last: be32(&b[28..32]),
            src_port: u16::from_be_bytes([b[32], b[33]]),
            dst_port: u16::from_be_bytes([b[34], b[35]]),
            tcp_flags: b[37],
            proto: b[38],
            tos: b[39],
            src_as: u16::from_be_bytes([b[40], b[41]]),
            dst_as: u16::from_be_bytes([b[42], b[43]]),
            src_mask: b[44],
            dst_mask: b[45],
        }
    }
}

/// Check a v5 packet's framing (header length, version, a record count
/// of 1..=30, no truncation) and split it into its header and the bytes
/// of the declared records. [`V5Packet::decode`] and the live decoder
/// both start here.
pub(crate) fn split_packet(bytes: &[u8]) -> Result<(V5Header, &[u8]), FlowDnsError> {
    if bytes.len() < V5_HEADER_LEN {
        return Err(err("packet shorter than v5 header"));
    }
    let version = u16::from_be_bytes([bytes[0], bytes[1]]);
    if version != 5 {
        return Err(err(format!("not a v5 packet (version {version})")));
    }
    let count = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    if count == 0 || count > V5_MAX_RECORDS {
        return Err(err(format!("invalid v5 record count {count}")));
    }
    let expected = V5_HEADER_LEN + count * V5_RECORD_LEN;
    if bytes.len() < expected {
        return Err(err(format!(
            "v5 packet truncated: need {expected} bytes, have {}",
            bytes.len()
        )));
    }
    let header = V5Header {
        sys_uptime_ms: be32(&bytes[4..8]),
        unix_secs: be32(&bytes[8..12]),
        unix_nsecs: be32(&bytes[12..16]),
        flow_sequence: be32(&bytes[16..20]),
        engine_type: bytes[20],
        engine_id: bytes[21],
        sampling: u16::from_be_bytes([bytes[22], bytes[23]]),
    };
    Ok((header, &bytes[V5_HEADER_LEN..expected]))
}

/// A complete NetFlow v5 export packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct V5Packet {
    /// Packet header.
    pub header: V5Header,
    /// Flow records (1..=30).
    pub records: Vec<V5Record>,
}

impl V5Packet {
    /// Encode the packet to wire format.
    pub fn encode(&self) -> Result<Vec<u8>, FlowDnsError> {
        if self.records.is_empty() || self.records.len() > V5_MAX_RECORDS {
            return Err(err(format!(
                "v5 packet must carry 1..=30 records, has {}",
                self.records.len()
            )));
        }
        let mut out = Vec::with_capacity(V5_HEADER_LEN + self.records.len() * V5_RECORD_LEN);
        out.extend_from_slice(&5u16.to_be_bytes());
        out.extend_from_slice(&(self.records.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.header.sys_uptime_ms.to_be_bytes());
        out.extend_from_slice(&self.header.unix_secs.to_be_bytes());
        out.extend_from_slice(&self.header.unix_nsecs.to_be_bytes());
        out.extend_from_slice(&self.header.flow_sequence.to_be_bytes());
        out.push(self.header.engine_type);
        out.push(self.header.engine_id);
        out.extend_from_slice(&self.header.sampling.to_be_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.src_addr.octets());
            out.extend_from_slice(&r.dst_addr.octets());
            out.extend_from_slice(&r.next_hop.octets());
            out.extend_from_slice(&r.input_if.to_be_bytes());
            out.extend_from_slice(&r.output_if.to_be_bytes());
            out.extend_from_slice(&r.packets.to_be_bytes());
            out.extend_from_slice(&r.octets.to_be_bytes());
            out.extend_from_slice(&r.first.to_be_bytes());
            out.extend_from_slice(&r.last.to_be_bytes());
            out.extend_from_slice(&r.src_port.to_be_bytes());
            out.extend_from_slice(&r.dst_port.to_be_bytes());
            out.push(0); // pad1
            out.push(r.tcp_flags);
            out.push(r.proto);
            out.push(r.tos);
            out.extend_from_slice(&r.src_as.to_be_bytes());
            out.extend_from_slice(&r.dst_as.to_be_bytes());
            out.push(r.src_mask);
            out.push(r.dst_mask);
            out.extend_from_slice(&[0, 0]); // pad2
        }
        Ok(out)
    }

    /// Decode a packet from wire format.
    pub fn decode(bytes: &[u8]) -> Result<Self, FlowDnsError> {
        let (header, records) = split_packet(bytes)?;
        Ok(V5Packet {
            header,
            records: records
                .chunks_exact(V5_RECORD_LEN)
                .map(V5Record::from_wire)
                .collect(),
        })
    }
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(i: u8) -> V5Record {
        V5Record {
            src_addr: Ipv4Addr::new(203, 0, 113, i),
            dst_addr: Ipv4Addr::new(10, 0, 0, i),
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            input_if: 1,
            output_if: 2,
            packets: 100 + i as u32,
            octets: 140_000 + i as u32,
            first: 1000,
            last: 2000,
            src_port: 443,
            dst_port: 50_000 + i as u16,
            tcp_flags: 0x1B,
            proto: 6,
            tos: 0,
            src_as: 65_001,
            dst_as: 65_002,
            src_mask: 24,
            dst_mask: 16,
        }
    }

    #[test]
    fn round_trip_single_record() {
        let pkt = V5Packet {
            header: V5Header {
                sys_uptime_ms: 123_456,
                unix_secs: 1_700_000_000,
                unix_nsecs: 999,
                flow_sequence: 42,
                engine_type: 1,
                engine_id: 7,
                sampling: 0x4001,
            },
            records: vec![sample_record(1)],
        };
        let bytes = pkt.encode().unwrap();
        assert_eq!(bytes.len(), V5_HEADER_LEN + V5_RECORD_LEN);
        assert_eq!(V5Packet::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn round_trip_full_packet() {
        let pkt = V5Packet {
            header: V5Header::default(),
            records: (0..30).map(|i| sample_record(i as u8)).collect(),
        };
        let bytes = pkt.encode().unwrap();
        assert_eq!(V5Packet::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn rejects_empty_and_oversized_packets() {
        let empty = V5Packet::default();
        assert!(empty.encode().is_err());
        let over = V5Packet {
            header: V5Header::default(),
            records: vec![sample_record(0); 31],
        };
        assert!(over.encode().is_err());
    }

    #[test]
    fn rejects_wrong_version_and_truncation() {
        let pkt = V5Packet {
            header: V5Header::default(),
            records: vec![sample_record(3)],
        };
        let mut bytes = pkt.encode().unwrap();
        assert!(V5Packet::decode(&bytes[..10]).is_err());
        assert!(V5Packet::decode(&bytes[..V5_HEADER_LEN + 10]).is_err());
        bytes[1] = 9;
        assert!(V5Packet::decode(&bytes).is_err());
    }

    #[test]
    fn rejects_bogus_record_count() {
        let pkt = V5Packet {
            header: V5Header::default(),
            records: vec![sample_record(3)],
        };
        let mut bytes = pkt.encode().unwrap();
        bytes[2] = 0xFF;
        bytes[3] = 0xFF;
        assert!(V5Packet::decode(&bytes).is_err());
        bytes[2] = 0;
        bytes[3] = 0;
        assert!(V5Packet::decode(&bytes).is_err());
    }
}
