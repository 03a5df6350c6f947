//! One lap, encoded once: NetFlow datagrams and DNS feed chunks in trace
//! order in a single buffer, with the offsets the generator patches at
//! send time (export time, DNS timestamps, the probe mark).

use std::net::IpAddr;

use flowdns_core::simulate::Event;
use flowdns_dns::framing::FrameEncoder;
use flowdns_netflow::v9::encode_standard_ipv4_record;
use flowdns_netflow::{
    IpfixMessageBuilder, Template, V5Header, V5Packet, V5Record, V9PacketBuilder,
};
use flowdns_types::{DnsRecord, FlowRecord};

use crate::workloads::{Format, Spec, T_BASE};

/// A datagram carries a template set when its ordinal is a multiple of
/// this (the first always does): the periodic refresh of a real exporter.
const TEMPLATE_EVERY: usize = 64;
/// DNS records per feed write, at most.
const DNS_CHUNK: usize = 48;
/// A DNS chunk is flushed after this many datagrams even when not full,
/// so DNS keeps its place in the trace.
const DNS_CHUNK_SPAN: usize = 8;
/// IP protocol number that marks a latency probe (RFC 3692 experimental).
pub const PROBE_PROTO: u8 = 253;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Flows,
    Dns,
}

#[derive(Debug, Clone, Copy)]
pub struct Item {
    pub kind: Kind,
    start: u32,
    len: u32,
    pub records: u32,
    /// Flows: offset of the 4-byte export time. DNS: first index into
    /// `Wire::dns_ts`.
    ts: u32,
    /// Flows: offset of record 0's source port (destination port follows)
    /// and of its protocol byte.
    ports: u32,
    proto: u32,
}

pub struct Wire {
    buf: Vec<u8>,
    pub items: Vec<Item>,
    /// Offsets of every DNS record's 8-byte timestamp.
    dns_ts: Vec<u32>,
    pub datagrams: usize,
    pub flow_records: u64,
    pub dns_records: u64,
}

/// What `Wire::mark_probe` overwrote.
pub struct Unmarked([u8; 5]);

impl Wire {
    pub fn encode(spec: &Spec, lap: &[Event]) -> Result<Wire, String> {
        let mut wire = Wire {
            buf: Vec::new(),
            items: Vec::new(),
            dns_ts: Vec::new(),
            datagrams: 0,
            flow_records: 0,
            dns_records: 0,
        };
        let mut flows: Vec<&FlowRecord> = Vec::with_capacity(spec.per_datagram);
        let mut dns: Vec<&DnsRecord> = Vec::with_capacity(DNS_CHUNK);
        let mut dns_opened_at = 0usize;
        for event in lap {
            match event {
                Event::Flow(flow) => {
                    flows.push(flow);
                    if flows.len() == spec.per_datagram {
                        wire.push_datagram(spec, &mut flows)?;
                    }
                }
                Event::Dns(record) => {
                    if dns.is_empty() {
                        dns_opened_at = wire.datagrams;
                    }
                    dns.push(record);
                }
            }
            let span = wire.datagrams - dns_opened_at;
            if dns.len() == DNS_CHUNK || (!dns.is_empty() && span >= DNS_CHUNK_SPAN) {
                wire.push_dns(&mut dns)?;
            }
        }
        if !flows.is_empty() {
            wire.push_datagram(spec, &mut flows)?;
        }
        if !dns.is_empty() {
            wire.push_dns(&mut dns)?;
        }
        if wire.buf.len() > u32::MAX as usize {
            return Err("encoded lap exceeds 4 GiB".into());
        }
        Ok(wire)
    }

    fn push_datagram(&mut self, spec: &Spec, flows: &mut Vec<&FlowRecord>) -> Result<(), String> {
        let ordinal = self.datagrams;
        // One address family per data set, IPv4 first: the order the
        // decoder hands the records on in.
        flows.sort_by_key(|f| f.key.src_ip.is_ipv6());
        let (bytes, ts, first_record) = match spec.format {
            Format::V5 => (encode_v5(flows)?, 8, 24),
            Format::V9 | Format::Ipfix => encode_templated(spec.format, ordinal, flows)?,
        };
        let (ports, proto) = match (spec.format, flows[0].key.src_ip) {
            (Format::V5, _) => (first_record + 32, first_record + 38),
            (_, IpAddr::V4(_)) => (first_record + 8, first_record + 12),
            (_, IpAddr::V6(_)) => (first_record + 32, first_record + 36),
        };
        let start = self.buf.len() as u32;
        self.items.push(Item {
            kind: Kind::Flows,
            start,
            len: bytes.len() as u32,
            records: flows.len() as u32,
            ts: start + ts,
            ports: start + ports,
            proto: start + proto,
        });
        self.buf.extend_from_slice(&bytes);
        self.flow_records += flows.len() as u64;
        self.datagrams += 1;
        flows.clear();
        Ok(())
    }

    fn push_dns(&mut self, records: &mut Vec<&DnsRecord>) -> Result<(), String> {
        let encoder = FrameEncoder::new();
        let start = self.buf.len() as u32;
        let first_ts = self.dns_ts.len() as u32;
        for record in records.iter() {
            let frame = encoder
                .encode_batch(std::slice::from_ref(*record))
                .map_err(|e| format!("DNS frame: {e}"))?;
            // frame := u32 length | u64 ts_micros | ...
            self.dns_ts.push(self.buf.len() as u32 + 4);
            self.buf.extend_from_slice(&frame);
        }
        self.items.push(Item {
            kind: Kind::Dns,
            start,
            len: self.buf.len() as u32 - start,
            records: records.len() as u32,
            ts: first_ts,
            ports: 0,
            proto: 0,
        });
        self.dns_records += records.len() as u64;
        records.clear();
        Ok(())
    }

    pub fn bytes(&self, item: &Item) -> &[u8] {
        &self.buf[item.start as usize..(item.start + item.len) as usize]
    }

    /// Set the item's data time: whole seconds in a NetFlow header,
    /// microseconds on every record of a DNS chunk.
    pub fn stamp(&mut self, item: &Item, data_micros: u64) {
        match item.kind {
            Kind::Flows => {
                let secs = (data_micros / 1_000_000) as u32;
                self.buf[item.ts as usize..item.ts as usize + 4]
                    .copy_from_slice(&secs.to_be_bytes());
            }
            Kind::Dns => {
                let stamp = data_micros.to_be_bytes();
                for i in item.ts..item.ts + item.records {
                    let at = self.dns_ts[i as usize] as usize;
                    self.buf[at..at + 8].copy_from_slice(&stamp);
                }
            }
        }
    }

    /// Turn the datagram's first record into probe `id`: ports and
    /// protocol are not in the TSV line, so the output stays as expected.
    pub fn mark_probe(&mut self, item: &Item, id: u32) -> Unmarked {
        let (ports, proto) = (item.ports as usize, item.proto as usize);
        let mut saved = [0u8; 5];
        saved[..4].copy_from_slice(&self.buf[ports..ports + 4]);
        saved[4] = self.buf[proto];
        self.buf[ports..ports + 4].copy_from_slice(&id.to_be_bytes());
        self.buf[proto] = PROBE_PROTO;
        Unmarked(saved)
    }

    pub fn unmark(&mut self, item: &Item, saved: Unmarked) {
        let (ports, proto) = (item.ports as usize, item.proto as usize);
        self.buf[ports..ports + 4].copy_from_slice(&saved.0[..4]);
        self.buf[proto] = saved.0[4];
    }
}

fn counter(value: u64) -> u32 {
    value.min(u32::MAX as u64) as u32
}

fn encode_v5(flows: &[&FlowRecord]) -> Result<Vec<u8>, String> {
    let records = flows
        .iter()
        .map(|f| match (f.key.src_ip, f.key.dst_ip) {
            (IpAddr::V4(src), IpAddr::V4(dst)) => Ok(V5Record {
                src_addr: src,
                dst_addr: dst,
                src_port: f.key.src_port,
                dst_port: f.key.dst_port,
                proto: f.key.proto.to_u8(),
                packets: counter(f.packets),
                octets: counter(f.bytes),
                ..V5Record::default()
            }),
            _ => Err("NetFlow v5 carries IPv4 only".to_string()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    V5Packet {
        header: V5Header {
            unix_secs: T_BASE as u32,
            ..V5Header::default()
        },
        records,
    }
    .encode()
    .map_err(|e| e.to_string())
}

/// A v9 packet or IPFIX message: (bytes, offset of the export time,
/// offset of the first data record).
fn encode_templated(
    format: Format,
    ordinal: usize,
    flows: &[&FlowRecord],
) -> Result<(Vec<u8>, u32, u32), String> {
    let templates = [Template::standard_ipv4(256), Template::standard_ipv6(257)];
    let with_templates = ordinal.is_multiple_of(TEMPLATE_EVERY);
    let mut v4_records = Vec::new();
    let mut v6_records = Vec::new();
    for f in flows {
        let (sport, dport, proto) = (f.key.src_port, f.key.dst_port, f.key.proto.to_u8());
        let (bytes, packets) = (counter(f.bytes), counter(f.packets));
        match (f.key.src_ip, f.key.dst_ip) {
            (IpAddr::V4(src), IpAddr::V4(dst)) => v4_records.push(encode_standard_ipv4_record(
                src, dst, sport, dport, proto, bytes, packets, 0, 1,
            )),
            (IpAddr::V6(src), IpAddr::V6(dst)) => {
                let mut r = Vec::with_capacity(45);
                r.extend_from_slice(&src.octets());
                r.extend_from_slice(&dst.octets());
                r.extend_from_slice(&sport.to_be_bytes());
                r.extend_from_slice(&dport.to_be_bytes());
                r.push(proto);
                r.extend_from_slice(&bytes.to_be_bytes());
                r.extend_from_slice(&packets.to_be_bytes());
                v6_records.push(r);
            }
            _ => return Err("a flow's endpoints must share an address family".into()),
        }
    }
    // Header, then the template set when present (a 4-byte set header,
    // and per template 4 bytes plus 4 per field), then the 4-byte header
    // of the first data set.
    let template_set: usize = 4 + templates
        .iter()
        .map(|t| 4 + 4 * t.fields.len())
        .sum::<usize>();
    let header = if format == Format::V9 { 20 } else { 16 };
    let first_record = header + if with_templates { template_set } else { 0 } + 4;
    let sets = [(&templates[0], &v4_records), (&templates[1], &v6_records)];
    let err = |e: flowdns_types::FlowDnsError| e.to_string();
    let (bytes, ts) = if format == Format::V9 {
        let mut b = V9PacketBuilder::new(1, 0, T_BASE as u32);
        if with_templates {
            b.add_templates(&templates);
        }
        for (template, records) in sets.iter().filter(|(_, r)| !r.is_empty()) {
            b.add_data(template, records).map_err(err)?;
        }
        (b.build(0), 8)
    } else {
        let mut b = IpfixMessageBuilder::new(1, 0, T_BASE as u32);
        if with_templates {
            b.add_templates(&templates);
        }
        for (template, records) in sets.iter().filter(|(_, r)| !r.is_empty()) {
            b.add_data(template, records).map_err(err)?;
        }
        (b.build(), 4)
    };
    Ok((bytes, ts, first_record as u32))
}
