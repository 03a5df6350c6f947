//! What the daemon must write, computed without the daemon.
//!
//! The store image the daemon warm-starts from and the expected output of
//! one lap come from the same in-process `ShardedStore`, driven with the
//! calls `OfflineSimulator::run_with` makes per event (`process_dns`,
//! `process_flow`). `OfflineSimulator` itself then runs over the head of
//! the lap and must agree with that reference line for line: it cannot
//! import an image, and replaying a whole preload through it costs more
//! than the run it would check (it re-estimates store memory as it goes).
//!
//! Expected output is kept as running sums at datagram boundaries, so any
//! stretch of the endlessly repeated lap has its expected count, bytes and
//! order-independent checksums in O(1).

use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

use flowdns_bgp::{AsnView, RoutingTable};
use flowdns_core::simulate::Event;
use flowdns_core::{
    shard_of_dns, shard_of_flow, CorrelatorConfig, FillUpStats, LookUpStats, OfflineSimulator,
    ShardedStore,
};
use flowdns_types::{CorrelatedRecord, DnsAnswer, DnsRecord, FlowRecord, SimTime};

use crate::workloads::{Trace, T_BASE};

/// Flows at the head of the lap that `OfflineSimulator` is run over.
const SIMULATOR_WINDOW: usize = 49_152;

/// Order-independent totals over a set of output records. The hashes are
/// summed with wrap-around, so sets compare equal whatever their order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sums {
    pub records: u64,
    pub bytes: u64,
    pub correlated_bytes: u64,
    /// Sum of `field_hash` over the records.
    pub field_hash: u64,
    /// Sum of `line_hash` over the TSV lines.
    pub line_hash: u64,
    /// TSV bytes, newlines included.
    pub line_bytes: u64,
}

impl Sums {
    pub fn add_record(&mut self, record: &CorrelatedRecord) {
        self.records += 1;
        self.bytes += record.flow.bytes;
        if record.is_correlated() {
            self.correlated_bytes += record.flow.bytes;
        }
        self.field_hash = self.field_hash.wrapping_add(field_hash(record));
    }

    pub fn add_line(&mut self, line: &str) {
        self.line_hash = self.line_hash.wrapping_add(line_hash(line));
        self.line_bytes += line.len() as u64 + 1;
    }

    fn zip(self, other: Sums, f: impl Fn(u64, u64) -> u64) -> Sums {
        Sums {
            records: f(self.records, other.records),
            bytes: f(self.bytes, other.bytes),
            correlated_bytes: f(self.correlated_bytes, other.correlated_bytes),
            field_hash: f(self.field_hash, other.field_hash),
            line_hash: f(self.line_hash, other.line_hash),
            line_bytes: f(self.line_bytes, other.line_bytes),
        }
    }

    pub fn plus(self, other: Sums) -> Sums {
        self.zip(other, u64::wrapping_add)
    }

    fn minus(self, other: Sums) -> Sums {
        self.zip(other, u64::wrapping_sub)
    }

    fn times(self, n: u64) -> Sums {
        self.zip(Sums::default(), |a, _| a.wrapping_mul(n))
    }
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    mix(h, bytes.len() as u64)
}

fn finish(h: u64) -> u64 {
    let h = (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 29)
}

fn hash_ip(h: u64, ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(ip) => mix(h, u32::from(ip) as u64),
        IpAddr::V6(ip) => {
            let bits = u128::from(ip);
            mix(mix(h, bits as u64), (bits >> 64) as u64)
        }
    }
}

/// Hash of everything a TSV line shows except the timestamp, straight
/// from the record: cheap enough for the sink wrapper to take per record.
pub fn field_hash(record: &CorrelatedRecord) -> u64 {
    let mut h = hash_ip(0x51ed_27e1, record.flow.key.src_ip);
    h = hash_ip(h, record.flow.key.dst_ip);
    h = mix(h, record.flow.bytes);
    h = mix(h, record.src_asn.map_or(u64::MAX, u64::from));
    h = mix(h, record.dst_asn.map_or(u64::MAX, u64::from));
    for name in [record.outcome.first_name(), record.outcome.final_name()] {
        h = hash_bytes(h, name.map_or("-", |n| n.as_str()).as_bytes());
    }
    finish(h)
}

/// Hash of a TSV line without its first column (the timestamp, which
/// depends on when the record was sent).
pub fn line_hash(line: &str) -> u64 {
    let rest = line.split_once('\t').map_or(line, |(_, rest)| rest);
    finish(hash_bytes(0x7f4a_7c15, rest.as_bytes()))
}

pub struct Reference {
    /// `prefix[d]`: sums over the flows of the lap's datagrams `0..d`.
    prefix: Vec<Sums>,
    /// Entries of the store image.
    pub store_entries: usize,
    /// Lookup counters of one lap on a fresh image.
    pub lookup: LookUpStats,
}

impl Reference {
    fn datagrams(&self) -> u64 {
        self.prefix.len() as u64 - 1
    }

    /// Expected sums of datagrams `from..to`, counted from the start of
    /// the run across laps.
    pub fn range(&self, from: u64, to: u64) -> Sums {
        let upto = |n: u64| {
            let lap = self.prefix[self.datagrams() as usize];
            let part = self.prefix[(n % self.datagrams()) as usize];
            part.plus(lap.times(n / self.datagrams()))
        };
        upto(to).minus(upto(from))
    }
}

fn asn_view(trace: &Trace) -> Result<Option<AsnView>, String> {
    trace
        .rib
        .as_deref()
        .map(|text| {
            RoutingTable::from_announcements_text(text)
                .map(|table| AsnView::new(table.freeze()))
                .map_err(|e| format!("routing table: {e}"))
        })
        .transpose()
}

fn apply_dns(store: &ShardedStore, record: &DnsRecord, stats: &mut FillUpStats) {
    let shard = shard_of_dns(record, store.shards());
    store
        .partition(shard)
        .lock()
        .process_dns(store, record, stats);
}

/// Build the store image at `snapshot_path` and the expected output of
/// one lap.
pub fn compute(
    trace: &Trace,
    config: &CorrelatorConfig,
    snapshot_path: &std::path::Path,
) -> Result<Reference, String> {
    let view = asn_view(trace)?;
    let store = ShardedStore::new(config);
    let mut fillup = FillUpStats::default();
    for record in &trace.preload {
        apply_dns(&store, record, &mut fillup);
    }
    if fillup.filtered != 0 {
        return Err(format!(
            "{} preload records were not stored",
            fillup.filtered
        ));
    }
    let store_entries = store.total_entries();
    flowdns_snapshot::write_snapshot(snapshot_path, &store.export_image())
        .map_err(|e| format!("store image: {e}"))?;

    let per_datagram = trace.spec.per_datagram;
    let mut asn = view.as_ref().map(|v| v.reader());
    let mut lookup = LookUpStats::default();
    let mut prefix = vec![Sums::default()];
    let mut sums = Sums::default();
    let mut head_lines = Vec::with_capacity(SIMULATOR_WINDOW);
    let mut head_events = 0usize;
    for (position, event) in trace.lap.iter().enumerate() {
        match event {
            Event::Dns(record) => apply_dns(&store, record, &mut fillup),
            Event::Flow(flow) => {
                let shard = shard_of_flow(flow, store.shards());
                let record = store.partition(shard).lock().process_flow(
                    &store,
                    &mut asn,
                    flow.clone(),
                    &mut lookup,
                );
                sums.add_record(&record);
                let line = record.to_tsv();
                sums.add_line(&line);
                if head_lines.len() < SIMULATOR_WINDOW {
                    head_lines.push(line);
                    head_events = position + 1;
                }
                if sums.records % per_datagram as u64 == 0 {
                    prefix.push(sums);
                }
            }
        }
    }
    if sums.records % per_datagram as u64 != 0 {
        prefix.push(sums);
    }
    if lookup.filtered != 0 {
        return Err(format!(
            "{} lap flows are not valid records",
            lookup.filtered
        ));
    }
    drop(store);
    check_against_simulator(trace, config, view, &trace.lap[..head_events], &head_lines)?;
    Ok(Reference {
        prefix,
        store_entries,
        lookup,
    })
}

/// Run `OfflineSimulator` over the head of the lap, on the preloaded
/// entries those flows can touch, and compare its lines with ours.
fn check_against_simulator(
    trace: &Trace,
    config: &CorrelatorConfig,
    view: Option<AsnView>,
    head: &[Event],
    expected: &[String],
) -> Result<(), String> {
    let sources: HashSet<IpAddr> = head
        .iter()
        .filter_map(|e| match e {
            Event::Flow(f) => Some(f.key.src_ip),
            Event::Dns(_) => None,
        })
        .collect();
    // A CNAME record is stored under its target; chains are walked from
    // the name an address maps to back to the name the client asked for.
    let mut alias_of: HashMap<&str, &DnsRecord> = HashMap::new();
    for record in &trace.preload {
        if let DnsAnswer::Name(target) = &record.answer {
            alias_of.insert(target.as_str(), record);
        }
    }
    // One flow first: the simulator samples store memory on every event
    // while its written-record count is a multiple of 4096, zero included.
    let mut events = vec![Event::Flow(FlowRecord::inbound(
        SimTime::from_secs(T_BASE),
        IpAddr::from([192, 0, 2, 1]),
        IpAddr::from([192, 0, 2, 2]),
        1_000,
    ))];
    let mut walked: HashSet<&str> = HashSet::new();
    for record in &trace.preload {
        let DnsAnswer::Ip(ip) = &record.answer else {
            continue;
        };
        if !sources.contains(ip) {
            continue;
        }
        events.push(Event::Dns(record.clone()));
        let mut name = record.query.as_str();
        while let Some(alias) = alias_of.get(name) {
            if !walked.insert(name) {
                break;
            }
            events.push(Event::Dns((*alias).clone()));
            name = alias.query.as_str();
        }
    }
    events.extend(head.iter().cloned());
    // The simulator's cost model sheds load above a modelled capacity;
    // this trace is far above it, and must not be shed.
    let mut simulator = OfflineSimulator::new(config.clone()).with_capacity_cores(1e12);
    if let Some(view) = view {
        simulator = simulator.with_asn_view(view);
    }
    let mut lines = Vec::with_capacity(expected.len());
    let outcome = simulator.run_with(events, |record| lines.push(record.to_tsv()));
    if outcome.report.metrics.flows_dropped + outcome.report.metrics.dns_dropped != 0 {
        return Err("OfflineSimulator shed events".into());
    }
    if lines.len() != expected.len() + 1 {
        return Err(format!(
            "OfflineSimulator wrote {} records for {} flows",
            lines.len() - 1,
            expected.len()
        ));
    }
    for (i, (ours, theirs)) in expected.iter().zip(&lines[1..]).enumerate() {
        if ours != theirs {
            return Err(format!(
                "flow {i} of the lap: reference line {ours:?}, OfflineSimulator line {theirs:?}"
            ));
        }
    }
    Ok(())
}
