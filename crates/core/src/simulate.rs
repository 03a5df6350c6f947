//! The deterministic offline simulator.
//!
//! The paper evaluates FlowDNS against live ISP streams for a day or a
//! week and reports correlation rate, traffic and resource use over time
//! (Figures 2, 3, 7). We cannot replay a week of 1M-records/s streams in
//! wall-clock time, so the experiment harness drives this simulator
//! instead: it processes a timestamped trace **in data-time order**
//! through the exact same [`ShardedStore`] partitions the live pipeline's
//! shard workers own, and *counts* what the store does — DNS records
//! stored, flows looked up, CNAME hops, entries rotated out, entries
//! purge-scanned, entries held and the peak held. It prices none of it:
//! no operation has a cost, no machine has a capacity and no event is
//! dropped. A time or a loss figure comes from the daemon, measured.
//!
//! The exact-TTL strawman has no partitioned form and is not a mode of
//! the daemon, so [`OfflineSimulator::exact_ttl`] runs it on a small arm
//! private to this module: two [`ExactTtlStore`]s keyed and valued by
//! [`DomainName`]s (which share the parsed record's allocation and
//! compare by content), with the same record filter and chain following
//! as the partitions.
//!
//! The simulator emits one [`HourlySample`] per hour — one row per point
//! of the paper's time-series figures — plus the run's totals and the
//! same [`Report`] the live pipeline produces.

use flowdns_bgp::{AsnReader, AsnView};
use flowdns_storage::{ExactTtlStore, MemoryEstimate};
use flowdns_types::{
    CorrelatedRecord, CorrelationOutcome, DnsAnswer, DnsRecord, DomainName, FlowRecord, IpKey,
    RecordType, SimDuration, SimTime,
};

use crate::config::CorrelatorConfig;
use crate::lookup::{follow_chain, LookUpStats};
use crate::metrics::Report;
use crate::shard::{shard_of_dns, shard_of_flow, FillUpStats, ShardedStore};

/// One input event of the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A DNS record arriving on the DNS streams.
    Dns(DnsRecord),
    /// A flow record arriving on the NetFlow streams.
    Flow(FlowRecord),
}

impl Event {
    /// The event's timestamp.
    pub fn ts(&self) -> SimTime {
        match self {
            Event::Dns(r) => r.ts,
            Event::Flow(f) => f.ts,
        }
    }
}

/// The simulator's storage: the store the live pipeline ships
/// ([`ShardedStore`]) for the rotating variants, the exact-TTL arm for
/// [`OfflineSimulator::exact_ttl`]. The sharded form broadcasts the data
/// clock to every partition before each event, so rotation boundaries —
/// and therefore the correlated output — are identical for any shard
/// count.
enum SimStore {
    Sharded(Box<ShardedStore>),
    ExactTtl(Box<ExactTtlArm>),
}

impl SimStore {
    fn process_dns(&mut self, record: &DnsRecord, stats: &mut FillUpStats) {
        match self {
            SimStore::ExactTtl(arm) => arm.process_dns(record, stats),
            SimStore::Sharded(sharded) => {
                // Broadcast the clock first so every partition rotates on
                // the same boundary regardless of which shards see events.
                sharded.observe_time_all(record.ts);
                let shard = shard_of_dns(record, sharded.shards());
                sharded
                    .partition(shard)
                    .lock()
                    .process_dns(sharded, record, stats);
            }
        }
    }

    fn process_flow(
        &mut self,
        asn: &mut Option<AsnReader>,
        flow: FlowRecord,
        stats: &mut LookUpStats,
    ) -> CorrelatedRecord {
        match self {
            SimStore::ExactTtl(arm) => arm.process_flow(asn, flow, stats),
            SimStore::Sharded(sharded) => {
                sharded.observe_time_all(flow.ts);
                let shard = shard_of_flow(&flow, sharded.shards());
                sharded
                    .partition(shard)
                    .lock()
                    .process_flow(sharded, asn, flow, stats)
            }
        }
    }

    /// Entries and payload bytes held: O(shards + pool stripes) for the
    /// sharded store, a walk over both maps for the exact-TTL arm.
    fn memory_estimate(&self) -> MemoryEstimate {
        match self {
            SimStore::Sharded(store) => store.memory_estimate(),
            SimStore::ExactTtl(arm) => {
                let mut est = arm.ip_name.memory_estimate();
                est.merge(arm.name_cname.memory_estimate());
                est
            }
        }
    }

    /// Entries held, expired-but-unpurged exact-TTL entries included.
    fn live_entries(&self) -> u64 {
        let entries = match self {
            SimStore::Sharded(store) => store.total_entries(),
            SimStore::ExactTtl(arm) => arm.ip_name.len() + arm.name_cname.len(),
        };
        entries as u64
    }

    /// The run's operation counts so far.
    fn ops(&self, fillup: &FillUpStats, lookup: &LookUpStats) -> StoreOps {
        let (rotated_entries, purge_scanned) = match self {
            SimStore::Sharded(store) => (store.rotated_entries(), 0),
            SimStore::ExactTtl(arm) => (
                0,
                arm.ip_name.purge_scanned() + arm.name_cname.purge_scanned(),
            ),
        };
        StoreOps {
            dns_stored: fillup.addresses_stored + fillup.cnames_stored,
            flows_looked_up: lookup.total(),
            cname_hops: lookup.cname_hops,
            rotated_entries,
            purge_scanned,
        }
    }
}

/// The Appendix A.8 exact-TTL strawman: exact-TTL IP-NAME and
/// NAME-CNAME stores. A record is usable only until its own
/// TTL runs out, and a purge walks each whole store every
/// [`EXACT_TTL_PURGE_INTERVAL`] of data time.
struct ExactTtlArm {
    ip_name: ExactTtlStore<IpKey, DomainName>,
    name_cname: ExactTtlStore<DomainName, DomainName>,
    loop_limit: usize,
}

impl ExactTtlArm {
    fn new(config: &CorrelatorConfig) -> Self {
        ExactTtlArm {
            ip_name: ExactTtlStore::new(EXACT_TTL_PURGE_INTERVAL),
            name_cname: ExactTtlStore::new(EXACT_TTL_PURGE_INTERVAL),
            loop_limit: config.cname_loop_limit,
        }
    }

    /// FillUp with the record filter of
    /// [`ShardPartition::process_dns`](crate::ShardPartition::process_dns).
    /// Each insert also runs the purge when it is due.
    fn process_dns(&mut self, record: &DnsRecord, stats: &mut FillUpStats) {
        if !record.is_correlatable() {
            stats.filtered += 1;
            return;
        }
        match (&record.rtype, &record.answer) {
            (RecordType::A | RecordType::Aaaa, DnsAnswer::Ip(ip)) => {
                let value = record.query.clone();
                self.ip_name
                    .insert(IpKey::from_ip(*ip), value, record.ttl, record.ts);
                stats.addresses_stored += 1;
            }
            (RecordType::Cname, DnsAnswer::Name(target)) => {
                self.name_cname
                    .insert(target.clone(), record.query.clone(), record.ttl, record.ts);
                stats.cnames_stored += 1;
            }
            _ => stats.filtered += 1,
        }
    }

    /// LookUp: stamp both endpoints, filter invalid flows, run the purges
    /// that are due, then resolve against the records still live at the
    /// flow's time. The chase stores no shortcut: an exact-TTL entry has
    /// no generation to memoize into.
    fn process_flow(
        &mut self,
        asn: &mut Option<AsnReader>,
        flow: FlowRecord,
        stats: &mut LookUpStats,
    ) -> CorrelatedRecord {
        let (src_asn, dst_asn) = match asn {
            Some(reader) => {
                let src = reader.origin_as(flow.key.src_ip);
                let dst = reader.origin_as(flow.key.dst_ip);
                if src.is_some() {
                    stats.asn_stamped += 1;
                }
                (src, dst)
            }
            None => (None, None),
        };
        if !flow.is_valid() {
            stats.filtered += 1;
            return CorrelatedRecord::new(flow, CorrelationOutcome::NotFound)
                .with_asns(src_asn, dst_asn);
        }
        let now = flow.ts;
        self.ip_name.maybe_purge(now);
        self.name_cname.maybe_purge(now);
        let outcome = match self.ip_name.lookup(&IpKey::from_ip(flow.key.src_ip), now) {
            Some(first_name) => follow_chain(
                first_name.clone(),
                first_name,
                self.loop_limit,
                |name| {
                    let next = self.name_cname.lookup(name, now)?;
                    Some((next.clone(), next))
                },
                |_, _| {},
                stats,
            ),
            None => {
                stats.ip_misses += 1;
                CorrelationOutcome::NotFound
            }
        };
        CorrelatedRecord::new(flow, outcome).with_asns(src_asn, dst_asn)
    }
}

/// What the store did over a stretch of the run: one hour, or the whole
/// run. Counts only; the simulator prices none of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreOps {
    /// DNS records stored (addresses and CNAMEs).
    pub dns_stored: u64,
    /// Flows looked up (hits, misses and filtered flows).
    pub flows_looked_up: u64,
    /// CNAME hops followed by the chain chase.
    pub cname_hops: u64,
    /// Entries clear-ups rotated out of the Active maps (0 for the
    /// exact-TTL strawman).
    pub rotated_entries: u64,
    /// Entries the exact-TTL purges scanned (0 for the rotating
    /// variants).
    pub purge_scanned: u64,
}

impl StoreOps {
    /// The counts between `start` and `self`, two readings of the run's
    /// cumulative counters.
    fn since(&self, start: &StoreOps) -> StoreOps {
        StoreOps {
            dns_stored: self.dns_stored - start.dns_stored,
            flows_looked_up: self.flows_looked_up - start.flows_looked_up,
            cname_hops: self.cname_hops - start.cname_hops,
            rotated_entries: self.rotated_entries - start.rotated_entries,
            purge_scanned: self.purge_scanned - start.purge_scanned,
        }
    }
}

/// One hour of the simulated run (one point of the time-series figures).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HourlySample {
    /// Hour index since the start of the trace.
    pub hour: u64,
    /// Total flow bytes offered during the hour.
    pub traffic_bytes: u64,
    /// Correlation rate (bytes) for flows processed during the hour.
    pub correlation_rate_pct: f64,
    /// What the store did during the hour.
    pub ops: StoreOps,
    /// Store entries held at the end of the hour.
    pub live_entries: u64,
}

/// The hour being accumulated: its bytes so far, and the run's
/// cumulative operation counts when it opened.
struct OpenHour {
    hour: u64,
    traffic_bytes: u64,
    correlated_bytes: u64,
    ops_at_open: StoreOps,
}

impl OpenHour {
    fn new(hour: u64, ops_at_open: StoreOps) -> Self {
        OpenHour {
            hour,
            traffic_bytes: 0,
            correlated_bytes: 0,
            ops_at_open,
        }
    }

    /// The hour's sample, given the run's counts and held entries now.
    fn close(&self, ops: &StoreOps, live_entries: u64) -> HourlySample {
        let correlation_rate_pct = if self.traffic_bytes == 0 {
            0.0
        } else {
            self.correlated_bytes as f64 / self.traffic_bytes as f64 * 100.0
        };
        HourlySample {
            hour: self.hour,
            traffic_bytes: self.traffic_bytes,
            correlation_rate_pct,
            ops: ops.since(&self.ops_at_open),
            live_entries,
        }
    }
}

/// The complete outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Final aggregate report (same type as the live pipeline). Its
    /// `metrics.peak_memory` is the largest held store the run sampled,
    /// in entries and payload bytes.
    pub report: Report,
    /// Per-hour samples, in order.
    pub hourly: Vec<HourlySample>,
    /// What the store did over the whole run (the sum of the hours).
    pub ops: StoreOps,
    /// Store entries held at the end of the run.
    pub live_entries: u64,
}

impl SimulationOutcome {
    /// Mean of the hourly correlation rates (the paper's per-hour
    /// correlation plots average this way).
    pub fn mean_hourly_correlation_pct(&self) -> f64 {
        if self.hourly.is_empty() {
            return 0.0;
        }
        self.hourly
            .iter()
            .map(|h| h.correlation_rate_pct)
            .sum::<f64>()
            / self.hourly.len() as f64
    }
}

/// Purge interval of the exact-TTL strawman (Appendix A.8), in record
/// time.
pub const EXACT_TTL_PURGE_INTERVAL: SimDuration = SimDuration::from_secs(300);

/// Written records between two samples of the store's peak.
const PEAK_SAMPLE_EVERY: u64 = 4096;

/// The offline simulator.
#[derive(Debug, Clone)]
pub struct OfflineSimulator {
    config: CorrelatorConfig,
    /// Run the Appendix A.8 exact-TTL strawman instead of the store the
    /// daemon ships.
    exact_ttl: bool,
    /// Routing-table view for in-pipeline AS attribution, mirroring the
    /// live pipeline's LookUp-side stamping.
    asn_view: Option<AsnView>,
}

impl OfflineSimulator {
    /// A simulator of `config` on the store the daemon ships.
    pub fn new(config: CorrelatorConfig) -> Self {
        OfflineSimulator {
            config,
            exact_ttl: false,
            asn_view: None,
        }
    }

    /// A simulator of the Appendix A.8 exact-TTL strawman, which the
    /// daemon has no mode for: records expire by their own TTL, and a
    /// purge walks the whole store every [`EXACT_TTL_PURGE_INTERVAL`].
    /// Of `config`, only `cname_loop_limit` applies.
    pub fn exact_ttl(config: CorrelatorConfig) -> Self {
        OfflineSimulator {
            exact_ttl: true,
            ..OfflineSimulator::new(config)
        }
    }

    /// Attach a routing-table view: the simulated LookUp stage stamps
    /// `src_asn`/`dst_asn` on every record, exactly like the live
    /// pipeline with a loaded `routing_table`.
    pub fn with_asn_view(mut self, view: AsnView) -> Self {
        self.asn_view = Some(view);
        self
    }

    /// Does nothing: the simulator models no machine and drops no event.
    /// It stays only because the benchmark's reference check
    /// (`benchmark/src/reference.rs`) still calls it.
    pub fn with_capacity_cores(self, _cores: f64) -> Self {
        self
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &CorrelatorConfig {
        &self.config
    }

    /// Merge DNS and flow records into a single time-ordered event trace.
    pub fn merge_events(dns: Vec<DnsRecord>, flows: Vec<FlowRecord>) -> Vec<Event> {
        let mut events: Vec<Event> = dns
            .into_iter()
            .map(Event::Dns)
            .chain(flows.into_iter().map(Event::Flow))
            .collect();
        events.sort_by_key(|e| e.ts());
        events
    }

    /// Run the simulation over an already time-ordered event trace,
    /// discarding per-record output.
    pub fn run(&self, events: &[Event]) -> SimulationOutcome {
        self.run_with(events.iter().cloned(), |_| {})
    }

    /// Run the simulation, invoking `on_record` for every correlated
    /// output record (the per-record stream the Section 5 analyses and the
    /// BGP use case consume).
    pub fn run_with<I, F>(&self, events: I, mut on_record: F) -> SimulationOutcome
    where
        I: IntoIterator<Item = Event>,
        F: FnMut(&CorrelatedRecord),
    {
        let mut store = if self.exact_ttl {
            SimStore::ExactTtl(Box::new(ExactTtlArm::new(&self.config)))
        } else {
            SimStore::Sharded(Box::new(ShardedStore::new(&self.config)))
        };
        let mut asn = self.asn_view.as_ref().map(|view| view.reader());
        let mut fillup_stats = FillUpStats::default();
        let mut lookup_stats = LookUpStats::default();
        let mut report = Report::default();
        let mut hourly: Vec<HourlySample> = Vec::new();
        let mut open: Option<OpenHour> = None;
        let mut peak_memory = store.memory_estimate();

        for event in events {
            // Close finished hours (also emitting empty hours so the time
            // axis of the figures stays uniform).
            let hour = event.ts().as_secs() / 3600;
            let current = open.get_or_insert_with(|| OpenHour::new(hour, StoreOps::default()));
            if hour > current.hour {
                let ops = store.ops(&fillup_stats, &lookup_stats);
                let live_entries = store.live_entries();
                hourly.push(current.close(&ops, live_entries));
                hourly.extend((current.hour + 1..hour).map(|missing| HourlySample {
                    hour: missing,
                    live_entries,
                    ..HourlySample::default()
                }));
                *current = OpenHour::new(hour, ops);
            }

            match event {
                Event::Dns(record) => store.process_dns(&record, &mut fillup_stats),
                Event::Flow(flow) => {
                    let bytes = flow.bytes;
                    let record = store.process_flow(&mut asn, flow, &mut lookup_stats);
                    current.traffic_bytes += bytes;
                    if record.is_correlated() {
                        current.correlated_bytes += bytes;
                    }
                    report.volumes.record(bytes, record.is_correlated());
                    report.metrics.write.records_written += 1;
                    on_record(&record);
                    // Sample the peak on every PEAK_SAMPLE_EVERY-th
                    // write; the exact-TTL arm walks both maps for it.
                    if report.metrics.write.records_written % PEAK_SAMPLE_EVERY == 0 {
                        peak_memory = larger(peak_memory, store.memory_estimate());
                    }
                }
            }
        }

        let ops = store.ops(&fillup_stats, &lookup_stats);
        let live_entries = store.live_entries();
        if let Some(current) = &open {
            hourly.push(current.close(&ops, live_entries));
        }
        report.metrics.fillup = fillup_stats;
        report.metrics.lookup = lookup_stats;
        report.metrics.write.volumes = report.volumes;
        report.metrics.peak_memory = larger(peak_memory, store.memory_estimate());

        SimulationOutcome {
            report,
            hourly,
            ops,
            live_entries,
        }
    }
}

/// The estimate of more total bytes.
fn larger(a: MemoryEstimate, b: MemoryEstimate) -> MemoryEstimate {
    if b.total_bytes() > a.total_bytes() {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use flowdns_types::DomainName;
    use std::net::Ipv4Addr;

    fn dns(ts: u64, name: &str, ip: [u8; 4], ttl: u32) -> DnsRecord {
        DnsRecord::address(
            SimTime::from_secs(ts),
            DomainName::literal(name),
            Ipv4Addr::from(ip).into(),
            ttl,
        )
    }

    fn flow(ts: u64, src: [u8; 4], bytes: u64) -> FlowRecord {
        FlowRecord::inbound(
            SimTime::from_secs(ts),
            Ipv4Addr::from(src).into(),
            Ipv4Addr::new(10, 0, 0, 1).into(),
            bytes,
        )
    }

    /// A small two-hour trace: every flow's source IP was announced via DNS
    /// except the ones derived from `unknown`.
    fn small_trace() -> Vec<Event> {
        let mut dns_records = Vec::new();
        let mut flow_records = Vec::new();
        for i in 0..50u8 {
            dns_records.push(dns(
                10 + i as u64,
                &format!("svc{i}.example"),
                [203, 0, 113, i],
                300,
            ));
        }
        for hour in 0..2u64 {
            for i in 0..50u8 {
                flow_records.push(flow(hour * 3600 + 100 + i as u64, [203, 0, 113, i], 1_000));
            }
            // 10 flows from sources never seen in DNS.
            for i in 0..10u8 {
                flow_records.push(flow(hour * 3600 + 200 + i as u64, [192, 0, 2, i], 1_000));
            }
        }
        OfflineSimulator::merge_events(dns_records, flow_records)
    }

    #[test]
    fn merge_orders_events_by_time() {
        let events = small_trace();
        for pair in events.windows(2) {
            assert!(pair[0].ts() <= pair[1].ts());
        }
    }

    #[test]
    fn correlation_rate_reflects_dns_coverage() {
        let events = small_trace();
        let sim = OfflineSimulator::new(CorrelatorConfig::default());
        let outcome = sim.run(&events);
        // 50 of 60 flows per hour are correlated → 83.3% by bytes.
        assert!((outcome.report.correlation_rate_pct() - 83.33).abs() < 0.5);
        assert_eq!(outcome.hourly.len(), 2);
        assert_eq!(outcome.ops.dns_stored, 50);
        assert_eq!(outcome.ops.flows_looked_up, 120);
        assert_eq!(outcome.hourly[1].ops.flows_looked_up, 60);
        // Hour 1: the DNS records are >3600s old. With rotation they live
        // in the Inactive maps and correlation holds.
        assert!(outcome.hourly[1].correlation_rate_pct > 80.0);
    }

    #[test]
    fn no_rotation_loses_correlation_after_clear_up() {
        let events = small_trace();
        let main = OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::Main)).run(&events);
        let norot =
            OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::NoRotation)).run(&events);
        // In hour 1 the NoRotation variant has cleared the DNS records
        // without keeping a copy, so its correlation collapses relative to
        // Main — the mechanism behind the paper's 81.7% vs 79.5%.
        assert!(main.hourly[1].correlation_rate_pct > 80.0);
        assert!(norot.hourly[1].correlation_rate_pct < 10.0);
        // Overall: NoRotation strictly below Main.
        assert!(norot.report.correlation_rate_pct() < main.report.correlation_rate_pct());
    }

    #[test]
    fn no_clear_up_correlates_at_least_as_much_as_main() {
        let events = small_trace();
        let main = OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::Main)).run(&events);
        let nocl =
            OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::NoClearUp)).run(&events);
        assert!(nocl.report.correlation_rate_pct() >= main.report.correlation_rate_pct() - 1e-9);
    }

    #[test]
    fn exact_ttl_correlates_less_than_main_and_purge_scans() {
        // Every announced IP carries one flow inside its 30 s TTL and one
        // a minute later, past it; a third of the flows come from IPs no
        // DNS record announced.
        let mut dns_records = Vec::new();
        let mut flow_records = Vec::new();
        for s in 0..600u64 {
            let ip = [10, 1, (s / 256) as u8, (s % 256) as u8];
            dns_records.push(dns(s, &format!("d{s}.example"), ip, 30));
            flow_records.push(flow(s, ip, 1_000));
            flow_records.push(flow(s + 60, ip, 1_000));
            flow_records.push(flow(s, [10, 2, (s / 256) as u8, (s % 256) as u8], 1_000));
        }
        let events = OfflineSimulator::merge_events(dns_records, flow_records);
        let main = OfflineSimulator::new(CorrelatorConfig::default()).run(&events);
        let exact = OfflineSimulator::exact_ttl(CorrelatorConfig::default()).run(&events);
        let (m, e) = (&main.report.metrics.lookup, &exact.report.metrics.lookup);
        assert_eq!((m.ip_hits, m.ip_misses), (1_200, 600));
        assert_eq!((e.ip_hits, e.ip_misses), (600, 1_200));
        assert!(exact.report.correlation_rate_pct() < main.report.correlation_rate_pct());
        // The purge walks the whole map every 300 s of data time; the
        // rotating store never purges.
        assert!(exact.ops.purge_scanned > 0);
        assert_eq!(main.ops.purge_scanned, 0);
        // Nothing is dropped: both runs look up every flow.
        assert_eq!(exact.ops.flows_looked_up, main.ops.flows_looked_up);
    }

    #[test]
    fn exact_ttl_variant_expires_by_record_ttl() {
        let mut arm = ExactTtlArm::new(&CorrelatorConfig::default());
        let mut fillup = FillUpStats::default();
        arm.process_dns(&dns(0, "short.example", [9, 9, 9, 9], 30), &mut fillup);
        let mut lookup = LookUpStats::default();
        let mut correlates = |arm: &mut ExactTtlArm, ts| {
            arm.process_flow(&mut None, flow(ts, [9, 9, 9, 9], 1_000), &mut lookup)
                .is_correlated()
        };
        assert!(correlates(&mut arm, 10));
        assert!(!correlates(&mut arm, 100));
        // The purge runs, and is counted, once its interval has passed.
        assert_eq!(arm.ip_name.purge_scanned(), 0);
        correlates(&mut arm, 10_000);
        assert!(arm.ip_name.purge_scanned() > 0);
    }

    #[test]
    fn hourly_samples_cover_every_hour() {
        let mut flows = Vec::new();
        for hour in [0u64, 1, 5] {
            flows.push(flow(hour * 3600 + 10, [1, 2, 3, 4], 500));
        }
        let events = OfflineSimulator::merge_events(Vec::new(), flows);
        let outcome = OfflineSimulator::new(CorrelatorConfig::default()).run(&events);
        let hours: Vec<u64> = outcome.hourly.iter().map(|h| h.hour).collect();
        assert_eq!(hours, vec![0, 1, 2, 3, 4, 5]);
        // Empty hours have zero traffic and zero operations.
        assert_eq!(outcome.hourly[3].traffic_bytes, 0);
        assert_eq!(outcome.hourly[3].ops, StoreOps::default());
    }

    #[test]
    fn run_with_exposes_every_written_record() {
        let events = small_trace();
        let mut seen = 0u64;
        let outcome = OfflineSimulator::new(CorrelatorConfig::default())
            .run_with(events.iter().cloned(), |_| seen += 1);
        assert_eq!(seen, outcome.report.metrics.write.records_written);
        assert_eq!(seen, 120);
    }

    #[test]
    fn simulator_stamps_asns_like_the_live_pipeline() {
        use flowdns_bgp::{Announcement, RoutingTable};
        let mut table = RoutingTable::new();
        table.announce(Announcement {
            prefix: "203.0.113.0/24".parse().unwrap(),
            origin_as: 64500,
        });
        let events = small_trace();
        let mut stamped = 0u64;
        let mut unstamped = 0u64;
        let outcome = OfflineSimulator::new(CorrelatorConfig::default())
            .with_asn_view(AsnView::new(table.freeze()))
            .run_with(events.iter().cloned(), |record| {
                if record.src_asn == Some(64500) {
                    stamped += 1;
                } else {
                    unstamped += 1;
                }
            });
        // The 203.0.113.0/24 sources are announced, the 192.0.2.x are not.
        assert_eq!(stamped, 100);
        assert_eq!(unstamped, 20);
        assert_eq!(outcome.report.metrics.lookup.asn_stamped, 100);
        // Without a view, nothing is stamped.
        let plain = OfflineSimulator::new(CorrelatorConfig::default()).run(&events);
        assert_eq!(plain.report.metrics.lookup.asn_stamped, 0);
    }

    #[test]
    fn outcome_summary_helpers() {
        let events = small_trace();
        let outcome = OfflineSimulator::new(CorrelatorConfig::default()).run(&events);
        assert!(outcome.mean_hourly_correlation_pct() > 0.0);
        // The run's counts are the sum of the hours', and its last hour
        // ends holding what the run ends holding.
        let summed = outcome
            .hourly
            .iter()
            .fold(StoreOps::default(), |sum, h| StoreOps {
                dns_stored: sum.dns_stored + h.ops.dns_stored,
                flows_looked_up: sum.flows_looked_up + h.ops.flows_looked_up,
                cname_hops: sum.cname_hops + h.ops.cname_hops,
                rotated_entries: sum.rotated_entries + h.ops.rotated_entries,
                purge_scanned: sum.purge_scanned + h.ops.purge_scanned,
            });
        assert_eq!(summed, outcome.ops);
        assert_eq!(
            outcome.hourly.last().unwrap().live_entries,
            outcome.live_entries
        );
        assert_eq!(outcome.live_entries, 50);
        assert!(outcome.report.metrics.peak_memory.entries >= 50);
    }

    /// Three generated hours of the small subscriber population (CNAME
    /// chains, both address families, misses) against clear-ups every
    /// 600 s / 1,200 s: 18 IP-NAME and 9 NAME-CNAME rotations.
    fn generated_trace() -> Vec<Event> {
        use flowdns_gen::{StreamEvent, Workload, WorkloadConfig};
        let workload = Workload::new(WorkloadConfig {
            duration: SimDuration::from_hours(3),
            ..WorkloadConfig::small()
        });
        workload
            .events()
            .map(|event| match event {
                StreamEvent::Dns(r) => Event::Dns(r),
                StreamEvent::Flow(f) => Event::Flow(f),
            })
            .collect()
    }

    /// `variant` at `correlator_shards` with the clear-up intervals
    /// `generated_trace()` is built for.
    fn trace_config(variant: Variant, correlator_shards: usize) -> CorrelatorConfig {
        CorrelatorConfig {
            correlator_shards,
            a_clear_up_interval: SimDuration::from_secs(600),
            c_clear_up_interval: SimDuration::from_secs(1_200),
            ..CorrelatorConfig::for_variant(variant)
        }
    }

    /// The sorted TSV egress (a multiset: order across shards is not
    /// part of the contract) of one simulator over `events`.
    fn sorted_egress(sim: &OfflineSimulator, events: &[Event]) -> (Vec<String>, SimulationOutcome) {
        let mut lines = Vec::new();
        let outcome = sim.run_with(events.iter().cloned(), |record| lines.push(record.to_tsv()));
        lines.sort();
        (lines, outcome)
    }

    /// FNV-1a over the sorted lines, newline-terminated: a hash that
    /// does not depend on the toolchain's `Hasher` implementations.
    fn egress_hash(lines: &[String]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in lines.iter().flat_map(|line| line.bytes().chain([b'\n'])) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn sharded_simulator_egress_matches_the_pinned_hashes() {
        // Sorted egress of every rotating variant on `generated_trace()`,
        // pinned when the partitions still ran split three-map stores.
        // A store rewrite that changes what any flow resolves to, in any
        // variant, moves one of these.
        let events = generated_trace();
        for (variant, pinned) in [
            (Variant::Main, 0x98db_7cf8_e8a7_90aa_u64),
            (Variant::NoClearUp, 0x3ca8_fd3a_d215_7289),
            (Variant::NoRotation, 0xbc66_1cdd_42a1_9cd9),
            (Variant::NoLongHashmaps, 0x1574_a492_9f02_0bd8),
        ] {
            let (lines, _) =
                sorted_egress(&OfflineSimulator::new(trace_config(variant, 1)), &events);
            assert_eq!(lines.len(), 100_939, "{variant}");
            assert_eq!(egress_hash(&lines), pinned, "{variant}");
        }
    }

    #[test]
    fn exact_ttl_simulator_egress_and_metrics_match_the_pin() {
        // The exact-TTL strawman on `generated_trace()`: its sorted
        // egress and every counter of its report, pinned so the arm that
        // runs it can be moved without changing what it computes. Every
        // event is processed, so the egress holds one line per flow;
        // `memoized` counts multi-hop chains even though exact TTL never
        // stores the shortcut.
        use crate::metrics::PipelineMetrics;
        use crate::write::WriteStats;
        use flowdns_types::{ByteVolume, VolumeAccumulator};
        let events = generated_trace();
        let exact = OfflineSimulator::exact_ttl(trace_config(Variant::Main, 1));
        let (lines, outcome) = sorted_egress(&exact, &events);
        assert_eq!(lines.len(), 100_939);
        assert_eq!(egress_hash(&lines), 0xfbf5_109e_c80d_489b);
        let expected = PipelineMetrics {
            fillup: FillUpStats {
                addresses_stored: 15_557,
                cnames_stored: 22_436,
                filtered: 0,
            },
            lookup: LookUpStats {
                ip_hits: 62_110,
                ip_misses: 38_829,
                cname_hops: 86_516,
                loop_limit_hits: 103,
                memoized: 25_343,
                filtered: 0,
                asn_stamped: 0,
            },
            write: WriteStats {
                records_written: 100_939,
                volumes: VolumeAccumulator {
                    correlated: ByteVolume::from_bytes(92_873_271_245),
                    total: ByteVolume::from_bytes(150_120_412_160),
                },
            },
            peak_memory: MemoryEstimate {
                entries: 1_234,
                payload_bytes: 74_915,
            },
            ..PipelineMetrics::default()
        };
        assert_eq!(outcome.report.metrics, expected);
        let ops = StoreOps {
            dns_stored: 37_993,
            flows_looked_up: 100_939,
            cname_hops: 86_516,
            rotated_entries: 0,
            purge_scanned: 42_117,
        };
        assert_eq!(outcome.ops, ops);
        assert_eq!(outcome.live_entries, 1_148);
    }

    #[test]
    fn sharded_simulator_output_is_identical_for_any_shard_count() {
        // The equivalence claim the single live topology rests on:
        // routing by IP key plus a broadcast clock makes the correlated
        // output byte-identical whether the store is one partition or
        // four, for every rotating variant.
        let events = generated_trace();
        let flows = events
            .iter()
            .filter(|e| matches!(e, Event::Flow(_)))
            .count();
        assert!(flows > 50_000, "trace too small: {flows} flows");
        for variant in Variant::all() {
            let sim = |shards| OfflineSimulator::new(trace_config(variant, shards));
            let (one, one_outcome) = sorted_egress(&sim(1), &events);
            let (four, four_outcome) = sorted_egress(&sim(4), &events);
            assert_eq!(one.len(), flows);
            assert!(one == four, "{variant}: 1 vs 4 shards differ");
            assert_eq!(
                one_outcome.report.metrics, four_outcome.report.metrics,
                "{variant}: stage counters or peak memory differ between 1 and 4 shards"
            );
            assert_eq!(one_outcome.hourly, four_outcome.hourly, "{variant}");
            assert_eq!(one_outcome.ops, four_outcome.ops, "{variant}");
            assert_eq!(
                one_outcome.live_entries, four_outcome.live_entries,
                "{variant}"
            );
            assert!(one_outcome.report.metrics.lookup.cname_hops > 0);
        }
    }
}
