//! The deterministic offline simulator.
//!
//! The paper's evaluation runs FlowDNS against live ISP streams for a day
//! or a week and reports CPU, memory, loss and correlation rate over time
//! (Figures 2, 3, 7). We cannot replay a week of 1M-records/s streams in
//! wall-clock time, so the experiment harness drives this simulator
//! instead: it processes a timestamped trace **in data-time order**
//! through the exact same [`ShardedStore`] partitions the live pipeline's
//! shard workers own, and accounts *work units* via the [`CostModel`]:
//!
//! * every event has a processing cost (insert, lookup cascade, CNAME
//!   hops, output write, per-split bookkeeping);
//! * rotation copies and exact-TTL purge scans are charged per entry;
//! * the exact-TTL variant additionally pays a serialization penalty per
//!   event, modelling the shared-map contention Appendix A.8 blames for
//!   its collapse;
//! * a machine capacity (cores × units/s) and a bounded work backlog model
//!   the stream buffers: when the backlog exceeds the buffer allowance,
//!   incoming events are dropped and counted as stream loss, which is how
//!   the >90% loss of the exact-TTL strawman emerges.
//!
//! The exact-TTL strawman has no partitioned form and the live correlator
//! refuses it, so that variant runs on a small arm private to this
//! module: two [`ExactTtlStore`]s keyed and valued by [`DomainName`]s
//! (which share the parsed record's allocation and compare by content),
//! with the same record filter and chain following as the partitions.
//!
//! The simulator emits per-hour samples (CPU%, memory, traffic volume,
//! correlation rate, loss) — one row per point of the paper's time-series
//! figures — plus the same [`Report`] the live pipeline produces.

use flowdns_bgp::{AsnReader, AsnView};
use flowdns_storage::{ExactTtlStore, MemoryEstimate};
use flowdns_types::{
    CorrelatedRecord, CorrelationOutcome, DnsAnswer, DnsRecord, DomainName, FlowRecord, IpKey,
    RecordType, SimTime,
};

use crate::config::{CorrelatorConfig, Variant};
use crate::lookup::{follow_chain, LookUpStats};
use crate::metrics::{CostModel, Report};
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
/// [`Variant::ExactTtl`]. The sharded form broadcasts the data clock to
/// every partition before each event, so rotation boundaries — and
/// therefore the correlated output — are identical for any shard count.
enum SimStore {
    Sharded(Box<ShardedStore>),
    ExactTtl(Box<ExactTtlArm>),
}

impl SimStore {
    fn memory_estimate(&self) -> MemoryEstimate {
        match self {
            SimStore::Sharded(store) => store.memory_estimate(),
            SimStore::ExactTtl(arm) => arm.memory_estimate(),
        }
    }

    fn is_exact_ttl(&self) -> bool {
        matches!(self, SimStore::ExactTtl(_))
    }

    fn rotated_entries(&self) -> u64 {
        match self {
            SimStore::Sharded(store) => store.rotated_entries(),
            SimStore::ExactTtl(_) => 0,
        }
    }

    fn purge_scanned(&self) -> u64 {
        match self {
            SimStore::Sharded(_) => 0,
            SimStore::ExactTtl(arm) => arm.purge_scanned(),
        }
    }
}

/// The Appendix A.8 exact-TTL strawman: exact-TTL IP-NAME and
/// NAME-CNAME stores. A record is usable only until its own
/// TTL runs out, and a purge walks each whole store every
/// `exact_ttl_purge_interval` of data time.
struct ExactTtlArm {
    ip_name: ExactTtlStore<IpKey, DomainName>,
    name_cname: ExactTtlStore<DomainName, DomainName>,
    loop_limit: usize,
}

impl ExactTtlArm {
    fn new(config: &CorrelatorConfig) -> Self {
        ExactTtlArm {
            ip_name: ExactTtlStore::new(config.exact_ttl_purge_interval),
            name_cname: ExactTtlStore::new(config.exact_ttl_purge_interval),
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

    /// Entries and payload bytes of both stores (a walk over each map).
    fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = self.ip_name.memory_estimate();
        est.merge(self.name_cname.memory_estimate());
        est
    }

    /// Entries scanned by both stores' purges so far.
    fn purge_scanned(&self) -> u64 {
        self.ip_name.purge_scanned() + self.name_cname.purge_scanned()
    }
}

/// One hour of the simulated run (one point of the time-series figures).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HourlySample {
    /// Hour index since the start of the trace.
    pub hour: u64,
    /// Simulated CPU usage in percent (100% = one core).
    pub cpu_pct: f64,
    /// Estimated memory of the DNS store at the end of the hour, in GB.
    pub memory_gb: f64,
    /// Total flow bytes offered during the hour.
    pub traffic_bytes: u64,
    /// Correlation rate (bytes) for flows processed during the hour.
    pub correlation_rate_pct: f64,
    /// DNS records dropped during the hour, percent of offered.
    pub dns_loss_pct: f64,
    /// Flow records dropped during the hour, percent of offered.
    pub flow_loss_pct: f64,
}

/// The complete outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Final aggregate report (same type as the live pipeline).
    pub report: Report,
    /// Per-hour samples, in order.
    pub hourly: Vec<HourlySample>,
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

    /// Mean CPU% across hours.
    pub fn mean_cpu_pct(&self) -> f64 {
        if self.hourly.is_empty() {
            return 0.0;
        }
        self.hourly.iter().map(|h| h.cpu_pct).sum::<f64>() / self.hourly.len() as f64
    }

    /// Peak memory (GB) across hours.
    pub fn peak_memory_gb(&self) -> f64 {
        self.hourly.iter().map(|h| h.memory_gb).fold(0.0, f64::max)
    }
}

/// Extra cost charged per event by the exact-TTL variant (shared-map
/// serialization; see module docs).
const EXACT_TTL_OP_PENALTY: f64 = 25.0;

/// The offline simulator.
#[derive(Debug, Clone)]
pub struct OfflineSimulator {
    config: CorrelatorConfig,
    cost: CostModel,
    /// Number of CPU cores available to the deployment.
    capacity_cores: f64,
    /// Work-unit backlog tolerated before drops begin (the stream buffer).
    backlog_allowance: f64,
    /// Routing-table view for in-pipeline AS attribution, mirroring the
    /// live pipeline's LookUp-side stamping.
    asn_view: Option<AsnView>,
}

impl OfflineSimulator {
    /// A simulator for `config` with the default cost model and a 32-core
    /// machine (the paper's testbed has 128 cores but never uses more than
    /// ~25 of them for the Main variant).
    pub fn new(config: CorrelatorConfig) -> Self {
        let cost = CostModel::default();
        let capacity_cores = 32.0;
        OfflineSimulator {
            config,
            cost,
            capacity_cores,
            backlog_allowance: cost.core_units_per_sec * capacity_cores * 5.0,
            asn_view: None,
        }
    }

    /// Attach a routing-table view: the simulated LookUp stage stamps
    /// `src_asn`/`dst_asn` on every record, exactly like the live
    /// pipeline with a loaded `routing_table`.
    pub fn with_asn_view(mut self, view: AsnView) -> Self {
        self.asn_view = Some(view);
        self
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self.backlog_allowance = self.cost.core_units_per_sec * self.capacity_cores * 5.0;
        self
    }

    /// Override the machine size in cores.
    pub fn with_capacity_cores(mut self, cores: f64) -> Self {
        self.capacity_cores = cores;
        self.backlog_allowance = self.cost.core_units_per_sec * self.capacity_cores * 5.0;
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
        let mut store = if self.config.variant == Variant::ExactTtl {
            SimStore::ExactTtl(Box::new(ExactTtlArm::new(&self.config)))
        } else {
            SimStore::Sharded(Box::new(ShardedStore::new(&self.config)))
        };
        let mut asn = self.asn_view.as_ref().map(|view| view.reader());
        let mut fillup_stats = FillUpStats::default();
        let mut lookup_stats = LookUpStats::default();

        let split_overhead =
            self.cost.split_overhead * (self.config.effective_num_split().saturating_sub(1)) as f64;
        let capacity_per_sec = self.cost.core_units_per_sec * self.capacity_cores;

        let mut report = Report::default();
        let mut hourly: Vec<HourlySample> = Vec::new();

        // Hour-level accumulators.
        let mut hour_idx: Option<u64> = None;
        let mut hour_work = 0.0f64;
        let mut hour_bytes = 0u64;
        let mut hour_correlated_bytes = 0u64;
        let mut hour_dns_offered = 0u64;
        let mut hour_dns_dropped = 0u64;
        let mut hour_flows_offered = 0u64;
        let mut hour_flows_dropped = 0u64;

        // Second-level backlog accounting (the stream buffers).
        let mut backlog = 0.0f64;
        let mut last_sec: Option<u64> = None;

        // Deltas of store-internal work.
        let mut prev_rotated = 0u64;
        let mut prev_purged = 0u64;

        let mut total_dns_dropped = 0u64;
        let mut total_flows_dropped = 0u64;
        let mut peak_memory = store.memory_estimate();
        let mut total_work = 0.0f64;

        let flush_hour = |hour: u64,
                          work: f64,
                          bytes: u64,
                          correlated: u64,
                          dns_off: u64,
                          dns_drop: u64,
                          flow_off: u64,
                          flow_drop: u64,
                          memory_gb: f64,
                          out: &mut Vec<HourlySample>| {
            let correlation = if bytes == 0 {
                0.0
            } else {
                correlated as f64 / bytes as f64 * 100.0
            };
            out.push(HourlySample {
                hour,
                cpu_pct: self.cost.cpu_pct(work, 3600.0),
                memory_gb,
                traffic_bytes: bytes,
                correlation_rate_pct: correlation,
                dns_loss_pct: pct(dns_drop, dns_off),
                flow_loss_pct: pct(flow_drop, flow_off),
            });
        };

        for event in events {
            let ts = event.ts();
            let sec = ts.as_secs();
            let hour = sec / 3600;

            // Advance the per-second backlog: each elapsed second grants
            // `capacity_per_sec` units of processing.
            match last_sec {
                None => last_sec = Some(sec),
                Some(prev) if sec > prev => {
                    let elapsed = (sec - prev) as f64;
                    backlog = (backlog - capacity_per_sec * elapsed).max(0.0);
                    last_sec = Some(sec);
                }
                _ => {}
            }

            // Close finished hours (also emitting empty hours so the time
            // axis of the figures stays uniform).
            match hour_idx {
                None => hour_idx = Some(hour),
                Some(current) if hour > current => {
                    let memory_gb = store.memory_estimate().total_gb();
                    flush_hour(
                        current,
                        hour_work,
                        hour_bytes,
                        hour_correlated_bytes,
                        hour_dns_offered,
                        hour_dns_dropped,
                        hour_flows_offered,
                        hour_flows_dropped,
                        memory_gb,
                        &mut hourly,
                    );
                    for missing in current + 1..hour {
                        flush_hour(missing, 0.0, 0, 0, 0, 0, 0, 0, memory_gb, &mut hourly);
                    }
                    hour_work = 0.0;
                    hour_bytes = 0;
                    hour_correlated_bytes = 0;
                    hour_dns_offered = 0;
                    hour_dns_dropped = 0;
                    hour_flows_offered = 0;
                    hour_flows_dropped = 0;
                    hour_idx = Some(hour);
                }
                _ => {}
            }

            // Stream-buffer overflow: drop the event without processing.
            let overloaded = backlog > self.backlog_allowance;
            match event {
                Event::Dns(record) => {
                    hour_dns_offered += 1;
                    if overloaded {
                        hour_dns_dropped += 1;
                        total_dns_dropped += 1;
                        continue;
                    }
                    match &mut store {
                        SimStore::ExactTtl(arm) => arm.process_dns(&record, &mut fillup_stats),
                        SimStore::Sharded(sharded) => {
                            // Broadcast the clock first so every
                            // partition rotates on the same boundary
                            // regardless of which shards see events.
                            sharded.observe_time_all(record.ts);
                            let shard = shard_of_dns(&record, sharded.shards());
                            sharded.partition(shard).lock().process_dns(
                                sharded,
                                &record,
                                &mut fillup_stats,
                            );
                        }
                    }
                    let mut work = self.cost.dns_insert + split_overhead;
                    if store.is_exact_ttl() {
                        work += EXACT_TTL_OP_PENALTY;
                    }
                    work +=
                        self.store_maintenance_work(&store, &mut prev_rotated, &mut prev_purged);
                    backlog += work;
                    hour_work += work;
                    total_work += work;
                }
                Event::Flow(flow) => {
                    hour_flows_offered += 1;
                    hour_bytes += flow.bytes;
                    if overloaded {
                        hour_flows_dropped += 1;
                        total_flows_dropped += 1;
                        continue;
                    }
                    let hops_before = lookup_stats.cname_hops;
                    let record = match &mut store {
                        SimStore::ExactTtl(arm) => {
                            arm.process_flow(&mut asn, flow.clone(), &mut lookup_stats)
                        }
                        SimStore::Sharded(sharded) => {
                            sharded.observe_time_all(flow.ts);
                            let shard = shard_of_flow(&flow, sharded.shards());
                            sharded.partition(shard).lock().process_flow(
                                sharded,
                                &mut asn,
                                flow.clone(),
                                &mut lookup_stats,
                            )
                        }
                    };
                    let hops = (lookup_stats.cname_hops - hops_before) as f64;
                    let mut work = self.cost.flow_lookup
                        + split_overhead
                        + hops * self.cost.cname_hop
                        + self.cost.write_record;
                    if store.is_exact_ttl() {
                        work += EXACT_TTL_OP_PENALTY;
                    }
                    work +=
                        self.store_maintenance_work(&store, &mut prev_rotated, &mut prev_purged);
                    backlog += work;
                    hour_work += work;
                    total_work += work;

                    report.volumes.record(flow.bytes, record.is_correlated());
                    if record.is_correlated() {
                        hour_correlated_bytes += flow.bytes;
                    }
                    report.metrics.write.records_written += 1;
                    on_record(&record);
                }
            }

            // Track peak memory whenever the written-record count is a
            // multiple of 4,096. The sharded store serves the estimate
            // from its tables' counters; the exact-TTL arm walks its
            // maps.
            if report.metrics.write.records_written % 4096 == 0 {
                let est = store.memory_estimate();
                if est.total_bytes() > peak_memory.total_bytes() {
                    peak_memory = est;
                }
            }
        }

        // Close the final hour.
        if let Some(current) = hour_idx {
            let memory_gb = store.memory_estimate().total_gb();
            flush_hour(
                current,
                hour_work,
                hour_bytes,
                hour_correlated_bytes,
                hour_dns_offered,
                hour_dns_dropped,
                hour_flows_offered,
                hour_flows_dropped,
                memory_gb,
                &mut hourly,
            );
        }

        let final_est = store.memory_estimate();
        if final_est.total_bytes() > peak_memory.total_bytes() {
            peak_memory = final_est;
        }

        report.metrics.fillup = fillup_stats;
        report.metrics.lookup = lookup_stats;
        report.metrics.write.volumes = report.volumes;
        report.metrics.dns_dropped = total_dns_dropped;
        report.metrics.flows_dropped = total_flows_dropped;
        report.metrics.work_units = total_work;
        report.metrics.peak_memory = peak_memory;

        SimulationOutcome { report, hourly }
    }

    /// Work charged for store-internal maintenance that happened since the
    /// previous event (rotation copies, exact-TTL purge scans).
    fn store_maintenance_work(
        &self,
        store: &SimStore,
        prev_rotated: &mut u64,
        prev_purged: &mut u64,
    ) -> f64 {
        let rotated = store.rotated_entries();
        let purged = store.purge_scanned();
        let rotated_delta = rotated - *prev_rotated;
        let purged_delta = purged - *prev_purged;
        *prev_rotated = rotated;
        *prev_purged = purged;
        rotated_delta as f64 * self.cost.rotate_entry
            + purged_delta as f64 * self.cost.purge_scan_entry
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
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
        assert_eq!(outcome.report.metrics.flows_dropped, 0);
        assert_eq!(outcome.report.metrics.dns_dropped, 0);
        assert!(outcome.report.metrics.work_units > 0.0);
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
    fn no_split_uses_less_cpu_than_main() {
        let events = small_trace();
        let main = OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::Main)).run(&events);
        let nosplit =
            OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::NoSplit)).run(&events);
        assert!(nosplit.mean_cpu_pct() < main.mean_cpu_pct());
        // ... while correlating the same share of traffic.
        assert!(
            (nosplit.report.correlation_rate_pct() - main.report.correlation_rate_pct()).abs()
                < 1e-9
        );
    }

    #[test]
    fn exact_ttl_overloads_and_drops() {
        // A denser trace so the serialization penalty exceeds capacity.
        let mut dns_records = Vec::new();
        let mut flow_records = Vec::new();
        for s in 0..600u64 {
            for i in 0..5u8 {
                dns_records.push(dns(
                    s,
                    &format!("d{s}-{i}.example"),
                    [10, 1, (s % 256) as u8, i],
                    120,
                ));
                flow_records.push(flow(s, [10, 1, (s % 256) as u8, i], 1_000));
                flow_records.push(flow(s, [10, 2, (s % 256) as u8, i], 1_000));
            }
        }
        let events = OfflineSimulator::merge_events(dns_records, flow_records);
        // A deliberately small machine: 12 cores of simulated capacity.
        let main = OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::Main))
            .with_capacity_cores(12.0)
            .run(&events);
        let exact = OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::ExactTtl))
            .with_capacity_cores(12.0)
            .run(&events);
        assert!(main.report.metrics.flow_loss_pct() < 1.0);
        assert!(
            exact.report.metrics.flow_loss_pct() > 50.0,
            "exact-TTL should overload: got {:.1}%",
            exact.report.metrics.flow_loss_pct()
        );
        assert!(exact.mean_cpu_pct() > main.mean_cpu_pct());
    }

    #[test]
    fn exact_ttl_variant_expires_by_record_ttl() {
        let mut arm = ExactTtlArm::new(&CorrelatorConfig::for_variant(Variant::ExactTtl));
        let mut fillup = FillUpStats::default();
        arm.process_dns(&dns(0, "short.example", [9, 9, 9, 9], 30), &mut fillup);
        let mut lookup = LookUpStats::default();
        let mut correlates = |arm: &mut ExactTtlArm, ts| {
            arm.process_flow(&mut None, flow(ts, [9, 9, 9, 9], 1_000), &mut lookup)
                .is_correlated()
        };
        assert!(correlates(&mut arm, 10));
        assert!(!correlates(&mut arm, 100));
        // The purge runs, and is charged, once its interval has passed.
        assert_eq!(arm.purge_scanned(), 0);
        correlates(&mut arm, 10_000);
        assert!(arm.purge_scanned() > 0);
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
        // Empty hours have zero traffic and zero CPU.
        assert_eq!(outcome.hourly[3].traffic_bytes, 0);
        assert_eq!(outcome.hourly[3].cpu_pct, 0.0);
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
        assert!(outcome.peak_memory_gb() >= 0.0);
        assert!(outcome.mean_cpu_pct() >= 0.0);
    }

    /// Three generated hours of the small subscriber population (CNAME
    /// chains, both address families, misses) against clear-ups every
    /// 600 s / 1,200 s: 18 IP-NAME and 9 NAME-CNAME rotations.
    fn generated_trace() -> Vec<Event> {
        use flowdns_gen::{StreamEvent, Workload, WorkloadConfig};
        let workload = Workload::new(WorkloadConfig {
            duration: flowdns_types::SimDuration::from_hours(3),
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

    /// The sorted TSV egress (a multiset: order across shards is not
    /// part of the contract) of one simulator arm over `events`.
    fn sorted_egress(
        variant: Variant,
        correlator_shards: usize,
        events: &[Event],
    ) -> (Vec<String>, SimulationOutcome) {
        let config = CorrelatorConfig {
            correlator_shards,
            a_clear_up_interval: flowdns_types::SimDuration::from_secs(600),
            c_clear_up_interval: flowdns_types::SimDuration::from_secs(1_200),
            ..CorrelatorConfig::for_variant(variant)
        };
        let sim = OfflineSimulator::new(config);
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
            (Variant::NoSplit, 0x98db_7cf8_e8a7_90aa),
            (Variant::NoClearUp, 0x3ca8_fd3a_d215_7289),
            (Variant::NoRotation, 0xbc66_1cdd_42a1_9cd9),
            (Variant::NoLongHashmaps, 0x1574_a492_9f02_0bd8),
        ] {
            let (lines, _) = sorted_egress(variant, 1, &events);
            assert_eq!(lines.len(), 100_939, "{variant}");
            assert_eq!(egress_hash(&lines), pinned, "{variant}");
        }
    }

    #[test]
    fn exact_ttl_simulator_egress_and_metrics_match_the_pin() {
        // The exact-TTL strawman on `generated_trace()`: its sorted
        // egress and every counter of its report, pinned so the arm that
        // runs it can be moved without changing what it computes. The
        // loss, work and peak-memory figures are the cost model's
        // Appendix A.8 collapse; `memoized` counts multi-hop chains even
        // though exact TTL never stores the shortcut.
        use crate::metrics::PipelineMetrics;
        use crate::write::WriteStats;
        use flowdns_types::{ByteVolume, VolumeAccumulator};
        let events = generated_trace();
        let (lines, outcome) = sorted_egress(Variant::ExactTtl, 1, &events);
        assert_eq!(lines.len(), 22_361);
        assert_eq!(egress_hash(&lines), 0xfe7d_8537_bfe3_4337);
        let expected = PipelineMetrics {
            fillup: FillUpStats {
                addresses_stored: 5_831,
                cnames_stored: 10_312,
                filtered: 0,
            },
            lookup: LookUpStats {
                ip_hits: 7_100,
                ip_misses: 15_261,
                cname_hops: 8_641,
                loop_limit_hits: 0,
                memoized: 2_444,
                filtered: 0,
                asn_stamped: 0,
            },
            write: WriteStats {
                records_written: 22_361,
                volumes: VolumeAccumulator {
                    correlated: ByteVolume::from_bytes(10_185_265_364),
                    total: ByteVolume::from_bytes(33_525_454_641),
                },
            },
            dns_dropped: 21_850,
            flows_dropped: 78_578,
            work_units: 1_037_189.579_999_742_8,
            peak_memory: MemoryEstimate {
                entries: 593,
                payload_bytes: 37_788,
            },
            ..PipelineMetrics::default()
        };
        assert_eq!(outcome.report.metrics, expected);
        assert_eq!(
            outcome.report.metrics.work_units.to_bits(),
            0x412f_a70b_28f5_b9ee
        );
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
            if variant == Variant::ExactTtl {
                continue; // the exact-TTL arm is not partitioned
            }
            let (one, one_outcome) = sorted_egress(variant, 1, &events);
            let (four, four_outcome) = sorted_egress(variant, 4, &events);
            assert_eq!(one.len(), flows);
            assert!(one == four, "{variant}: 1 vs 4 shards differ");
            assert_eq!(
                one_outcome.report.metrics, four_outcome.report.metrics,
                "{variant}: stage counters or peak memory differ between 1 and 4 shards"
            );
            assert_eq!(one_outcome.hourly, four_outcome.hourly, "{variant}");
            assert!(one_outcome.report.metrics.lookup.cname_hops > 0);
        }
    }
}
