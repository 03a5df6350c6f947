//! Pipeline metrics: correlation rate, loss, CPU (work units) and memory.
//!
//! The paper evaluates FlowDNS on four axes: correlation rate (share of
//! traffic bytes attributed to a name), stream loss (buffer overflow
//! drops), CPU usage and memory usage. The live pipeline reports measured
//! wall-clock numbers; the offline simulator reports *work units*
//! converted to CPU-core-percent via a documented [`CostModel`], because
//! the figures' shape comes from how much work each variant does per
//! record, not from the absolute speed of the host machine.

use flowdns_storage::MemoryEstimate;
use flowdns_stream::LatencySnapshot;
use flowdns_types::VolumeAccumulator;

use crate::lookup::LookUpStats;
use crate::shard::FillUpStats;
use crate::write::WriteStats;

/// The cost model converting operations into abstract work units.
///
/// The constants are chosen so that the relative cost ordering matches the
/// paper's observations: per-record costs dominate in steady state,
/// rotation copies are amortized, per-split bookkeeping adds a small
/// per-record overhead (the paper: splitting "consum\[es\] higher CPU for
/// the same amount of data"), and full-map purge scans (exact-TTL) are
/// catastrophic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Work to parse + insert one DNS record.
    pub dns_insert: f64,
    /// Work to parse one flow record and perform the IP lookup cascade.
    pub flow_lookup: f64,
    /// Work per CNAME chain hop.
    pub cname_hop: f64,
    /// Work per record to serialize + write output.
    pub write_record: f64,
    /// Extra work per record and per additional split beyond the first
    /// (simultaneous access bookkeeping).
    pub split_overhead: f64,
    /// Work per entry copied during buffer rotation.
    pub rotate_entry: f64,
    /// Work per entry scanned by an exact-TTL purge.
    pub purge_scan_entry: f64,
    /// Work units one CPU core performs per simulated second. This sets
    /// the scale of the CPU-percent axis.
    pub core_units_per_sec: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dns_insert: 1.0,
            flow_lookup: 1.0,
            cname_hop: 0.4,
            write_record: 0.3,
            split_overhead: 0.03,
            rotate_entry: 0.2,
            purge_scan_entry: 0.8,
            core_units_per_sec: 3.0,
        }
    }
}

impl CostModel {
    /// CPU usage in percent (100% = one core) for `work` units spent over
    /// `secs` simulated seconds.
    pub fn cpu_pct(&self, work: f64, secs: f64) -> f64 {
        if secs <= 0.0 {
            return 0.0;
        }
        work / secs / self.core_units_per_sec * 100.0
    }
}

/// Counters of one network exporter peer, as folded into the final
/// report by the live ingest layer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExporterStats {
    /// The exporter's socket address, stringified.
    pub exporter: String,
    /// Datagrams successfully decoded from this exporter.
    pub datagrams: u64,
    /// Flow records extracted from this exporter's datagrams.
    pub flows: u64,
    /// Datagrams rejected as malformed.
    pub malformed: u64,
    /// Data flowsets dropped because their template was not yet known.
    pub unknown_template_drops: u64,
    /// Records of decoded datagrams that yielded no flow (no usable
    /// mandatory field in the template, zero bytes, packets > bytes).
    pub skipped_records: u64,
}

/// Network-ingest counters folded into [`PipelineMetrics`] when the
/// pipeline is fed by live sockets rather than in-process replay.
///
/// All-zero (the `Default`) for offline runs, so offline reports are
/// unchanged by the ingest subsystem's existence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// NetFlow datagrams decoded across all exporters.
    pub netflow_datagrams: u64,
    /// Flow records extracted across all exporters.
    pub netflow_flows: u64,
    /// Malformed NetFlow datagrams across all exporters.
    pub netflow_malformed: u64,
    /// Data flowsets dropped for lack of a template, across all exporters.
    pub netflow_unknown_template_drops: u64,
    /// Records of decoded datagrams that yielded no flow, across all
    /// exporters.
    pub netflow_skipped_records: u64,
    /// Flow records dropped because the LookUp queue was full at ingest.
    pub netflow_queue_drops: u64,
    /// DNS feed connections accepted.
    pub dns_connections: u64,
    /// DNS records decoded from the feed framing.
    pub dns_records: u64,
    /// DNS feed connections dropped for malformed framing.
    pub dns_malformed_streams: u64,
    /// DNS records dropped because the FillUp queue was full at ingest.
    pub dns_queue_drops: u64,
    /// Per-exporter breakdown, sorted by exporter address.
    pub per_exporter: Vec<ExporterStats>,
}

impl IngestSummary {
    /// Did this run ingest anything over the network at all?
    pub fn is_live(&self) -> bool {
        *self != IngestSummary::default()
    }

    /// Short stats line for periodic reporting and the final summary.
    pub fn summary_line(&self) -> String {
        format!(
            "netflow: {} datagrams from {} exporters -> {} flows \
             ({} malformed, {} no-template, {} skipped records, {} queue-dropped); \
             dns feed: {} records over {} connections \
             ({} malformed streams, {} queue-dropped)",
            self.netflow_datagrams,
            self.per_exporter.len(),
            self.netflow_flows,
            self.netflow_malformed,
            self.netflow_unknown_template_drops,
            self.netflow_skipped_records,
            self.netflow_queue_drops,
            self.dns_records,
            self.dns_connections,
            self.dns_malformed_streams,
            self.dns_queue_drops,
        )
    }
}

/// Counters of the snapshot persistence subsystem (all zero when no
/// `snapshot_path` is configured).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotStats {
    /// Snapshots successfully written since start (periodic + shutdown).
    pub snapshots_written: u64,
    /// File size in bytes of the most recent successful snapshot.
    pub last_bytes: u64,
    /// Store entries serialized into the most recent successful snapshot.
    pub last_entries: u64,
    /// Wall-clock seconds since the most recent successful write
    /// (`None` until the first write succeeds). A periodic reporter can
    /// alert when this grows well past the configured
    /// `snapshot_interval`.
    pub last_write_age_secs: Option<f64>,
    /// Entries restored from a snapshot at warm start (0 = cold start).
    pub warm_start_entries: u64,
    /// Wall-clock seconds the warm start spent reading and decoding the
    /// snapshot file (0 on a cold start).
    pub warm_start_read_secs: f64,
    /// Wall-clock seconds the warm start spent importing the decoded
    /// image into the store (0 on a cold start).
    pub warm_start_import_secs: f64,
    /// The most recent snapshot write or warm-start load failure, if
    /// any. A corrupt or torn snapshot shows up here (the daemon starts
    /// cold rather than dying).
    pub last_error: Option<String>,
}

impl SnapshotStats {
    /// Did this pipeline warm-start from a snapshot?
    pub fn warm_started(&self) -> bool {
        self.warm_start_entries > 0
    }

    /// Short stats fragment for periodic reporting, e.g.
    /// `3 written, last 15083 B / 120 entries, age 12s`.
    pub fn summary_line(&self) -> String {
        let age = match self.last_write_age_secs {
            Some(age) => format!("{age:.0}s"),
            None => "never".to_string(),
        };
        format!(
            "{} written, last {} B / {} entries, age {age}",
            self.snapshots_written, self.last_bytes, self.last_entries
        )
    }
}

/// Aggregated metrics of a pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineMetrics {
    /// FillUp-side statistics.
    pub fillup: FillUpStats,
    /// LookUp-side statistics.
    pub lookup: LookUpStats,
    /// Write-side statistics.
    pub write: WriteStats,
    /// DNS records dropped because the FillUp queue overflowed.
    pub dns_dropped: u64,
    /// Flow records dropped because the LookUp queue overflowed.
    pub flows_dropped: u64,
    /// Correlated records dropped because the Write queue overflowed.
    pub writes_dropped: u64,
    /// Sampled enqueue→dequeue residency of the FillUp queue (empty when
    /// sampling never resolved a record, e.g. an idle run).
    pub fillup_queue_latency: LatencySnapshot,
    /// Sampled enqueue→dequeue residency of the LookUp queue — the
    /// "p99 ingress-queue latency" of the saturation harness.
    pub lookup_queue_latency: LatencySnapshot,
    /// Peak memory estimate observed.
    pub peak_memory: MemoryEstimate,
    /// Network-ingest counters (all zero for offline runs).
    pub ingest: IngestSummary,
    /// Snapshot persistence counters (all zero without a
    /// `snapshot_path`).
    pub snapshot: SnapshotStats,
}

impl PipelineMetrics {
    /// Fraction of offered DNS records that were lost, in percent.
    pub fn dns_loss_pct(&self) -> f64 {
        loss_pct(self.dns_dropped, self.fillup.total())
    }

    /// Fraction of offered flow records that were lost, in percent.
    pub fn flow_loss_pct(&self) -> f64 {
        loss_pct(self.flows_dropped, self.lookup.total())
    }
}

fn loss_pct(dropped: u64, processed: u64) -> f64 {
    let offered = dropped + processed;
    if offered == 0 {
        0.0
    } else {
        dropped as f64 / offered as f64 * 100.0
    }
}

/// The final report of a correlator run: what `Correlator::finish` and the
/// offline simulator return.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Byte-volume accounting; `volumes.correlation_rate_pct()` is the
    /// paper's headline metric.
    pub volumes: VolumeAccumulator,
    /// Detailed pipeline metrics.
    pub metrics: PipelineMetrics,
}

impl Report {
    /// The correlation rate in percent.
    pub fn correlation_rate_pct(&self) -> f64 {
        self.volumes.correlation_rate_pct()
    }

    /// Render a short human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "correlated {:.1}% of {} total bytes; dns_loss={:.2}% flow_loss={:.2}%; \
             {} dns records stored, {} flows looked up, {} records written",
            self.correlation_rate_pct(),
            self.volumes.total,
            self.metrics.dns_loss_pct(),
            self.metrics.flow_loss_pct(),
            self.metrics.fillup.addresses_stored + self.metrics.fillup.cnames_stored,
            self.metrics.lookup.total(),
            self.metrics.write.records_written,
        );
        if self.metrics.ingest.is_live() {
            s.push('\n');
            s.push_str(&self.metrics.ingest.summary_line());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_pct_scales_with_work_and_time() {
        let m = CostModel::default();
        let one_core = m.core_units_per_sec;
        assert!((m.cpu_pct(one_core, 1.0) - 100.0).abs() < 1e-9);
        assert!((m.cpu_pct(one_core * 25.0, 1.0) - 2500.0).abs() < 1e-6);
        assert!((m.cpu_pct(one_core, 2.0) - 50.0).abs() < 1e-9);
        assert_eq!(m.cpu_pct(100.0, 0.0), 0.0);
    }

    #[test]
    fn loss_percentages() {
        let mut m = PipelineMetrics::default();
        assert_eq!(m.dns_loss_pct(), 0.0);
        m.fillup.addresses_stored = 90;
        m.dns_dropped = 10;
        assert!((m.dns_loss_pct() - 10.0).abs() < 1e-9);
        m.lookup.ip_hits = 50;
        m.lookup.ip_misses = 25;
        m.flows_dropped = 25;
        assert!((m.flow_loss_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn report_summary_mentions_key_numbers() {
        let mut r = Report::default();
        r.volumes.record(1000, true);
        r.volumes.record(1000, false);
        r.metrics.write.records_written = 2;
        let s = r.summary();
        assert!(s.contains("50.0%"));
        assert!(s.contains("2 records written"));
        // Offline runs carry no ingest line.
        assert!(!s.contains("netflow:"));
    }

    #[test]
    fn live_reports_append_the_ingest_line() {
        let mut r = Report::default();
        r.metrics.ingest.netflow_datagrams = 12;
        r.metrics.ingest.netflow_flows = 30;
        r.metrics.ingest.dns_records = 7;
        r.metrics.ingest.per_exporter.push(ExporterStats {
            exporter: "127.0.0.1:5000".into(),
            datagrams: 12,
            flows: 30,
            malformed: 0,
            unknown_template_drops: 1,
            skipped_records: 0,
        });
        assert!(r.metrics.ingest.is_live());
        let s = r.summary();
        assert!(s.contains("netflow: 12 datagrams from 1 exporters -> 30 flows"));
        assert!(s.contains("dns feed: 7 records"));
    }

    #[test]
    fn default_ingest_summary_is_offline() {
        assert!(!IngestSummary::default().is_live());
    }
}
