//! [`IngestRuntime`]: sockets in, correlated records out.
//!
//! The runtime binds the two listener groups (`SO_REUSEPORT` when more
//! than one socket per port is configured), starts a [`Correlator`] and
//! wires everything together: UDP datagram drains → per-listener
//! decoder shards → per-shard flow rings; TCP read drains → incremental
//! decoder → per-shard DNS rings. Each feed stamps its last-activity time once
//! per drain round, and shutdown is ordered: listeners stop accepting, connection handlers
//! drain and join, then the pipeline drains its bounded queues and the
//! final [`Report`] — with every per-exporter drop/malformed counter
//! folded into `core::metrics::IngestSummary` — comes back.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use flowdns_core::metrics::IngestSummary;
use flowdns_core::write::{DiscardSink, MemorySink, OutputSink, RotatingFileSink, TsvFileSink};
use flowdns_core::{Correlator, PipelineMetrics, Report};
use flowdns_obs::{HealthCheck, HealthStatus, MetricsRegistry, MetricsServer};
use flowdns_types::{FlowDnsError, SimDuration};

use crate::config::DaemonConfig;
use crate::dns_listener::{self, DnsFeedStats};
use crate::kernel_drops;
use crate::netflow_listener::{self, ExporterTable, ListenerCounters};
use crate::reuseport;

/// Queue fill level at which `/healthz` flips to 503.
const QUEUE_SATURATION_THRESHOLD: f64 = 0.95;

/// Split the `output` config value into the directory and filename
/// prefix the rotating sinks actually use (the extension is stripped:
/// `/var/log/flowdns/corr.tsv` → files `/var/log/flowdns/corr-<window>.tsv`).
/// Shared by [`IngestRuntime::start`] and `flowdnsd`'s startup banner so
/// the logged paths always match the files on disk.
pub fn rotating_output_parts(output: &str) -> (std::path::PathBuf, String) {
    let path = std::path::Path::new(output);
    let dir = path
        .parent()
        .map(|p| p.to_path_buf())
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let prefix = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "flowdns".to_string());
    (dir, prefix)
}

/// A point-in-time view of the ingest side, cheap enough to take every
/// stats tick.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestSnapshot {
    /// Ingest totals so far (same shape as the final report's summary).
    pub summary: IngestSummary,
    /// Depths of the (fillup, lookup, write) queues.
    pub queue_depths: (usize, usize, usize),
    /// Per-listener drain counters of the NetFlow group, in listener
    /// order (length = effective `netflow_listeners`).
    pub netflow_listeners: Vec<ListenerCounters>,
    /// Effective size of the DNS accept-loop group.
    pub dns_listeners: usize,
    /// Live pipeline metrics from [`Correlator::snapshot`]: worker stats,
    /// queue drop counters, store memory. Periodic reporters read this
    /// instead of probing queues and counters piecemeal.
    pub pipeline: PipelineMetrics,
}

/// The live ingestion runtime: two listeners feeding one [`Correlator`].
pub struct IngestRuntime {
    correlator: Arc<Correlator>,
    netflow_addr: SocketAddr,
    dns_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    listeners: Vec<JoinHandle<()>>,
    dns_accepts: Vec<JoinHandle<usize>>,
    exporters: Arc<ExporterTable>,
    dns_stats: Arc<DnsFeedStats>,
    dns_listener_count: usize,
    registry: Arc<MetricsRegistry>,
    metrics_server: Option<MetricsServer>,
}

impl std::fmt::Debug for IngestRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestRuntime")
            .field("netflow_addr", &self.netflow_addr)
            .field("dns_addr", &self.dns_addr)
            .finish()
    }
}

impl IngestRuntime {
    /// Start the runtime with the egress named by the configuration: with
    /// `output = path` each write-worker shard owns a
    /// [`RotatingFileSink`] (when `output_rotate_interval` is set) or a
    /// plain TSV file; otherwise records are discarded after accounting.
    pub fn start(config: &DaemonConfig) -> Result<Self, FlowDnsError> {
        let sharded = config.correlator.write_workers > 1;
        match &config.ingest.output {
            Some(path) => match config.ingest.output_rotate_interval {
                Some(window) => {
                    let window = SimDuration::from_secs(window.as_secs());
                    let (dir, prefix) = rotating_output_parts(path);
                    IngestRuntime::start_with_sink_factory(config, move |shard| {
                        let mut sink = RotatingFileSink::new(&dir, &prefix, window)?;
                        if sharded {
                            sink = sink.with_shard(shard);
                        }
                        Ok(Box::new(sink))
                    })
                }
                None => {
                    let path = path.clone();
                    IngestRuntime::start_with_sink_factory(config, move |shard| {
                        let shard_path = if sharded {
                            format!("{path}.w{shard}")
                        } else {
                            path.clone()
                        };
                        Ok(Box::new(TsvFileSink::create(shard_path)?))
                    })
                }
            },
            None => IngestRuntime::start_with_sink_factory(config, |_| Ok(Box::new(DiscardSink))),
        }
    }

    /// Start the runtime writing correlated records into in-memory sinks
    /// (tests and examples that inspect the output).
    pub fn start_in_memory(config: &DaemonConfig) -> Result<Self, FlowDnsError> {
        IngestRuntime::start_with_sink_factory(config, |_| Ok(Box::new(MemorySink::new())))
    }

    /// Start the runtime with one sink per write-worker shard, built by
    /// `factory(shard)`.
    pub fn start_with_sink_factory<F>(
        config: &DaemonConfig,
        factory: F,
    ) -> Result<Self, FlowDnsError>
    where
        F: FnMut(usize) -> Result<Box<dyn OutputSink>, FlowDnsError>,
    {
        let io_err = |e: std::io::Error| FlowDnsError::Io(e.to_string());

        // Bind the listener groups first — the effective group sizes
        // (clamped to 1 where SO_REUSEPORT is unavailable) shape the
        // decoder shard layout below.
        let (udp_sockets, netflow_addr) =
            reuseport::bind_udp_group(config.ingest.netflow_bind, config.ingest.netflow_listeners)
                .map_err(io_err)?;
        if config.ingest.recv_buffer_bytes > 0 {
            for socket in &udp_sockets {
                // Best-effort: the kernel clamps to rmem_max, and a
                // denied resize still leaves a working (default-depth)
                // socket, so failure is not fatal.
                let _ = reuseport::set_recv_buffer(socket, config.ingest.recv_buffer_bytes);
            }
        }
        let socket_inodes: Vec<u64> = udp_sockets
            .iter()
            .filter_map(kernel_drops::socket_inode)
            .collect();
        let (tcp_listeners, dns_addr) =
            reuseport::bind_tcp_group(config.ingest.dns_bind, config.ingest.dns_listeners)
                .map_err(io_err)?;
        let dns_listener_count = tcp_listeners.len();

        let correlator = Arc::new(Correlator::start_with_sink_factory(
            config.correlator.clone(),
            factory,
        )?);
        let shutdown = Arc::new(AtomicBool::new(false));
        let exporters = Arc::new(ExporterTable::new(udp_sockets.len()));
        let dns_stats = Arc::new(DnsFeedStats::default());

        let listeners = netflow_listener::spawn_group(
            udp_sockets,
            config.ingest.recv_batch,
            Arc::clone(&correlator),
            Arc::clone(&shutdown),
            Arc::clone(&exporters),
        )
        .map_err(io_err)?;
        let dns_accepts = dns_listener::spawn_group(
            tcp_listeners,
            Arc::clone(&correlator),
            Arc::clone(&shutdown),
            Arc::clone(&dns_stats),
        )
        .map_err(io_err)?;

        // Every subsystem registers into one registry: pipeline workers,
        // queues, store, snapshots and BGP from the correlator; listener
        // and feed series from the ingest side. The
        // periodic stderr stats and the scrape endpoint both read it.
        let registry = Arc::new(MetricsRegistry::new());
        correlator.register_metrics(&registry);
        register_ingest_metrics(&registry, &exporters, &dns_stats, socket_inodes);
        let metrics_server = match config.ingest.metrics_addr {
            Some(addr) => {
                let health = health_check(&correlator);
                match MetricsServer::start(addr, Arc::clone(&registry), health) {
                    Ok(server) => Some(server),
                    Err(e) => {
                        // The listener threads are already running; stop
                        // them before reporting the bind failure.
                        shutdown.store(true, Ordering::Release);
                        for handle in listeners {
                            let _ = handle.join();
                        }
                        let _ = dns_listener::join_group(dns_addr, dns_accepts);
                        return Err(io_err(e));
                    }
                }
            }
            None => None,
        };

        Ok(IngestRuntime {
            correlator,
            netflow_addr,
            dns_addr,
            shutdown,
            listeners,
            dns_accepts,
            exporters,
            dns_stats,
            dns_listener_count,
            registry,
            metrics_server,
        })
    }

    /// The address the NetFlow UDP listener actually bound (resolves
    /// ephemeral port 0).
    pub fn netflow_addr(&self) -> SocketAddr {
        self.netflow_addr
    }

    /// The address the DNS-feed TCP listener actually bound.
    pub fn dns_addr(&self) -> SocketAddr {
        self.dns_addr
    }

    /// The correlation pipeline, for store/queue inspection.
    pub fn correlator(&self) -> &Correlator {
        &self.correlator
    }

    /// The metrics registry every subsystem registered into. Periodic
    /// reporters snapshot this instead of probing counters piecemeal.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The bound address of the metrics endpoint, when `metrics_addr`
    /// is configured (resolves an ephemeral port 0 request).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.local_addr())
    }

    /// Current ingest totals, queue depths and live pipeline metrics.
    pub fn snapshot(&self) -> IngestSnapshot {
        let summary = self.build_summary();
        // Fold the ingest totals into the pipeline view too, mirroring
        // what `shutdown()` does for the final report, so the two fields
        // of the snapshot never disagree.
        let mut pipeline = self.correlator.snapshot();
        pipeline.ingest = summary.clone();
        IngestSnapshot {
            summary,
            queue_depths: self.correlator.queue_depths(),
            netflow_listeners: self.exporters.per_listener(),
            dns_listeners: self.dns_listener_count,
            pipeline,
        }
    }

    fn build_summary(&self) -> IngestSummary {
        let totals = self.exporters.totals();
        IngestSummary {
            netflow_datagrams: totals.datagrams,
            netflow_flows: totals.flows,
            netflow_malformed: totals.malformed,
            netflow_unknown_template_drops: totals.unknown_template_drops,
            netflow_skipped_records: totals.skipped_records,
            netflow_queue_drops: self.exporters.queue_drops.load(Ordering::Relaxed),
            dns_connections: self.dns_stats.connections.load(Ordering::Relaxed),
            dns_records: self.dns_stats.records.load(Ordering::Relaxed),
            dns_malformed_streams: self.dns_stats.malformed_streams.load(Ordering::Relaxed),
            dns_queue_drops: self.dns_stats.queue_drops.load(Ordering::Relaxed),
            per_exporter: self.exporters.per_exporter(),
        }
    }

    /// Ordered shutdown: stop the listeners, join every connection
    /// handler, drain the pipeline, and return the final report with the
    /// ingest summary folded into its metrics.
    pub fn shutdown(mut self) -> Result<Report, FlowDnsError> {
        self.shutdown.store(true, Ordering::Release);
        for handle in self.listeners.drain(..) {
            handle
                .join()
                .map_err(|_| FlowDnsError::PipelineState("ingest listener panicked".into()))?;
        }
        // Each accept loop joins its connection handlers before it exits;
        // handlers see the flag within one read timeout.
        dns_listener::join_group(self.dns_addr, std::mem::take(&mut self.dns_accepts))?;
        // The health probe holds its own correlator handle; stop the
        // endpoint before unwrapping the pipeline.
        if let Some(server) = self.metrics_server.take() {
            server.shutdown();
        }
        let summary = self.build_summary();
        let correlator = Arc::try_unwrap(self.correlator).map_err(|_| {
            FlowDnsError::PipelineState("correlator still referenced at shutdown".into())
        })?;
        let mut report = correlator.finish()?;
        report.metrics.ingest = summary;
        Ok(report)
    }
}

/// When a feed last offered a batch, for the `last_activity_seconds`
/// gauge: its listeners stamp it once per drain round.
#[derive(Debug)]
pub(crate) struct ActivityStamp {
    origin: Instant,
    /// Nanoseconds from `origin` to the latest stamp, plus one (0 = never).
    nanos: AtomicU64,
}

impl Default for ActivityStamp {
    fn default() -> Self {
        ActivityStamp {
            origin: Instant::now(),
            nanos: AtomicU64::new(0),
        }
    }
}

impl ActivityStamp {
    fn nanos_now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX - 1) + 1
    }

    /// Stamp the current wall-clock time.
    pub(crate) fn mark(&self) {
        // ordering: stats-only gauge; a scrape may read the previous stamp.
        self.nanos.store(self.nanos_now(), Ordering::Relaxed);
    }

    /// Seconds since the latest stamp, `None` before the first.
    pub(crate) fn seconds_since(&self) -> Option<f64> {
        let stamp = self.nanos.load(Ordering::Relaxed);
        (stamp > 0).then(|| self.nanos_now().saturating_sub(stamp) as f64 / 1e9)
    }
}

/// The `/healthz` probe: an egress sink error or a near-full pipeline
/// queue turns the endpoint 503 so an orchestrator can restart or shed
/// load before data is silently dropped.
fn health_check(correlator: &Arc<Correlator>) -> HealthCheck {
    let correlator = Arc::clone(correlator);
    Arc::new(move || {
        if let Some(err) = correlator.egress_error_message() {
            return HealthStatus::unhealthy(format!("egress error: {err}"));
        }
        let (fillup, lookup, write) = correlator.queue_fill_levels();
        let detail = format!(
            "queues: fillup {:.0}% lookup {:.0}% write {:.0}%",
            fillup * 100.0,
            lookup * 100.0,
            write * 100.0
        );
        if fillup.max(lookup).max(write) >= QUEUE_SATURATION_THRESHOLD {
            HealthStatus::unhealthy(format!("saturated {detail}"))
        } else {
            HealthStatus::ok(detail)
        }
    })
}

/// Register the ingest-side series: per-listener drain counters, decode
/// totals, DNS-feed counters, per-feed totals with the wall-clock
/// `last_activity_seconds` gauges. All closures
/// over counters the listeners already maintain — registration adds no
/// hot-path cost — except the kernel's receive drops at the NetFlow
/// sockets (`socket_inodes`), which a scrape reads from `/proc`.
fn register_ingest_metrics(
    registry: &MetricsRegistry,
    exporters: &Arc<ExporterTable>,
    dns_stats: &Arc<DnsFeedStats>,
    socket_inodes: Vec<u64>,
) {
    for i in 0..exporters.listeners() {
        let listener = i.to_string();
        let labels: &[(&str, &str)] = &[("listener", listener.as_str())];
        let t = Arc::clone(exporters);
        registry.counter_fn(
            "flowdns_ingest_netflow_datagrams_total",
            "UDP datagrams received, per NetFlow listener.",
            labels,
            move || t.per_listener()[i].datagrams,
        );
        let t = Arc::clone(exporters);
        registry.counter_fn(
            "flowdns_ingest_netflow_drains_total",
            "Receive drain rounds, per NetFlow listener.",
            labels,
            move || t.per_listener()[i].drains,
        );
        let t = Arc::clone(exporters);
        registry.counter_fn(
            "flowdns_ingest_netflow_batch_pushes_total",
            "Batches offered to the LookUp queue, per NetFlow listener.",
            labels,
            move || t.per_listener()[i].batch_pushes,
        );
        let t = Arc::clone(exporters);
        registry.gauge_fn(
            "flowdns_ingest_netflow_max_drain",
            "Largest single receive drain so far, in datagrams.",
            labels,
            move || t.per_listener()[i].max_drain as f64,
        );
    }
    let t = Arc::clone(exporters);
    registry.counter_fn(
        "flowdns_ingest_netflow_flows_total",
        "Flow records decoded from NetFlow/IPFIX datagrams.",
        &[],
        move || t.totals().flows,
    );
    let t = Arc::clone(exporters);
    registry.counter_fn(
        "flowdns_ingest_netflow_malformed_total",
        "Datagrams dropped as malformed.",
        &[],
        move || t.totals().malformed,
    );
    let t = Arc::clone(exporters);
    registry.counter_fn(
        "flowdns_ingest_netflow_unknown_template_drops_total",
        "NetFlow v9 data flowsets and IPFIX data sets dropped for lack of their template.",
        &[],
        move || t.totals().unknown_template_drops,
    );
    let t = Arc::clone(exporters);
    registry.counter_fn(
        "flowdns_ingest_netflow_skipped_records_total",
        "Records of decoded datagrams that yielded no flow (template without a usable \
         address or bytes field, zero bytes, more packets than bytes).",
        &[],
        move || t.totals().skipped_records,
    );
    registry.counter_fn(
        "flowdns_ingest_netflow_kernel_drops_total",
        "Datagrams the kernel dropped at the NetFlow listeners' sockets (receive buffer \
         full), the drops column of /proc/net/udp and udp6, read at scrape time.",
        &[],
        move || kernel_drops::kernel_drops(&socket_inodes),
    );
    let t = Arc::clone(exporters);
    registry.counter_fn(
        "flowdns_ingest_netflow_queue_dropped_total",
        "Decoded flows dropped because the LookUp queue was full.",
        &[],
        move || t.queue_drops.load(Ordering::Relaxed),
    );

    let s = Arc::clone(dns_stats);
    registry.counter_fn(
        "flowdns_ingest_dns_connections_total",
        "DNS-feed connections accepted.",
        &[],
        move || s.connections.load(Ordering::Relaxed),
    );
    let s = Arc::clone(dns_stats);
    registry.counter_fn(
        "flowdns_ingest_dns_records_total",
        "DNS records decoded from the feed.",
        &[],
        move || s.records.load(Ordering::Relaxed),
    );
    let s = Arc::clone(dns_stats);
    registry.counter_fn(
        "flowdns_ingest_dns_reads_total",
        "DNS-feed socket reads that returned data.",
        &[],
        move || s.reads.load(Ordering::Relaxed),
    );
    let s = Arc::clone(dns_stats);
    registry.counter_fn(
        "flowdns_ingest_dns_batch_pushes_total",
        "Batches offered to the FillUp queue by the DNS feed.",
        &[],
        move || s.batch_pushes.load(Ordering::Relaxed),
    );
    let s = Arc::clone(dns_stats);
    registry.counter_fn(
        "flowdns_ingest_dns_malformed_streams_total",
        "DNS-feed connections dropped for framing errors.",
        &[],
        move || s.malformed_streams.load(Ordering::Relaxed),
    );
    let s = Arc::clone(dns_stats);
    registry.counter_fn(
        "flowdns_ingest_dns_queue_dropped_total",
        "DNS records dropped because the FillUp queue was full.",
        &[],
        move || s.queue_drops.load(Ordering::Relaxed),
    );

    // The per-feed series. The DNS feed carries no byte count, so its
    // bytes series stays 0.
    let t = Arc::clone(exporters);
    registry.counter_fn(
        "flowdns_ingest_records_total",
        "Records decoded per feed.",
        &[("feed", "netflow")],
        move || t.totals().flows,
    );
    let s = Arc::clone(dns_stats);
    registry.counter_fn(
        "flowdns_ingest_records_total",
        "Records decoded per feed.",
        &[("feed", "dns")],
        move || s.records.load(Ordering::Relaxed),
    );
    let t = Arc::clone(exporters);
    registry.counter_fn(
        "flowdns_ingest_bytes_total",
        "Flow bytes decoded per feed.",
        &[("feed", "netflow")],
        move || t.bytes(),
    );
    registry.counter_fn(
        "flowdns_ingest_bytes_total",
        "Flow bytes decoded per feed.",
        &[("feed", "dns")],
        || 0,
    );
    let t = Arc::clone(exporters);
    registry.gauge_fn(
        "flowdns_ingest_last_activity_seconds",
        "Wall-clock seconds since the feed last received a batch (-1 = never).",
        &[("feed", "netflow")],
        move || t.last_activity.seconds_since().unwrap_or(-1.0),
    );
    let s = Arc::clone(dns_stats);
    registry.gauge_fn(
        "flowdns_ingest_last_activity_seconds",
        "Wall-clock seconds since the feed last received a batch (-1 = never).",
        &[("feed", "dns")],
        move || s.last_activity.seconds_since().unwrap_or(-1.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback_config() -> DaemonConfig {
        let mut cfg = DaemonConfig::default();
        cfg.ingest.netflow_bind = "127.0.0.1:0".parse().unwrap();
        cfg.ingest.dns_bind = "127.0.0.1:0".parse().unwrap();
        cfg
    }

    #[test]
    fn starts_on_ephemeral_ports_and_shuts_down_clean() {
        let rt = IngestRuntime::start_in_memory(&loopback_config()).unwrap();
        assert_ne!(rt.netflow_addr().port(), 0);
        assert_ne!(rt.dns_addr().port(), 0);
        let snap = rt.snapshot();
        assert!(!snap.summary.is_live());
        assert_eq!(snap.queue_depths, (0, 0, 0));
        assert_eq!(snap.pipeline.write.records_written, 0);
        assert_eq!(snap.pipeline.flows_dropped, 0);
        // The snapshot's two views of the ingest totals must agree.
        assert_eq!(snap.pipeline.ingest, snap.summary);
        let report = rt.shutdown().unwrap();
        assert_eq!(report.metrics.write.records_written, 0);
        assert!(!report.metrics.ingest.is_live());
    }

    #[test]
    fn listener_groups_start_and_report_their_size() {
        let mut cfg = loopback_config();
        cfg.ingest.netflow_listeners = 4;
        cfg.ingest.dns_listeners = 2;
        let rt = IngestRuntime::start_in_memory(&cfg).unwrap();
        let snap = rt.snapshot();
        // Real 4-socket group on Linux; clamped to 1 where SO_REUSEPORT
        // is unavailable — either way the snapshot reports the truth.
        assert!(snap.netflow_listeners.len() == 4 || snap.netflow_listeners.len() == 1);
        assert!(snap.dns_listeners == 2 || snap.dns_listeners == 1);
        assert_eq!(
            snap.netflow_listeners.len(),
            rt.exporters.listeners(),
            "shards must match the listener group"
        );
        rt.shutdown().unwrap();
    }

    #[test]
    fn unspecified_bind_shuts_down_through_loopback() {
        let mut cfg = loopback_config();
        cfg.ingest.dns_bind = "0.0.0.0:0".parse().unwrap();
        cfg.ingest.dns_listeners = 2;
        let rt = IngestRuntime::start_in_memory(&cfg).unwrap();
        assert!(rt.dns_addr().ip().is_unspecified());
        let started = Instant::now();
        rt.shutdown().unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "shutdown took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn metrics_endpoint_is_off_by_default_but_registry_is_live() {
        let rt = IngestRuntime::start_in_memory(&loopback_config()).unwrap();
        assert!(rt.metrics_addr().is_none());
        // The registry exists (stderr stats derive from it) even with no
        // scrape endpoint; pipeline and ingest series are registered.
        let snap = rt.registry().snapshot();
        assert_eq!(snap.counter("flowdns_egress_records_total"), 0);
        assert_eq!(snap.counter("flowdns_ingest_netflow_datagrams_total"), 0);
        assert_eq!(
            snap.gauge_with("flowdns_ingest_last_activity_seconds", "feed", "netflow"),
            Some(-1.0),
            "no batch received yet"
        );
        rt.shutdown().unwrap();
    }

    #[test]
    fn metrics_endpoint_serves_when_configured() {
        use std::io::{Read as _, Write as _};
        let mut cfg = loopback_config();
        cfg.ingest.metrics_addr = Some("127.0.0.1:0".parse().unwrap());
        let rt = IngestRuntime::start_in_memory(&cfg).unwrap();
        let addr = rt.metrics_addr().expect("metrics server bound");
        assert_ne!(addr.port(), 0);
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        write!(conn, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("flowdns_ingest_netflow_datagrams_total"));
        assert!(response.contains("flowdns_egress_records_total"));
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("queues"), "{response}");
        rt.shutdown().unwrap();
    }

    #[test]
    fn two_runtimes_can_coexist() {
        let a = IngestRuntime::start_in_memory(&loopback_config()).unwrap();
        let b = IngestRuntime::start_in_memory(&loopback_config()).unwrap();
        assert_ne!(a.netflow_addr(), b.netflow_addr());
        a.shutdown().unwrap();
        b.shutdown().unwrap();
    }

    #[test]
    fn binding_an_occupied_port_is_an_io_error() {
        let rt = IngestRuntime::start_in_memory(&loopback_config()).unwrap();
        let mut cfg = loopback_config();
        cfg.ingest.dns_bind = rt.dns_addr();
        match IngestRuntime::start_in_memory(&cfg) {
            Err(FlowDnsError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        rt.shutdown().unwrap();
    }
}
