//! `flowdnsd` — the FlowDNS network daemon.
//!
//! Reads a small `key = value` config file, binds the NetFlow UDP and
//! DNS-feed TCP listeners, runs the correlation pipeline, and prints
//! periodic stats to stderr. Shuts down cleanly — listeners joined,
//! queues drained, final report printed — when any of these happens:
//!
//! * stdin reaches EOF or carries a `quit`/`stop` line (the portable
//!   "shutdown signal" of this dependency-free build: run it under a
//!   supervisor with a pipe on stdin and close the pipe to stop it),
//! * `--duration <secs>` elapses.
//!
//! ```text
//! flowdnsd --config examples/flowdnsd.conf [--duration 30]
//! ```

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowdns_ingest::{DaemonConfig, IngestRuntime};

/// Drops as a percentage of records seen (0 when nothing was seen).
fn loss_pct(drops: u64, seen: u64) -> f64 {
    if seen == 0 {
        0.0
    } else {
        drops as f64 / seen as f64 * 100.0
    }
}

/// Render a `last_activity_seconds` gauge for the stats line.
fn idle_text(secs: Option<f64>) -> String {
    match secs {
        Some(s) if s >= 0.0 => format!("{s:.0}s"),
        _ => "-".to_string(),
    }
}

/// Plural suffix for a counted noun in the banner and stats lines.
fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn usage() -> ! {
    eprintln!("usage: flowdnsd [--config <path>] [--duration <secs>]");
    std::process::exit(2);
}

fn main() {
    let mut config_path: Option<String> = None;
    let mut duration: Option<Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" | "-c" => match args.next() {
                Some(path) => config_path = Some(path),
                None => usage(),
            },
            "--duration" | "-d" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) => duration = Some(Duration::from_secs(secs)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("flowdnsd: unknown argument '{other}'");
                usage();
            }
        }
    }

    let config = match &config_path {
        Some(path) => match DaemonConfig::from_file(path) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("flowdnsd: {e}");
                std::process::exit(1);
            }
        },
        None => DaemonConfig::default(),
    };

    let runtime = match IngestRuntime::start(&config) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("flowdnsd: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let startup = runtime.snapshot();
    eprintln!(
        "flowdnsd: netflow/udp on {} ({} listener{}), dns-feed/tcp on {} ({} listener{}) \
         ({} correlator shard{} + {} write worker{}, recv_batch {})",
        runtime.netflow_addr(),
        startup.netflow_listeners.len(),
        plural(startup.netflow_listeners.len()),
        runtime.dns_addr(),
        startup.dns_listeners,
        plural(startup.dns_listeners),
        runtime.correlator().shards(),
        plural(runtime.correlator().shards()),
        config.correlator.write_workers,
        plural(config.correlator.write_workers),
        config.ingest.recv_batch,
    );
    if config.ingest.netflow_listeners > startup.netflow_listeners.len()
        || config.ingest.dns_listeners > startup.dns_listeners
    {
        eprintln!(
            "flowdnsd: SO_REUSEPORT unavailable — listener groups clamped to a single socket"
        );
    }
    if let Some(addr) = runtime.metrics_addr() {
        eprintln!(
            "flowdnsd: metrics endpoint on http://{addr}/ — /metrics (Prometheus), \
             /healthz, /stats.json"
        );
    }
    if let Some(flight) = runtime.correlator().flight_recorder() {
        eprintln!(
            "flowdnsd: flight recorder tracing 1-in-{} flows to {}",
            flight.sample_every(),
            flight.path().display()
        );
    }
    if let Some(view) = runtime.correlator().asn_view() {
        eprintln!(
            "flowdnsd: routing table loaded ({} prefixes) — stamping src/dst origin AS",
            view.snapshot().len()
        );
    }
    if let (Some(output), Some(window)) =
        (&config.ingest.output, config.ingest.output_rotate_interval)
    {
        let (dir, prefix) = flowdns_ingest::runtime::rotating_output_parts(output);
        eprintln!(
            "flowdnsd: rotating output files {}-<window>.tsv every {} s",
            dir.join(prefix).display(),
            window.as_secs()
        );
    }
    if let Some(path) = &config.correlator.snapshot_path {
        let stats = runtime.correlator().snapshot_stats();
        if stats.warm_started() {
            eprintln!(
                "flowdnsd: warm start — {} store entries restored from {path} \
                 (read {:.1} ms, import {:.1} ms)",
                stats.warm_start_entries,
                stats.warm_start_read_secs * 1e3,
                stats.warm_start_import_secs * 1e3
            );
        } else {
            match &stats.last_error {
                // A torn/corrupt snapshot is rejected by its checksum
                // and the daemon serves cold rather than refusing to
                // start.
                Some(error) => eprintln!("flowdnsd: cold start — {error}"),
                None => eprintln!("flowdnsd: cold start — no snapshot at {path} yet"),
            }
        }
        if config.correlator.snapshot_interval.is_zero() {
            eprintln!("flowdnsd: snapshotting store to {path} at shutdown only");
        } else {
            eprintln!(
                "flowdnsd: snapshotting store to {path} every {} s",
                config.correlator.snapshot_interval.as_secs()
            );
        }
    }

    // Shutdown watcher: stdin EOF or an explicit quit/stop line. The
    // thread is detached on purpose — if the duration path wins, a thread
    // blocked in `read_line` must not keep the process alive, and it
    // cannot, because the process exits from main.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        let spawned = std::thread::Builder::new()
            .name("flowdnsd-stdin".into())
            .spawn(move || {
                let stdin = std::io::stdin();
                let mut line = String::new();
                loop {
                    line.clear();
                    match stdin.lock().read_line(&mut line) {
                        Ok(0) => break, // EOF: shut down
                        Ok(_) => {
                            let cmd = line.trim();
                            if cmd.eq_ignore_ascii_case("quit") || cmd.eq_ignore_ascii_case("stop")
                            {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                stop.store(true, Ordering::Release);
            });
        // The watcher is a convenience; without it the duration limit
        // and process signals still stop the daemon.
        if let Err(e) = spawned {
            eprintln!("flowdnsd: stdin watcher not started ({e}); use --duration or signals");
        }
    }

    let started = Instant::now();
    let mut last_stats = Instant::now();
    // Previous-tick feed totals: live rates are per-tick counter deltas
    // over the wall clock, so an idle feed honestly reads 0 flows/s.
    let mut prev_netflow = 0u64;
    let mut prev_dns = 0u64;
    let netflow_listener_count = startup.netflow_listeners.len();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if stop.load(Ordering::Acquire) {
            eprintln!("flowdnsd: shutdown signal received");
            break;
        }
        if let Some(limit) = duration {
            if started.elapsed() >= limit {
                eprintln!("flowdnsd: duration elapsed");
                break;
            }
        }
        if last_stats.elapsed() >= config.ingest.stats_interval {
            let tick_secs = last_stats.elapsed().as_secs_f64();
            last_stats = Instant::now();
            // Every number below reads the metrics registry — the same
            // series `/metrics` exports — so this log and a scraper can
            // never disagree about what the daemon did.
            let reg = runtime.registry().snapshot();
            let netflow_records =
                reg.counter_with("flowdns_ingest_records_total", "feed", "netflow");
            let dns_records = reg.counter_with("flowdns_ingest_records_total", "feed", "dns");
            let flow_rate = netflow_records.saturating_sub(prev_netflow) as f64 / tick_secs;
            let dns_rate = dns_records.saturating_sub(prev_dns) as f64 / tick_secs;
            prev_netflow = netflow_records;
            prev_dns = dns_records;
            eprintln!(
                "flowdnsd: ingest: netflow {} datagrams -> {} flows ({} malformed, \
                 {} no-template, {} skipped records, {} queue-dropped); dns {} records over \
                 {} connections ({} malformed streams, {} queue-dropped)",
                reg.counter("flowdns_ingest_netflow_datagrams_total"),
                reg.counter("flowdns_ingest_netflow_flows_total"),
                reg.counter("flowdns_ingest_netflow_malformed_total"),
                reg.counter("flowdns_ingest_netflow_unknown_template_drops_total"),
                reg.counter("flowdns_ingest_netflow_skipped_records_total"),
                reg.counter("flowdns_ingest_netflow_queue_dropped_total"),
                reg.counter("flowdns_ingest_dns_records_total"),
                reg.counter("flowdns_ingest_dns_connections_total"),
                reg.counter("flowdns_ingest_dns_malformed_streams_total"),
                reg.counter("flowdns_ingest_dns_queue_dropped_total"),
            );
            eprintln!(
                "flowdnsd: rates: {flow_rate:.0} flows/s, {dns_rate:.0} dns/s (last {tick_secs:.0}s) \
                 | queues fillup={:.0} lookup={:.0} write={:.0} | idle netflow={} dns={}",
                reg.gauge_sum_with("flowdns_queue_depth", "queue", "fillup"),
                reg.gauge_sum_with("flowdns_queue_depth", "queue", "lookup"),
                reg.gauge_sum("flowdns_egress_queue_depth"),
                idle_text(reg.gauge_with("flowdns_ingest_last_activity_seconds", "feed", "netflow")),
                idle_text(reg.gauge_with("flowdns_ingest_last_activity_seconds", "feed", "dns")),
            );
            let egress_bytes = reg.counter("flowdns_egress_bytes_total");
            let correlated_bytes = reg.counter("flowdns_egress_correlated_bytes_total");
            let corr_pct = if egress_bytes == 0 {
                0.0
            } else {
                correlated_bytes as f64 / egress_bytes as f64 * 100.0
            };
            let dns_stored = reg.counter_with("flowdns_fillup_records_total", "kind", "addresses")
                + reg.counter_with("flowdns_fillup_records_total", "kind", "cnames");
            let dns_drops = reg.counter_with("flowdns_queue_dropped_total", "queue", "fillup")
                + reg.counter("flowdns_ingest_dns_queue_dropped_total");
            let flow_drops = reg.counter_with("flowdns_queue_dropped_total", "queue", "lookup")
                + reg.counter("flowdns_ingest_netflow_queue_dropped_total")
                + reg.counter("flowdns_egress_queue_dropped_total");
            eprintln!(
                "flowdnsd: pipeline: {} written ({corr_pct:.1}% correlated), {dns_stored} dns \
                 stored, loss dns={:.2}% flows={:.2}%, store {} entries / {:.3} GB",
                reg.counter("flowdns_egress_records_total"),
                loss_pct(dns_drops, reg.counter("flowdns_ingest_dns_records_total")),
                loss_pct(
                    flow_drops,
                    reg.counter("flowdns_ingest_netflow_flows_total")
                ),
                reg.gauge("flowdns_store_entries").unwrap_or(0.0) as u64,
                reg.gauge("flowdns_store_payload_bytes").unwrap_or(0.0) / 1e9,
            );
            // Per-listener drain efficiency: how many datagrams each
            // NetFlow listener takes per socket wake-up. avg≈1 means the
            // batched path is idling (or recv_batch = 1).
            let drains: Vec<String> = (0..netflow_listener_count)
                .map(|i| {
                    let listener = i.to_string();
                    let dgrams = reg.counter_with(
                        "flowdns_ingest_netflow_datagrams_total",
                        "listener",
                        &listener,
                    );
                    let drains = reg.counter_with(
                        "flowdns_ingest_netflow_drains_total",
                        "listener",
                        &listener,
                    );
                    let avg = if drains == 0 {
                        0.0
                    } else {
                        dgrams as f64 / drains as f64
                    };
                    let max = reg
                        .gauge_with("flowdns_ingest_netflow_max_drain", "listener", &listener)
                        .unwrap_or(0.0);
                    format!("#{i} {dgrams} dgrams ({avg:.1}/drain, max {max:.0})")
                })
                .collect();
            eprintln!(
                "flowdnsd: listeners: netflow [{}] | dns {} accept loop{}",
                drains.join(", "),
                startup.dns_listeners,
                plural(startup.dns_listeners),
            );
            if config.correlator.snapshot_path.is_some() {
                let age = reg
                    .gauge("flowdns_snapshot_last_write_age_seconds")
                    .unwrap_or(-1.0);
                let age = if age < 0.0 {
                    "never".to_string()
                } else {
                    format!("{age:.0}s")
                };
                eprintln!(
                    "flowdnsd: snapshots: {} written, last {} B, age {age}",
                    reg.counter("flowdns_snapshots_written_total"),
                    reg.gauge("flowdns_snapshot_last_bytes").unwrap_or(0.0) as u64,
                );
                if let Some(error) = &runtime.correlator().snapshot_stats().last_error {
                    eprintln!("flowdnsd: snapshot error: {error}");
                }
            }
            if runtime.correlator().flight_recorder().is_some() {
                eprintln!(
                    "flowdnsd: traces: {} spans emitted, {} dropped",
                    reg.counter("flowdns_trace_spans_total"),
                    reg.counter("flowdns_trace_spans_dropped_total"),
                );
            }
        }
    }

    match runtime.shutdown() {
        Ok(report) => {
            eprintln!("flowdnsd: final report: {}", report.summary());
        }
        Err(e) => {
            eprintln!("flowdnsd: shutdown failed: {e}");
            std::process::exit(1);
        }
    }
}
