//! Kill-and-restart integration test of the snapshot/warm-restart
//! subsystem, over the same real loopback sockets `flowdnsd` serves.
//!
//! Run 1 of the daemon runtime learns DNS state from a framed TCP feed
//! and shuts down, persisting the store. Run 2 starts against the same
//! snapshot file and receives *only* NetFlow traffic — no DNS at all —
//! and must still correlate the very first flows from the snapshotted
//! state (the fill-up phase is skipped entirely). Also asserts the
//! atomicity contract: no `.part` file is ever visible to the loader,
//! a stale `.part` from a killed writer is ignored and cleaned up by the
//! next write, and a torn snapshot is rejected by its checksum (the
//! daemon starts cold instead of crashing or mis-loading).

use std::io::Write as IoWrite;
use std::net::{Ipv4Addr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use flowdns::dns::framing::FrameEncoder;
use flowdns::ingest::{DaemonConfig, IngestRuntime};
use flowdns::netflow::{V5Header, V5Packet, V5Record};
use flowdns::snapshot::part_path;
use flowdns::types::{DnsRecord, DomainName, SimTime};

fn config_with_snapshot(path: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::default();
    cfg.ingest.netflow_bind = "127.0.0.1:0".parse().unwrap();
    cfg.ingest.dns_bind = "127.0.0.1:0".parse().unwrap();
    cfg.correlator.snapshot_path = Some(path.to_string_lossy().into_owned());
    // Shutdown-only snapshots: the restart below must be served by the
    // file the first run wrote when it stopped.
    cfg.correlator.snapshot_interval = Duration::ZERO;
    cfg
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn dns_record(name: &str, last_octet: u8, ttl: u32) -> DnsRecord {
    DnsRecord::address(
        SimTime::from_secs(900),
        DomainName::literal(name),
        Ipv4Addr::new(203, 0, 113, last_octet).into(),
        ttl,
    )
}

fn v5_flows(sources: impl Iterator<Item = u8>) -> V5Packet {
    V5Packet {
        header: V5Header {
            unix_secs: 1000,
            ..Default::default()
        },
        records: sources
            .map(|i| V5Record {
                src_addr: Ipv4Addr::new(203, 0, 113, i),
                dst_addr: Ipv4Addr::new(10, 0, 0, 1),
                packets: 10,
                octets: 1_000,
                ..Default::default()
            })
            .collect(),
    }
}

#[test]
fn warm_restarted_daemon_answers_lookups_before_any_new_dns() {
    let dir = std::env::temp_dir().join("flowdns-snapshot-restart-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("store.fdns");
    // A stale .part file, as a daemon killed mid-write would leave
    // behind: the loader must never read it.
    std::fs::write(part_path(&snapshot), b"torn partial write").unwrap();

    // ---- Run 1: learn DNS over the real TCP feed, then shut down. ----
    let first = IngestRuntime::start_in_memory(&config_with_snapshot(&snapshot)).unwrap();
    assert!(
        !first.correlator().snapshot_stats().warm_started(),
        "run 1 must be a cold start"
    );
    let records: Vec<DnsRecord> = (0..16u8)
        .map(|i| {
            // Mix of short-TTL (Active map) and long-TTL (Long map)
            // records: both must survive the round trip.
            let ttl = if i % 2 == 0 { 300 } else { 86_400 };
            dns_record(&format!("svc{i}.cdn.example"), i, ttl)
        })
        .collect();
    let batch = FrameEncoder::new().encode_batch(&records).unwrap();
    let mut feed = TcpStream::connect(first.dns_addr()).unwrap();
    feed.write_all(&batch).unwrap();
    feed.flush().unwrap();
    drop(feed);
    assert!(
        wait_until(Duration::from_secs(10), || {
            first.correlator().stored_entries() >= 16
        }),
        "DNS records never reached the store: {:?}",
        first.snapshot()
    );
    let report = first.shutdown().unwrap();
    assert_eq!(report.metrics.snapshot.snapshots_written, 1);
    assert!(snapshot.exists(), "shutdown must persist the store");
    assert!(
        !part_path(&snapshot).exists(),
        "the atomic rename must consume (or replace) any .part file"
    );

    // ---- Run 2: restart against the snapshot, flows only. ----
    let second = IngestRuntime::start_in_memory(&config_with_snapshot(&snapshot)).unwrap();
    let stats = second.correlator().snapshot_stats();
    assert!(stats.warm_started(), "expected a warm start: {stats:?}");
    assert_eq!(stats.warm_start_entries, 16);

    // The very first traffic this run sees is NetFlow — not one DNS
    // record has been ingested.
    let sender = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sender
        .send_to(&v5_flows(0..16u8).encode().unwrap(), second.netflow_addr())
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            second.snapshot().pipeline.lookup.total() >= 16
        }),
        "flows never traversed the pipeline: {:?}",
        second.snapshot()
    );
    let report = second.shutdown().unwrap();
    assert_eq!(report.metrics.lookup.total(), 16);
    assert!(
        report.metrics.lookup.ip_hits > 0,
        "warm-started daemon answered no lookups from snapshotted state: {:?}",
        report.metrics.lookup
    );
    // With a quick restart every flow hits — the fill-up phase was
    // skipped entirely.
    assert_eq!(report.metrics.lookup.ip_hits, 16);
    assert_eq!(report.metrics.lookup.ip_misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_snapshot_is_rejected_by_checksum_and_daemon_starts_cold() {
    let dir = std::env::temp_dir().join("flowdns-snapshot-torn-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("store.fdns");

    // Produce a valid snapshot, then tear it (simulating a crash of a
    // non-atomic writer / disk truncation).
    let first = IngestRuntime::start_in_memory(&config_with_snapshot(&snapshot)).unwrap();
    let batch = FrameEncoder::new()
        .encode_batch(&[dns_record("svc.cdn.example", 1, 86_400)])
        .unwrap();
    let mut feed = TcpStream::connect(first.dns_addr()).unwrap();
    feed.write_all(&batch).unwrap();
    feed.flush().unwrap();
    drop(feed);
    assert!(wait_until(Duration::from_secs(10), || {
        first.correlator().stored_entries() >= 1
    }));
    first.shutdown().unwrap();
    let bytes = std::fs::read(&snapshot).unwrap();
    std::fs::write(&snapshot, &bytes[..bytes.len() - 3]).unwrap();

    // The restart must come up cold — serving traffic, not dying — with
    // the rejection recorded for the operator.
    let second = IngestRuntime::start_in_memory(&config_with_snapshot(&snapshot)).unwrap();
    let stats = second.correlator().snapshot_stats();
    assert!(!stats.warm_started());
    assert!(
        stats
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("warm start")),
        "expected a recorded rejection: {stats:?}"
    );
    assert_eq!(second.correlator().stored_entries(), 0);
    // A clean shutdown replaces the torn file with a valid one.
    second.shutdown().unwrap();
    assert!(flowdns::snapshot::read_snapshot(&snapshot).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_start_timing_is_served_per_phase() {
    let dir = std::env::temp_dir().join("flowdns-snapshot-timing-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("store.fdns");
    let phase = |rt: &IngestRuntime, phase: &str| {
        rt.registry()
            .snapshot()
            .gauge_with("flowdns_snapshot_warm_start_seconds", "phase", phase)
            .unwrap_or_else(|| panic!("no warm-start series for phase {phase}"))
    };

    // A cold start serves both phases as 0.
    let first = IngestRuntime::start_in_memory(&config_with_snapshot(&snapshot)).unwrap();
    assert_eq!(phase(&first, "read"), 0.0);
    assert_eq!(phase(&first, "import"), 0.0);
    let records: Vec<DnsRecord> = (0..8u8)
        .map(|i| dns_record(&format!("svc{i}.cdn.example"), i, 86_400))
        .collect();
    let batch = FrameEncoder::new().encode_batch(&records).unwrap();
    let mut feed = TcpStream::connect(first.dns_addr()).unwrap();
    feed.write_all(&batch).unwrap();
    drop(feed);
    assert!(wait_until(Duration::from_secs(10), || {
        first.correlator().stored_entries() >= 8
    }));
    first.shutdown().unwrap();

    // A warm start times both phases of its load and serves what it
    // recorded.
    let second = IngestRuntime::start_in_memory(&config_with_snapshot(&snapshot)).unwrap();
    let stats = second.correlator().snapshot_stats();
    assert_eq!(stats.warm_start_entries, 8, "{stats:?}");
    assert!(stats.warm_start_read_secs > 0.0, "{stats:?}");
    assert!(stats.warm_start_import_secs > 0.0, "{stats:?}");
    assert_eq!(phase(&second, "read"), stats.warm_start_read_secs);
    assert_eq!(phase(&second, "import"), stats.warm_start_import_secs);
    second.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
