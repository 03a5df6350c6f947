//! Loopback integration test of the telemetry subsystem: a live
//! [`IngestRuntime`] with the scrape endpoint and flight recorder on,
//! fed real NetFlow v5 datagrams and a framed DNS feed, scraped over
//! real HTTP while traffic flows.
//!
//! Asserts the three routes work, the Prometheus exposition is
//! well-formed (every family announced by `# HELP`/`# TYPE` before its
//! samples), counters are monotonic across scrapes, the scraped totals
//! match the final shutdown report, and the flight recorder emitted
//! valid JSONL spans end-to-end.

use std::collections::HashMap;
use std::io::{Read, Write as IoWrite};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

use flowdns::dns::framing::FrameEncoder;
use flowdns::ingest::{DaemonConfig, IngestRuntime};
use flowdns::netflow::{V5Header, V5Packet, V5Record};
use flowdns::types::{DnsRecord, DomainName, SimTime};

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

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect scrape endpoint");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

/// Parse a Prometheus text exposition into sample values keyed by the
/// full series id (`name{labels}`), validating its structure: every
/// sample line belongs to a family previously announced with `# HELP`
/// and `# TYPE`, and every value parses as a float.
fn parse_exposition(body: &str) -> HashMap<String, f64> {
    let mut announced: Vec<String> = Vec::new();
    let mut samples = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP name");
            announced.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE name");
            let kind = parts.next().expect("TYPE kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind} for {name}"
            );
            assert!(
                announced.contains(&name.to_string()),
                "# TYPE {name} before its # HELP"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let name = series.split('{').next().unwrap();
        assert!(
            announced.iter().any(|a| {
                // Histogram samples use the family name + suffix.
                name == a
                    || name == format!("{a}_bucket")
                    || name == format!("{a}_sum")
                    || name == format!("{a}_count")
            }),
            "sample {name} was never announced: {line}"
        );
        let value: f64 = value.parse().unwrap_or_else(|_| {
            if value == "+Inf" {
                f64::INFINITY
            } else {
                panic!("unparseable value in: {line}")
            }
        });
        samples.insert(series.to_string(), value);
    }
    samples
}

fn dns_record(name: &str, ip: [u8; 4]) -> DnsRecord {
    DnsRecord::address(
        SimTime::from_secs(900),
        DomainName::literal(name),
        Ipv4Addr::from(ip).into(),
        3600,
    )
}

fn v5_wave(unix_secs: u32, flows: &[(Ipv4Addr, u32)]) -> Vec<u8> {
    V5Packet {
        header: V5Header {
            unix_secs,
            ..Default::default()
        },
        records: flows
            .iter()
            .map(|&(src, octets)| V5Record {
                src_addr: src,
                dst_addr: Ipv4Addr::new(10, 0, 0, 1),
                packets: 1,
                octets,
                ..Default::default()
            })
            .collect(),
    }
    .encode()
    .unwrap()
}

#[test]
fn scrape_endpoint_tracks_live_traffic_and_traces_flows() {
    let dir = std::env::temp_dir().join(format!("flowdns-metrics-endpoint-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    // A routing table so the BGP gauges register and spans get stamped.
    let rib = dir.join("rib.txt");
    std::fs::write(&rib, "# test table\n203.0.113.0/24 64510\n").unwrap();
    let mut cfg = DaemonConfig::default();
    cfg.ingest.netflow_bind = "127.0.0.1:0".parse().unwrap();
    cfg.ingest.dns_bind = "127.0.0.1:0".parse().unwrap();
    cfg.ingest.metrics_addr = Some("127.0.0.1:0".parse().unwrap());
    cfg.correlator.routing_table = Some(rib.to_string_lossy().into_owned());
    cfg.correlator.trace_sample_every = 1; // trace every flow
    cfg.correlator.trace_path = Some(trace_path.to_string_lossy().into_owned());

    let rt = IngestRuntime::start_in_memory(&cfg).expect("start runtime");
    let metrics = rt.metrics_addr().expect("metrics endpoint bound");

    // ---- Wave 1: 2 DNS records, 3 flows that resolve against them. ----
    let encoder = FrameEncoder::new();
    let mut conn = TcpStream::connect(rt.dns_addr()).expect("connect resolver");
    conn.write_all(
        &encoder
            .encode_batch(&[
                dns_record("a.cdn.example", [203, 0, 113, 1]),
                dns_record("b.cdn.example", [203, 0, 113, 2]),
            ])
            .unwrap(),
    )
    .unwrap();
    conn.flush().unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.correlator().stored_entries() >= 2
        }),
        "DNS records never reached the store"
    );

    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    sender
        .send_to(
            &v5_wave(
                1000,
                &[
                    (Ipv4Addr::new(203, 0, 113, 1), 1_000),
                    (Ipv4Addr::new(203, 0, 113, 2), 2_000),
                    (Ipv4Addr::new(203, 0, 113, 1), 3_000),
                ],
            ),
            rt.netflow_addr(),
        )
        .unwrap();

    // Scrape while the first wave settles; the scrape itself must agree
    // with the pipeline once its workers idle-flush.
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.registry()
                .snapshot()
                .counter("flowdns_egress_records_total")
                == 3
        }),
        "first wave never reached egress (per the registry)"
    );
    let (code, body1) = http_get(metrics, "/metrics");
    assert_eq!(code, 200);
    let scrape1 = parse_exposition(&body1);

    // The exposition covers every subsystem named in the issue.
    for family in [
        "flowdns_ingest_netflow_datagrams_total{listener=\"0\"}",
        "flowdns_ingest_dns_records_total",
        "flowdns_queue_dropped_total{queue=\"fillup\",shard=\"0\"}",
        "flowdns_queue_depth{queue=\"lookup\",shard=\"3\"}",
        "flowdns_shard_routed_total{queue=\"lookup\",shard=\"0\"}",
        "flowdns_fillup_records_total{kind=\"addresses\"}",
        "flowdns_lookup_flows_total{result=\"ip_hit\"}",
        "flowdns_egress_records_total",
        "flowdns_egress_queue_depth{shard=\"0\"}",
        "flowdns_snapshots_written_total",
        "flowdns_bgp_routing_epoch",
        "flowdns_trace_spans_total",
    ] {
        assert!(scrape1.contains_key(family), "missing series {family}");
    }
    // Histograms for queue wait and per-stage service time exist with
    // the +Inf bucket and a count.
    for series in [
        "flowdns_queue_wait_us_bucket{queue=\"lookup\",shard=\"0\",le=\"+Inf\"}",
        "flowdns_stage_service_us_count{stage=\"lookup\"}",
        "flowdns_stage_service_us_count{stage=\"write\"}",
    ] {
        assert!(scrape1.contains_key(series), "missing series {series}");
    }
    assert_eq!(scrape1["flowdns_egress_records_total"], 3.0);
    assert_eq!(
        scrape1["flowdns_ingest_records_total{feed=\"netflow\"}"], 3.0,
        "feed totals disagree with the wave"
    );

    // ---- The other two routes, while traffic is live. ----
    let (code, health) = http_get(metrics, "/healthz");
    assert_eq!(code, 200, "healthy pipeline: {health}");
    let (code, json) = http_get(metrics, "/stats.json");
    assert_eq!(code, 200);
    assert!(json.trim_start().starts_with('{'), "not JSON: {json}");
    assert!(json.contains("\"flowdns_egress_records_total\""));

    // ---- Wave 2, then a second scrape: counters are monotonic. ----
    sender
        .send_to(
            &v5_wave(1010, &[(Ipv4Addr::new(203, 0, 113, 2), 4_000)]),
            rt.netflow_addr(),
        )
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.registry()
                .snapshot()
                .counter("flowdns_egress_records_total")
                == 4
        }),
        "second wave never reached egress"
    );
    let (_, body2) = http_get(metrics, "/metrics");
    let scrape2 = parse_exposition(&body2);
    let mut counters_checked = 0usize;
    for (series, &v1) in &scrape1 {
        // Counter families end in _total / _bucket / _count / _sum by
        // convention in this exposition; gauges may go up or down.
        let monotonic = ["_total", "_bucket", "_count", "_sum"]
            .iter()
            .any(|suffix| series.split('{').next().unwrap().ends_with(suffix));
        if !monotonic {
            continue;
        }
        let v2 = *scrape2
            .get(series)
            .unwrap_or_else(|| panic!("series {series} vanished between scrapes"));
        assert!(v2 >= v1, "counter {series} went backwards: {v1} -> {v2}");
        counters_checked += 1;
    }
    assert!(counters_checked > 30, "only {counters_checked} counters");
    assert_eq!(scrape2["flowdns_egress_records_total"], 4.0);

    // ---- Shutdown: scraped totals match the final report. ----
    drop(conn);
    let report = rt.shutdown().expect("clean shutdown");
    assert_eq!(report.metrics.write.records_written, 4);
    assert_eq!(
        scrape2["flowdns_egress_records_total"] as u64,
        report.metrics.write.records_written,
    );
    assert_eq!(
        scrape2["flowdns_ingest_netflow_datagrams_total{listener=\"0\"}"] as u64,
        report.metrics.ingest.netflow_datagrams,
    );
    assert_eq!(
        scrape2["flowdns_ingest_dns_records_total"] as u64,
        report.metrics.ingest.dns_records,
    );
    assert_eq!(
        scrape2["flowdns_fillup_records_total{kind=\"addresses\"}"] as u64,
        report.metrics.fillup.addresses_stored,
    );

    // ---- The flight recorder emitted valid JSONL spans end-to-end. ----
    let spans = std::fs::read_to_string(&trace_path).expect("trace file");
    let lines: Vec<&str> = spans.lines().collect();
    assert_eq!(lines.len(), 4, "one span per flow: {spans}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "\"trace_id\":",
            "\"decode_us\":",
            "\"enqueue_us\":",
            "\"queue_wait_us\":",
            "\"lookup_us\":",
            "\"egress_us\":",
            "\"total_us\":",
            "\"asn_stamped\":",
            "\"shard\":",
        ] {
            assert!(line.contains(key), "span missing {key}: {line}");
        }
        // All sources sit in the RIB's 203.0.113.0/24, so every span
        // records a successful origin-AS stamp.
        assert!(line.contains("\"asn_stamped\":true"), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_reports_queue_saturation() {
    // A pipeline with tiny queues and no traffic is healthy; this guards
    // the 200 path and the detail text (the 503 path is unit-tested in
    // the obs crate against a synthetic probe).
    let mut cfg = DaemonConfig::default();
    cfg.ingest.netflow_bind = "127.0.0.1:0".parse().unwrap();
    cfg.ingest.dns_bind = "127.0.0.1:0".parse().unwrap();
    cfg.ingest.metrics_addr = Some("127.0.0.1:0".parse().unwrap());
    let rt = IngestRuntime::start_in_memory(&cfg).expect("start runtime");
    let (code, body) = http_get(rt.metrics_addr().unwrap(), "/healthz");
    assert_eq!(code, 200);
    assert!(body.contains("fillup"), "detail names the queues: {body}");
    rt.shutdown().expect("clean shutdown");
}
