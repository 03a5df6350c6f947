//! Loopback integration test of the live ingestion subsystem.
//!
//! Spawns an [`IngestRuntime`] on ephemeral ports and feeds it exactly
//! what a real deployment would see: NetFlow v5 and v9 datagrams over UDP
//! from several exporter sockets (template-before-data and
//! data-before-template orderings, plus two exporters reusing the same
//! template id with **different** field layouts) and a framed DNS
//! cache-miss feed over TCP (including a frame split across writes).
//! Asserts that correlated records come out of the Write stage and that
//! data-before-template is counted as a drop, not an error.

use std::io::Write as IoWrite;
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

use flowdns::dns::framing::FrameEncoder;
use flowdns::ingest::{DaemonConfig, IngestRuntime};
use flowdns::netflow::template::{FieldSpec, FieldType, Template};
use flowdns::netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder};
use flowdns::netflow::{V5Header, V5Packet, V5Record};
use flowdns::types::{DnsRecord, DomainName, SimTime};

fn loopback_config() -> DaemonConfig {
    let mut cfg = DaemonConfig::default();
    cfg.ingest.netflow_bind = "127.0.0.1:0".parse().unwrap();
    cfg.ingest.dns_bind = "127.0.0.1:0".parse().unwrap();
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

fn send_udp(target: SocketAddr, payload: &[u8]) -> UdpSocket {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind sender socket");
    socket.send_to(payload, target).expect("send datagram");
    socket
}

fn dns_record(name: &str, ip: [u8; 4]) -> DnsRecord {
    DnsRecord::address(
        SimTime::from_secs(900),
        DomainName::literal(name),
        Ipv4Addr::from(ip).into(),
        3600,
    )
}

/// A v9 template reusing id 256 with a field layout *different* from
/// [`Template::standard_ipv4`]: other order, other lengths, 15-byte
/// records instead of 29.
fn exotic_template() -> Template {
    Template {
        id: 256,
        fields: vec![
            FieldSpec {
                ftype: FieldType::InBytes,
                length: 4,
            },
            FieldSpec {
                ftype: FieldType::L4DstPort,
                length: 2,
            },
            FieldSpec {
                ftype: FieldType::Ipv4DstAddr,
                length: 4,
            },
            FieldSpec {
                ftype: FieldType::Ipv4SrcAddr,
                length: 4,
            },
            FieldSpec {
                ftype: FieldType::Protocol,
                length: 1,
            },
        ],
    }
}

fn exotic_record(src: Ipv4Addr, bytes: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(15);
    out.extend_from_slice(&bytes.to_be_bytes());
    out.extend_from_slice(&443u16.to_be_bytes());
    out.extend_from_slice(&Ipv4Addr::new(10, 0, 0, 9).octets());
    out.extend_from_slice(&src.octets());
    out.push(6);
    out
}

/// One shard: every record funnels through a single worker's rings.
#[test]
fn live_ingest_correlates_over_real_sockets() {
    run_live_ingest(1);
}

/// The same loopback exercise across shards: listener threads route
/// per-shard through their own `ShardRouter`s, and the per-shard routed
/// counters must account for every accepted record.
#[test]
fn live_ingest_correlates_with_sharded_correlator() {
    run_live_ingest(2);
}

fn run_live_ingest(correlator_shards: usize) {
    let mut config = loopback_config();
    config.correlator.correlator_shards = correlator_shards;
    let rt = IngestRuntime::start_in_memory(&config).expect("start runtime");

    // ---- DNS feed over TCP: two resolver connections. ----
    let encoder = FrameEncoder::new();
    let batch_a = encoder
        .encode_batch(&[
            dns_record("v5a.cdn.example", [203, 0, 113, 1]),
            dns_record("v5b.cdn.example", [203, 0, 113, 2]),
        ])
        .unwrap();
    let mut conn_a = TcpStream::connect(rt.dns_addr()).expect("connect resolver a");
    // Worst-case socket behaviour: a frame split mid-message across two
    // writes with a pause in between.
    conn_a.write_all(&batch_a[..10]).unwrap();
    conn_a.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    conn_a.write_all(&batch_a[10..]).unwrap();
    conn_a.flush().unwrap();

    let batch_b = encoder
        .encode_batch(&[
            dns_record("v9a.cdn.example", [203, 0, 113, 3]),
            dns_record("v9b.cdn.example", [203, 0, 113, 4]),
        ])
        .unwrap();
    let mut conn_b = TcpStream::connect(rt.dns_addr()).expect("connect resolver b");
    conn_b.write_all(&batch_b).unwrap();
    conn_b.flush().unwrap();

    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.correlator().stored_entries() >= 4
        }),
        "DNS records never reached the store: {:?}",
        rt.snapshot()
    );

    // ---- NetFlow over UDP from four distinct exporter sockets. ----
    let nf = rt.netflow_addr();

    // Exporter 1: NetFlow v5 (fixed layout, auto-detected).
    let v5 = V5Packet {
        header: V5Header {
            unix_secs: 1000,
            ..Default::default()
        },
        records: vec![
            V5Record {
                src_addr: Ipv4Addr::new(203, 0, 113, 1),
                dst_addr: Ipv4Addr::new(10, 0, 0, 1),
                packets: 10,
                octets: 1_000,
                ..Default::default()
            },
            V5Record {
                src_addr: Ipv4Addr::new(203, 0, 113, 2),
                dst_addr: Ipv4Addr::new(10, 0, 0, 2),
                packets: 20,
                octets: 2_000,
                ..Default::default()
            },
        ],
    };
    let _e1 = send_udp(nf, &v5.encode().unwrap());

    // Exporter 2: v9, template-before-data in one packet, standard layout,
    // template id 256, source id 7.
    let standard = Template::standard_ipv4(256);
    let mut pkt_a = V9PacketBuilder::new(7, 1, 1000);
    pkt_a.add_templates(std::slice::from_ref(&standard));
    pkt_a
        .add_data(
            &standard,
            &[encode_standard_ipv4_record(
                Ipv4Addr::new(203, 0, 113, 3),
                Ipv4Addr::new(10, 0, 0, 3),
                443,
                50_000,
                6,
                3_000,
                30,
                0,
                1,
            )],
        )
        .unwrap();
    let _e2 = send_udp(nf, &pkt_a.build(1));

    // Exporter 3: v9 with the SAME source id (7) and SAME template id
    // (256) but a different field layout — only per-exporter template
    // state can decode both correctly.
    let exotic = exotic_template();
    let mut pkt_b = V9PacketBuilder::new(7, 1, 1000);
    pkt_b.add_templates(std::slice::from_ref(&exotic));
    pkt_b
        .add_data(
            &exotic,
            &[exotic_record(Ipv4Addr::new(203, 0, 113, 4), 4_000)],
        )
        .unwrap();
    let _e3 = send_udp(nf, &pkt_b.build(1));

    // Exporter 4: data-before-template — must be counted as a drop, not
    // an error, and not crash anything.
    let mut pkt_c = V9PacketBuilder::new(9, 1, 1000);
    pkt_c
        .add_data(
            &standard,
            &[encode_standard_ipv4_record(
                Ipv4Addr::new(198, 51, 100, 77),
                Ipv4Addr::new(10, 0, 0, 4),
                443,
                50_001,
                6,
                9_999,
                5,
                0,
                1,
            )],
        )
        .unwrap();
    let _e4 = send_udp(nf, &pkt_c.build(1));

    assert!(
        wait_until(Duration::from_secs(10), || {
            let s = rt.snapshot().summary;
            s.netflow_flows >= 4 && s.netflow_unknown_template_drops >= 1 && s.dns_records >= 4
        }),
        "ingest counters never converged: {:?}",
        rt.snapshot()
    );

    drop(conn_a);
    drop(conn_b);

    // The per-shard routed counters must sum to exactly what the
    // listeners accepted — nothing lost, nothing double-routed. A
    // listener publishes its decode counters before it routes the
    // decoded batch, so wait for the routing to land too.
    let routed = || {
        rt.correlator()
            .shard_routed_counts()
            .expect("correlator exposes routed counters")
    };
    assert!(
        wait_until(Duration::from_secs(10), || {
            let (dns, flows) = routed();
            dns.iter().sum::<u64>() >= 4 && flows.iter().sum::<u64>() >= 4
        }),
        "decoded records were never routed: {:?}",
        routed()
    );
    let (dns_routed, flow_routed) = routed();
    assert_eq!(dns_routed.len(), correlator_shards);
    assert_eq!(dns_routed.iter().sum::<u64>(), 4);
    assert_eq!(flow_routed.iter().sum::<u64>(), 4);

    let report = rt.shutdown().expect("clean shutdown");

    // ≥ 1 correlated enriched record produced from bytes that entered via
    // UDP and TCP — in fact all four flows correlate.
    assert_eq!(report.metrics.write.records_written, 4);
    assert_eq!(report.metrics.lookup.ip_hits, 4);
    assert_eq!(report.metrics.lookup.ip_misses, 0);
    assert_eq!(report.volumes.total.bytes(), 1_000 + 2_000 + 3_000 + 4_000);
    assert!(report.correlation_rate_pct() > 99.0);

    // Ingest summary folded into core metrics.
    let ingest = &report.metrics.ingest;
    assert!(ingest.is_live());
    assert_eq!(ingest.netflow_datagrams, 4);
    assert_eq!(ingest.netflow_flows, 4);
    assert_eq!(ingest.netflow_malformed, 0);
    assert_eq!(ingest.netflow_unknown_template_drops, 1);
    assert_eq!(ingest.netflow_queue_drops, 0);
    assert_eq!(ingest.per_exporter.len(), 4);
    assert_eq!(ingest.dns_connections, 2);
    assert_eq!(ingest.dns_records, 4);
    assert_eq!(ingest.dns_malformed_streams, 0);
    assert_eq!(ingest.dns_queue_drops, 0);

    // The drop is attributed to the right exporter.
    let droppers: Vec<_> = ingest
        .per_exporter
        .iter()
        .filter(|e| e.unknown_template_drops > 0)
        .collect();
    assert_eq!(droppers.len(), 1);
    assert_eq!(droppers[0].flows, 0);

    // And the report's human summary mentions the live ingest line.
    assert!(report.summary().contains("netflow: 4 datagrams"));
}

#[test]
fn late_template_recovers_an_exporter() {
    // One exporter, data first (dropped), then template+data (decoded):
    // the per-exporter cache warms up exactly like a real collector's.
    let rt = IngestRuntime::start_in_memory(&loopback_config()).expect("start runtime");
    let nf = rt.netflow_addr();
    let standard = Template::standard_ipv4(300);
    let record = || {
        encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 50),
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            50_000,
            6,
            500,
            5,
            0,
            1,
        )
    };

    let exporter = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut data_only = V9PacketBuilder::new(3, 1, 1000);
    data_only.add_data(&standard, &[record()]).unwrap();
    exporter.send_to(&data_only.build(1), nf).unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        rt.snapshot().summary.netflow_unknown_template_drops == 1
    }));

    let mut with_template = V9PacketBuilder::new(3, 2, 1001);
    with_template.add_templates(std::slice::from_ref(&standard));
    with_template.add_data(&standard, &[record()]).unwrap();
    exporter.send_to(&with_template.build(2), nf).unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        rt.snapshot().summary.netflow_flows == 1
    }));

    let report = rt.shutdown().expect("clean shutdown");
    let ingest = &report.metrics.ingest;
    assert_eq!(ingest.per_exporter.len(), 1);
    assert_eq!(ingest.per_exporter[0].datagrams, 2);
    assert_eq!(ingest.per_exporter[0].flows, 1);
    assert_eq!(ingest.per_exporter[0].unknown_template_drops, 1);
    assert_eq!(ingest.netflow_malformed, 0);
    // No DNS was fed, so the flow goes through uncorrelated.
    assert_eq!(report.metrics.write.records_written, 1);
    assert_eq!(report.metrics.lookup.ip_misses, 1);
}

#[test]
fn skipped_records_are_counted_not_lost_silently() {
    // One datagram, two records: the first reports zero bytes and fails
    // the validity filter, the second is good. The datagram is accepted
    // (not malformed), and the record that yields no flow is counted.
    let rt = IngestRuntime::start_in_memory(&loopback_config()).expect("start runtime");
    let standard = Template::standard_ipv4(256);
    let record = |bytes: u32| {
        encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 60),
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            50_000,
            6,
            bytes,
            1,
            0,
            1,
        )
    };
    let mut pkt = V9PacketBuilder::new(5, 1, 1000);
    pkt.add_templates(std::slice::from_ref(&standard));
    pkt.add_data(&standard, &[record(0), record(800)]).unwrap();
    let _exporter = send_udp(rt.netflow_addr(), &pkt.build(1));
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.snapshot().summary.netflow_datagrams == 1
        }),
        "datagram never decoded: {:?}",
        rt.snapshot()
    );

    let report = rt.shutdown().expect("clean shutdown");
    let ingest = &report.metrics.ingest;
    assert_eq!(ingest.netflow_flows, 1);
    assert_eq!(ingest.netflow_skipped_records, 1);
    assert_eq!(ingest.netflow_malformed, 0);
    assert_eq!(ingest.per_exporter.len(), 1);
    assert_eq!(ingest.per_exporter[0].flows, 1);
    assert_eq!(ingest.per_exporter[0].skipped_records, 1);
    assert!(report.summary().contains("1 skipped records"));
    assert_eq!(report.metrics.write.records_written, 1);
}
