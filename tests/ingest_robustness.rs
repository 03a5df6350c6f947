//! Robustness of the live listeners against hostile or broken peers.
//!
//! Feeds truncated and garbage datagrams into the UDP listener and cuts
//! TCP streams mid-frame; asserts the process never panics, malformed
//! counters increment, and the listeners keep serving well-formed traffic
//! afterwards. The property tests use the vendored `proptest` shim, so
//! the byte soup is deterministic across runs.

use std::io::Write as IoWrite;
use std::net::{Ipv4Addr, TcpStream, UdpSocket};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use flowdns::dns::framing::FrameEncoder;
use flowdns::ingest::{DaemonConfig, IngestRuntime};
use flowdns::netflow::template::Template;
use flowdns::netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder};
use flowdns::types::{DnsRecord, DomainName, SimTime};

/// The tests of this file run one at a time: one of them reads the
/// process's resident set size, which another test's runtime would move.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

fn valid_v9_packet() -> Vec<u8> {
    v9_packet_at(1, 1000)
}

/// A v9 datagram (template plus one flow) exported at `unix_secs`.
fn v9_packet_at(sequence: u32, unix_secs: u32) -> Vec<u8> {
    let template = Template::standard_ipv4(256);
    let mut b = V9PacketBuilder::new(1, sequence, unix_secs);
    b.add_templates(std::slice::from_ref(&template));
    b.add_data(
        &template,
        &[encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 8),
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            50_000,
            6,
            1_234,
            7,
            0,
            1,
        )],
    )
    .unwrap();
    b.build(1)
}

#[test]
fn crafted_bad_inputs_are_counted_and_survived() {
    let _serial = serial();
    let rt = IngestRuntime::start_in_memory(&loopback_config()).expect("start runtime");
    let nf = rt.netflow_addr();
    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();

    // Unknown version word, truncated v9 header, truncated v5 body, and a
    // v9 packet with a flowset running past the end: all malformed.
    let valid = valid_v9_packet();
    let mut overrun = valid.clone();
    overrun[22] = 0xFF; // inflate the first flowset length
    overrun[23] = 0xFF;
    let bad: Vec<Vec<u8>> = vec![
        vec![0xde, 0xad, 0xbe, 0xef],
        vec![0x00], // too short even for a version word
        valid[..10].to_vec(),
        {
            let mut v5ish = vec![0x00, 0x05];
            v5ish.extend_from_slice(&[0u8; 10]);
            v5ish
        },
        overrun,
    ];
    for datagram in &bad {
        sender.send_to(datagram, nf).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.snapshot().summary.netflow_malformed >= bad.len() as u64
        }),
        "malformed counter stuck: {:?}",
        rt.snapshot()
    );

    // ---- TCP: a stream cut mid-frame, then an oversized length prefix. ----
    let record = DnsRecord::address(
        SimTime::from_secs(900),
        DomainName::literal("ok.example"),
        Ipv4Addr::new(203, 0, 113, 8).into(),
        300,
    );
    let frame = FrameEncoder::new()
        .encode_batch(std::slice::from_ref(&record))
        .unwrap();
    {
        // Cut after 6 bytes of the frame; the handler must just end the
        // stream, buffered partial bytes discarded.
        let mut cut = TcpStream::connect(rt.dns_addr()).unwrap();
        cut.write_all(&frame[..6]).unwrap();
        cut.flush().unwrap();
    }
    {
        // A length prefix beyond MAX_FRAME_LEN is a malformed stream.
        let mut hostile = TcpStream::connect(rt.dns_addr()).unwrap();
        hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
        hostile.flush().unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || {
                rt.snapshot().summary.dns_malformed_streams >= 1
            }),
            "malformed stream never counted: {:?}",
            rt.snapshot()
        );
    }

    // ---- Both listeners still serve well-formed traffic. DNS first and
    // into the store, so the flow that follows is guaranteed a hit. ----
    let mut good = TcpStream::connect(rt.dns_addr()).unwrap();
    good.write_all(&frame).unwrap();
    good.flush().unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.correlator().stored_entries() >= 1
        }),
        "DNS listener stopped serving after garbage: {:?}",
        rt.snapshot()
    );
    sender.send_to(&valid_v9_packet(), nf).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.snapshot().summary.netflow_flows >= 1
        }),
        "NetFlow listener stopped serving after garbage: {:?}",
        rt.snapshot()
    );
    drop(good);

    let report = rt.shutdown().expect("clean shutdown");
    let ingest = &report.metrics.ingest;
    assert!(ingest.netflow_malformed >= bad.len() as u64);
    assert!(ingest.dns_malformed_streams >= 1);
    assert_eq!(ingest.netflow_flows, 1);
    assert_eq!(ingest.dns_records, 1);
    assert_eq!(report.metrics.write.records_written, 1);
    assert_eq!(report.metrics.lookup.ip_hits, 1);
}

/// One write holding good frames and then a malformed one: the handler
/// routes and counts the good records before it counts the stream
/// malformed and closes it.
#[test]
fn good_frames_before_a_bad_one_are_routed() {
    const GOOD: u8 = 5;
    let _serial = serial();
    let rt = IngestRuntime::start_in_memory(&loopback_config()).expect("start runtime");
    let records: Vec<DnsRecord> = (1..=GOOD)
        .map(|i| {
            DnsRecord::address(
                SimTime::from_secs(900),
                DomainName::literal(&format!("ok{i}.example")),
                Ipv4Addr::new(203, 0, 113, i).into(),
                300,
            )
        })
        .collect();
    let encoder = FrameEncoder::new();
    let mut wire = encoder.encode_batch(&records).unwrap().to_vec();
    let mut bad = encoder.encode_batch(&records[..1]).unwrap().to_vec();
    bad[18] = 99; // the answer tag (offset 4 + 8 + 4 + 2): unknown
    wire.extend_from_slice(&bad);

    let mut stream = TcpStream::connect(rt.dns_addr()).unwrap();
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            rt.snapshot().summary.dns_malformed_streams >= 1
                && rt.correlator().stored_entries() >= usize::from(GOOD)
        }),
        "good records before the bad frame were not routed: {:?}",
        rt.snapshot()
    );
    drop(stream);

    let report = rt.shutdown().expect("clean shutdown");
    let ingest = &report.metrics.ingest;
    assert_eq!(ingest.dns_records, u64::from(GOOD));
    assert_eq!(ingest.dns_malformed_streams, 1);
    assert_eq!(report.metrics.dns_dropped, 0);
}

/// A size field of this process's `/proc/self/status` (`VmRSS`,
/// `VmSize`), in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"))
}

/// A flow stamped at the Unix epoch followed by one stamped in 2025 is
/// two flows to count, whatever the 56 years of data time between them:
/// the per-feed accounting must do no work, and keep no memory, in
/// proportion to a jump of the exporter's clock.
#[test]
fn a_data_time_jump_is_counted_without_a_stall() {
    let _serial = serial();
    let rt = IngestRuntime::start_in_memory(&loopback_config()).expect("start runtime");
    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    let send_and_count = |sequence: u32, unix_secs: u32| {
        sender
            .send_to(&v9_packet_at(sequence, unix_secs), rt.netflow_addr())
            .unwrap();
        let counted = wait_until(Duration::from_secs(5), || {
            let feed = rt.registry().snapshot();
            feed.counter_with("flowdns_ingest_records_total", "feed", "netflow") >= sequence as u64
        });
        assert!(counted, "flow {sequence} not counted: {:?}", rt.snapshot());
    };
    // The first flow also warms the pipeline up, so the RSS baseline
    // already holds whatever the runtime touches on its first record.
    send_and_count(1, 0);
    let rss_before = status_kib("VmRSS");
    let started = Instant::now();
    send_and_count(2, 1_760_000_000);
    let elapsed = started.elapsed();
    let grown_kib = status_kib("VmRSS").saturating_sub(rss_before);
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    assert!(
        grown_kib < 128 * 1024,
        "VmRSS grew by {} MiB counting two flows",
        grown_kib / 1024
    );
    let report = rt.shutdown().expect("clean shutdown");
    assert_eq!(report.metrics.ingest.netflow_flows, 2);
}

/// A resolver that reconnects for every handful of records must not
/// leave rings or threads behind: 200 short connections, one after
/// another, 16 records each on 4 shards, hold the FillUp ring segments of
/// about one connection, not of 200 (one segment per DNS lane, about
/// 312 KB a connection, when every connection registered its own rings).
/// On Linux the address space is checked too: a handler thread that has
/// exited but is never joined keeps its stack mapped, about 3 MB a
/// connection. The baseline is taken after a few warm-up connections,
/// once the pipeline's threads have allocated: glibc gives each thread
/// that allocates its own malloc arena, 64 MiB of reserved address space,
/// about 500 MiB in all, whatever the handlers do.
#[test]
fn reconnecting_resolvers_leave_no_rings_behind() {
    const CONNECTIONS: u32 = 200;
    const RECORDS: u32 = 16;
    const WARM_UP: u32 = 10;
    let _serial = serial();
    let mut cfg = loopback_config();
    cfg.correlator.correlator_shards = 4;
    let rt = IngestRuntime::start_in_memory(&cfg).expect("start runtime");
    let encoder = FrameEncoder::new();
    let mut vm_size_before = None;
    for conn in 0..CONNECTIONS {
        if conn == WARM_UP && cfg!(target_os = "linux") {
            wait_until(Duration::from_secs(10), || {
                rt.correlator().queue_depths().0 == 0
            });
            vm_size_before = Some(status_kib("VmSize"));
        }
        let records: Vec<DnsRecord> = (0..RECORDS)
            .map(|i| {
                DnsRecord::address(
                    SimTime::from_secs(900),
                    DomainName::literal("churn.example"),
                    Ipv4Addr::from(0xcb00_7100 + conn * RECORDS + i).into(),
                    300,
                )
            })
            .collect();
        let frames = encoder.encode_batch(&records).unwrap();
        let mut stream = TcpStream::connect(rt.dns_addr()).unwrap();
        stream.write_all(&frames).unwrap();
        drop(stream);
        let delivered = u64::from((conn + 1) * RECORDS);
        assert!(
            wait_until(Duration::from_secs(10), || {
                rt.snapshot().summary.dns_records >= delivered
            }),
            "connection {conn} not counted: {:?}",
            rt.snapshot()
        );
    }
    let resident =
        rt.registry()
            .snapshot()
            .gauge_sum_with("flowdns_queue_resident_bytes", "queue", "fillup");
    assert!(
        resident <= 1_000_000.0,
        "{CONNECTIONS} closed connections left {:.1} MB of FillUp ring segments",
        resident / 1e6
    );
    if let Some(before) = vm_size_before {
        let grown_kib = status_kib("VmSize").saturating_sub(before);
        assert!(
            grown_kib <= 100 * 1024,
            "{} closed connections grew VmSize by {} MiB",
            CONNECTIONS - WARM_UP,
            grown_kib / 1024
        );
    }
    let report = rt.shutdown().expect("clean shutdown");
    assert_eq!(
        report.metrics.ingest.dns_records,
        u64::from(CONNECTIONS * RECORDS)
    );
    assert_eq!(report.metrics.dns_dropped, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Arbitrary byte soup over UDP and TCP never panics a listener and
    // never stops the runtime from shutting down cleanly.
    #[test]
    fn random_garbage_never_kills_the_listeners(
        datagrams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120), 1..12),
        tcp_chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..80), 1..6),
    ) {
        let _serial = serial();
        let rt = IngestRuntime::start_in_memory(&loopback_config()).unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        for d in &datagrams {
            sender.send_to(d, rt.netflow_addr()).unwrap();
        }
        let mut conn = TcpStream::connect(rt.dns_addr()).unwrap();
        for chunk in &tcp_chunks {
            if conn.write_all(chunk).is_err() {
                break; // handler already rejected the stream — fine
            }
        }
        drop(conn);
        // Every datagram is either decoded or counted malformed; nothing
        // vanishes and nothing panics.
        let sent = datagrams.len() as u64;
        wait_until(Duration::from_secs(10), || {
            let s = rt.snapshot().summary;
            s.netflow_datagrams + s.netflow_malformed >= sent
        });
        let report = rt.shutdown().unwrap();
        let ingest = report.metrics.ingest;
        prop_assert_eq!(ingest.netflow_datagrams + ingest.netflow_malformed, sent);
    }
}
