//! Cross-crate integration tests: generator → wire formats → correlator →
//! analysis, exercised through the public facade crate and
//! `flowdns_bench::analysis`.

use flowdns::core::simulate::Event;
use flowdns::core::{Correlator, CorrelatorConfig, OfflineSimulator, Variant};
use flowdns::dns::{FrameDecoder, FrameEncoder};
use flowdns::gen::workload::StreamEvent;
use flowdns::gen::{Workload, WorkloadConfig};
use flowdns::netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder, V9Parser};
use flowdns::netflow::{ExtractorConfig, FlowExtractor, Template};
use flowdns::types::{DnsRecord, DomainName, FlowRecord, SimDuration, SimTime};
use flowdns_bench::analysis::CardinalityAnalysis;
use std::net::Ipv4Addr;

fn to_event(e: StreamEvent) -> Event {
    match e {
        StreamEvent::Dns(r) => Event::Dns(r),
        StreamEvent::Flow(f) => Event::Flow(f),
    }
}

fn small_workload(minutes: u64) -> Workload {
    let mut cfg = WorkloadConfig::small();
    cfg.duration = SimDuration::from_secs(minutes * 60);
    Workload::new(cfg)
}

#[test]
fn generated_workload_correlates_in_paper_ballpark_offline() {
    let workload = small_workload(30);
    let sim = OfflineSimulator::new(CorrelatorConfig::default());
    let outcome = sim.run_with(workload.events().map(to_event), |_| {});
    let rate = outcome.report.correlation_rate_pct();
    // The generator targets 0.86 x 0.95 ~ 82%; leave generous slack for a
    // short trace.
    assert!(rate > 65.0 && rate < 95.0, "correlation rate {rate}");
    assert!(outcome.report.metrics.flow_loss_pct() < 1.0);
    assert!(outcome.report.metrics.dns_loss_pct() < 1.0);
    assert!(!outcome.hourly.is_empty());
}

#[test]
fn offline_and_threaded_pipelines_agree_on_correlation() {
    let workload = small_workload(10);
    let events: Vec<Event> = workload.events().map(to_event).collect();

    let offline = OfflineSimulator::new(CorrelatorConfig::default()).run(&events);

    let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
    // Feed DNS slightly ahead of flows per timestamp order: the events are
    // already time-ordered, which is what the live streams deliver too. A
    // live deployment delivers them in real time, so FillUp keeps pace with
    // the flow stream; replaying at full speed instead lets flows overtake
    // their DNS records whenever the scheduler starves the shard workers.
    // Draining the DNS rings before each flow restores the real-time
    // ordering without hiding genuine pipeline races (the handful of
    // popped-but-not-yet-stored records stays within the slack below).
    let (mut dns, mut flows) = (correlator.dns_router(), correlator.flow_router());
    for event in &events {
        match event {
            Event::Dns(record) => {
                dns.route(record.clone());
            }
            Event::Flow(flow) => {
                while correlator.queue_depths().0 > 0 {
                    std::thread::yield_now();
                }
                flows.route(flow.clone());
            }
        }
    }
    let live = correlator.finish().unwrap();

    let diff = (offline.report.correlation_rate_pct() - live.correlation_rate_pct()).abs();
    // Thread scheduling can reorder lookups relative to fills, so allow a
    // few percent of slack — but the two paths must tell the same story.
    assert!(
        diff < 6.0,
        "offline {:.1}% vs live {:.1}%",
        offline.report.correlation_rate_pct(),
        live.correlation_rate_pct()
    );
    assert_eq!(
        live.metrics.write.records_written,
        offline.report.metrics.write.records_written
    );
}

#[test]
fn variant_ordering_matches_the_paper() {
    let workload = small_workload(45);
    let events: Vec<Event> = workload.events().map(to_event).collect();
    let run = |variant: Variant| {
        OfflineSimulator::new(CorrelatorConfig::for_variant(variant))
            .run(&events)
            .report
            .correlation_rate_pct()
    };
    let main = run(Variant::Main);
    let no_clear_up = run(Variant::NoClearUp);
    let no_rotation = run(Variant::NoRotation);
    let no_split = run(Variant::NoSplit);
    // Paper: NoClearUp >= Main = NoSplit >= NoLong >= NoRotation.
    assert!(no_clear_up >= main - 1e-9);
    // Splitting only changes which shard a record lands in, not whether it
    // is found; per-split clear-up clocks introduce sub-percent jitter.
    assert!(
        (no_split - main).abs() < 0.5,
        "NoSplit {no_split} vs Main {main}"
    );
    assert!(no_rotation <= main + 1e-9);
}

#[test]
fn wire_format_ingestion_end_to_end() {
    // Build the resolver's CNAME + A records and a NetFlow v9 packet,
    // cross the resolver-feed framing, and correlate.
    let shop = DomainName::literal("www.wire.example");
    let edge = DomainName::literal("edge.wire-cdn.example");
    let ts = SimTime::from_secs(1);
    let records = vec![
        DnsRecord::cname(ts, shop, edge.clone(), 300),
        DnsRecord::address(ts, edge, Ipv4Addr::new(100, 99, 1, 1).into(), 120),
    ];

    // Push the records through the length-prefixed resolver-feed framing.
    let framed = FrameEncoder::new().encode_batch(&records).unwrap();
    let mut decoder = FrameDecoder::new();
    let delivered: Vec<DnsRecord> = decoder.feed(&framed).unwrap();
    assert_eq!(delivered, records);

    // NetFlow v9 packet carrying one flow from the announced edge IP.
    let template = Template::standard_ipv4(256);
    let mut builder = V9PacketBuilder::new(9, 0, 100);
    builder.add_templates(std::slice::from_ref(&template));
    builder
        .add_data(
            &template,
            &[encode_standard_ipv4_record(
                Ipv4Addr::new(100, 99, 1, 1),
                Ipv4Addr::new(10, 0, 0, 7),
                443,
                51_000,
                6,
                1_000_000,
                700,
                0,
                1,
            )],
        )
        .unwrap();
    let mut parser = V9Parser::new();
    let packet = parser.parse(&builder.build(0)).unwrap();
    let mut extractor = FlowExtractor::new(ExtractorConfig::default());
    let flows = extractor.from_v9(&packet);
    assert_eq!(flows.len(), 1);

    let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
    correlator.dns_router().route_batch(delivered);
    while correlator.queue_depths().0 > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    correlator.flow_router().route_batch(flows);
    let report = correlator.finish().unwrap();
    assert_eq!(report.metrics.lookup.ip_hits, 1);
    assert!(report.correlation_rate_pct() > 99.0);
    // The CNAME chain was followed back to the customer-facing name.
    assert_eq!(report.metrics.lookup.cname_hops, 1);
}

#[test]
fn exact_ttl_variant_loses_data_where_main_does_not() {
    let mut cfg = WorkloadConfig::small();
    cfg.duration = SimDuration::from_secs(1200);
    cfg.peak_flows_per_sec = 40.0;
    let workload = Workload::new(cfg);
    let events: Vec<Event> = workload.events().map(to_event).collect();

    let main = OfflineSimulator::new(CorrelatorConfig::for_variant(Variant::Main)).run(&events);
    let exact = OfflineSimulator::exact_ttl(CorrelatorConfig::default()).run(&events);

    assert!(main.report.metrics.flow_loss_pct() < 2.0);
    assert!(
        exact.report.metrics.flow_loss_pct() > 30.0,
        "exact-TTL should overload: {:.1}%",
        exact.report.metrics.flow_loss_pct()
    );
    assert!(exact.mean_cpu_pct() > main.mean_cpu_pct());
}

#[test]
fn cardinality_analysis_over_generated_dns_matches_paper_shape() {
    let workload = small_workload(60);
    let mut analysis = CardinalityAnalysis::new();
    for event in workload.events() {
        if let StreamEvent::Dns(record) = event {
            analysis.observe(&record);
        }
    }
    assert!(analysis.ip_count() > 50);
    // Most IPs carry a single name; a minority of names span several IPs.
    assert!(analysis.single_name_ip_share() > 0.75);
    assert!(analysis.multi_ip_name_share() < 0.7);
}

#[test]
fn config_file_round_trip_drives_the_pipeline() {
    let text = "
# integration-test deployment
cname_loop_limit = 4
correlator_shards = 2
write_workers = 1
variant = Main
";
    let config = CorrelatorConfig::from_config_text(text).unwrap();
    assert_eq!(config.cname_loop_limit, 4);
    assert_eq!(config.correlator_shards, 2);
    let correlator = Correlator::start(config).unwrap();
    correlator.dns_router().route(DnsRecord::address(
        SimTime::from_secs(1),
        DomainName::literal("cfg.example"),
        Ipv4Addr::new(100, 80, 0, 1).into(),
        60,
    ));
    while correlator.queue_depths().0 > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(10));
    correlator.flow_router().route(FlowRecord::inbound(
        SimTime::from_secs(2),
        Ipv4Addr::new(100, 80, 0, 1).into(),
        Ipv4Addr::new(10, 0, 0, 1).into(),
        1234,
    ));
    let report = correlator.finish().unwrap();
    assert_eq!(report.metrics.lookup.ip_hits, 1);
}
