//! Workspace smoke test: the one test to run first when something is off.
//!
//! Boots the threaded `Correlator`, pushes a couple of minutes of
//! generated ISP workload through a DNS and a flow router, shuts down via
//! `finish()`, and checks the two invariants every later experiment
//! relies on: some traffic correlates, and no accepted record is lost.

use flowdns::core::simulate::Event;
use flowdns::core::{Correlator, CorrelatorConfig};
use flowdns::gen::workload::StreamEvent;
use flowdns::gen::{Workload, WorkloadConfig};
use flowdns::ingest::DaemonConfig;
use flowdns::types::SimDuration;

#[test]
fn correlator_smoke_correlates_without_losing_accepted_records() {
    let config = WorkloadConfig {
        duration: SimDuration::from_secs(120),
        ..WorkloadConfig::small()
    };
    let workload = Workload::new(config);

    let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
    let (mut dns, mut flows) = (correlator.dns_router(), correlator.flow_router());
    let mut dns_pushed = 0u64;
    let mut flows_pushed = 0u64;
    let mut dns_accepted = 0u64;
    let mut flows_accepted = 0u64;
    for event in workload.events() {
        match event {
            StreamEvent::Dns(record) => {
                dns_pushed += 1;
                dns_accepted += u64::from(dns.route(record));
            }
            StreamEvent::Flow(flow) => {
                // Let FillUp drain before each flow so the lookup cannot
                // race the corresponding DNS record (replay is faster than
                // the real-time streams the pipeline is built for).
                while correlator.queue_depths().0 > 0 {
                    std::thread::yield_now();
                }
                flows_pushed += 1;
                flows_accepted += u64::from(flows.route(flow));
            }
        }
    }
    let report = correlator.finish().unwrap();

    assert!(
        dns_pushed > 0 && flows_pushed > 0,
        "workload generated no events"
    );
    // Default queue capacities dwarf a two-minute workload: nothing may be
    // dropped at the doors...
    assert_eq!(dns_accepted, dns_pushed);
    assert_eq!(flows_accepted, flows_pushed);
    assert_eq!(report.metrics.dns_dropped, 0);
    assert_eq!(report.metrics.flows_dropped, 0);
    assert_eq!(report.metrics.writes_dropped, 0);
    // ...and every accepted flow must come out the other end exactly once.
    assert_eq!(report.metrics.write.records_written, flows_accepted);
    // The generator targets ~82% correlation; any healthy pipeline clears
    // a third even on a short trace.
    let rate = report.correlation_rate_pct();
    assert!(
        rate > 33.0,
        "correlation rate {rate:.1}% is implausibly low"
    );
}

/// `Event` (simulator) and `StreamEvent` (generator) stay convertible —
/// the experiment binaries depend on this mapping.
#[test]
fn generator_events_feed_the_simulator() {
    let config = WorkloadConfig {
        duration: SimDuration::from_secs(30),
        ..WorkloadConfig::small()
    };
    let events: Vec<Event> = Workload::new(config)
        .events()
        .map(|e| match e {
            StreamEvent::Dns(r) => Event::Dns(r),
            StreamEvent::Flow(f) => Event::Flow(f),
        })
        .collect();
    assert!(!events.is_empty());
}

/// The shipped example deployment parses: a key the parser retired
/// fails here, not only when a daemon is booted with the file.
#[test]
fn example_daemon_config_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/flowdnsd.conf");
    let config = DaemonConfig::from_file(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(config.correlator.correlator_shards, 4);
}
