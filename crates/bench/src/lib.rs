//! # flowdns-bench
//!
//! Experiment harness for the FlowDNS reproduction.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (README.md shows how to run them; docs/WORKLOADS.md describes
//! the generated workloads) or feeds a committed `BENCH_*.json`; per-layer
//! costs and the wire-to-sink figures are the job of `benchmark/`
//! (docs/PERFORMANCE.md). This library holds what the binaries share:
//! the paper's offline analyses ([`analysis`]), and the glue that
//! converts generator events into simulator events, derives a BGP table
//! and a blocklist consistent with the generated universe, and runs a
//! configured simulator over a workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod jsonv;
pub mod saturation;
pub mod soak;

use flowdns_bgp::{AsnView, RoutingTable};
use flowdns_core::simulate::Event;
use flowdns_core::{CorrelatorConfig, OfflineSimulator, SimulationOutcome};
use flowdns_gen::domains::{DomainCategory, DomainUniverse, ServiceSpec};
use flowdns_gen::workload::StreamEvent;
use flowdns_gen::{SubscriberPopulation, Workload, WorkloadConfig};
use flowdns_types::{CorrelatedRecord, CorrelationOutcome, FlowDirection, SimDuration};

use analysis::{Blocklist, BlocklistCategory, CategoryAnalysis};

/// Convert a generator event into a simulator event.
pub fn to_event(event: StreamEvent) -> Event {
    match event {
        StreamEvent::Dns(r) => Event::Dns(r),
        StreamEvent::Flow(f) => Event::Flow(f),
    }
}

/// Build a routing table consistent with the generated universe by
/// parsing the universe's own announcement emission
/// ([`DomainUniverse::announcements_text`]) — the exact text a deployment
/// would point its `routing_table` config key at, so experiments and the
/// live pipeline attribute identically.
pub fn routing_table_for(universe: &DomainUniverse) -> RoutingTable {
    RoutingTable::from_announcements_text(&universe.announcements_text())
        .expect("generated announcements parse")
}

/// The universe's routing table compiled and wrapped for in-pipeline AS
/// attribution (what `OfflineSimulator::with_asn_view` and the live
/// `Correlator` consume).
pub fn asn_view_for(universe: &DomainUniverse) -> AsnView {
    AsnView::new(routing_table_for(universe).freeze())
}

/// Build a blocklist consistent with the universe's suspicious domains.
pub fn blocklist_for(universe: &DomainUniverse) -> Blocklist {
    let mut blocklist = Blocklist::new();
    for service in &universe.services {
        let category = match service.category {
            DomainCategory::Spam => Some(BlocklistCategory::Spam),
            DomainCategory::BotnetCc => Some(BlocklistCategory::BotnetCc),
            DomainCategory::AbusedRedirector => Some(BlocklistCategory::AbusedRedirector),
            DomainCategory::Malware => Some(BlocklistCategory::Malware),
            DomainCategory::Phishing => Some(BlocklistCategory::Phishing),
            _ => None,
        };
        if let Some(category) = category {
            blocklist.add(service.customer_domain.clone(), category);
        }
    }
    blocklist
}

/// Does a correlation outcome belong to the given service (any name of the
/// chain equals the customer domain, a chain hop, or a subdomain of
/// either)?
pub fn outcome_matches_service(outcome: &CorrelationOutcome, service: &ServiceSpec) -> bool {
    outcome.names().iter().any(|name| {
        name == &service.customer_domain
            || name.is_subdomain_of(&service.customer_domain)
            || service
                .cname_chain
                .iter()
                .any(|hop| name == hop || name.is_subdomain_of(hop))
    })
}

/// Run a configured simulator over a workload, forwarding every written
/// record to `on_record` (`|_| {}` discards them).
pub fn run_workload<F>(
    sim: &OfflineSimulator,
    workload: &Workload,
    on_record: F,
) -> SimulationOutcome
where
    F: FnMut(&CorrelatedRecord),
{
    sim.run_with(workload.events().map(to_event), on_record)
}

/// Run the Main variant and feed every record through a
/// [`CategoryAnalysis`] built from the workload's universe.
pub fn run_category_analysis(workload: &Workload) -> (SimulationOutcome, CategoryAnalysis) {
    let blocklist = blocklist_for(workload.universe());
    let mut analysis = CategoryAnalysis::new(blocklist);
    let main = OfflineSimulator::new(CorrelatorConfig::default());
    let outcome = run_workload(&main, workload, |record| {
        analysis.observe(record);
    });
    (outcome, analysis)
}

/// The standard experiment workload: a scaled-down "day at the large ISP".
/// `hours` controls how much of the day is generated; experiment binaries
/// accept it as their first CLI argument so a full 24-hour run is a choice
/// rather than a default.
pub fn experiment_workload(hours: u64, peak_flows_per_sec: f64) -> Workload {
    let config = WorkloadConfig {
        duration: SimDuration::from_hours(hours),
        peak_flows_per_sec,
        background_dns_per_sec: (peak_flows_per_sec / 8.0).max(1.0),
        ..WorkloadConfig::default()
    };
    Workload::new(config)
}

/// The *count-based* correlation fraction of a workload, measured by
/// running the Main variant end to end: the share of inbound content
/// flows (dst port 443) whose written record carries a name. This is the
/// measurement the population golden-accuracy check compares against
/// [`Workload::expected_correlation_fraction`] — counts, not bytes, so
/// the heavy-tailed size distribution cancels out and the analytic
/// expectation is exact up to binomial noise.
pub fn measured_correlation_fraction(workload: &Workload) -> f64 {
    let mut correlated = 0u64;
    let mut content = 0u64;
    let main = OfflineSimulator::new(CorrelatorConfig::default());
    run_workload(&main, workload, |record| {
        if record.flow.direction == FlowDirection::Inbound && record.flow.key.dst_port == 443 {
            content += 1;
            if record.is_correlated() {
                correlated += 1;
            }
        }
    });
    correlated as f64 / content.max(1) as f64
}

/// A short population workload for the golden-accuracy check: long
/// enough that binomial noise is well under the ±1-point tolerance,
/// short enough to run inside a unit test.
pub fn golden_accuracy_workload(population: SubscriberPopulation) -> Workload {
    Workload::new(WorkloadConfig {
        population,
        duration: SimDuration::from_hours(2),
        peak_flows_per_sec: 30.0,
        background_dns_per_sec: 4.0,
        ..WorkloadConfig::default()
    })
}

/// Parse the `hours` CLI argument shared by the experiment binaries.
pub fn hours_arg(default: u64) -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_table_covers_every_edge_ip() {
        let workload = experiment_workload(1, 5.0);
        let table = routing_table_for(workload.universe());
        assert!(!table.is_empty());
        for service in &workload.universe().services {
            if service.origin_asns.is_empty() {
                continue;
            }
            for ip in &service.edge_ips {
                let asn = table.origin_as(*ip).expect("edge IP is announced");
                assert!(asn > 0);
            }
        }
    }

    #[test]
    fn blocklist_contains_only_suspicious_domains() {
        let workload = experiment_workload(1, 5.0);
        let blocklist = blocklist_for(workload.universe());
        assert!(!blocklist.is_empty());
        let spam = workload
            .universe()
            .by_category(DomainCategory::Spam)
            .next()
            .expect("spam domains exist")
            .customer_domain
            .clone();
        assert_eq!(blocklist.lookup(&spam), Some(BlocklistCategory::Spam));
        let benign = workload
            .universe()
            .by_category(DomainCategory::Benign)
            .next()
            .expect("benign domains exist")
            .customer_domain
            .clone();
        assert_eq!(blocklist.lookup(&benign), None);
    }

    #[test]
    fn every_malformed_universe_name_is_invalid() {
        let universe = DomainUniverse::generate(&flowdns_gen::UniverseConfig::default());
        let mut malformed = universe.by_category(DomainCategory::Malformed).peekable();
        assert!(malformed.peek().is_some(), "malformed domains exist");
        for service in malformed {
            let report = analysis::validate_domain(&service.customer_domain);
            assert!(!report.is_valid(), "{} passed", service.customer_domain);
        }
    }

    #[test]
    fn main_variant_produces_reasonable_correlation() {
        let workload = experiment_workload(2, 10.0);
        let main = OfflineSimulator::new(CorrelatorConfig::default());
        let outcome = run_workload(&main, &workload, |_| {});
        let rate = outcome.report.correlation_rate_pct();
        assert!(rate > 70.0 && rate < 95.0, "correlation {rate}");
        assert!(outcome.report.metrics.flow_loss_pct() < 1.0);
    }

    #[test]
    fn golden_accuracy_matches_the_analytic_expectation_for_every_preset() {
        for preset in ["residential", "business", "mixed"] {
            let population = SubscriberPopulation::preset(preset).unwrap();
            let workload = golden_accuracy_workload(population);
            let expected = workload.expected_correlation_fraction();
            let measured = measured_correlation_fraction(&workload);
            assert!(
                (measured - expected).abs() <= 0.01,
                "{preset}: measured {:.2}% vs expected {:.2}% — off by more than 1 point",
                measured * 100.0,
                expected * 100.0
            );
        }
    }

    #[test]
    fn service_matching_uses_chain_names() {
        let workload = experiment_workload(1, 5.0);
        let universe = workload.universe();
        let s1 = &universe.services[universe.streaming_s1];
        let outcome = CorrelationOutcome::Name(s1.customer_domain.clone());
        assert!(outcome_matches_service(&outcome, s1));
        let chain_outcome = CorrelationOutcome::Chain(vec![
            s1.cname_chain.last().unwrap().clone(),
            s1.customer_domain.clone(),
        ]);
        assert!(outcome_matches_service(&chain_outcome, s1));
        let other = &universe.services[universe.streaming_s2];
        assert!(!outcome_matches_service(&outcome, other));
    }
}
