//! Figure 6 / Appendix A.4: CNAME chain length distribution.
//!
//! Paper: more than 99% of DNS records can be resolved with a chain of at
//! most 6 look-ups, which is why FlowDNS caps the chain-following loop at
//! 6.
//!
//! The chain length of a correlated flow equals the number of CNAME hops
//! between the A-record owner and the customer-facing name; we measure it
//! two ways: (a) from the generator's universe (the ground-truth chain of
//! every service weighted by its traffic) and (b) from the chains FlowDNS
//! actually resolved during a Main-variant run (shorter on average because
//! multi-hop resolutions are memoized).
//!
//! Usage: `exp_cname_chains [hours]` (default: 4).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::{render_series, Ecdf};
use flowdns_bench::{experiment_workload, run_workload};
use flowdns_core::{CorrelatorConfig, OfflineSimulator};

fn main() {
    let hours = flowdns_bench::hours_arg(4);
    let workload = experiment_workload(hours, 45.0);
    println!("== Figure 6: CNAME chain length ECDF ({hours} simulated hours) ==");

    // (a) ground-truth chain length per correlated flow.
    let mut ground_truth: Vec<u64> = Vec::new();
    // (b) chain hops FlowDNS actually performed (memoization shortens them).
    let mut resolved: Vec<u64> = Vec::new();

    let universe = workload.universe().clone();
    let main = OfflineSimulator::new(CorrelatorConfig::default());
    let outcome = run_workload(&main, &workload, |record| {
        if !record.is_correlated() {
            return;
        }
        resolved.push(record.outcome.chain_length() as u64);
        if let Some(service) = universe
            .services
            .iter()
            .find(|s| flowdns_bench::outcome_matches_service(&record.outcome, s))
        {
            ground_truth.push(service.cname_chain.len() as u64);
        }
    });

    let points: Vec<f64> = (0..=12).map(|i| i as f64).collect();
    let truth_ecdf = Ecdf::from_counts(ground_truth.iter().copied());
    let resolved_ecdf = Ecdf::from_counts(resolved.iter().copied());
    println!("-- ground-truth chain lengths (per correlated flow) --");
    println!(
        "{}",
        render_series("chain_length", "ecdf", &truth_ecdf.series(&points))
    );
    println!("-- chains actually followed by FlowDNS (memoized) --");
    println!(
        "{}",
        render_series("chain_length", "ecdf", &resolved_ecdf.series(&points))
    );

    println!("paper    : >99% of records resolvable within 6 look-ups (loop limit = 6)");
    println!(
        "measured : {:.2}% of ground-truth chains <= 6 hops over {} correlated flows ({} records looked up)",
        truth_ecdf.fraction_at_or_below(6.0) * 100.0,
        ground_truth.len(),
        outcome.report.metrics.write.records_written
    );
}
