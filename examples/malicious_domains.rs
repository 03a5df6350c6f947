//! Section 5 use case: measure the traffic generated by spamming,
//! phishing, botnet and malformed domain names seen in correlated output.
//!
//! Run with: `cargo run --release --example malicious_domains -- [hours]`

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns::core::{CorrelatorConfig, OfflineSimulator};
use flowdns::gen::{Workload, WorkloadConfig};
use flowdns::types::SimDuration;
use flowdns_bench::analysis::{BlocklistCategory, CategoryAnalysis, TrafficCategory};
use flowdns_bench::{blocklist_for, run_workload};

fn main() {
    let hours: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let config = WorkloadConfig {
        duration: SimDuration::from_hours(hours),
        peak_flows_per_sec: 30.0,
        ..WorkloadConfig::default()
    };
    let workload = Workload::new(config);

    // The Spamhaus-DBL stand-in: the universe's suspicious domains.
    let mut analysis = CategoryAnalysis::new(blocklist_for(workload.universe()));

    let sim = OfflineSimulator::new(CorrelatorConfig::default());
    let outcome = run_workload(&sim, &workload, |record| analysis.observe(record));

    println!("== malicious / malformed domain traffic over {hours} simulated hours ==");
    println!("{}\n", outcome.report.summary());

    println!("suspicious domains observed (count, bytes):");
    for category in BlocklistCategory::all() {
        if let Some(traffic) = analysis.traffic(TrafficCategory::Listed(category)) {
            println!(
                "  {:<18} {:>4} domains  {:>14} bytes",
                category.label(),
                traffic.key_count(),
                traffic.total_bytes()
            );
        }
    }
    if let Some(malformed) = analysis.traffic(TrafficCategory::Malformed) {
        println!(
            "  {:<18} {:>4} domains  {:>14} bytes",
            "mal-formatted",
            malformed.key_count(),
            malformed.total_bytes()
        );
    }

    let (clients, domains, packets) = analysis.malformed_bidirectional_stats();
    println!(
        "\nsuspicious + malformed traffic share: {:.2}% of all bytes (paper: ~0.5%)",
        analysis.suspicious_and_malformed_share() * 100.0
    );
    println!(
        "underscore share among malformed names: {:.0}% (paper: 87%)",
        analysis.validity().underscore_share() * 100.0
    );
    println!(
        "bidirectional traffic: {:.1}% of clients reply to {:.1}% of malformed domains ({:.2}% of packets)",
        clients * 100.0,
        domains * 100.0,
        packets * 100.0
    );
}
