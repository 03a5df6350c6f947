//! §4 headline result: average correlation rate, loss and output volume.
//!
//! Paper: 81.7% of traffic bytes correlated on average, <0.01% stream
//! loss, results written with at most 45 s delay.
//!
//! Usage: `exp_correlation [hours] [variant]` (defaults: 6 hours, Main).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::{experiment_workload, run_workload};
use flowdns_core::{CorrelatorConfig, OfflineSimulator, Variant};

fn main() {
    let hours = flowdns_bench::hours_arg(6);
    let variant = std::env::args()
        .nth(2)
        .map(|s| Variant::parse(&s).expect("valid variant name"))
        .unwrap_or(Variant::Main);
    let workload = experiment_workload(hours, 45.0);

    println!("== §4 headline correlation ({variant}, {hours} simulated hours) ==");
    println!(
        "workload: expected ideal correlation {:.1}% (DNS-related share x resolver coverage)",
        workload.expected_correlation_fraction() * 100.0
    );

    let sim = OfflineSimulator::new(CorrelatorConfig::for_variant(variant));
    let outcome = run_workload(&sim, &workload, |_| {});
    let report = &outcome.report;
    println!();
    println!("{}", report.summary());
    println!();
    println!("paper (Main)   : correlation 81.7%   loss <= 0.01%");
    println!(
        "measured ({variant:<9}): correlation {:.1}%   dns loss {:.3}%   flow loss {:.3}%",
        report.correlation_rate_pct(),
        report.metrics.dns_loss_pct(),
        report.metrics.flow_loss_pct()
    );
    println!(
        "mean hourly correlation {:.1}%, mean CPU {:.0}%, peak memory {:.2} GB",
        outcome.mean_hourly_correlation_pct(),
        outcome.mean_cpu_pct(),
        outcome.peak_memory_gb()
    );
}
