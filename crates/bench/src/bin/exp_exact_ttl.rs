//! Appendix A.8: expiring DNS records by their exact TTL.
//!
//! Paper: applying exact TTLs (with a regular purge process) makes the
//! stream buffers overflow within minutes — loss above 90% on both
//! streams — while memory climbs to roughly double the Main variant's,
//! even though only ~10% of the data is actually processed.
//!
//! The simulator counts and does not price: both arms process every
//! record, so no loss is reported. What it shows is the A.8 behaviour a
//! count can carry — the exact-TTL store correlates fewer bytes, misses
//! more source IPs and purge-scans its maps — and the ratio of the two
//! arms' peak stores. The report names every claim the run does not
//! reproduce.
//!
//! Usage: `exp_exact_ttl [hours]` (default: 2).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::{experiment_workload, run_workload};
use flowdns_core::{CorrelatorConfig, OfflineSimulator};

fn main() {
    let hours = flowdns_bench::hours_arg(2);
    let workload = experiment_workload(hours, 45.0);
    println!("== Appendix A.8: exact-TTL expiry vs. FlowDNS rotation ({hours} simulated hours) ==");

    let config = CorrelatorConfig::default();
    let main = run_workload(&OfflineSimulator::new(config.clone()), &workload, |_| {});
    let exact = run_workload(&OfflineSimulator::exact_ttl(config), &workload, |_| {});

    for (label, outcome) in [("Main    ", &main), ("ExactTTL", &exact)] {
        let peak = outcome.report.metrics.peak_memory;
        println!(
            "{label} : correlation {:.1}%  ip misses {}  purge-scanned {}  rotated {}  peak {} entries / {} payload bytes",
            outcome.report.correlation_rate_pct(),
            outcome.report.metrics.lookup.ip_misses,
            outcome.ops.purge_scanned,
            outcome.ops.rotated_entries,
            peak.entries,
            peak.payload_bytes,
        );
    }
    println!();
    println!("paper    : exact-TTL loss > 90% on both streams; memory roughly 2x FlowDNS");
    let (main_peak, exact_peak) = (
        main.report.metrics.peak_memory.total_bytes(),
        exact.report.metrics.peak_memory.total_bytes(),
    );
    let mem_ratio = if main_peak > 0 {
        exact_peak as f64 / main_peak as f64
    } else {
        0.0
    };
    println!(
        "measured : exact-TTL correlates {:.1}% vs {:.1}%, {} more ip misses, {} entries purge-scanned; memory ratio {mem_ratio:.2}x",
        exact.report.correlation_rate_pct(),
        main.report.correlation_rate_pct(),
        exact
            .report
            .metrics
            .lookup
            .ip_misses
            .saturating_sub(main.report.metrics.lookup.ip_misses),
        exact.ops.purge_scanned,
    );
    let mut missed =
        vec!["loss > 90% (the simulator drops nothing; loss needs measured service times)"];
    if mem_ratio < 1.5 {
        missed.push("memory roughly 2x");
    }
    println!("           not reproduced: {}", missed.join(", "));
}
