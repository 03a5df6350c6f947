//! Appendix A.8: expiring DNS records by their exact TTL.
//!
//! Paper: applying exact TTLs (with a regular purge process) makes the
//! stream buffers overflow within minutes — loss above 90% on both
//! streams — while memory climbs to roughly double the Main variant's,
//! even though only ~10% of the data is actually processed.
//!
//! The simulator's cost model reproduces the flow-loss claim but not the
//! other two: it drops records at the backlog before they are stored, so
//! DNS loss stays near 65% and the exact-TTL store stays smaller than
//! Main's. The report names every claim the run does not reproduce.
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
        println!(
            "{label} : flow loss {:.2}%  dns loss {:.2}%  mean CPU {:.0}%  peak memory {:.3} MB  correlation {:.1}%",
            outcome.report.metrics.flow_loss_pct(),
            outcome.report.metrics.dns_loss_pct(),
            outcome.mean_cpu_pct(),
            outcome.peak_memory_gb() * 1e3,
            outcome.report.correlation_rate_pct()
        );
    }
    println!();
    println!("paper    : exact-TTL loss > 90% on both streams; memory roughly 2x FlowDNS");
    let mem_ratio = if main.peak_memory_gb() > 0.0 {
        exact.peak_memory_gb() / main.peak_memory_gb()
    } else {
        0.0
    };
    let flow_loss = exact.report.metrics.flow_loss_pct();
    let dns_loss = exact.report.metrics.dns_loss_pct();
    println!(
        "measured : exact-TTL flow loss {flow_loss:.1}% / dns loss {dns_loss:.1}%; memory ratio {mem_ratio:.2}x"
    );
    let missed: Vec<&str> = [
        (flow_loss > 90.0, "flow loss > 90%"),
        (dns_loss > 90.0, "dns loss > 90%"),
        (mem_ratio >= 1.5, "memory roughly 2x"),
    ]
    .into_iter()
    .filter(|(holds, _)| !holds)
    .map(|(_, claim)| claim)
    .collect();
    if !missed.is_empty() {
        println!(
            "           not reproduced: {} (this cost model drops records before they are stored, \
             so the exact-TTL store never holds what its backlog sheds)",
            missed.join(", ")
        );
    }
}
