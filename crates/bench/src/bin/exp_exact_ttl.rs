//! Appendix A.8: expiring DNS records by their exact TTL.
//!
//! Paper: applying exact TTLs (with a regular purge process) makes the
//! stream buffers overflow within minutes — loss above 90% on both
//! streams — while memory climbs to roughly double the Main variant's,
//! even though only ~10% of the data is actually processed.
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

    println!(
        "Main     : flow loss {:.2}%  dns loss {:.2}%  mean CPU {:.0}%  peak memory {:.3} GB  correlation {:.1}%",
        main.report.metrics.flow_loss_pct(),
        main.report.metrics.dns_loss_pct(),
        main.mean_cpu_pct(),
        main.peak_memory_gb(),
        main.report.correlation_rate_pct()
    );
    println!(
        "ExactTTL : flow loss {:.2}%  dns loss {:.2}%  mean CPU {:.0}%  peak memory {:.3} GB  correlation {:.1}%",
        exact.report.metrics.flow_loss_pct(),
        exact.report.metrics.dns_loss_pct(),
        exact.mean_cpu_pct(),
        exact.peak_memory_gb(),
        exact.report.correlation_rate_pct()
    );
    println!();
    println!("paper    : exact-TTL loss > 90% on both streams; memory roughly 2x FlowDNS");
    let mem_ratio = if main.peak_memory_gb() > 0.0 {
        exact.peak_memory_gb() / main.peak_memory_gb()
    } else {
        0.0
    };
    println!(
        "measured : exact-TTL flow loss {:.1}% / dns loss {:.1}%; memory ratio {:.2}x",
        exact.report.metrics.flow_loss_pct(),
        exact.report.metrics.dns_loss_pct(),
        mem_ratio
    );
}
