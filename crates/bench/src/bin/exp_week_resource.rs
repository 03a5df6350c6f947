//! Figure 2: CPU and memory usage of the Main benchmark over a week,
//! plotted against traffic volume (diurnal pattern).
//!
//! Paper: CPU around 2500% (≈25 cores), memory oscillating between 15 and
//! 30 GB, all three curves showing clear diurnal peaks in the evening.
//!
//! Usage: `exp_week_resource [hours]` (default: 72 simulated hours; pass
//! 168 for the full week).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::render_table;
use flowdns_bench::{experiment_workload, run_workload};
use flowdns_core::{CorrelatorConfig, OfflineSimulator};

fn main() {
    let hours = flowdns_bench::hours_arg(72);
    let workload = experiment_workload(hours, 45.0);
    println!("== Figure 2: Main-variant resource usage over {hours} simulated hours ==");
    let main = OfflineSimulator::new(CorrelatorConfig::default());
    let outcome = run_workload(&main, &workload, |_| {});

    let max_bytes = outcome
        .hourly
        .iter()
        .map(|h| h.traffic_bytes)
        .max()
        .unwrap_or(1)
        .max(1);
    let rows: Vec<Vec<String>> = outcome
        .hourly
        .iter()
        .map(|h| {
            vec![
                format!("{}", h.hour),
                format!("{}", h.hour % 24),
                format!("{:.0}", h.cpu_pct),
                format!("{:.2}", h.memory_gb),
                format!("{:.1}", h.traffic_bytes as f64 / max_bytes as f64 * 70.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "hour",
                "hour-of-day",
                "cpu_pct",
                "memory_gb",
                "traffic (normalized 0-70)"
            ],
            &rows
        )
    );

    let peak_cpu = outcome.hourly.iter().map(|h| h.cpu_pct).fold(0.0, f64::max);
    let min_cpu = outcome
        .hourly
        .iter()
        .filter(|h| h.traffic_bytes > 0)
        .map(|h| h.cpu_pct)
        .fold(f64::MAX, f64::min);
    println!("paper    : CPU ~2200-2600%  memory 15-30 GB, diurnal shape");
    println!(
        "measured : CPU {:.0}-{:.0}%  memory peak {:.2} GB, {} hourly samples",
        min_cpu,
        peak_cpu,
        outcome.peak_memory_gb(),
        outcome.hourly.len()
    );
}
