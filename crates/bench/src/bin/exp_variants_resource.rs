//! Figure 3: CPU and memory usage over a day for the ablation variants
//! (Main, NoClearUp, NoLong, NoRotation, NoSplit).
//!
//! Paper: NoClearUp's memory grows steadily and would hit the machine
//! limit; NoRotation uses the least memory (no Inactive copy); NoLong
//! saves neither memory nor CPU; NoSplit lowers CPU significantly while
//! leaving memory unchanged.
//!
//! Usage: `exp_variants_resource [hours]` (default: 8).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::render_table;
use flowdns_bench::{experiment_workload, run_workload};
use flowdns_core::{CorrelatorConfig, OfflineSimulator, Variant};

fn main() {
    let hours = flowdns_bench::hours_arg(8);
    let workload = experiment_workload(hours, 45.0);
    let variants = [
        Variant::Main,
        Variant::NoClearUp,
        Variant::NoLongHashmaps,
        Variant::NoRotation,
        Variant::NoSplit,
    ];

    println!("== Figure 3: per-variant CPU and memory over {hours} simulated hours ==");
    let mut hourly_rows: Vec<Vec<String>> = Vec::new();
    let mut summary_rows: Vec<Vec<String>> = Vec::new();
    for variant in variants {
        let sim = OfflineSimulator::new(CorrelatorConfig::for_variant(variant));
        let outcome = run_workload(&sim, &workload, |_| {});
        for h in &outcome.hourly {
            hourly_rows.push(vec![
                variant.label().to_string(),
                format!("{}", h.hour),
                format!("{:.0}", h.cpu_pct),
                format!("{:.3}", h.memory_gb),
            ]);
        }
        let final_mem = outcome.hourly.last().map(|h| h.memory_gb).unwrap_or(0.0);
        summary_rows.push(vec![
            variant.label().to_string(),
            format!("{:.0}", outcome.mean_cpu_pct()),
            format!("{:.3}", outcome.peak_memory_gb()),
            format!("{:.3}", final_mem),
            format!("{:.1}", outcome.report.correlation_rate_pct()),
        ]);
    }

    println!(
        "{}",
        render_table(&["variant", "hour", "cpu_pct", "memory_gb"], &hourly_rows)
    );
    println!("-- per-variant summary --");
    println!(
        "{}",
        render_table(
            &[
                "variant",
                "mean_cpu_pct",
                "peak_mem_gb",
                "final_mem_gb",
                "correlation_pct"
            ],
            &summary_rows
        )
    );
    println!("paper shape: NoClearUp memory grows monotonically; NoRotation lowest memory;");
    println!("             NoSplit clearly lower CPU than Main; NoLong ~= Main on both axes.");
}
