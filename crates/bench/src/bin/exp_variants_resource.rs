//! Figure 3: what each ablation variant's store does over a day (Main,
//! NoClearUp, NoLong, NoRotation).
//!
//! Paper: NoClearUp's memory grows steadily and would hit the machine
//! limit; NoRotation uses the least memory (no Inactive copy); NoLong
//! saves neither memory nor CPU; NoSplit lowers CPU significantly while
//! leaving memory unchanged.
//!
//! The simulator counts and does not price, so this prints the counts
//! behind both axes — store operations per hour and entries held — not
//! CPU or bytes. NoSplit is not run: no store splits, so it would be
//! Main.
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
    ];

    println!("== Figure 3: per-variant store counts over {hours} simulated hours ==");
    let mut hourly_rows: Vec<Vec<String>> = Vec::new();
    let mut summary_rows: Vec<Vec<String>> = Vec::new();
    for variant in variants {
        let sim = OfflineSimulator::new(CorrelatorConfig::for_variant(variant));
        let outcome = run_workload(&sim, &workload, |_| {});
        for h in &outcome.hourly {
            hourly_rows.push(vec![
                variant.label().to_string(),
                h.hour.to_string(),
                h.ops.dns_stored.to_string(),
                h.ops.flows_looked_up.to_string(),
                h.ops.cname_hops.to_string(),
                h.ops.rotated_entries.to_string(),
                h.live_entries.to_string(),
            ]);
        }
        let peak = outcome.report.metrics.peak_memory;
        summary_rows.push(vec![
            variant.label().to_string(),
            outcome.ops.rotated_entries.to_string(),
            peak.entries.to_string(),
            peak.payload_bytes.to_string(),
            outcome.live_entries.to_string(),
            format!("{:.1}", outcome.report.correlation_rate_pct()),
        ]);
    }

    println!(
        "{}",
        render_table(
            &[
                "variant",
                "hour",
                "dns_stored",
                "flows_looked_up",
                "cname_hops",
                "rotated_entries",
                "live_entries"
            ],
            &hourly_rows
        )
    );
    println!("-- per-variant summary --");
    println!(
        "{}",
        render_table(
            &[
                "variant",
                "rotated_entries",
                "peak_entries",
                "peak_payload_bytes",
                "final_entries",
                "correlation_pct"
            ],
            &summary_rows
        )
    );
    println!("paper shape: NoClearUp memory grows monotonically; NoRotation lowest memory;");
    println!("             NoLong ~= Main on both axes; NoSplit lower CPU (not run).");
}
