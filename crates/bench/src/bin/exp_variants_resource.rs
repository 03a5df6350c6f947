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
//! Main. The report closes with the measured ordering of the variants'
//! peak stores and names each paper claim the run does not reproduce.
//!
//! Usage: `exp_variants_resource [hours]` (default: 8).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::render_table;
use flowdns_bench::{experiment_workload, run_workload};
use flowdns_core::{CorrelatorConfig, OfflineSimulator, SimulationOutcome, Variant};

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
    let mut peaks: Vec<(usize, Variant)> = Vec::new();
    let mut outcomes: Vec<SimulationOutcome> = Vec::new();
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
        peaks.push((peak.entries, variant));
        outcomes.push(outcome);
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
    println!("paper    : NoClearUp memory grows monotonically; NoRotation lowest memory;");
    println!("           NoLong ~= Main on both axes; NoSplit lower CPU (not run).");

    let [main, no_clear_up, no_long, _] = &outcomes[..] else {
        unreachable!("one outcome per variant");
    };
    let never_falls = |o: &SimulationOutcome| {
        o.hourly
            .windows(2)
            .all(|w| w[1].live_entries >= w[0].live_entries)
    };
    let held = |o: &SimulationOutcome| {
        let first = o.hourly.first().map_or(0, |h| h.live_entries);
        format!("{first} -> {}", o.live_entries)
    };
    peaks.sort_by_key(|&(entries, _)| entries);
    let (lowest, first) = peaks[0];
    let mut ordering = format!("{} {lowest}", first.label());
    for pair in peaks.windows(2) {
        let sign = if pair[0].0 < pair[1].0 { "<" } else { "=" };
        ordering.push_str(&format!(" {sign} {} {}", pair[1].1.label(), pair[1].0));
    }
    println!(
        "measured : peak entries {ordering}; held entries first -> last hour NoClearUp {}, Main {}",
        held(no_clear_up),
        held(main),
    );

    // NoClearUp's growth is its claim only where clear-ups hold Main flat.
    let mut missed = Vec::new();
    if !never_falls(no_clear_up) || never_falls(main) {
        missed.push("NoClearUp grows while Main stays flat");
    }
    if peaks[0].1 != Variant::NoRotation {
        missed.push("NoRotation lowest memory");
    }
    let (main_peak, no_long_peak) = (
        main.report.metrics.peak_memory.entries as f64,
        no_long.report.metrics.peak_memory.entries as f64,
    );
    if (no_long_peak - main_peak).abs() > 0.1 * main_peak {
        missed.push("NoLong ~= Main (peak entries differ by more than 10%)");
    }
    missed.push("NoSplit lower CPU (not run; the simulator prices no CPU)");
    println!("           not reproduced: {}", missed.join(", "));
}
