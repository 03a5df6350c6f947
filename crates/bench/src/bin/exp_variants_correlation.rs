//! Figure 7 + §4 text: correlation rate per hour for the ablation
//! variants, and the mean correlation rates.
//!
//! Paper means: Main 81.7%, NoClearUp 82.8%, NoRotation 79.5%,
//! NoLong 81.1%, NoSplit 81.7% (identical to Main). NoSplit is not run:
//! no store splits, so it would be Main.
//!
//! Usage: `exp_variants_correlation [hours]` (default: 8).

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
    let paper_means = [81.7, 82.8, 81.1, 79.5];

    println!("== Figure 7: hourly correlation rate per variant ({hours} simulated hours) ==");
    let mut per_hour: Vec<Vec<String>> = Vec::new();
    let mut summary: Vec<Vec<String>> = Vec::new();
    for (variant, paper) in variants.into_iter().zip(paper_means) {
        let sim = OfflineSimulator::new(CorrelatorConfig::for_variant(variant));
        let outcome = run_workload(&sim, &workload, |_| {});
        for h in &outcome.hourly {
            per_hour.push(vec![
                variant.label().to_string(),
                format!("{}", h.hour),
                format!("{:.1}", h.correlation_rate_pct),
            ]);
        }
        summary.push(vec![
            variant.label().to_string(),
            format!("{:.1}", paper),
            format!("{:.1}", outcome.report.correlation_rate_pct()),
            format!("{:.1}", outcome.mean_hourly_correlation_pct()),
        ]);
    }
    println!(
        "{}",
        render_table(&["variant", "hour", "correlation_pct"], &per_hour)
    );
    println!("-- mean correlation rate --");
    println!(
        "{}",
        render_table(
            &[
                "variant",
                "paper_pct",
                "measured_pct",
                "measured_hourly_mean_pct"
            ],
            &summary
        )
    );
    println!("paper ordering: NoClearUp >= Main = NoSplit > NoLong > NoRotation");
}
