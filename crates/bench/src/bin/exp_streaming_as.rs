//! Figure 4: cumulative traffic volume per source AS for two streaming
//! services (Network Provisioning and Planning use case).
//!
//! Paper: streaming service S1's traffic originates almost entirely from
//! one AS; S2's traffic originates mainly from two ASes; both show a
//! diurnal pattern. Since the in-pipeline BGP enrichment the join happens
//! in the LookUp stage: records arrive with `src_asn` already stamped
//! from the frozen routing table, and the analysis only buckets them.
//!
//! Usage: `exp_streaming_as [hours]` (default: 12).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::{render_table, PerAsTraffic};
use flowdns_bench::{asn_view_for, experiment_workload, outcome_matches_service, run_workload};
use flowdns_core::{CorrelatorConfig, OfflineSimulator};

fn main() {
    let hours = flowdns_bench::hours_arg(12);
    let workload = experiment_workload(hours, 45.0);
    let universe = workload.universe().clone();
    let view = asn_view_for(&universe);
    let s1 = universe.services[universe.streaming_s1].clone();
    let s2 = universe.services[universe.streaming_s2].clone();

    println!("== Figure 4: per-source-AS traffic for streaming services S1 and S2 ==");
    let mut per_as_s1 = PerAsTraffic::new();
    let mut per_as_s2 = PerAsTraffic::new();
    let main = OfflineSimulator::new(CorrelatorConfig::default()).with_asn_view(view);
    run_workload(&main, &workload, |record| {
        if !record.is_correlated() {
            return;
        }
        if outcome_matches_service(&record.outcome, &s1) {
            per_as_s1.observe(record);
        } else if outcome_matches_service(&record.outcome, &s2) {
            per_as_s2.observe(record);
        }
    });

    for (label, per_as, expected) in [
        ("S1", &per_as_s1, "one dominant AS"),
        ("S2", &per_as_s2, "two dominant ASes"),
    ] {
        println!("-- streaming service {label} ({expected} expected) --");
        let ranked = per_as.ases_by_traffic();
        let total = per_as.total_bytes().max(1);
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .map(|(asn, bytes)| {
                vec![
                    format!("AS{asn}"),
                    format!("{:.1}", *bytes as f64 / total as f64 * 100.0),
                    format!("{}", bytes),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["origin_as", "share_pct", "bytes"], &rows)
        );
        if let Some((top_asn, _)) = ranked.first() {
            let series = per_as.cumulative_series(*top_asn);
            let head: Vec<String> = series
                .iter()
                .take(8)
                .map(|(h, b)| format!("h{h}:{b}"))
                .collect();
            println!(
                "cumulative volume of AS{top_asn} (first hours): {}",
                head.join("  ")
            );
        }
        println!();
    }

    println!("paper    : S1 ~single-AS origin; S2 split across two ASes; diurnal volume curves");
    println!(
        "measured : S1 top-1 AS share {:.1}% ({} ASes); S2 top-2 AS share {:.1}% ({} ASes)",
        per_as_s1.top_as_share(1) * 100.0,
        per_as_s1.ases_by_traffic().len(),
        per_as_s2.top_as_share(2) * 100.0,
        per_as_s2.ases_by_traffic().len()
    );
}
