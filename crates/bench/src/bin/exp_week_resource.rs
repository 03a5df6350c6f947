//! Figure 2: resource use of the Main benchmark over a week, plotted
//! against traffic volume (diurnal pattern).
//!
//! Paper: CPU around 2500% (≈25 cores), memory oscillating between 15 and
//! 30 GB, all three curves showing clear diurnal peaks in the evening.
//!
//! The simulator counts and does not price, so this prints the counts
//! behind those curves — flows looked up and DNS records stored per hour,
//! entries held at the end of each hour — not CPU or bytes.
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
    println!("== Figure 2: Main-variant store counts over {hours} simulated hours ==");
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
                h.hour.to_string(),
                (h.hour % 24).to_string(),
                h.ops.flows_looked_up.to_string(),
                h.ops.dns_stored.to_string(),
                h.live_entries.to_string(),
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
                "flows_looked_up",
                "dns_stored",
                "live_entries",
                "traffic (normalized 0-70)"
            ],
            &rows
        )
    );

    let busy = || outcome.hourly.iter().filter(|h| h.traffic_bytes > 0);
    let min_flows = busy().map(|h| h.ops.flows_looked_up).min().unwrap_or(0);
    let max_flows = busy().map(|h| h.ops.flows_looked_up).max().unwrap_or(0);
    let peak = outcome.report.metrics.peak_memory;
    println!("paper    : CPU ~2200-2600%  memory 15-30 GB, diurnal shape");
    println!(
        "measured : {min_flows}-{max_flows} flows looked up per hour, peak {} entries / {} payload bytes, {} hourly samples",
        peak.entries,
        peak.payload_bytes,
        outcome.hourly.len()
    );
}
