//! A compressed "day at the ISP": generate a synthetic diurnal workload,
//! run the offline correlator on it, and print the hour-by-hour picture
//! the paper's Figures 2 and 7 are built from.
//!
//! Run with: `cargo run --release --example isp_day -- [hours]`

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns::core::simulate::Event;
use flowdns::core::{CorrelatorConfig, OfflineSimulator};
use flowdns::gen::workload::StreamEvent;
use flowdns::gen::{Workload, WorkloadConfig};
use flowdns::types::SimDuration;

fn main() {
    let hours: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    let config = WorkloadConfig {
        duration: SimDuration::from_hours(hours),
        peak_flows_per_sec: 30.0,
        ..WorkloadConfig::default()
    };
    let workload = Workload::new(config);

    println!("== a {hours}-hour day at the (scaled-down) ISP ==");
    println!(
        "universe: {} services, expected ideal correlation {:.1}%",
        workload.universe().services.len(),
        workload.expected_correlation_fraction() * 100.0
    );

    let sim = OfflineSimulator::new(CorrelatorConfig::default());
    let outcome = sim.run_with(
        workload.events().map(|e| match e {
            StreamEvent::Dns(r) => Event::Dns(r),
            StreamEvent::Flow(f) => Event::Flow(f),
        }),
        |_| {},
    );

    println!("\nhour  traffic(GB)  correlation%    flows  dns_stored  live_entries");
    for h in &outcome.hourly {
        println!(
            "{:>4}  {:>10.2}  {:>11.1}  {:>7}  {:>10}  {:>12}",
            h.hour,
            h.traffic_bytes as f64 / 1e9,
            h.correlation_rate_pct,
            h.ops.flows_looked_up,
            h.ops.dns_stored,
            h.live_entries
        );
    }
    println!("\n{}", outcome.report.summary());
    println!("paper reference: 81.7% average correlation, diurnal CPU/memory/traffic curves");
}
