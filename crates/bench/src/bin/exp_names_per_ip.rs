//! Figure 9 / Appendix A.7: names-per-IP and IPs-per-name cardinality.
//!
//! Paper: in a 300-second DNS sample, 88% of IP addresses map to a single
//! domain name (which bounds FlowDNS's accuracy), while 35% of domain
//! names map to more than one IP (harmless by design). A 1-hour sample
//! shows similar results.
//!
//! Usage: `exp_names_per_ip [hours]` (default: 2).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::{render_series, CardinalityAnalysis};
use flowdns_bench::experiment_workload;
use flowdns_gen::workload::StreamEvent;
use flowdns_types::{SimDuration, SimTime, TimeRange};

fn main() {
    let hours = flowdns_bench::hours_arg(2);
    let workload = experiment_workload(hours, 45.0);
    println!("== Figure 9 / A.7: domain-name / IP cardinalities ==");

    // Pick windows in the middle of the trace so announcements have warmed up.
    let mid = SimTime::from_secs(hours * 3600 / 2);
    let mut short =
        CardinalityAnalysis::with_window(TimeRange::starting_at(mid, SimDuration::from_secs(300)));
    let mut long = CardinalityAnalysis::with_window(TimeRange::starting_at(
        mid,
        SimDuration::from_hours(1).min(SimDuration::from_hours(hours)),
    ));

    for event in workload.events() {
        if let StreamEvent::Dns(record) = event {
            short.observe(&record);
            long.observe(&record);
        }
    }

    let points: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    println!(
        "-- 300-second sample: {} IPs, {} names --",
        short.ip_count(),
        short.name_count()
    );
    println!(
        "{}",
        render_series(
            "names_per_ip",
            "ecdf",
            &short.names_per_ip_ecdf().series(&points)
        )
    );
    println!(
        "{}",
        render_series(
            "ips_per_name",
            "ecdf",
            &short.ips_per_name_ecdf().series(&points)
        )
    );

    println!("paper    (300 s): 88% of IPs map to one name; 35% of names map to >1 IP");
    println!(
        "measured (300 s): {:.0}% of IPs map to one name; {:.0}% of names map to >1 IP",
        short.single_name_ip_share() * 100.0,
        short.multi_ip_name_share() * 100.0
    );
    println!(
        "measured (1 h)  : {:.0}% of IPs map to one name; {:.0}% of names map to >1 IP ({} IPs)",
        long.single_name_ip_share() * 100.0,
        long.multi_ip_name_share() * 100.0,
        long.ip_count()
    );
}
