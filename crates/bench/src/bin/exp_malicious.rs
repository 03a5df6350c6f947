//! Figure 5 + §5: traffic from suspicious and malformed domain names.
//!
//! Paper (1-day capture, hourly 1M-name samples): 612 suspicious domains
//! (512 spam, 41 botnet C&C, 34 abused redirectors, 11 malware,
//! 3 phishing); 666k domains violating RFC 1035, 87% of them via the
//! underscore character; suspicious plus malformed domains account for
//! about 0.5% of daily traffic volume; a handful of domains per category
//! carry most of that category's bytes (Figure 5); 2.7% of clients
//! receiving traffic from malformed domains send traffic back to 23.6% of
//! those domains (1.9% of packets).
//!
//! Usage: `exp_malicious [hours]` (default: 6).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::{render_table, BlocklistCategory, TrafficCategory};
use flowdns_bench::{experiment_workload, run_category_analysis};

fn main() {
    let hours = flowdns_bench::hours_arg(6);
    let workload = experiment_workload(hours, 45.0);
    println!(
        "== Figure 5 / §5: suspicious and malformed domain traffic ({hours} simulated hours) =="
    );
    let (outcome, analysis) = run_category_analysis(&workload);

    println!(
        "correlated {:.1}% of {} flows",
        outcome.report.correlation_rate_pct(),
        outcome.report.metrics.write.records_written
    );
    println!();

    // Suspicious domain counts per category (the paper's 612-domain table).
    let mut rows: Vec<Vec<String>> = Vec::new();
    let paper_counts = [
        (BlocklistCategory::Spam, 512),
        (BlocklistCategory::BotnetCc, 41),
        (BlocklistCategory::AbusedRedirector, 34),
        (BlocklistCategory::Malware, 11),
        (BlocklistCategory::Phishing, 3),
    ];
    for ((category, measured), (_, paper)) in analysis
        .suspicious_domain_counts()
        .into_iter()
        .zip(paper_counts)
    {
        rows.push(vec![
            category.label().to_string(),
            paper.to_string(),
            measured.to_string(),
        ]);
    }
    println!("-- suspicious domains observed in traffic (counts are scaled-down synthetics) --");
    println!(
        "{}",
        render_table(&["category", "paper_count", "measured_count"], &rows)
    );

    // Figure 5: cumulative traffic per number of domains, per category.
    println!("-- Figure 5: cumulative traffic volume vs number of domain names --");
    let mut categories: Vec<TrafficCategory> = BlocklistCategory::all()
        .into_iter()
        .map(TrafficCategory::Listed)
        .collect();
    categories.push(TrafficCategory::Malformed);
    for category in categories {
        if let Some(traffic) = analysis.traffic(category) {
            let series = traffic.cumulative_series();
            let head: Vec<String> = series
                .iter()
                .take(10)
                .enumerate()
                .map(|(i, cum)| format!("{}:{}", i + 1, cum))
                .collect();
            println!(
                "{:<18} {:>3} domains, total {:>12} B, cumulative(top-k): {}",
                category.label(),
                traffic.key_count(),
                traffic.total_bytes(),
                head.join("  ")
            );
        }
    }
    println!();

    let validity = analysis.validity();
    let (client_share, domain_share, packet_share) = analysis.malformed_bidirectional_stats();
    println!("paper    : suspicious+malformed traffic = 0.5% of daily bytes");
    println!(
        "measured : suspicious+malformed traffic = {:.2}% of bytes",
        analysis.suspicious_and_malformed_share() * 100.0
    );
    println!("paper    : 87% of malformed domains contain '_'; most common violation = disallowed character");
    println!(
        "measured : {:.0}% of malformed names contain '_'; most common violation = {}",
        validity.underscore_share() * 100.0,
        validity.most_common_kind().unwrap_or("n/a")
    );
    println!("paper    : 2.7% of clients reply to 23.6% of malformed domains (1.9% of packets)");
    println!(
        "measured : {:.1}% of clients reply to {:.1}% of malformed domains ({:.2}% of packets)",
        client_share * 100.0,
        domain_share * 100.0,
        packet_share * 100.0
    );
}
