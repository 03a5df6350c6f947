//! Figure 8 / Appendix A.6: TTL distribution of DNS records.
//!
//! Paper: ~70% of records have TTL below 300 s; 99% of A/AAAA records are
//! below 3600 s and 99% of CNAME records below 7200 s — which is how the
//! clear-up intervals were chosen.
//!
//! Usage: `exp_ttl_ecdf [hours]` (default: 4).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::analysis::{render_series, Ecdf};
use flowdns_bench::experiment_workload;
use flowdns_gen::workload::StreamEvent;
use flowdns_types::RecordType;

fn main() {
    let hours = flowdns_bench::hours_arg(4);
    let workload = experiment_workload(hours, 45.0);
    println!("== Figure 8: TTL ECDF per record type ({hours} simulated hours of DNS) ==");

    let mut a_ttls = Vec::new();
    let mut aaaa_ttls = Vec::new();
    let mut cname_ttls = Vec::new();
    for event in workload.events() {
        if let StreamEvent::Dns(record) = event {
            match record.rtype {
                RecordType::A => a_ttls.push(record.ttl as u64),
                RecordType::Aaaa => aaaa_ttls.push(record.ttl as u64),
                RecordType::Cname => cname_ttls.push(record.ttl as u64),
                _ => {}
            }
        }
    }
    let points = [60.0, 300.0, 600.0, 3_600.0, 7_200.0, 18_000.0];
    for (label, ttls) in [("A", &a_ttls), ("AAAA", &aaaa_ttls), ("CNAME", &cname_ttls)] {
        let ecdf = Ecdf::from_counts(ttls.iter().copied());
        println!("-- {label} records ({} samples) --", ecdf.len());
        println!(
            "{}",
            render_series("ttl_seconds", "ecdf", &ecdf.series(&points))
        );
    }

    let a_all = Ecdf::from_counts(a_ttls.iter().chain(&aaaa_ttls).copied());
    let c_all = Ecdf::from_counts(cname_ttls.iter().copied());
    println!("paper    : 99% of A/AAAA < 3600 s; 99% of CNAME < 7200 s; ~70% of records < 300 s");
    println!(
        "measured : {:.1}% of A/AAAA < 3600 s; {:.1}% of CNAME < 7200 s; {:.1}% of A/AAAA < 300 s",
        a_all.fraction_at_or_below(3_600.0) * 100.0,
        c_all.fraction_at_or_below(7_200.0) * 100.0,
        a_all.fraction_at_or_below(300.0) * 100.0
    );
    println!("=> AClearUpInterval = 3600, CClearUpInterval = 7200 (Table 1)");
}
