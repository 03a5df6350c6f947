//! Quickstart: correlate a handful of DNS records and flows end to end
//! through the threaded pipeline.
//!
//! Run with: `cargo run --example quickstart`

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns::core::{Correlator, CorrelatorConfig};
use flowdns::types::{DnsRecord, DomainName, FlowRecord, SimTime};
use std::net::Ipv4Addr;

fn main() {
    // 1. Start a correlator with the paper's default parameters
    //    (AClearUpInterval=3600, CClearUpInterval=7200, CNAME loop
    //    limit 6).
    let correlator = Correlator::start(CorrelatorConfig::default()).expect("start pipeline");

    // 2. Feed the DNS stream: a CNAME chain for a CDN-hosted shop plus a
    //    direct A record for a news site.
    let ts = SimTime::from_secs(10);
    let dns_records = vec![
        DnsRecord::cname(
            ts,
            DomainName::literal("www.shop.example"),
            DomainName::literal("shop.cdn.example.net"),
            600,
        ),
        DnsRecord::cname(
            ts,
            DomainName::literal("shop.cdn.example.net"),
            DomainName::literal("edge7.cdn.example.net"),
            600,
        ),
        DnsRecord::address(
            ts,
            DomainName::literal("edge7.cdn.example.net"),
            Ipv4Addr::new(198, 51, 100, 7).into(),
            60,
        ),
        DnsRecord::address(
            ts,
            DomainName::literal("news.example.org"),
            Ipv4Addr::new(203, 0, 113, 50).into(),
            300,
        ),
    ];
    // One queue offer for the whole batch — what the live listeners do
    // per receive round.
    let accepted = correlator.dns_router().route_batch(dns_records);
    assert_eq!(accepted, 4, "queue has room for the whole batch");

    // Give the shard workers a moment to drain the DNS rings into the store.
    while correlator.queue_depths().0 > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));

    // 3. Feed the NetFlow stream: three flows, one per known source, plus
    //    one from an IP never seen in DNS.
    let flows = vec![
        (Ipv4Addr::new(198, 51, 100, 7), 5_000_000u64), // the CDN edge
        (Ipv4Addr::new(203, 0, 113, 50), 200_000),      // the news site
        (Ipv4Addr::new(192, 0, 2, 99), 800_000),        // unknown source
    ];
    correlator
        .flow_router()
        .route_batch(flows.into_iter().map(|(src, bytes)| {
            FlowRecord::inbound(
                SimTime::from_secs(20),
                src.into(),
                Ipv4Addr::new(10, 0, 0, 1).into(),
                bytes,
            )
        }));

    // 4. Shut down and inspect the report.
    let report = correlator.finish().expect("clean shutdown");
    println!("== FlowDNS quickstart ==");
    println!("{}", report.summary());
    println!(
        "correlation rate: {:.1}% of bytes ({} of {} flows attributed)",
        report.correlation_rate_pct(),
        report.metrics.lookup.ip_hits,
        report.metrics.lookup.total(),
    );
    println!(
        "CNAME chain hops followed: {}, memoized shortcuts: {}",
        report.metrics.lookup.cname_hops, report.metrics.lookup.memoized
    );
}
