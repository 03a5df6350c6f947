//! The Section 4 accuracy experiment as a runnable lab: two browsed
//! websites, one shared IP, and the overwrite behaviour of the IP-keyed
//! hashmap.
//!
//! Run with: `cargo run --example accuracy_lab`

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns::core::simulate::Event;
use flowdns::core::{CorrelatorConfig, OfflineSimulator};
use flowdns::gen::{AccuracyCapture, AccuracyScenario};

fn run(scenario: AccuracyScenario, label: &str) {
    let capture = AccuracyCapture::build(scenario, 10);
    // One shard: the whole store in one partition, fed the capture's DNS
    // records first and then its flows.
    let simulator = OfflineSimulator::new(CorrelatorConfig {
        correlator_shards: 1,
        ..CorrelatorConfig::default()
    });
    let events = capture.dns.iter().cloned().map(Event::Dns).chain(
        capture
            .flows
            .iter()
            .map(|(flow, _)| Event::Flow(flow.clone())),
    );
    let mut attributions = Vec::new();
    simulator.run_with(events, |record| {
        let got = record.outcome.final_name().cloned();
        if attributions.len() < 4 {
            let truth = &capture.flows[attributions.len()].1;
            println!(
                "  flow from {:<16} truth={:<28} flowdns={:?}",
                record.flow.key.src_ip,
                truth.as_str(),
                got.as_ref().map(|n| n.as_str().to_string())
            );
        }
        attributions.push(got);
    });
    let accuracy = capture.accuracy(&attributions);
    println!("  -> {label}: accuracy {:.0}%\n", accuracy * 100.0);
}

fn main() {
    println!("== two-website accuracy lab (Section 4) ==\n");
    println!("scenario 1: different domains, different IPs (paper: 100%)");
    run(AccuracyScenario::DistinctIps, "scenario 1");
    println!("scenario 2: different domains, shared IP (paper: 50%)");
    run(AccuracyScenario::SharedIp, "scenario 2");
    println!("In scenario 2 the second site's A record overwrites the first in the IP-NAME");
    println!("hashmap, so every flow from the shared IP is attributed to the second site.");
}
