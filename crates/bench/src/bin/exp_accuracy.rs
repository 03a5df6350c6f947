//! §4 Accuracy: the two-website ground-truth experiment.
//!
//! Paper: with two sites on different IPs every flow is attributed
//! correctly (100%); with two sites sharing one IP the second site's DNS
//! record overwrites the first and all flows are attributed to the second
//! site (50%). The overwrite matters for the 12% of IPs carrying more
//! than one name (Figure 9).

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns_bench::{golden_accuracy_workload, measured_correlation_fraction};
use flowdns_core::simulate::Event;
use flowdns_core::{CorrelatorConfig, OfflineSimulator};
use flowdns_gen::{AccuracyCapture, AccuracyScenario, SubscriberPopulation};

fn run_scenario(scenario: AccuracyScenario) -> (f64, usize) {
    let capture = AccuracyCapture::build(scenario, 20);
    // One shard, the capture's DNS records first and then its flows.
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
        attributions.push(record.outcome.final_name().cloned());
    });
    (capture.accuracy(&attributions), capture.flows.len())
}

fn main() {
    println!("== §4 Accuracy: two-website ground-truth experiment ==");
    let (acc1, n1) = run_scenario(AccuracyScenario::DistinctIps);
    let (acc2, n2) = run_scenario(AccuracyScenario::SharedIp);
    println!(
        "scenario 1 (distinct IPs): paper 100%   measured {:.0}% over {n1} flows",
        acc1 * 100.0
    );
    println!(
        "scenario 2 (shared IP)   : paper  50%   measured {:.0}% over {n2} flows",
        acc2 * 100.0
    );
    println!();
    println!("The shared-IP flows are all attributed to the site whose DNS record arrived last,");
    println!("which is exactly the overwrite behaviour the paper describes.");

    println!();
    println!("== Population golden accuracy (count-based, tolerance ±1 point) ==");
    let mut worst = 0f64;
    for preset in ["residential", "business", "mixed"] {
        let population = SubscriberPopulation::preset(preset).expect("known preset");
        let workload = golden_accuracy_workload(population);
        let expected = workload.expected_correlation_fraction();
        let measured = measured_correlation_fraction(&workload);
        let delta = (measured - expected) * 100.0;
        worst = worst.max(delta.abs());
        println!(
            "{preset:12} expected {:6.2}%   measured {:6.2}%   delta {delta:+.2} points{}",
            expected * 100.0,
            measured * 100.0,
            if delta.abs() > 1.0 {
                "  OUT OF TOLERANCE"
            } else {
                ""
            },
        );
    }
    println!(
        "worst preset delta {worst:.2} points — the generator's announced-visible-IP model \
         and the pipeline agree."
    );
}
