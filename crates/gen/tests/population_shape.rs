//! Statistical shape tests: does the generated traffic actually follow
//! the configured [`SubscriberPopulation`]?
//!
//! Each test runs a seeded workload (fixed seed, fixed config — the
//! generator is deterministic, so these can never flake) and compares an
//! empirical distribution against the model:
//!
//! * per-AS traffic share via a chi-squared statistic,
//! * the diurnal curve via per-hour flow counts against
//!   [`DiurnalCurve::multiplier_at`],
//! * the flow-size distribution via its heavy tail, its body median, and
//!   a two-sample Kolmogorov–Smirnov distance between two seeds (shape
//!   stability — the distribution is a property of the population, not
//!   of the seed).

use std::net::IpAddr;

use flowdns_gen::workload::StreamEvent;
use flowdns_gen::{SubscriberPopulation, Workload, WorkloadConfig};
use flowdns_types::{FlowDirection, SimDuration};

fn workload(population: SubscriberPopulation, hours: u64, seed: u64) -> Workload {
    Workload::new(WorkloadConfig {
        population,
        duration: SimDuration::from_hours(hours),
        peak_flows_per_sec: 30.0,
        background_dns_per_sec: 4.0,
        seed,
        ..WorkloadConfig::default()
    })
}

/// Inbound content flows are the population-shaped traffic (the client
/// is the flow's destination).
fn inbound_flows(workload: &Workload) -> impl Iterator<Item = flowdns_types::FlowRecord> + '_ {
    workload.events().filter_map(|event| match event {
        StreamEvent::Flow(f) if f.direction == FlowDirection::Inbound && f.key.dst_port == 443 => {
            Some(f)
        }
        _ => None,
    })
}

#[test]
fn per_as_traffic_share_matches_the_population() {
    for preset in ["residential", "business", "mixed"] {
        let population = SubscriberPopulation::preset(preset).unwrap();
        let w = workload(population, 2, 7);
        let mut counts = vec![0u64; population.active_groups().len()];
        let mut total = 0u64;
        for flow in inbound_flows(&w) {
            let IpAddr::V4(client) = flow.key.dst_ip else {
                panic!("v6 client in the v4 address plan")
            };
            let group = population
                .group_of(client)
                .expect("client belongs to an access group");
            counts[group] += 1;
            total += 1;
        }
        assert!(total > 20_000, "{preset}: only {total} inbound flows");
        // Pearson chi-squared against the model's traffic shares. Under
        // the model the statistic is ~chi2(groups-1): mean below 5 for
        // every preset. 30 is tens of standard deviations out — it only
        // trips if the generator's group-picking genuinely diverges.
        let mut chi2 = 0.0;
        for (g, &observed) in counts.iter().enumerate() {
            let expected = population.traffic_share(g) * total as f64;
            chi2 += (observed as f64 - expected).powi(2) / expected;
        }
        assert!(
            chi2 < 30.0,
            "{preset}: per-AS chi-squared {chi2:.1} (counts {counts:?})"
        );
    }
}

#[test]
fn hourly_volume_follows_the_diurnal_curve() {
    let population = SubscriberPopulation::residential();
    let w = workload(population, 24, 11);
    let mut per_hour = [0u64; 24];
    for flow in inbound_flows(&w) {
        per_hour[(flow.ts.as_secs() / 3_600) as usize % 24] += 1;
    }
    // Expected per-hour weight: the curve integrated over the hour
    // (sampled at minute resolution — plenty for a cosine-smoothed
    // interpolation).
    let mut expected = [0f64; 24];
    for (hour, slot) in expected.iter_mut().enumerate() {
        *slot = (0..60)
            .map(|m| {
                population
                    .diurnal
                    .multiplier_at(hour as u64 * 3_600 + m * 60)
            })
            .sum::<f64>()
            / 60.0;
    }
    let total: u64 = per_hour.iter().sum();
    let expected_total: f64 = expected.iter().sum();
    for hour in 0..24 {
        let observed_share = per_hour[hour] as f64 / total as f64;
        let expected_share = expected[hour] / expected_total;
        let relative = (observed_share - expected_share).abs() / expected_share;
        assert!(
            relative < 0.10,
            "hour {hour}: observed share {observed_share:.4} vs curve {expected_share:.4} \
             ({:.1}% off)",
            relative * 100.0
        );
    }
    // And the curve must actually be diurnal: the overnight trough is
    // well below the evening peak.
    let trough = per_hour[4] as f64;
    let peak = per_hour[21] as f64;
    assert!(
        peak / trough > 2.0,
        "evening peak {peak} should dwarf the 4am trough {trough}"
    );
}

#[test]
fn flow_sizes_are_heavy_tailed_with_the_configured_body() {
    let population = SubscriberPopulation::residential();
    let w = workload(population, 2, 13);
    let mut sizes: Vec<u64> = inbound_flows(&w).map(|f| f.bytes).collect();
    assert!(sizes.len() > 20_000);
    sizes.sort_unstable();

    // Cap respected.
    assert!(*sizes.last().unwrap() <= population.flow_sizes.max_bytes);

    // Median sits in the lognormal body: e^9.4 ≈ 12 KB, with the mixture
    // (streaming + heavy non-DNS sessions) pulling it around. An order
    // of magnitude either way means the body is wrong.
    let median = sizes[sizes.len() / 2];
    assert!(
        (1_200..=120_000).contains(&median),
        "median flow size {median} outside the configured body"
    );

    // Heavy tail: the top 1% of flows must carry a disproportionate
    // byte share (Pareto sessions dominate the volume).
    let total_bytes: u128 = sizes.iter().map(|&b| b as u128).sum();
    let top1_bytes: u128 = sizes[sizes.len() - sizes.len() / 100..]
        .iter()
        .map(|&b| b as u128)
        .sum();
    let top1_share = top1_bytes as f64 / total_bytes as f64;
    assert!(
        top1_share > 0.20,
        "top-1% flows carry only {:.1}% of bytes — tail not heavy",
        top1_share * 100.0
    );
}

#[test]
fn flow_size_shape_is_stable_across_seeds() {
    // Two-sample Kolmogorov–Smirnov distance between two seeds of the
    // same population: the flow-size law belongs to the population, so
    // the empirical CDFs must agree. For n ≈ m ≈ 40_000 the 99.9%
    // critical value is ~0.014; 0.05 only trips on a genuine shape
    // change (and the test is deterministic either way).
    let population = SubscriberPopulation::residential();
    let mut a: Vec<u64> = inbound_flows(&workload(population, 2, 17))
        .map(|f| f.bytes)
        .collect();
    let mut b: Vec<u64> = inbound_flows(&workload(population, 2, 23))
        .map(|f| f.bytes)
        .collect();
    a.sort_unstable();
    b.sort_unstable();

    let mut ks = 0f64;
    let mut i = 0usize;
    let mut j = 0usize;
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            i += 1;
        } else {
            j += 1;
        }
        let d = (i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs();
        ks = ks.max(d);
    }
    assert!(ks < 0.05, "KS distance {ks:.4} between seeds 17 and 23");
}
