//! Property-based tests for the streaming workload generator.
//!
//! Three invariants the soak and accuracy tiers lean on, checked across
//! randomized configurations rather than the one default preset:
//!
//! * **determinism** — the same seed and config produce a byte-identical
//!   event stream, twice in the same process and across fresh
//!   [`Workload`] instances (the soak harness splits one stream across
//!   two correlator instances at the restart point and reconciles their
//!   counters against it, which is only sound if the stream is a
//!   function of the seed);
//! * **ordering** — timestamps never decrease along the stream (the
//!   correlator's rotation clear-ups are data-time driven);
//! * **causality** — a correlated inbound flow never precedes the DNS
//!   announcement of its server address by less than the population's
//!   modeled `dns_flow_lag_micros`.

use std::collections::HashMap;

use flowdns_gen::workload::StreamEvent;
use flowdns_gen::{SubscriberPopulation, Workload, WorkloadConfig};
use flowdns_types::{FlowDirection, IpKey, SimDuration};
use proptest::prelude::*;

/// A randomized-but-small workload config: every preset population, a
/// spread of rates and seeds, traces short enough that 24 cases stay
/// inside a few seconds.
fn config_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (
        0usize..SubscriberPopulation::PRESET_NAMES.len(),
        600u64..2_400,
        5u64..30,
        any::<u64>(),
    )
        .prop_map(|(preset, secs, peak, seed)| WorkloadConfig {
            population: SubscriberPopulation::preset(SubscriberPopulation::PRESET_NAMES[preset])
                .expect("preset name"),
            duration: SimDuration::from_secs(secs),
            peak_flows_per_sec: peak as f64,
            background_dns_per_sec: (peak as f64 / 8.0).max(1.0),
            seed,
            ..WorkloadConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_and_config_streams_identically(config in config_strategy()) {
        let a: Vec<StreamEvent> = Workload::new(config).events().collect();
        let b: Vec<StreamEvent> = Workload::new(config).events().collect();
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn a_different_seed_changes_the_stream(config in config_strategy()) {
        let a: Vec<StreamEvent> = Workload::new(config)
            .events()
            .take(2_000)
            .collect();
        let mut other = config;
        other.seed = other.seed.wrapping_add(1);
        let b: Vec<StreamEvent> = Workload::new(other).events().take(2_000).collect();
        prop_assert_ne!(a, b);
    }

    #[test]
    fn timestamps_never_decrease(config in config_strategy()) {
        let mut last = 0u64;
        let mut events = 0u64;
        for event in Workload::new(config).events() {
            let ts = event.ts().as_micros();
            prop_assert!(
                ts >= last,
                "timestamp regressed: {ts} after {last} at event {events}"
            );
            last = ts;
            events += 1;
        }
        prop_assert!(events > 1_000, "trace too short to be meaningful: {events}");
    }

    #[test]
    fn announced_flows_always_trail_the_answer_by_the_lag(config in config_strategy()) {
        let workload = Workload::new(config);
        let lag = workload.population().dns_flow_lag_micros;
        let mut last_announce: HashMap<IpKey, u64> = HashMap::new();
        let mut checked = 0u64;
        for event in workload.events() {
            match event {
                StreamEvent::Dns(r) => {
                    if let Some(ip) = r.answer.as_ip() {
                        last_announce.insert(IpKey::from_ip(ip), r.ts.as_micros());
                    }
                }
                StreamEvent::Flow(f) => {
                    if f.direction == FlowDirection::Inbound && f.key.dst_port == 443 {
                        if let Some(&at) = last_announce.get(&IpKey::from_ip(f.key.src_ip)) {
                            prop_assert!(
                                f.ts.as_micros() >= at + lag,
                                "flow at {} trails its announcement at {at} by \
                                 less than {lag}us",
                                f.ts.as_micros()
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(checked > 50, "lag property exercised only {checked} flows");
    }
}
