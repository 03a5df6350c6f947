//! The compressed week-at-an-ISP soak, as a repo-level test.
//!
//! This is the acceptance surface of the soak tier: a scaled-down week
//! (small population, fast clear-ups) streamed through the **real**
//! threaded 2-shard correlator, with a kill-and-warm-restart in the
//! middle. The full-size run (mixed population, 2.4M subscribers, 168
//! simulated hours, > 13M events) produces the committed
//! `BENCH_soak.json` via `exp_soak`; this test keeps the same
//! three claims — bounded memory across ≥ 3 rotation clear-ups, snapshot
//! continuity across the restart, zero accepted-record loss — green on
//! every `cargo test`.

use flowdns_bench::soak::{self, SoakConfig};

fn scaled_week() -> SoakConfig {
    let mut config = SoakConfig::smoke();
    config
        .apply_file_text(
            "population = small\n\
             subscribers = 20000\n\
             sim_hours = 2\n\
             peak_flows_per_sec = 50\n\
             background_dns_per_sec = 7\n\
             a_clear_up_secs = 600\n\
             c_clear_up_secs = 1200\n\
             restart_at_hour = 1.0\n\
             soak_shards = 2\n",
        )
        .expect("valid soak overrides");
    config
}

#[test]
fn compressed_week_holds_the_three_soak_claims() {
    let report = soak::run(&scaled_week(), |_| {}).expect("soak completes");

    let run = &report.run;
    assert_eq!(run.shards, 2);
    // ≥ 3 rotation clear-ups actually observed, each with a memory
    // reading taken right after it.
    assert!(
        run.memory_samples.len() >= 3,
        "only {} post-clear-up samples",
        run.memory_samples.len()
    );
    // Bounded memory: rotation returns the store to its working set.
    assert!(
        run.memory_bounded(report.config.memory_band_factor),
        "post-clear-up entries outside the band: {:?}",
        run.memory_samples
    );
    // Snapshot continuity: the warm restart restored exactly what the
    // shutdown snapshot serialized.
    assert!(run.restart.warm_started, "no warm start");
    assert!(
        run.restart.continuity,
        "snapshot had {} entries but warm start restored {}",
        run.restart.snapshot_entries, run.restart.warm_start_entries
    );
    // Zero accepted-record loss, reconciled against the pipeline's own
    // metrics and the per-shard routed counters.
    assert!(
        run.loss.zero_accepted_loss(),
        "loss ledger does not reconcile: {:?}",
        run.loss
    );
    // Every streamed event was offered to the pipeline.
    assert_eq!(
        run.loss.dns_offered + run.loss.flows_offered,
        run.events_streamed
    );
    // The correlator did real work the whole way through.
    assert!(
        run.correlation_rate_pct > 60.0,
        "correlation collapsed to {:.1}%",
        run.correlation_rate_pct
    );

    // The emitted document round-trips through its own schema check.
    soak::validate_json(&report.to_json()).expect("soak JSON validates");
}
