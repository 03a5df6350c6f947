//! Ingest saturation harness: how fast can the live wire-to-queue path go?
//!
//! Drives a loopback [`flowdns_ingest::IngestRuntime`] with pre-encoded
//! NetFlow v5 datagrams at stepped offered loads until sustained drop,
//! once with the batched drain path and once with the per-datagram
//! baseline, and writes the machine-readable trajectory point
//! `BENCH_saturation.json`. See `docs/PERFORMANCE.md` for methodology
//! and the field-by-field schema.
//!
//! ```text
//! exp_saturation [--smoke] [--out <path>]   run and write the JSON
//! exp_saturation --check <path>             validate an existing JSON
//! ```

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use flowdns_bench::saturation::{self, SaturationConfig};

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = String::from("BENCH_saturation.json");
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(path) => check = Some(path),
                None => return usage("--check needs a path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    if let Some(path) = check {
        return match std::fs::read_to_string(&path) {
            Ok(text) => match saturation::validate_json(&text) {
                Ok(()) => {
                    println!("{path}: valid flowdns-bench/saturation/v4 document");
                    ExitCode::SUCCESS
                }
                Err(reason) => {
                    eprintln!("{path}: INVALID — {reason}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("{path}: cannot read — {e}");
                ExitCode::FAILURE
            }
        };
    }

    let config = if smoke {
        SaturationConfig::smoke()
    } else {
        SaturationConfig::full()
    };
    println!("== Ingest saturation harness ({} mode) ==", mode(&config));
    println!(
        "batched run: {} listeners, recv_batch {}; baseline: 1 listener, recv_batch 1; \
         {} correlator shard(s)",
        config.netflow_listeners, config.recv_batch, config.correlator_shards
    );
    let report = match saturation::run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("harness failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for (name, run) in [("batched", &report.batched), ("baseline", &report.baseline)] {
        println!(
            "{name:8} ({} listener(s), recv_batch {}, avg drain {:.1} datagrams):",
            run.listeners, run.recv_batch, run.avg_drain
        );
        for step in &run.steps {
            println!(
                "  offered {:>9.0}/s  sent {:>9.0}/s  accepted {:>9.0}/s  drop {:>5.2}% (queue {:>5.2}%)  queue p99 {} us  p999 {} us",
                step.offered_per_sec,
                step.sent_per_sec,
                step.accepted_per_sec,
                step.drop_pct,
                step.queue_drop_pct,
                step.p99_queue_latency_us,
                step.p999_queue_latency_us,
            );
        }
        println!(
            "  peak accepted {:.0} records/s ({})",
            run.peak.accepted_per_sec,
            if run.saturated {
                "stopped at drop limit"
            } else {
                "sender-bound or step cap"
            }
        );
        match &run.slo_knee {
            Some(knee) => println!(
                "  SLO knee {:.0} records/s (lossless, p99 queue wait {} us <= {} us)",
                knee.accepted_per_sec,
                knee.p99_queue_latency_us,
                saturation::SLO_P99_LIMIT_US,
            ),
            None => println!(
                "  SLO knee: none — no lossless step kept p99 queue wait <= {} us",
                saturation::SLO_P99_LIMIT_US
            ),
        }
        println!(
            "  p99 queue wait at 80% of raw knee: {} us",
            run.p99_at_80pct_us
        );
    }
    println!(
        "speedup vs per-datagram baseline: {:.2}x",
        report.speedup_vs_baseline()
    );
    let variance = &report.variance;
    println!(
        "speedup confidence (paired A/B at {:.0}/s): effect {:+.2}%, trial spread {:.2}%",
        variance.probe_rate_per_sec,
        variance.effect_pct(),
        variance.spread_pct(),
    );
    if variance.inconclusive() {
        // Loud on purpose: a headline speedup smaller than the host's
        // own trial noise must not be quoted as a result.
        eprintln!("!!!");
        eprintln!(
            "!!! WARNING: trial variance ({:.2}%) is at least as large as the measured \
             batched-vs-baseline effect ({:+.2}%).",
            variance.spread_pct(),
            variance.effect_pct(),
        );
        eprintln!(
            "!!! speedup_vs_baseline = {:.3} is NOT distinguishable from noise on this host \
             (see docs/PERFORMANCE.md, \"Variance gate\").",
            report.speedup_vs_baseline()
        );
        eprintln!("!!!");
    }
    println!("shared-nothing scaling curve:");
    for point in &report.scaling {
        println!(
            "  {} shard(s): raw knee {:>9.0}/s  SLO knee {:>9}  p99 @ 80% of knee {} us",
            point.shards,
            point.raw_knee_per_sec,
            point
                .slo_knee_per_sec
                .map_or("none".to_string(), |r| format!("{r:.0}/s")),
            point.p99_at_80pct_us,
        );
    }
    let obs = &report.obs_overhead;
    println!(
        "observability overhead: peak {:.0}/s off vs {:.0}/s with telemetry live \
         ({:+.2}% regression, {} scrapes, {} trace spans)",
        obs.off_peak_per_sec, obs.on_peak_per_sec, obs.regression_pct, obs.scrapes, obs.trace_spans
    );

    let json = report.to_json();
    if let Err(reason) = saturation::validate_json(&json) {
        eprintln!("BUG: emitted JSON fails its own schema check: {reason}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

fn mode(config: &SaturationConfig) -> &'static str {
    if config.smoke {
        "smoke"
    } else {
        "full"
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!("usage: exp_saturation [--smoke] [--out <path>] | --check <path>");
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
