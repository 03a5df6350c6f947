//! The compressed "week at an ISP" soak tier.
//!
//! Streams a [`flowdns_gen::SubscriberPopulation`]-driven workload —
//! millions of simulated subscriber lines, never materialized — through
//! the real threaded correlator, kills and warm-restarts it mid-soak,
//! and writes the endurance
//! verdicts (bounded memory across rotation clear-ups, snapshot
//! continuity, zero accepted-record loss) to `BENCH_soak.json`. See
//! docs/WORKLOADS.md for methodology and the field-by-field schema.
//!
//! ```text
//! exp_soak [--smoke] [--out <path>] [--config <file>]   run and write the JSON
//! exp_soak --check <path>                               validate an existing JSON
//! ```

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use flowdns_bench::soak::{self, SoakConfig};

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = String::from("BENCH_soak.json");
    let mut check: Option<String> = None;
    let mut config_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out needs a path"),
            },
            "--config" => match args.next() {
                Some(path) => config_file = Some(path),
                None => return usage("--config needs a path"),
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
            Ok(text) => match soak::validate_json(&text) {
                Ok(()) => {
                    println!("{path}: valid {} document", soak::SCHEMA);
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

    let mut config = if smoke {
        SoakConfig::smoke()
    } else {
        SoakConfig::full()
    };
    if let Some(path) = config_file {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(reason) = config.apply_file_text(&text) {
            eprintln!("{path}: {reason}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "== Week-at-an-ISP soak ({} mode) ==",
        if config.smoke { "smoke" } else { "full" }
    );
    println!(
        "population '{}': {} subscribers, {} simulated hours at peak {}/s, \
         clear-ups A={}s C={}s, restart at hour {}",
        config.population_name,
        config.population.subscribers,
        config.sim_hours,
        config.peak_flows_per_sec,
        config.a_clear_up_secs,
        config.c_clear_up_secs,
        config.restart_at_hour,
    );

    let report = match soak::run(&config, |line| eprintln!("  {line}")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("soak failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let run = &report.run;
    println!(
        "shards={}: {} events, {} clear-ups, correlation {:.1}%",
        run.shards, run.events_streamed, run.clear_ups, run.correlation_rate_pct,
    );
    println!(
        "  memory: {} post-clear-up samples, entries {}..{} ({})",
        run.memory_samples.len(),
        run.memory_samples
            .iter()
            .map(|s| s.entries)
            .min()
            .unwrap_or(0),
        run.memory_samples
            .iter()
            .map(|s| s.entries)
            .max()
            .unwrap_or(0),
        if run.memory_bounded(config.memory_band_factor) {
            "bounded"
        } else {
            "UNBOUNDED"
        },
    );
    println!(
        "  restart: snapshot {} entries, warm start {} entries ({})",
        run.restart.snapshot_entries,
        run.restart.warm_start_entries,
        if run.restart.continuity {
            "continuous"
        } else {
            "BROKEN"
        },
    );
    println!(
        "  loss: dns {}/{} accepted/processed, flows {}/{} ({})",
        run.loss.dns_accepted,
        run.loss.dns_processed,
        run.loss.flows_accepted,
        run.loss.flows_processed,
        if run.loss.zero_accepted_loss() {
            "zero accepted loss"
        } else {
            "RECORDS LOST"
        },
    );
    println!(
        "verdicts: clear_ups_ok={} bounded_memory={} zero_loss={} warm_restart={}",
        report.clear_ups_ok(),
        report.bounded_memory(),
        report.zero_loss(),
        report.warm_restart(),
    );

    let json = report.to_json();
    if let Err(reason) = soak::validate_json(&json) {
        eprintln!("BUG: emitted JSON fails its own schema check: {reason}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if report.all_green() {
        ExitCode::SUCCESS
    } else {
        eprintln!("one or more soak verdicts failed — see {out}");
        ExitCode::FAILURE
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!("usage: exp_soak [--smoke] [--out <path>] [--config <file>] | --check <path>");
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
