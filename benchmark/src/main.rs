//! Wire-to-sink benchmark of the FlowDNS daemon. See `README.md`.

mod drive;
mod layers;
mod reference;
mod sink;
mod sys;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use flowdns_obs::RegistrySnapshot;

use drive::{Clock, Daemon, Generator, Paced, Paths};
use reference::Reference;
use wire::Wire;
use workloads::Spec;

/// Cold starts per run; the first warms the page cache and the allocator
/// and is not timed.
const SETUPS: usize = 4;
/// Closed-loop warm-up before anything is measured.
const WARM_UP: Duration = Duration::from_secs(1);
/// Share of `--seconds` spent in the closed-loop capacity phase; the rest
/// is the open-loop phase.
pub const CAPACITY_SHARE: f64 = 0.6;
/// Datagrams whose lines are read back from the output files and
/// compared byte for byte.
const READ_BACK_DATAGRAMS: u64 = 2_048;
/// Healthy windows (`drive::PacedWindow::healthy`) an open-loop phase
/// needs: with fewer, the run measured the generator, not the daemon.
const HEALTHY_WINDOWS: usize = 2;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// A named measurement on its way to the output.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run produced: its metrics, and what the checks found.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Everything trace generation leaves behind for a run.
pub struct Prepared {
    pub spec: Spec,
    pub wire: Wire,
    pub reference: Reference,
    pub config: flowdns_ingest::DaemonConfig,
    pub paths: Paths,
    pub gen_secs: f64,
}

pub fn prepare(args: &Args) -> Result<Prepared, String> {
    let started = Instant::now();
    let paths = Paths {
        out: args.out.clone(),
    };
    std::fs::create_dir_all(paths.tsv_dir()).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let trace = workloads::build(&args.workload, args.seed).expect("workload name was checked");
    let config = drive::daemon_config(&trace.spec, &paths, trace.rib.is_some());
    if let Some(rib) = &trace.rib {
        std::fs::write(paths.rib(), rib).map_err(|e| format!("routing table: {e}"))?;
    }
    let wire = Wire::encode(&trace.spec, &trace.lap)?;
    let reference = reference::compute(&trace, &config.correlator, &paths.image())?;
    let spec = trace.spec;
    drop(trace);
    // The daemon's memory is measured as growth from here on.
    sys::release_free_heap();
    Ok(Prepared {
        spec,
        wire,
        reference,
        config,
        paths,
        gen_secs: started.elapsed().as_secs_f64(),
    })
}

/// Of a run's one-second windows, the one a quarter of the way from the
/// best to the worst (third-best of 11, second-best of 7).
///
/// The host this runs on is shared. Most of what its neighbours do slows a
/// window down, for seconds at a time; now and then they go quiet and a
/// few windows run a fifth faster than the rest. The median follows the
/// first, the best window the second; over three hours of A/A runs in
/// both moods this quantile had the smallest worst-case spread.
pub fn best_quarter(windows: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = windows.to_vec();
    sorted.sort_by(f64::total_cmp);
    if higher_is_better {
        sorted.reverse();
    }
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[(n - 1) / 4],
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// `q` in 0..=1 of an already sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// One daemon's life under load, measured and checked.
pub struct Live {
    pub setup_secs: f64,
    /// Completed records per second in each closed-loop window.
    pub rates: Vec<f64>,
    pub paced: Paced,
    pub rss_after_mb: f64,
    pub write_depth_max: usize,
    /// Registry samples at the two edges of the open-loop phase, and the
    /// store's own memory accounting at its end, when asked for.
    pub observed: Option<(
        RegistrySnapshot,
        RegistrySnapshot,
        flowdns_core::StoreHealth,
    )>,
    pub kernel_drops: u64,
    pub datagrams: u64,
    pub correlated_bytes_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Start a daemon on the pristine store image and an empty output
/// directory.
fn cold_start(p: &mut Prepared, clock: &Clock) -> Result<Daemon, String> {
    for entry in std::fs::read_dir(p.paths.tsv_dir()).map_err(|e| e.to_string())? {
        std::fs::remove_file(entry.map_err(|e| e.to_string())?.path())
            .map_err(|e| e.to_string())?;
    }
    Daemon::start(
        &p.config,
        &p.paths,
        p.reference.store_entries,
        &mut p.wire,
        clock,
    )
}

/// Cold-start a daemon, warm it up, run the closed-loop capacity phase
/// (when `capacity` is given) and the open-loop phase, read a segment of
/// the output back, shut down, and compare everything that came out with
/// the reference.
pub fn live_run(
    p: &mut Prepared,
    clock: &mut Clock,
    capacity: Option<Duration>,
    paced_time: Duration,
    observe: bool,
) -> Result<Live, String> {
    let daemon = cold_start(p, clock)?;
    let setup_secs = daemon.setup_secs;
    let first = drive::first_datagram(&p.wire).records as u64;
    let port = daemon.rt.netflow_addr().port();
    let mut generator = Generator::new(&mut p.wire, clock, &daemon, &p.paths);
    generator.closed_loop(WARM_UP)?;
    let rates = match capacity {
        Some(duration) => generator
            .closed_loop(duration)?
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0).as_secs_f64())
            .collect(),
        None => Vec::new(),
    };
    let before = observe.then(|| daemon.rt.registry().snapshot());
    let paced = generator.paced(paced_time, &p.spec)?;
    let rss_after_mb = sys::rss_mb();
    let observed = before.map(|before| {
        (
            before,
            daemon.rt.registry().snapshot(),
            daemon.rt.correlator().store_health(),
        )
    });
    let segment_start = generator.datagrams_sent;
    let second = generator.read_back_segment(READ_BACK_DATAGRAMS)?;
    let (flows_sent, dns_sent, datagrams, unlinked_bytes, write_depth_max) = (
        generator.flows_sent,
        generator.dns_sent,
        generator.datagrams_sent,
        generator.file_bytes,
        generator.write_depth_max,
    );
    drop(generator);
    let kernel_drops = sys::udp_socket_drops(port);
    let (report, written) = daemon.shutdown()?;

    let late_p99 = quantile(&paced.late_ms, 0.99);
    let generator_share = paced.generator_cpu_pct();
    for (nth, window) in paced
        .windows
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.healthy())
    {
        eprintln!(
            "{}: paced window {nth} left out: the generator sent up to {:.1} ms late and used \
             {:.0} % of a core",
            p.spec.name, window.late_max_ms, window.generator_cpu_pct
        );
    }
    if paced.healthy().count() < HEALTHY_WINDOWS {
        return Err(format!(
            "{} at {} records/s: the generator ran {late_p99:.2} ms late at p99 and used \
             {generator_share:.0} % of a core, and {} of {} windows are usable; the run measured \
             the generator",
            p.spec.name,
            p.spec.paced_rate,
            paced.healthy().count(),
            paced.windows.len()
        ));
    }

    // Everything that went in, against what came out.
    let mut failures = Vec::new();
    let mut check = |what: &str, got: u64, want: u64| {
        if got != want {
            failures.push(format!("{what}: {got}, expected {want}"));
        }
    };
    // The cold-start datagram, then the lap from its start.
    let expected = p
        .reference
        .range(0, 1)
        .plus(p.reference.range(0, datagrams));
    check(
        "records through the sink",
        written.records,
        expected.records,
    );
    check("bytes through the sink", written.bytes, expected.bytes);
    check(
        "correlated bytes through the sink",
        written.correlated_bytes,
        expected.correlated_bytes,
    );
    check(
        "checksum of the sink's records",
        written.field_hash,
        expected.field_hash,
    );
    let (lines, left_bytes) = drive::read_back(&p.paths.tsv_dir(), second)?;
    let segment = p.reference.range(segment_start, datagrams);
    check("lines read back", lines.records, segment.records);
    check(
        "checksum of the lines read back",
        lines.line_hash,
        segment.line_hash,
    );
    check(
        "bytes of the lines read back",
        lines.line_bytes,
        segment.line_bytes,
    );
    check(
        "bytes of all output files",
        unlinked_bytes + left_bytes,
        expected.line_bytes,
    );
    let ingest = &report.metrics.ingest;
    let fillup = &report.metrics.fillup;
    check("flows decoded", ingest.netflow_flows, flows_sent + first);
    check(
        "flows the report says were written",
        report.metrics.write.records_written,
        written.records,
    );
    check("DNS records decoded", ingest.dns_records, dns_sent);
    check(
        "DNS records stored",
        fillup.addresses_stored + fillup.cnames_stored,
        dns_sent,
    );
    check(
        "correlated bytes in the report",
        report.volumes.correlated.bytes(),
        expected.correlated_bytes,
    );
    let counted_drops = ingest.netflow_malformed
        + ingest.netflow_unknown_template_drops
        + ingest.netflow_queue_drops
        + ingest.dns_malformed_streams
        + ingest.dns_queue_drops
        + report.metrics.flows_dropped
        + report.metrics.dns_dropped
        + report.metrics.writes_dropped
        + fillup.filtered
        + kernel_drops;
    check("records counted as dropped", counted_drops, 0);
    let attempted = flows_sent + first + dns_sent;
    let arrived = written.records + fillup.addresses_stored + fillup.cnames_stored;
    eprintln!(
        "{}: setup {:.3} s, {} windows, paced {:.0} rec/s over {:.1} s, {} probes, lag p50 {:.2} p99 {:.2} ms, \
         late p99 {:.3} max {:.1} ms, generator {:.0} % cpu, {} of {} records arrived",
        p.spec.name,
        setup_secs,
        rates.len(),
        paced.records as f64 / paced.window_secs,
        paced.window_secs,
        paced.lag_ms.len(),
        quantile(&paced.lag_ms, 0.5),
        quantile(&paced.lag_ms, 0.99),
        late_p99,
        paced.windows.iter().map(|w| w.late_max_ms).fold(0.0, f64::max),
        generator_share,
        arrived,
        attempted,
    );
    Ok(Live {
        setup_secs,
        rates,
        paced,
        rss_after_mb,
        write_depth_max,
        observed,
        kernel_drops,
        datagrams,
        correlated_bytes_pct: report.volumes.correlation_rate_pct(),
        attempted,
        failed: attempted.saturating_sub(arrived),
        failures,
    })
}

/// The end-to-end run: cold starts, closed-loop capacity, open-loop load.
fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut p = prepare(args)?;
    let rss_before_mb = sys::rss_mb();
    let mut clock = Clock::new(p.spec.time_speed);
    let mut setups = Vec::with_capacity(SETUPS);
    for round in 0..SETUPS - 1 {
        let daemon = cold_start(&mut p, &clock)?;
        if round > 0 {
            setups.push(daemon.setup_secs);
        }
        daemon.shutdown()?;
    }
    let capacity = Duration::from_secs_f64(args.seconds as f64 * CAPACITY_SHARE);
    let paced_time = Duration::from_secs(args.seconds) - capacity;
    let live = live_run(&mut p, &mut clock, Some(capacity), paced_time, false)?;
    setups.push(live.setup_secs);
    eprintln!(
        "{}: trace generation {:.2} s, capacity windows {:?} k/s, paced windows {:.2?} us/record, {:.2?} ms lag",
        p.spec.name,
        p.gen_secs,
        live.rates.iter().map(|r| (r / 1e3).round()).collect::<Vec<_>>(),
        live.paced.healthy().map(|w| w.cpu_us).collect::<Vec<_>>(),
        live.paced.healthy().filter_map(|w| w.lag_ms).collect::<Vec<_>>(),
    );
    let paced = &live.paced;
    let metrics = vec![
        metric("setup_s", median(&mut setups), "s"),
        metric(
            "sustained_records_per_s",
            best_quarter(&live.rates, true),
            "1/s",
        ),
        metric("cpu_us_per_record", paced.cpu_us_per_record(), "us"),
        metric("sink_lag_p50_ms", paced.lag_p50_ms(), "ms"),
        metric("rss_delta_mb", live.rss_after_mb - rss_before_mb, "MB"),
        metric("correlated_bytes_pct", live.correlated_bytes_pct, "%"),
    ];
    Ok(Outcome {
        metrics,
        attempted: live.attempted,
        failed: live.failed,
        failures: live.failures,
    })
}

fn print(workload: &str, outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{workload}/{} {} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        eprintln!("{workload}: CHECK FAILED: {failure}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() {
    // Before anything is pinned: the CPUs to pin to.
    sys::allowed_cpus();
    let outcome = parse_args().and_then(|args| {
        let outcome = if args.trace {
            layers::run_traced(&args)
        } else {
            run_end_to_end(&args)
        }?;
        if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("{} did not come out as a number", bad.name));
        }
        print(&args.workload, &outcome);
        Ok(())
    });
    if let Err(message) = outcome {
        eprintln!("flowdns-benchmark: {message}");
        std::process::exit(1);
    }
}
