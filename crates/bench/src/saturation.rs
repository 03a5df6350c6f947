//! The ingest saturation harness behind `exp_saturation`.
//!
//! Measures the live wire-to-queue path the way the paper frames its
//! core claim (keeping up with ~1M flows/s at a large ISP): a loopback
//! [`IngestRuntime`] is driven with pre-encoded NetFlow v5 datagrams at
//! stepped offered loads until it shows sustained drop, and each step
//! records accepted records/s, drop rate, and the sampled p50/p99
//! residency of the LookUp ingress queue. The whole procedure runs
//! twice — once with the batched drain path (`recv_batch > 1`, listener
//! group) and once with the per-datagram baseline (`recv_batch = 1`,
//! single listener, the seed's design) — and the ratio of the two peak
//! accepted rates is the tracked `speedup_vs_baseline`.
//!
//! The `obs_overhead` section — the throughput tax of observing the
//! pipeline — is a **paired fixed-rate A/B probe** rather than a second
//! knee search: alternating fresh runtimes with telemetry off and on
//! (the `/metrics` endpoint polled by a scraper thread plus 1-in-N flow
//! tracing to a flight-recorder file) are driven at the batched run's
//! measured knee rate, and each arm's reading is its best accepted rate
//! across the probe steps. Knee *location* is noisy (ladder + bisection
//! under scheduler jitter); accepted throughput at a fixed rate is not,
//! which is what makes a sub-1 % overhead claim measurable at all.
//!
//! Two things the raw knee cannot express ride along. First, each
//! run also reports its **SLO knee** — the highest accepted rate whose
//! step was *lossless* (`drop_pct == 0`) with a p99 queue wait at or
//! under [`SLO_P99_LIMIT_US`] (10 ms) — because a deep bounded buffer
//! can "sustain" a rate while holding every record for hundreds of
//! milliseconds (the removed shared-queue pipeline did exactly that:
//! 568 k rec/s at p99 = 393 ms of queue wait). Second, a `scaling`
//! section reports the knee search at `correlator_shards` ∈ {1, 2, 4} —
//! the 1-shard point *is* the batched run, 2 and 4 re-run it — recording
//! both knees and the p99 queue wait at 80 % of the raw knee per point:
//! the honest multi-core scaling curve (on a single-core host it
//! honestly shows no throughput scaling; the SPSC rings still bound the
//! queue-wait tail).
//!
//! The `variance` section guards the headline `speedup_vs_baseline`
//! number: paired fixed-rate A/B arms (batched topology vs per-datagram
//! baseline, alternating) at the batched knee rate yield repeated
//! readings per arm, and when the within-arm spread exceeds the
//! between-arm effect the binary prints a loud warning and the JSON
//! records `inconclusive: true` — a speedup claim smaller than the
//! host's own trial noise is not a claim.
//!
//! The result serializes to `BENCH_saturation.json` (schema
//! `flowdns-bench/saturation/v4`, documented field-by-field in
//! `docs/PERFORMANCE.md`); [`validate_json`] is the structural checker
//! CI runs against the committed file, rejecting missing keys, empty
//! step lists, and non-finite numbers.
//!
//! Everything here measures *wall-clock* behaviour of real sockets and
//! threads with the output discarded; the wire-to-sink figures and the
//! per-layer costs come from `benchmark/` — see the methodology note in
//! `docs/PERFORMANCE.md`.

use std::io::Write as IoWrite;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowdns_dns::framing::FrameEncoder;
use flowdns_gen::workload::saturation_pool;
use flowdns_ingest::{DaemonConfig, IngestRuntime, IngestSnapshot};
use flowdns_netflow::{V5Header, V5Packet, V5Record, V5_MAX_RECORDS};
use flowdns_types::{DnsRecord, FlowDnsError, SimTime};

/// Hard cap on flow records per pre-encoded datagram (the v5 wire
/// maximum); the effective count is [`SaturationConfig::records_per_datagram`].
pub const MAX_RECORDS_PER_DATAGRAM: usize = V5_MAX_RECORDS;
/// Pause after each step's senders stop, letting the kernel socket
/// queue drain before the closing snapshot is taken.
const DRAIN_PAUSE: Duration = Duration::from_millis(300);
/// Bisection steps used to refine the saturation knee once the stepped
/// ladder overshoots the drop limit.
const REFINE_STEPS: usize = 4;
/// Most datagrams one sender pacing iteration hands to `sendmmsg(2)`.
const SEND_BURST: usize = 32;
/// Sender pacing tick. Kept small so per-tick bursts stay well inside
/// the default kernel socket buffer even near the saturation point.
const PACING_TICK: Duration = Duration::from_millis(1);
/// DNS records timestamp (store side) and flow export time: 100 s apart,
/// comfortably inside the default clear-up interval, so every flow's
/// source address is a store hit.
const DNS_TS_SECS: u64 = 900;
const FLOW_TS_SECS: u32 = 1000;
/// Flow-trace sampling period of the telemetry arm: sparse enough that
/// tracing is the production configuration, not a stress test of the
/// recorder, while still emitting spans at every step.
const TRACE_SAMPLE_EVERY: u64 = 1024;
/// How often the telemetry arm's scraper thread polls `/metrics` —
/// deliberately aggressive versus a real Prometheus interval (15–60 s)
/// so the measured overhead upper-bounds production cost.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(250);
/// Off/on probe pairs of the overhead measurement (full mode).
/// Alternating the arms cancels slow host drift (thermal, co-tenants);
/// host noise only ever *lowers* throughput, so enough rounds that a
/// quiet patch covers at least one adjacent off/on pair makes the
/// per-arm best an honest capacity estimate.
const OBS_PROBE_ROUNDS: usize = 4;
/// Fixed-rate steps per probe arm (full mode). Each arm's reading is
/// the best accepted rate across its steps — loss noise only lowers a
/// step, so the max is the honest capacity estimate.
const OBS_PROBE_STEPS: usize = 3;
/// The queue-wait SLO bound of the "SLO knee": a step only counts as
/// sustained-within-SLO when it was lossless *and* its sampled p99
/// LookUp-queue residency stayed at or under this (10 ms). Chosen an
/// order of magnitude above healthy service time and two below the
/// buffer-depth artifact it exists to expose.
pub const SLO_P99_LIMIT_US: u64 = 10_000;
/// The fixed-rate tail probe after each knee search runs at this
/// fraction of the raw knee; its p99 queue wait is the per-run
/// `p99_at_80pct_us` — the number shard counts are compared at.
const KNEE_PROBE_FRACTION: f64 = 0.8;
/// Paired A/B rounds of the speedup-variance probe (full mode).
const VARIANCE_ROUNDS: usize = 2;
/// Fixed-rate steps per variance arm (full mode); every step is kept as
/// an independent reading (unlike the overhead probe, which takes the
/// max) because the *spread* is the measurement here.
const VARIANCE_STEPS: usize = 2;

/// Parameters of one harness invocation.
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// `true` for the CI smoke mode (seconds, not minutes, of runtime).
    pub smoke: bool,
    /// NetFlow `SO_REUSEPORT` group size of the batched run.
    pub netflow_listeners: usize,
    /// Drain bound of the batched run (the baseline always uses 1).
    pub recv_batch: usize,
    /// Sender threads driving the offered load.
    pub senders: usize,
    /// Duration of each offered-load step.
    pub step: Duration,
    /// Distinct (name, address) pairs preloaded into the DNS store.
    pub dns_entries: usize,
    /// Flow records per NetFlow datagram, 1..=[`MAX_RECORDS_PER_DATAGRAM`].
    /// Real exporters flush export packets on timers, so partial
    /// datagrams are the norm at an ISP edge with many routers; a small
    /// value stresses the per-datagram path the batching work targets.
    pub records_per_datagram: usize,
    /// First step's offered load, records/s.
    pub initial_rate: f64,
    /// Multiplier between steps.
    pub growth: f64,
    /// Hard cap on steps per run.
    pub max_steps: usize,
    /// A step whose drop rate exceeds this (percent) ends the run.
    pub drop_limit_pct: f64,
    /// Attempts per step before declaring it over the drop limit. Loss
    /// has no negative direction — scheduler noise can only *inflate* a
    /// step's drop rate — so the best of N trials is the honest reading
    /// and retries filter transient interference on shared hosts.
    pub trials: usize,
    /// Correlator shards for this run. The main batched/baseline runs
    /// and every probe arm use 1; the `scaling` section clones the
    /// config with 2 and 4.
    pub correlator_shards: usize,
}

/// Listener count for the batched run: one per core, capped at 4. The
/// `SO_REUSEPORT` group exists to spread load across cores, so on a
/// single-core CI box one listener is correct — extra listener threads
/// there only add scheduler churn and would make the batched run *slower*
/// than the baseline for reasons unrelated to the drain path under test.
fn listeners_for_host() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

impl SaturationConfig {
    /// The full measurement mode: steps until sustained drop.
    pub fn full() -> Self {
        // Thread counts are deliberately lean: the harness usually runs
        // inside small CI boxes (often a single core), where extra
        // listener and worker threads only add scheduler churn. On big
        // multi-core hosts, raising `netflow_listeners` and `senders`
        // together scales the measured ceiling up.
        SaturationConfig {
            smoke: false,
            netflow_listeners: listeners_for_host(),
            recv_batch: 32,
            senders: 1,
            step: Duration::from_secs(2),
            dns_entries: 4096,
            records_per_datagram: 5,
            initial_rate: 50_000.0,
            growth: 1.5,
            max_steps: 14,
            drop_limit_pct: 1.0,
            trials: 3,
            correlator_shards: 1,
        }
    }

    /// The CI smoke mode: same code path, fixed short duration.
    pub fn smoke() -> Self {
        SaturationConfig {
            smoke: true,
            netflow_listeners: listeners_for_host(),
            recv_batch: 32,
            senders: 1,
            step: Duration::from_millis(400),
            dns_entries: 256,
            records_per_datagram: 5,
            initial_rate: 30_000.0,
            growth: 2.0,
            max_steps: 3,
            drop_limit_pct: 5.0,
            trials: 2,
            correlator_shards: 1,
        }
    }
}

/// What one offered-load step measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// The load the pacing aimed for, records/s.
    pub offered_per_sec: f64,
    /// What the senders actually put on the wire, records/s.
    pub sent_per_sec: f64,
    /// Records that entered the LookUp queue, records/s (decoded flows
    /// minus queue drops).
    pub accepted_per_sec: f64,
    /// Share of sent records not accepted, percent — kernel socket-buffer
    /// loss plus pipeline queue drops, the paper's "loss on the streams".
    pub drop_pct: f64,
    /// The part of `drop_pct` lost at the bounded LookUp queue (the rest
    /// never made it off the kernel socket buffer).
    pub queue_drop_pct: f64,
    /// Median sampled LookUp-queue residency during the step, µs.
    pub p50_queue_latency_us: u64,
    /// 99th-percentile sampled LookUp-queue residency, µs.
    pub p99_queue_latency_us: u64,
    /// 99.9th-percentile sampled LookUp-queue residency, µs — the tail
    /// an operator's SLO actually trips on.
    pub p999_queue_latency_us: u64,
    /// Residency samples resolved during the step.
    pub queue_latency_samples: u64,
}

/// One run of the stepped procedure (batched or baseline).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Effective listener-group size (may be clamped to 1 off-Linux).
    pub listeners: usize,
    /// `recv_batch` the run used.
    pub recv_batch: usize,
    /// Every step, in offered-load order.
    pub steps: Vec<StepMetrics>,
    /// The highest-accepted-rate step that stayed within the drop limit
    /// (the rate the run *sustained*; falls back to the best step overall
    /// if every step was over the limit).
    pub peak: StepMetrics,
    /// Whether the run ended by exceeding the drop limit (as opposed to
    /// running out of steps or out-driving the senders).
    pub saturated: bool,
    /// Mean datagrams taken per socket drain across the whole run —
    /// direct evidence of how deep the batched receive loop actually
    /// went (1.0 by construction for the per-datagram baseline).
    pub avg_drain: f64,
    /// The SLO knee: the highest-accepted step that was lossless
    /// (`drop_pct == 0`) with p99 queue wait ≤ [`SLO_P99_LIMIT_US`].
    /// `None` when no step qualified — a run that only ever sustained
    /// load by letting the queue-wait tail blow out.
    pub slo_knee: Option<StepMetrics>,
    /// Sampled p99 queue wait of one fixed-rate probe step at
    /// `KNEE_PROBE_FRACTION` (80 %) of the raw knee, µs — the comparable
    /// tail number across shard counts.
    pub p99_at_80pct_us: u64,
}

/// One point of the shared-nothing scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// `correlator_shards` this knee search ran with.
    pub shards: usize,
    /// Raw knee: best accepted rate within the drop limit, records/s.
    pub raw_knee_per_sec: f64,
    /// SLO knee accepted rate (lossless, p99 ≤ 10 ms), if any step
    /// qualified.
    pub slo_knee_per_sec: Option<f64>,
    /// p99 queue wait at 80 % of this point's raw knee, µs.
    pub p99_at_80pct_us: u64,
}

/// The speedup-confidence probe: paired fixed-rate A/B arms (batched
/// topology vs per-datagram baseline, alternating) at the batched knee
/// rate. Every step of every arm is kept as an independent reading; the
/// within-arm spread is the host's trial variance and the between-arm
/// gap is the measured effect.
#[derive(Debug, Clone)]
pub struct SpeedupVariance {
    /// The common offered rate both arms were driven at, records/s.
    pub probe_rate_per_sec: f64,
    /// Accepted-rate readings of the batched-topology arms.
    pub batched_readings: Vec<f64>,
    /// Accepted-rate readings of the per-datagram baseline arms.
    pub baseline_readings: Vec<f64>,
}

impl SpeedupVariance {
    fn mean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    fn arm_spread_pct(xs: &[f64]) -> f64 {
        let mean = Self::mean(xs);
        if xs.is_empty() || mean <= 0.0 {
            return 0.0;
        }
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / mean * 100.0
    }

    /// Mean batched reading over mean baseline reading, as a percent
    /// gain (positive = batched faster).
    pub fn effect_pct(&self) -> f64 {
        let base = Self::mean(&self.baseline_readings);
        if base <= 0.0 {
            return 0.0;
        }
        (Self::mean(&self.batched_readings) - base) / base * 100.0
    }

    /// The worse (larger) of the two arms' within-arm relative spreads.
    pub fn spread_pct(&self) -> f64 {
        Self::arm_spread_pct(&self.batched_readings)
            .max(Self::arm_spread_pct(&self.baseline_readings))
    }

    /// `true` when trial noise is at least as large as the measured
    /// effect — the headline speedup is not distinguishable from noise
    /// on this host and must not be quoted as a result.
    pub fn inconclusive(&self) -> bool {
        self.spread_pct() >= self.effect_pct().abs()
    }
}

/// The observability tax, measured as a paired fixed-rate A/B probe at
/// the batched run's knee rate: alternating fresh runtimes with
/// telemetry off and fully on, each read as its best accepted rate
/// across the probe steps.
#[derive(Debug, Clone, Copy)]
pub struct ObsOverhead {
    /// Best probe reading with telemetry off (no endpoint, no tracing).
    pub off_peak_per_sec: f64,
    /// Best probe reading with `/metrics` polled every 250 ms
    /// (`SCRAPE_INTERVAL`) and 1-in-1024 (`TRACE_SAMPLE_EVERY`)
    /// tracing on.
    pub on_peak_per_sec: f64,
    /// `(off − on) / off × 100`. Positive means telemetry cost
    /// throughput; small negative values are run-to-run noise.
    pub regression_pct: f64,
    /// `/metrics` scrapes completed across the telemetry arms.
    pub scrapes: u64,
    /// Flight-recorder spans written across the telemetry arms.
    pub trace_spans: u64,
}

/// What a telemetry-enabled arm observed about its own telemetry.
struct ObsRunStats {
    scrapes: u64,
    trace_spans: u64,
}

/// The harness's complete result, ready to serialize.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Configuration the harness ran with.
    pub config: SaturationConfig,
    /// The batched-drain run.
    pub batched: RunResult,
    /// The per-datagram, single-listener baseline run.
    pub baseline: RunResult,
    /// The batched run re-measured with telemetry live, versus `batched`.
    pub obs_overhead: ObsOverhead,
    /// The knee search per shard count ({1, 2, 4} full — the 1-shard
    /// point is `batched` itself — {2} smoke).
    pub scaling: Vec<ScalingPoint>,
    /// The paired A/B confidence probe behind `speedup_vs_baseline`.
    pub variance: SpeedupVariance,
}

impl SaturationReport {
    /// Peak-accepted-rate ratio of the batched run over the baseline.
    pub fn speedup_vs_baseline(&self) -> f64 {
        if self.baseline.peak.accepted_per_sec > 0.0 {
            self.batched.peak.accepted_per_sec / self.baseline.peak.accepted_per_sec
        } else {
            0.0
        }
    }
}

/// Run the full procedure: batched knee search, per-datagram baseline
/// knee search, the paired telemetry-overhead probe at the batched knee
/// rate, the speedup-variance probe at the same rate, and one knee
/// search per further scaling shard count.
pub fn run(config: &SaturationConfig) -> Result<SaturationReport, FlowDnsError> {
    let pool = saturation_pool(config.dns_entries);
    let datagrams = Arc::new(encode_datagrams(&pool, config.records_per_datagram)?);
    let batched = run_one(
        config,
        config.netflow_listeners,
        config.recv_batch,
        &pool,
        &datagrams,
    )?;
    let baseline = run_one(config, 1, 1, &pool, &datagrams)?;
    let obs_overhead =
        measure_obs_overhead(config, &pool, &datagrams, batched.peak.offered_per_sec)?;
    let variance =
        measure_speedup_variance(config, &pool, &datagrams, batched.peak.offered_per_sec)?;
    // The scaling curve: the same knee search at more shards. The full
    // pass starts from the batched run (its `correlator_shards` point);
    // the smoke pass keeps a single 2-shard point so CI exercises the
    // routed-counter accounting check across shards on every run.
    let point = |shards: usize, run: &RunResult| ScalingPoint {
        shards,
        raw_knee_per_sec: run.peak.accepted_per_sec,
        slo_knee_per_sec: run.slo_knee.map(|s| s.accepted_per_sec),
        p99_at_80pct_us: run.p99_at_80pct_us,
    };
    let mut scaling = Vec::new();
    let more_shards: &[usize] = if config.smoke {
        &[2]
    } else {
        scaling.push(point(config.correlator_shards, &batched));
        &[2, 4]
    };
    for &shards in more_shards {
        let mut wider = config.clone();
        wider.correlator_shards = shards;
        let run = run_one(
            &wider,
            config.netflow_listeners,
            config.recv_batch,
            &pool,
            &datagrams,
        )?;
        scaling.push(point(shards, &run));
    }
    Ok(SaturationReport {
        config: config.clone(),
        batched,
        baseline,
        obs_overhead,
        scaling,
        variance,
    })
}

/// The speedup-confidence probe: alternating batched-topology and
/// per-datagram-baseline arms at the fixed batched knee rate, keeping
/// every step's accepted rate as an independent reading. At this rate
/// the batched arm accepts ≈ the offered load and the baseline arm
/// accepts ≈ its own (lower) capacity, so the between-arm gap *is* the
/// speedup effect — measured with the same fixed-rate methodology whose
/// within-arm spread quantifies the host's trial noise.
fn measure_speedup_variance(
    config: &SaturationConfig,
    pool: &[(flowdns_types::DomainName, std::net::Ipv4Addr)],
    datagrams: &Arc<Vec<Vec<u8>>>,
    knee_rate: f64,
) -> Result<SpeedupVariance, FlowDnsError> {
    let (rounds, steps) = if config.smoke {
        (1, 1)
    } else {
        (VARIANCE_ROUNDS, VARIANCE_STEPS)
    };
    let mut batched_readings = Vec::new();
    let mut baseline_readings = Vec::new();
    for _ in 0..rounds {
        let (readings, _) = probe_arm(
            config,
            pool,
            datagrams,
            knee_rate,
            config.netflow_listeners,
            config.recv_batch,
            false,
            steps,
        )?;
        batched_readings.extend(readings);
        let (readings, _) = probe_arm(config, pool, datagrams, knee_rate, 1, 1, false, steps)?;
        baseline_readings.extend(readings);
    }
    Ok(SpeedupVariance {
        probe_rate_per_sec: knee_rate,
        batched_readings,
        baseline_readings,
    })
}

/// The paired A/B overhead probe: alternating off/on arms at the fixed
/// `knee_rate`, best reading per arm across all rounds. Comparing two
/// independently bisected knees cannot resolve a sub-1 % overhead
/// (knee location jitters several percent run to run); accepted
/// throughput at a fixed offered rate can.
fn measure_obs_overhead(
    config: &SaturationConfig,
    pool: &[(flowdns_types::DomainName, std::net::Ipv4Addr)],
    datagrams: &Arc<Vec<Vec<u8>>>,
    knee_rate: f64,
) -> Result<ObsOverhead, FlowDnsError> {
    let (rounds, steps) = if config.smoke {
        (1, 2)
    } else {
        (OBS_PROBE_ROUNDS, OBS_PROBE_STEPS)
    };
    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    let mut scrapes = 0u64;
    let mut trace_spans = 0u64;
    let best_of = |readings: &[f64]| readings.iter().cloned().fold(0.0f64, f64::max);
    for _ in 0..rounds {
        let (off, _) = probe_arm(
            config,
            pool,
            datagrams,
            knee_rate,
            config.netflow_listeners,
            config.recv_batch,
            false,
            steps,
        )?;
        let (on, stats) = probe_arm(
            config,
            pool,
            datagrams,
            knee_rate,
            config.netflow_listeners,
            config.recv_batch,
            true,
            steps,
        )?;
        best_off = best_off.max(best_of(&off));
        best_on = best_on.max(best_of(&on));
        if let Some(stats) = stats {
            scrapes += stats.scrapes;
            trace_spans += stats.trace_spans;
        }
    }
    let regression_pct = if best_off > 0.0 {
        (best_off - best_on) / best_off * 100.0
    } else {
        0.0
    };
    Ok(ObsOverhead {
        off_peak_per_sec: best_off,
        on_peak_per_sec: best_on,
        regression_pct,
        scrapes,
        trace_spans,
    })
}

/// One probe arm: a fresh runtime of the given topology (telemetry per
/// `telemetry`), one warm-up step, then `steps` paced steps at `rate`;
/// returns every step's accepted rate (callers decide whether the max
/// or the spread is the measurement).
#[allow(clippy::too_many_arguments)]
fn probe_arm(
    config: &SaturationConfig,
    pool: &[(flowdns_types::DomainName, std::net::Ipv4Addr)],
    datagrams: &Arc<Vec<Vec<u8>>>,
    rate: f64,
    listeners: usize,
    recv_batch: usize,
    telemetry: bool,
    steps: usize,
) -> Result<(Vec<f64>, Option<ObsRunStats>), FlowDnsError> {
    let arm = ArmRuntime::start(config, listeners, recv_batch, pool, telemetry)?;
    let mut warm = config.clone();
    warm.step = Duration::from_millis(300);
    let _ = run_step(&arm.rt, datagrams, rate, &warm);
    let mut readings = Vec::with_capacity(steps.max(1));
    for _ in 0..steps.max(1) {
        let step = run_step(&arm.rt, datagrams, rate, config);
        readings.push(step.accepted_per_sec);
    }
    let stats = arm.finish()?;
    Ok((readings, stats))
}

/// Pre-encode the whole pool as max-size v5 datagrams; every pool
/// address appears, so the steady-state lookup path is all store hits.
/// The pool is cycled up to a multiple of `per_datagram` so every
/// datagram carries exactly the same record count — the senders'
/// `packets × records_per_datagram` accounting stays exact.
fn encode_datagrams(
    pool: &[(flowdns_types::DomainName, std::net::Ipv4Addr)],
    per_datagram: usize,
) -> Result<Vec<Vec<u8>>, FlowDnsError> {
    let per_datagram = per_datagram.clamp(1, MAX_RECORDS_PER_DATAGRAM);
    let full_len = pool.len().div_ceil(per_datagram) * per_datagram;
    let cycled: Vec<_> = pool.iter().cycle().take(full_len).collect();
    let mut out = Vec::with_capacity(full_len / per_datagram);
    for chunk in cycled.chunks(per_datagram) {
        let packet = V5Packet {
            header: V5Header {
                unix_secs: FLOW_TS_SECS,
                ..Default::default()
            },
            records: chunk
                .iter()
                .map(|(_, ip)| V5Record {
                    src_addr: *ip,
                    dst_addr: std::net::Ipv4Addr::new(192, 0, 2, 1),
                    src_port: 443,
                    dst_port: 50_000,
                    proto: 6,
                    packets: 10,
                    octets: 1_400,
                    ..Default::default()
                })
                .collect(),
        };
        out.push(packet.encode()?);
    }
    Ok(out)
}

/// Preload the DNS store over the real TCP feed and wait until every
/// entry is queryable.
fn preload_dns(
    rt: &IngestRuntime,
    pool: &[(flowdns_types::DomainName, std::net::Ipv4Addr)],
) -> Result<(), FlowDnsError> {
    let io_err = |e: std::io::Error| FlowDnsError::Io(e.to_string());
    let encoder = FrameEncoder::new();
    let records: Vec<DnsRecord> = pool
        .iter()
        .map(|(name, ip)| {
            DnsRecord::address(
                SimTime::from_secs(DNS_TS_SECS),
                name.clone(),
                (*ip).into(),
                86_400,
            )
        })
        .collect();
    let mut conn = TcpStream::connect(rt.dns_addr()).map_err(io_err)?;
    for chunk in records.chunks(512) {
        let frame = encoder.encode_batch(chunk)?;
        conn.write_all(&frame).map_err(io_err)?;
    }
    conn.flush().map_err(io_err)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while rt.correlator().stored_entries() < pool.len() {
        if Instant::now() > deadline {
            return Err(FlowDnsError::PipelineState(format!(
                "DNS preload stalled: {}/{} entries",
                rt.correlator().stored_entries(),
                pool.len()
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// A started `IngestRuntime` plus the telemetry-arm trimmings (scraper
/// thread, trace file) when `telemetry` is on — shared by the knee
/// ladders (always off) and the overhead probe arms.
struct ArmRuntime {
    rt: IngestRuntime,
    stop_scraper: Arc<AtomicBool>,
    scraper: Option<std::thread::JoinHandle<u64>>,
    trace_path: Option<std::path::PathBuf>,
    telemetry: bool,
}

impl ArmRuntime {
    fn start(
        config: &SaturationConfig,
        listeners: usize,
        recv_batch: usize,
        pool: &[(flowdns_types::DomainName, std::net::Ipv4Addr)],
        telemetry: bool,
    ) -> Result<Self, FlowDnsError> {
        let mut daemon = DaemonConfig::default();
        daemon.ingest.netflow_bind = "127.0.0.1:0".parse().expect("loopback addr");
        daemon.ingest.dns_bind = "127.0.0.1:0".parse().expect("loopback addr");
        daemon.ingest.netflow_listeners = listeners;
        daemon.ingest.recv_batch = recv_batch;
        daemon.correlator.correlator_shards = config.correlator_shards;
        // The telemetry arm turns on everything an operator would: the
        // scrape endpoint (polled below) and sampled flow tracing.
        let trace_path = telemetry.then(|| {
            std::env::temp_dir().join(format!("flowdns-bench-trace-{}.jsonl", std::process::id()))
        });
        if let Some(path) = &trace_path {
            daemon.ingest.metrics_addr = Some("127.0.0.1:0".parse().expect("loopback addr"));
            daemon.correlator.trace_sample_every = TRACE_SAMPLE_EVERY;
            daemon.correlator.trace_path = Some(path.display().to_string());
        }
        // Correlated records are discarded after accounting (no
        // `output`), so the harness measures ingest + correlation, not
        // disk.
        let rt = IngestRuntime::start(&daemon)?;
        preload_dns(&rt, pool)?;

        // A concurrent scraper keeps the endpoint genuinely hot while
        // the load runs — overhead measured with an idle endpoint would
        // be zero by construction.
        let stop_scraper = Arc::new(AtomicBool::new(false));
        let scraper = rt.metrics_addr().map(|addr| {
            let stop = Arc::clone(&stop_scraper);
            std::thread::spawn(move || {
                let mut completed = 0u64;
                while !stop.load(Ordering::Acquire) {
                    if scrape_metrics(addr) {
                        completed += 1;
                    }
                    std::thread::sleep(SCRAPE_INTERVAL);
                }
                completed
            })
        });
        Ok(ArmRuntime {
            rt,
            stop_scraper,
            scraper,
            trace_path,
            telemetry,
        })
    }

    /// Stop the scraper, collect the telemetry stats, shut the runtime
    /// down and remove the trace files.
    fn finish(mut self) -> Result<Option<ObsRunStats>, FlowDnsError> {
        self.stop_scraper.store(true, Ordering::Release);
        let stats = self.telemetry.then(|| ObsRunStats {
            scrapes: self
                .scraper
                .take()
                .map(|h| h.join().unwrap_or(0))
                .unwrap_or(0),
            trace_spans: self
                .rt
                .registry()
                .snapshot()
                .counter("flowdns_trace_spans_total"),
        });
        self.rt.shutdown()?;
        if let Some(path) = &self.trace_path {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(format!("{}.1", path.display()));
        }
        Ok(stats)
    }
}

/// One blocking `/metrics` poll; `true` when a 200 came back complete.
fn scrape_metrics(addr: SocketAddr) -> bool {
    use std::io::Read;
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    if stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).is_ok() && response.starts_with("HTTP/1.1 200")
}

fn run_one(
    config: &SaturationConfig,
    listeners: usize,
    recv_batch: usize,
    pool: &[(flowdns_types::DomainName, std::net::Ipv4Addr)],
    datagrams: &Arc<Vec<Vec<u8>>>,
) -> Result<RunResult, FlowDnsError> {
    let arm = ArmRuntime::start(config, listeners, recv_batch, pool, false)?;
    let rt = &arm.rt;
    let effective_listeners = rt.snapshot().netflow_listeners.len();

    // Warm caches, threads, and queues before the first measured step.
    let mut warm = config.clone();
    warm.step = Duration::from_millis(300);
    let _ = run_step(rt, datagrams, config.initial_rate, &warm);

    // Best-of-N: loss can only be inflated by transient host noise,
    // so a step counts as sustained if any trial stays clean.
    let measured = |offered: f64| -> StepMetrics {
        let mut step = run_step(rt, datagrams, offered, config);
        for _ in 1..config.trials.max(1) {
            if step.drop_pct <= config.drop_limit_pct {
                break;
            }
            let again = run_step(rt, datagrams, offered, config);
            if again.drop_pct < step.drop_pct {
                step = again;
            }
        }
        step
    };

    let mut steps: Vec<StepMetrics> = Vec::new();
    let mut offered = config.initial_rate;
    let mut saturated = false;
    for _ in 0..config.max_steps {
        let step = measured(offered);
        let sender_bound = step.sent_per_sec < 0.7 * step.offered_per_sec;
        let over_limit = step.drop_pct > config.drop_limit_pct;
        steps.push(step);
        if over_limit {
            saturated = true;
            break;
        }
        if sender_bound {
            break; // the loopback driver, not the listener, is the limit
        }
        offered *= config.growth;
    }

    // The geometric ladder is coarse — `growth`× per step — so two
    // configurations with different capacities can fail on the same
    // rung. Bisect between the last clean rate and the failing rate to
    // locate this configuration's own knee.
    if saturated && steps.len() >= 2 {
        let mut lo = steps[steps.len() - 2].offered_per_sec;
        let mut hi = steps[steps.len() - 1].offered_per_sec;
        for _ in 0..REFINE_STEPS {
            let mid = (lo + hi) / 2.0;
            let step = measured(mid);
            let clean = step.drop_pct <= config.drop_limit_pct;
            steps.push(step);
            if clean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    let counters = rt.snapshot().netflow_listeners;
    let (datagram_total, drain_total) = counters
        .iter()
        .fold((0u64, 0u64), |(d, r), c| (d + c.datagrams, r + c.drains));
    let avg_drain = if drain_total == 0 {
        0.0
    } else {
        datagram_total as f64 / drain_total as f64
    };

    let best = |candidates: &[&StepMetrics]| {
        candidates
            .iter()
            .max_by(|a, b| a.accepted_per_sec.total_cmp(&b.accepted_per_sec))
            .map(|s| **s)
    };
    let clean: Vec<&StepMetrics> = steps
        .iter()
        .filter(|s| s.drop_pct <= config.drop_limit_pct)
        .collect();
    let peak = best(&clean)
        .or_else(|| best(&steps.iter().collect::<Vec<_>>()))
        .expect("at least one step ran");
    let slo_knee = slo_knee_of(&steps);

    // The comparable tail number: one fixed-rate step at 80 % of this
    // run's own raw knee, read for its p99 queue wait. Taken on the
    // same warm runtime so topology, not warm-up, is the variable.
    let probe = run_step(
        rt,
        datagrams,
        peak.offered_per_sec * KNEE_PROBE_FRACTION,
        config,
    );
    let p99_at_80pct_us = probe.p99_queue_latency_us;

    // Every accepted flow must be accounted for in the per-shard routed
    // counters — the CI smoke pass runs this check on every push (a
    // routing bug that loses or double-counts records would silently
    // invalidate the whole scaling curve).
    verify_shard_routing(rt, config.correlator_shards)?;
    arm.finish()?;

    Ok(RunResult {
        listeners: effective_listeners,
        recv_batch,
        steps,
        peak,
        saturated,
        avg_drain,
        slo_knee,
        p99_at_80pct_us,
    })
}

/// The SLO knee of a finished ladder: the highest-accepted step that
/// was lossless with its p99 queue wait within [`SLO_P99_LIMIT_US`].
fn slo_knee_of(steps: &[StepMetrics]) -> Option<StepMetrics> {
    steps
        .iter()
        .filter(|s| s.drop_pct == 0.0 && s.p99_queue_latency_us <= SLO_P99_LIMIT_US)
        .max_by(|a, b| a.accepted_per_sec.total_cmp(&b.accepted_per_sec))
        .copied()
}

/// Cross-check the pipeline's routing accounting: the per-shard routed
/// counters (SPSC lane accepts) must sum to exactly the flows the
/// listener side reports as decoded-minus-queue-dropped, one counter
/// vector entry per shard, and under a hash-balanced pool no shard may
/// sit at zero.
fn verify_shard_routing(rt: &IngestRuntime, shards: usize) -> Result<(), FlowDnsError> {
    let (_, flow_routed) = rt.correlator().shard_routed_counts().ok_or_else(|| {
        FlowDnsError::PipelineState("correlator exposes no per-shard routed counters".into())
    })?;
    if flow_routed.len() != shards {
        return Err(FlowDnsError::PipelineState(format!(
            "routed-counter vector has {} entries for {shards} shards",
            flow_routed.len()
        )));
    }
    let summary = rt.snapshot().summary;
    let accepted = summary
        .netflow_flows
        .saturating_sub(summary.netflow_queue_drops);
    let routed: u64 = flow_routed.iter().sum();
    if routed != accepted {
        return Err(FlowDnsError::PipelineState(format!(
            "per-shard routed counters sum to {routed} but the listeners accepted {accepted} \
             flows ({} decoded − {} queue drops)",
            summary.netflow_flows, summary.netflow_queue_drops
        )));
    }
    if flow_routed.contains(&0) {
        return Err(FlowDnsError::PipelineState(format!(
            "a shard received zero flows from a hash-balanced pool: {flow_routed:?}"
        )));
    }
    Ok(())
}

/// Drive one offered-load step and measure it from snapshot deltas.
fn run_step(
    rt: &IngestRuntime,
    datagrams: &Arc<Vec<Vec<u8>>>,
    offered_per_sec: f64,
    config: &SaturationConfig,
) -> StepMetrics {
    let senders = config.senders;
    let step = config.step;
    let per_datagram = config
        .records_per_datagram
        .clamp(1, MAX_RECORDS_PER_DATAGRAM);
    let target = rt.netflow_addr();
    let before = rt.snapshot();
    let start = Instant::now();
    let handles: Vec<_> = (0..senders.max(1))
        .map(|s| {
            let datagrams = Arc::clone(datagrams);
            let pps = offered_per_sec / per_datagram as f64 / senders.max(1) as f64;
            std::thread::spawn(move || send_paced(&datagrams, target, s, pps, step))
        })
        .collect();
    let packets_sent: u64 = handles.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    let send_window = start.elapsed().as_secs_f64().max(1e-6);
    std::thread::sleep(DRAIN_PAUSE);
    let after = rt.snapshot();

    let sent = packets_sent * per_datagram as u64;
    let decoded = after.summary.netflow_flows - before.summary.netflow_flows;
    let queue_dropped = after.summary.netflow_queue_drops - before.summary.netflow_queue_drops;
    let accepted = decoded.saturating_sub(queue_dropped).min(sent);
    let latency = latency_delta(&after, &before);
    let pct = |part: u64| {
        if sent == 0 {
            0.0
        } else {
            part as f64 / sent as f64 * 100.0
        }
    };
    StepMetrics {
        offered_per_sec,
        sent_per_sec: sent as f64 / send_window,
        accepted_per_sec: accepted as f64 / send_window,
        drop_pct: pct(sent - accepted),
        queue_drop_pct: pct(queue_dropped.min(sent)),
        p50_queue_latency_us: latency.p50_us(),
        p99_queue_latency_us: latency.p99_us(),
        p999_queue_latency_us: latency.p999_us(),
        queue_latency_samples: latency.count,
    }
}

fn latency_delta(
    after: &IngestSnapshot,
    before: &IngestSnapshot,
) -> flowdns_stream::LatencySnapshot {
    after
        .pipeline
        .lookup_queue_latency
        .delta(&before.pipeline.lookup_queue_latency)
}

/// One sender thread: fire pre-encoded datagrams at `pps` packets/s
/// until the step window closes. Returns packets sent.
fn send_paced(
    datagrams: &[Vec<u8>],
    target: SocketAddr,
    seed: usize,
    pps: f64,
    window: Duration,
) -> u64 {
    let socket = match UdpSocket::bind("127.0.0.1:0") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    if socket.connect(target).is_err() {
        return 0;
    }
    let start = Instant::now();
    let mut sent = 0u64;
    // Different senders start at different pool offsets so the union of
    // their traffic still covers every exporter address evenly.
    let mut index = seed * datagrams.len() / 4;
    loop {
        let elapsed = start.elapsed();
        if elapsed >= window {
            break;
        }
        // Send whatever the pacing schedule says should have left by
        // now, in sendmmsg(2) bursts so the driver's own syscall rate
        // stays far below the listener's — otherwise the load generator
        // competing for the same cores becomes the thing measured.
        let due = (elapsed.as_secs_f64() * pps).ceil() as u64;
        while sent < due {
            let backlog = ((due - sent) as usize).min(SEND_BURST);
            let from = index % datagrams.len();
            let to = (from + backlog).min(datagrams.len());
            let views: Vec<&[u8]> = datagrams[from..to].iter().map(|d| d.as_slice()).collect();
            match flowdns_ingest::mmsg::send_burst(&socket, &views) {
                Ok(n) => {
                    sent += n as u64;
                    index += n.max(1);
                }
                Err(_) => index += 1, // transient; skip one slot and retry
            }
            if start.elapsed() >= window {
                return sent;
            }
        }
        std::thread::sleep(PACING_TICK);
    }
    sent
}

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

/// Render a float for JSON: finite values with three decimals, non-finite
/// as `null` (which the schema validator then rejects — NaNs must fail
/// loudly, not round-trip silently).
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn step_json(step: &StepMetrics, indent: &str) -> String {
    format!(
        "{indent}{{\"offered_per_sec\": {}, \"sent_per_sec\": {}, \"accepted_per_sec\": {}, \
         \"drop_pct\": {}, \"queue_drop_pct\": {}, \"p50_queue_latency_us\": {}, \
         \"p99_queue_latency_us\": {}, \"p999_queue_latency_us\": {}, \
         \"queue_latency_samples\": {}}}",
        jnum(step.offered_per_sec),
        jnum(step.sent_per_sec),
        jnum(step.accepted_per_sec),
        jnum(step.drop_pct),
        jnum(step.queue_drop_pct),
        step.p50_queue_latency_us,
        step.p99_queue_latency_us,
        step.p999_queue_latency_us,
        step.queue_latency_samples,
    )
}

fn run_json(run: &RunResult) -> String {
    let steps: Vec<String> = run.steps.iter().map(|s| step_json(s, "      ")).collect();
    let slo_knee = match &run.slo_knee {
        Some(step) => step_json(step, "").trim_start().to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\n    \"listeners\": {},\n    \"recv_batch\": {},\n    \"saturated\": {},\n    \
         \"avg_drain\": {},\n    \"steps\": [\n{}\n    ],\n    \"peak\": {},\n    \
         \"slo_knee\": {},\n    \"p99_at_80pct_us\": {}\n  }}",
        run.listeners,
        run.recv_batch,
        run.saturated,
        jnum(run.avg_drain),
        steps.join(",\n"),
        step_json(&run.peak, "").trim_start(),
        slo_knee,
        run.p99_at_80pct_us,
    )
}

fn scaling_json(points: &[ScalingPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"shards\": {}, \"raw_knee_per_sec\": {}, \"slo_knee_per_sec\": {}, \
                 \"p99_at_80pct_us\": {}}}",
                p.shards,
                jnum(p.raw_knee_per_sec),
                p.slo_knee_per_sec.map_or("null".to_string(), jnum),
                p.p99_at_80pct_us,
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn variance_json(v: &SpeedupVariance) -> String {
    let list = |xs: &[f64]| {
        let rendered: Vec<String> = xs.iter().map(|&x| jnum(x)).collect();
        format!("[{}]", rendered.join(", "))
    };
    format!(
        "{{\"probe_rate_per_sec\": {}, \"batched_readings\": {}, \"baseline_readings\": {}, \
         \"effect_pct\": {}, \"spread_pct\": {}, \"inconclusive\": {}}}",
        jnum(v.probe_rate_per_sec),
        list(&v.batched_readings),
        list(&v.baseline_readings),
        jnum(v.effect_pct()),
        jnum(v.spread_pct()),
        v.inconclusive(),
    )
}

impl SaturationReport {
    /// Serialize to the `flowdns-bench/saturation/v4` JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"flowdns-bench/saturation/v4\",\n  \"bench\": \"saturation\",\n  \
             \"mode\": \"{}\",\n  \"config\": {{\"netflow_listeners\": {}, \"recv_batch\": {}, \
             \"correlator_shards\": {}, \"senders\": {}, \"step_secs\": {}, \"trials\": {}, \
             \"dns_entries\": {}, \"records_per_datagram\": {}, \"slo_p99_limit_us\": {}}},\n  \
             \"batched\": {},\n  \
             \"baseline\": {},\n  \"speedup_vs_baseline\": {},\n  \"obs_overhead\": \
             {{\"off_peak_per_sec\": {}, \"on_peak_per_sec\": {}, \"regression_pct\": {}, \
             \"scrapes\": {}, \"trace_spans\": {}}},\n  \"variance\": {},\n  \
             \"scaling\": {}\n}}\n",
            if self.config.smoke { "smoke" } else { "full" },
            self.config.netflow_listeners,
            self.config.recv_batch,
            self.config.correlator_shards,
            self.config.senders,
            jnum(self.config.step.as_secs_f64()),
            self.config.trials,
            self.config.dns_entries,
            self.config.records_per_datagram,
            SLO_P99_LIMIT_US,
            run_json(&self.batched),
            run_json(&self.baseline),
            jnum(self.speedup_vs_baseline()),
            jnum(self.obs_overhead.off_peak_per_sec),
            jnum(self.obs_overhead.on_peak_per_sec),
            jnum(self.obs_overhead.regression_pct),
            self.obs_overhead.scrapes,
            self.obs_overhead.trace_spans,
            variance_json(&self.variance),
            scaling_json(&self.scaling),
        )
    }
}

// ---------------------------------------------------------------------
// JSON validation (the CI `--check` path)
// ---------------------------------------------------------------------

use crate::jsonv::{parse_document, require_num, Json};

fn check_step(step: &Json, context: &str) -> Result<(), String> {
    for key in [
        "offered_per_sec",
        "sent_per_sec",
        "accepted_per_sec",
        "drop_pct",
        "queue_drop_pct",
        "p50_queue_latency_us",
        "p99_queue_latency_us",
        "p999_queue_latency_us",
        "queue_latency_samples",
    ] {
        let x = require_num(step, key, context)?;
        if x < 0.0 {
            return Err(format!("{context}: '{key}' is negative"));
        }
    }
    if require_num(step, "offered_per_sec", context)? <= 0.0 {
        return Err(format!("{context}: offered_per_sec must be positive"));
    }
    Ok(())
}

fn check_run(doc: &Json, name: &str) -> Result<(), String> {
    let run = doc
        .get(name)
        .ok_or_else(|| format!("missing top-level object '{name}'"))?;
    require_num(run, "listeners", name)?;
    require_num(run, "recv_batch", name)?;
    require_num(run, "avg_drain", name)?;
    match run.get("saturated") {
        Some(Json::Bool(_)) => {}
        _ => return Err(format!("{name}: 'saturated' must be a boolean")),
    }
    let steps = match run.get("steps") {
        Some(Json::Arr(steps)) => steps,
        _ => return Err(format!("{name}: 'steps' must be an array")),
    };
    if steps.is_empty() {
        return Err(format!("{name}: 'steps' is empty"));
    }
    for (i, step) in steps.iter().enumerate() {
        check_step(step, &format!("{name}.steps[{i}]"))?;
    }
    let peak = run
        .get("peak")
        .ok_or_else(|| format!("{name}: missing 'peak'"))?;
    check_step(peak, &format!("{name}.peak"))?;
    if require_num(peak, "accepted_per_sec", name)? <= 0.0 {
        return Err(format!("{name}.peak: accepted_per_sec must be positive"));
    }
    // The SLO knee may honestly be null (no lossless ≤10 ms step),
    // but the key itself must be present, and when it is a step it must
    // be a complete one.
    match run.get("slo_knee") {
        Some(Json::Null) => {}
        Some(step) => check_step(step, &format!("{name}.slo_knee"))?,
        None => return Err(format!("{name}: missing 'slo_knee'")),
    }
    if require_num(run, "p99_at_80pct_us", name)? < 0.0 {
        return Err(format!("{name}: 'p99_at_80pct_us' is negative"));
    }
    Ok(())
}

fn check_scaling(doc: &Json) -> Result<(), String> {
    let points = match doc.get("scaling") {
        Some(Json::Arr(points)) => points,
        Some(_) => return Err("'scaling' must be an array".into()),
        None => return Err("missing top-level array 'scaling'".into()),
    };
    if points.is_empty() {
        return Err("'scaling' is empty".into());
    }
    for (i, point) in points.iter().enumerate() {
        let context = format!("scaling[{i}]");
        if require_num(point, "shards", &context)? < 1.0 {
            return Err(format!("{context}: 'shards' must be at least 1"));
        }
        if require_num(point, "raw_knee_per_sec", &context)? <= 0.0 {
            return Err(format!("{context}: 'raw_knee_per_sec' must be positive"));
        }
        match point.get("slo_knee_per_sec") {
            Some(Json::Null) => {}
            Some(Json::Num(x)) if x.is_finite() && *x >= 0.0 => {}
            _ => {
                return Err(format!(
                    "{context}: 'slo_knee_per_sec' must be null or a non-negative number"
                ))
            }
        }
        if require_num(point, "p99_at_80pct_us", &context)? < 0.0 {
            return Err(format!("{context}: 'p99_at_80pct_us' is negative"));
        }
    }
    Ok(())
}

fn check_variance(doc: &Json) -> Result<(), String> {
    let v = doc
        .get("variance")
        .ok_or("missing top-level object 'variance'")?;
    if require_num(v, "probe_rate_per_sec", "variance")? <= 0.0 {
        return Err("variance: 'probe_rate_per_sec' must be positive".into());
    }
    for key in ["batched_readings", "baseline_readings"] {
        let readings = match v.get(key) {
            Some(Json::Arr(readings)) => readings,
            _ => return Err(format!("variance: '{key}' must be an array")),
        };
        if readings.is_empty() {
            return Err(format!("variance: '{key}' is empty"));
        }
        for (i, reading) in readings.iter().enumerate() {
            match reading.as_num() {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                _ => return Err(format!("variance: '{key}[{i}]' is not a finite number")),
            }
        }
    }
    // Sign-free: a baseline arm outrunning the batched arm is a real
    // (negative) effect reading, not a schema violation.
    require_num(v, "effect_pct", "variance")?;
    if require_num(v, "spread_pct", "variance")? < 0.0 {
        return Err("variance: 'spread_pct' is negative".into());
    }
    match v.get("inconclusive") {
        Some(Json::Bool(_)) => Ok(()),
        _ => Err("variance: 'inconclusive' must be a boolean".into()),
    }
}

/// Validate a `BENCH_saturation.json` document against the v4 schema:
/// every documented key present, steps non-empty, every numeric field
/// finite (non-negative except `regression_pct` and `effect_pct`,
/// which noise can push below zero), both runs' peaks positive, each
/// run's `slo_knee` present (possibly null) and `p99_at_80pct_us`
/// recorded, the speedup recorded, the `obs_overhead` section complete
/// with at least one completed scrape, the `variance` confidence probe
/// complete, and a non-empty `scaling` curve. Returns a
/// human-readable reason on failure.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = parse_document(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("flowdns-bench/saturation/v4") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing 'schema'".into()),
    }
    match doc.get("mode").and_then(Json::as_str) {
        Some("smoke") | Some("full") => {}
        _ => return Err("'mode' must be \"smoke\" or \"full\"".into()),
    }
    let config = doc.get("config").ok_or("missing 'config'")?;
    for key in [
        "netflow_listeners",
        "recv_batch",
        "correlator_shards",
        "senders",
        "step_secs",
        "trials",
        "dns_entries",
        "records_per_datagram",
        "slo_p99_limit_us",
    ] {
        if require_num(config, key, "config")? <= 0.0 {
            return Err(format!("config: '{key}' must be positive"));
        }
    }
    check_run(&doc, "batched")?;
    check_run(&doc, "baseline")?;
    let speedup = require_num(&doc, "speedup_vs_baseline", "document")?;
    if speedup <= 0.0 {
        return Err("speedup_vs_baseline must be positive".into());
    }
    let obs = doc
        .get("obs_overhead")
        .ok_or("missing top-level object 'obs_overhead'")?;
    for key in ["off_peak_per_sec", "on_peak_per_sec"] {
        if require_num(obs, key, "obs_overhead")? <= 0.0 {
            return Err(format!("obs_overhead: '{key}' must be positive"));
        }
    }
    // Sign-free on purpose: a telemetry run faster than its control is
    // ordinary measurement noise, not a schema violation.
    require_num(obs, "regression_pct", "obs_overhead")?;
    if require_num(obs, "scrapes", "obs_overhead")? < 1.0 {
        return Err("obs_overhead: the telemetry run never completed a scrape".into());
    }
    if require_num(obs, "trace_spans", "obs_overhead")? < 0.0 {
        return Err("obs_overhead: 'trace_spans' is negative".into());
    }
    check_variance(&doc)?;
    check_scaling(&doc)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_step(rate: f64) -> StepMetrics {
        StepMetrics {
            offered_per_sec: rate,
            sent_per_sec: rate * 0.98,
            accepted_per_sec: rate * 0.97,
            drop_pct: 1.02,
            queue_drop_pct: 0.4,
            p50_queue_latency_us: 120,
            p99_queue_latency_us: 900,
            p999_queue_latency_us: 2_400,
            queue_latency_samples: 1_000,
        }
    }

    /// A step that satisfies the SLO-knee predicate (lossless, tight
    /// tail) at the given rate.
    fn clean_step(rate: f64) -> StepMetrics {
        StepMetrics {
            drop_pct: 0.0,
            queue_drop_pct: 0.0,
            p99_queue_latency_us: 1_800,
            p999_queue_latency_us: 4_000,
            ..fake_step(rate)
        }
    }

    fn fake_report() -> SaturationReport {
        let run = |listeners, recv_batch, rate: f64| RunResult {
            listeners,
            recv_batch,
            steps: vec![clean_step(rate), fake_step(rate * 1.5)],
            peak: fake_step(rate * 1.5),
            saturated: true,
            avg_drain: if recv_batch > 1 { 11.2 } else { 1.0 },
            slo_knee: Some(clean_step(rate)),
            p99_at_80pct_us: 2_400,
        };
        SaturationReport {
            config: SaturationConfig::smoke(),
            batched: run(2, 32, 100_000.0),
            baseline: run(1, 1, 60_000.0),
            obs_overhead: ObsOverhead {
                off_peak_per_sec: 100_000.0 * 1.5 * 0.97,
                on_peak_per_sec: 99_000.0 * 1.5 * 0.97,
                regression_pct: 1.0,
                scrapes: 9,
                trace_spans: 140,
            },
            scaling: vec![
                ScalingPoint {
                    shards: 1,
                    raw_knee_per_sec: 140_000.0,
                    slo_knee_per_sec: Some(120_000.0),
                    p99_at_80pct_us: 900,
                },
                ScalingPoint {
                    shards: 2,
                    raw_knee_per_sec: 150_000.0,
                    slo_knee_per_sec: None,
                    p99_at_80pct_us: 1_100,
                },
            ],
            variance: SpeedupVariance {
                probe_rate_per_sec: 150_000.0,
                batched_readings: vec![146_000.0, 145_200.0],
                baseline_readings: vec![96_000.0, 97_400.0],
            },
        }
    }

    #[test]
    fn emitted_json_passes_validation() {
        let report = fake_report();
        let json = report.to_json();
        validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(
            (report.speedup_vs_baseline() - 100_000.0 * 1.5 * 0.97 / (60_000.0 * 1.5 * 0.97))
                .abs()
                .lt(&1e-9)
        );
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json("not json at all").is_err());
        let good = fake_report().to_json();
        // Remove a required key.
        let missing = good.replace("\"speedup_vs_baseline\"", "\"renamed\"");
        assert!(validate_json(&missing).is_err());
        // Only the current schema: v3 documents carry the removed
        // shared-queue runs and their worker-pool size.
        let wrong = good.replace("saturation/v4", "saturation/v3");
        assert!(validate_json(&wrong).is_err());
        // A telemetry run that never scraped is a broken measurement.
        let mut no_scrapes = fake_report();
        no_scrapes.obs_overhead.scrapes = 0;
        let err = validate_json(&no_scrapes.to_json()).unwrap_err();
        assert!(err.contains("scrape"), "{err}");
        // A negative regression (telemetry run faster) is noise, not an error.
        let mut noisy = fake_report();
        noisy.obs_overhead.regression_pct = -0.3;
        validate_json(&noisy.to_json()).unwrap();
    }

    #[test]
    fn validator_rejects_null_and_empty_steps() {
        let good = fake_report().to_json();
        // A NaN rate is emitted as null and must be rejected.
        let mut broken = fake_report();
        broken.batched.peak.accepted_per_sec = f64::NAN;
        let err = validate_json(&broken.to_json()).unwrap_err();
        assert!(err.contains("accepted_per_sec"), "{err}");
        // An empty steps array must be rejected.
        let mut no_steps = fake_report();
        no_steps.baseline.steps.clear();
        // (serializes to "steps": [\n\n    ] — still an empty array)
        assert!(validate_json(&no_steps.to_json()).is_err());
        // The unmodified document still passes.
        validate_json(&good).unwrap();
    }

    #[test]
    fn slo_knee_selection_requires_lossless_and_tight_tail() {
        // No step qualifies: everything either dropped or blew the tail.
        let mut blown = fake_step(100_000.0);
        blown.drop_pct = 0.0;
        blown.p99_queue_latency_us = SLO_P99_LIMIT_US + 1;
        assert!(slo_knee_of(&[fake_step(50_000.0), blown]).is_none());
        // The qualifying step with the highest accepted rate wins, even
        // when a later lossy step accepted more.
        let steps = [
            clean_step(40_000.0),
            clean_step(90_000.0),
            fake_step(200_000.0), // lossy: drop_pct > 0
            blown,                // lossless but p99 over the limit
        ];
        let knee = slo_knee_of(&steps).expect("two steps qualify");
        assert_eq!(knee, clean_step(90_000.0));
        // Exactly at the limit still qualifies (the bound is inclusive).
        let mut at_limit = clean_step(10_000.0);
        at_limit.p99_queue_latency_us = SLO_P99_LIMIT_US;
        assert!(slo_knee_of(&[at_limit]).is_some());
        assert!(slo_knee_of(&[]).is_none());
    }

    #[test]
    fn variance_verdict_compares_spread_to_effect() {
        // Clear effect, tight arms: conclusive.
        let clear = SpeedupVariance {
            probe_rate_per_sec: 100_000.0,
            batched_readings: vec![100_000.0, 99_000.0],
            baseline_readings: vec![60_000.0, 59_500.0],
        };
        assert!(clear.effect_pct() > 60.0);
        assert!(!clear.inconclusive());
        // Effect smaller than the within-arm spread: inconclusive.
        let noisy = SpeedupVariance {
            probe_rate_per_sec: 100_000.0,
            batched_readings: vec![100_000.0, 88_000.0],
            baseline_readings: vec![99_000.0, 93_000.0],
        };
        assert!(noisy.spread_pct() >= noisy.effect_pct().abs());
        assert!(noisy.inconclusive());
        // Degenerate inputs never divide by zero.
        let empty = SpeedupVariance {
            probe_rate_per_sec: 0.0,
            batched_readings: vec![],
            baseline_readings: vec![],
        };
        assert_eq!(empty.effect_pct(), 0.0);
        assert_eq!(empty.spread_pct(), 0.0);
    }

    #[test]
    fn validator_requires_slo_scaling_and_variance_sections() {
        // A null slo_knee is honest and allowed.
        let mut no_knee = fake_report();
        no_knee.batched.slo_knee = None;
        validate_json(&no_knee.to_json()).unwrap();
        // But the key itself must exist.
        let good = fake_report().to_json();
        let missing_knee = good.replace("\"slo_knee\"", "\"renamed_knee\"");
        let err = validate_json(&missing_knee).unwrap_err();
        assert!(err.contains("slo_knee"), "{err}");
        // An empty scaling curve is a broken measurement.
        let mut no_scaling = fake_report();
        no_scaling.scaling.clear();
        let err = validate_json(&no_scaling.to_json()).unwrap_err();
        assert!(err.contains("scaling"), "{err}");
        // A variance probe with no readings is a broken measurement.
        let mut no_readings = fake_report();
        no_readings.variance.batched_readings.clear();
        let err = validate_json(&no_readings.to_json()).unwrap_err();
        assert!(err.contains("batched_readings"), "{err}");
        // scaling entries must carry a positive raw knee.
        let mut zero_knee = fake_report();
        zero_knee.scaling[0].raw_knee_per_sec = 0.0;
        let err = validate_json(&zero_knee.to_json()).unwrap_err();
        assert!(err.contains("raw_knee_per_sec"), "{err}");
    }

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let v =
            parse_document("{\"a\": [1, 2.5, true, null, \"x\"], \"b\": {\"c\": -3e2}}").unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_num(), Some(-300.0));
        match v.get("a") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 5),
            other => panic!("{other:?}"),
        }
    }
}
