//! The compressed "week at an ISP" soak harness behind `exp_soak`.
//!
//! The paper's deployment claim is not a throughput number but an
//! *endurance* one: FlowDNS holds memory flat across rotation clear-ups
//! while correlating 2 DNS and 26 NetFlow streams for days on end. This
//! harness compresses that week: a [`SubscriberPopulation`]-driven
//! streamed workload (millions of simulated subscriber lines, diurnal
//! curve, heavy-tailed flows — never materialized) is pushed through the
//! **real threaded [`Correlator`]** at full speed, and three deployment
//! claims are measured:
//!
//! 1. **bounded memory** — the store's
//!    [`StoreHealth`](flowdns_core::StoreHealth) is sampled right after
//!    every rotation clear-up; across ≥ 3 clear-ups the post-clear-up
//!    entry count must stay within a configured band of its median
//!    (`memory_band_factor`), i.e. rotation genuinely returns the store
//!    to a working set instead of accreting;
//! 2. **snapshot continuity** — mid-soak the correlator is shut down
//!    (writing its snapshot) and a fresh instance warm-starts from the
//!    file; the restored entry count must equal what was serialized, and
//!    the second half of the week continues against the warm store;
//! 3. **zero accepted-record loss** — every record the pipeline
//!    *accepted* must be accounted for by
//!    [`PipelineMetrics`](flowdns_core::PipelineMetrics)
//!    (`fillup.total()` / `lookup.total()`), and the per-shard routed
//!    counters must sum to exactly the accepted totals.
//!
//! Results are written to `BENCH_soak.json`
//! (schema `flowdns-bench/soak/v2`, documented in docs/WORKLOADS.md and
//! validated on write); the CI `soak-smoke` job greps the verdicts.

use std::time::Duration;

use flowdns_core::{Correlator, CorrelatorConfig, Report};
use flowdns_gen::workload::StreamEvent;
use flowdns_gen::{SubscriberPopulation, Workload, WorkloadConfig};
use flowdns_types::{DnsRecord, FlowRecord, SimDuration};

use crate::jsonv::{parse_document, require_bool, require_num, Json};

/// The soak schema identifier.
pub const SCHEMA: &str = "flowdns-bench/soak/v2";

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Preset name of the population (`residential`, `business`,
    /// `mixed`, `small`), resolved into `population`.
    pub population_name: String,
    /// The resolved population model (post-override).
    pub population: SubscriberPopulation,
    /// Simulated length of the soak, hours (the full tier runs 168 — a
    /// week).
    pub sim_hours: u64,
    /// Flow rate at the diurnal peak, records per simulated second.
    pub peak_flows_per_sec: f64,
    /// Background DNS rate at the diurnal peak.
    pub background_dns_per_sec: f64,
    /// Workload seed.
    pub seed: u64,
    /// Simulated hour at which the correlator is shut down (snapshot
    /// write) and warm-restarted.
    pub restart_at_hour: f64,
    /// `AClearUpInterval` for the soak, seconds.
    pub a_clear_up_secs: u64,
    /// `CClearUpInterval` for the soak, seconds.
    pub c_clear_up_secs: u64,
    /// `correlator_shards` of the soaked correlator.
    pub soak_shards: usize,
    /// Bounded-memory band: every post-clear-up entry count must lie
    /// within `[median / factor, median * factor]`.
    pub memory_band_factor: f64,
    /// Smoke preset? (recorded in the JSON `mode` field).
    pub smoke: bool,
}

impl SoakConfig {
    /// The minutes-scale CI preset: a small population, clear-ups every
    /// 15 simulated minutes, one mid-soak restart.
    pub fn smoke() -> Self {
        SoakConfig {
            population_name: "small".into(),
            population: SubscriberPopulation::small(),
            sim_hours: 2,
            peak_flows_per_sec: 40.0,
            background_dns_per_sec: 6.0,
            seed: 20_221_206,
            restart_at_hour: 1.0,
            a_clear_up_secs: 900,
            c_clear_up_secs: 1_800,
            soak_shards: 2,
            memory_band_factor: 2.0,
            smoke: true,
        }
    }

    /// The full tier: a compressed week (168 simulated hours) of the
    /// mixed 2.4M-line population at paper clear-up intervals, restarted
    /// mid-week. Streams > 10M events.
    pub fn full() -> Self {
        SoakConfig {
            population_name: "mixed".into(),
            population: SubscriberPopulation::mixed(),
            sim_hours: 168,
            peak_flows_per_sec: 25.0,
            background_dns_per_sec: 4.0,
            seed: 20_221_206,
            restart_at_hour: 84.0,
            a_clear_up_secs: 3_600,
            c_clear_up_secs: 7_200,
            soak_shards: 2,
            memory_band_factor: 2.0,
            smoke: false,
        }
    }

    /// Apply one `key = value` override (the `--config` file of
    /// `exp_soak`; keys are documented in docs/WORKLOADS.md).
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num(key: &str, value: &str) -> Result<f64, String> {
            value
                .parse::<f64>()
                .map_err(|_| format!("soak key '{key}': '{value}' is not a number"))
        }
        match key {
            "population" => {
                self.population = SubscriberPopulation::preset(value).ok_or_else(|| {
                    format!(
                        "unknown population preset '{value}' (have {})",
                        SubscriberPopulation::PRESET_NAMES.join(", ")
                    )
                })?;
                self.population_name = value.to_string();
            }
            "subscribers" => self.population.subscribers = num(key, value)? as u32,
            "subscriber_skew" => self.population.subscriber_skew = num(key, value)?,
            "service_concentration" => self.population.service_concentration = num(key, value)?,
            "dns_flow_lag_micros" => self.population.dns_flow_lag_micros = num(key, value)? as u64,
            "sim_hours" => self.sim_hours = num(key, value)? as u64,
            "peak_flows_per_sec" => self.peak_flows_per_sec = num(key, value)?,
            "background_dns_per_sec" => self.background_dns_per_sec = num(key, value)?,
            "seed" => self.seed = num(key, value)? as u64,
            "restart_at_hour" => self.restart_at_hour = num(key, value)?,
            "a_clear_up_secs" => self.a_clear_up_secs = num(key, value)? as u64,
            "c_clear_up_secs" => self.c_clear_up_secs = num(key, value)? as u64,
            "soak_shards" => self.soak_shards = num(key, value)? as usize,
            "memory_band_factor" => self.memory_band_factor = num(key, value)?,
            _ => return Err(format!("unknown soak config key '{key}'")),
        }
        Ok(())
    }

    /// Parse a `key = value` override file (`#` comments, blank lines
    /// ignored) on top of `self`.
    pub fn apply_file_text(&mut self, text: &str) -> Result<(), String> {
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected 'key = value'", lineno + 1))?;
            self.apply(key.trim(), value.trim())
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        Ok(())
    }

    fn workload(&self) -> Workload {
        Workload::new(WorkloadConfig {
            population: self.population,
            duration: SimDuration::from_hours(self.sim_hours),
            peak_flows_per_sec: self.peak_flows_per_sec,
            background_dns_per_sec: self.background_dns_per_sec,
            seed: self.seed,
            ..WorkloadConfig::default()
        })
    }

    fn correlator_config(&self, snapshot_path: &str) -> CorrelatorConfig {
        CorrelatorConfig {
            a_clear_up_interval: SimDuration::from_secs(self.a_clear_up_secs),
            c_clear_up_interval: SimDuration::from_secs(self.c_clear_up_secs),
            correlator_shards: self.soak_shards,
            snapshot_path: Some(snapshot_path.to_string()),
            // Shutdown-only snapshots: the mid-soak restart is the one
            // write that matters, and it must not race a periodic writer.
            snapshot_interval: Duration::ZERO,
            ..CorrelatorConfig::default()
        }
    }
}

/// One post-clear-up memory sample.
#[derive(Debug, Clone)]
pub struct MemorySample {
    /// Simulated second of the triggering record.
    pub sim_sec: u64,
    /// Clear-ups performed so far.
    pub clear_ups: u64,
    /// Store entries right after the clear-up.
    pub entries: u64,
    /// Store payload bytes right after the clear-up.
    pub payload_bytes: u64,
}

/// The restart checkpoint.
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// Entries serialized into the shutdown snapshot.
    pub snapshot_entries: u64,
    /// Entries the second instance restored at warm start.
    pub warm_start_entries: u64,
    /// Did the second instance warm-start at all?
    pub warm_started: bool,
    /// `warm_start_entries == snapshot_entries` — the continuity claim.
    pub continuity: bool,
}

/// Accepted-record reconciliation (both instances summed).
#[derive(Debug, Clone)]
pub struct LossOutcome {
    /// DNS records offered to `push_dns_batch`.
    pub dns_offered: u64,
    /// DNS records the pipeline accepted.
    pub dns_accepted: u64,
    /// DNS records the FillUp stages processed.
    pub dns_processed: u64,
    /// Flow records offered.
    pub flows_offered: u64,
    /// Flow records accepted.
    pub flows_accepted: u64,
    /// Flow records the LookUp stages processed.
    pub flows_processed: u64,
    /// Sum of per-shard routed DNS counters.
    pub shard_routed_dns: u64,
    /// Sum of per-shard routed flow counters.
    pub shard_routed_flows: u64,
}

impl LossOutcome {
    /// Every accepted record reached its stage, and the per-shard routed
    /// counters agree exactly.
    pub fn zero_accepted_loss(&self) -> bool {
        self.dns_processed == self.dns_accepted
            && self.flows_processed == self.flows_accepted
            && self.shard_routed_dns == self.dns_accepted
            && self.shard_routed_flows == self.flows_accepted
    }
}

/// The outcome of the soak run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Correlator shards.
    pub shards: usize,
    /// Events streamed through the run.
    pub events_streamed: u64,
    /// Post-clear-up memory samples, in time order.
    pub memory_samples: Vec<MemorySample>,
    /// Total clear-ups across the whole run.
    pub clear_ups: u64,
    /// The restart checkpoint.
    pub restart: RestartOutcome,
    /// Accepted-record reconciliation.
    pub loss: LossOutcome,
    /// Bytes-weighted correlation rate over both instances.
    pub correlation_rate_pct: f64,
}

impl RunOutcome {
    /// Do the post-clear-up samples stay within the band?
    pub fn memory_bounded(&self, band_factor: f64) -> bool {
        let mut entries: Vec<u64> = self.memory_samples.iter().map(|s| s.entries).collect();
        if entries.is_empty() {
            return false;
        }
        entries.sort_unstable();
        let median = entries[entries.len() / 2].max(1) as f64;
        entries.iter().all(|&e| {
            let e = e as f64;
            e <= median * band_factor && e >= median / band_factor
        })
    }
}

/// The whole soak result: the run's outcome plus the config echo.
#[derive(Debug)]
pub struct SoakReport {
    /// The configuration that produced this report.
    pub config: SoakConfig,
    /// The run's outcome.
    pub run: RunOutcome,
}

impl SoakReport {
    /// ≥ 3 clear-ups observed.
    pub fn clear_ups_ok(&self) -> bool {
        self.run.memory_samples.len() >= 3
    }

    /// Bounded memory across the clear-ups.
    pub fn bounded_memory(&self) -> bool {
        self.run.memory_bounded(self.config.memory_band_factor)
    }

    /// Zero accepted-record loss.
    pub fn zero_loss(&self) -> bool {
        self.run.loss.zero_accepted_loss()
    }

    /// Snapshot continuity across the restart.
    pub fn warm_restart(&self) -> bool {
        self.run.restart.warm_started && self.run.restart.continuity
    }

    /// All four verdicts.
    pub fn all_green(&self) -> bool {
        self.clear_ups_ok() && self.bounded_memory() && self.zero_loss() && self.warm_restart()
    }
}

/// Drives one correlator instance up to (exclusive) `until_sec`,
/// batching type-runs of events. Returns per-instance counts.
struct Feeder {
    dns_chunk: Vec<DnsRecord>,
    flow_chunk: Vec<FlowRecord>,
    dns_offered: u64,
    dns_accepted: u64,
    flows_offered: u64,
    flows_accepted: u64,
}

/// Type-run batch size: big enough to amortize the push locks, small
/// enough to keep cross-type ordering tight.
const CHUNK: usize = 2_048;

impl Feeder {
    fn new() -> Self {
        Feeder {
            dns_chunk: Vec::with_capacity(CHUNK),
            flow_chunk: Vec::with_capacity(CHUNK),
            dns_offered: 0,
            dns_accepted: 0,
            flows_offered: 0,
            flows_accepted: 0,
        }
    }

    fn flush_dns(&mut self, correlator: &Correlator) {
        if self.dns_chunk.is_empty() {
            return;
        }
        self.wait_for_room(correlator);
        self.dns_offered += self.dns_chunk.len() as u64;
        self.dns_accepted += correlator.push_dns_batch(self.dns_chunk.drain(..)) as u64;
    }

    fn flush_flows(&mut self, correlator: &Correlator) {
        if self.flow_chunk.is_empty() {
            return;
        }
        self.wait_for_room(correlator);
        self.flows_offered += self.flow_chunk.len() as u64;
        self.flows_accepted += correlator.push_flow_batch(self.flow_chunk.drain(..)) as u64;
    }

    fn flush_all(&mut self, correlator: &Correlator) {
        // DNS first: any flow in the same window correlates no worse.
        self.flush_dns(correlator);
        self.flush_flows(correlator);
    }

    /// Backpressure: never offer a chunk that could overflow a ring —
    /// accepted == offered is what makes the loss ledger exact. A chunk
    /// may land entirely in one lane, so there is room when the summed
    /// depth plus the chunk fits a single ring. The workers drain
    /// continuously, so this spins only under a genuinely saturated
    /// pipeline.
    fn wait_for_room(&self, correlator: &Correlator) {
        let cfg = correlator.config();
        let dns_cap = cfg.shard_dns_ring_capacity;
        let flow_cap = cfg.shard_flow_ring_capacity;
        loop {
            let (fillup, lookup, _) = correlator.queue_depths();
            if fillup + CHUNK < dns_cap && lookup + CHUNK < flow_cap {
                return;
            }
            std::thread::yield_now();
        }
    }

    fn push(&mut self, correlator: &Correlator, event: StreamEvent) {
        match event {
            StreamEvent::Dns(record) => {
                // Preserve DNS-before-flow ordering across type runs.
                self.flush_flows(correlator);
                self.dns_chunk.push(record);
                if self.dns_chunk.len() >= CHUNK {
                    self.flush_dns(correlator);
                }
            }
            StreamEvent::Flow(flow) => {
                self.flush_dns(correlator);
                self.flow_chunk.push(flow);
                if self.flow_chunk.len() >= CHUNK {
                    self.flush_flows(correlator);
                }
            }
        }
    }
}

/// How often (in events) the store health is polled for clear-up
/// detection.
const HEALTH_POLL_EVERY: u64 = 8_192;

struct InstanceRun {
    report: Report,
    /// Snapshot stats read right after start — carries the warm-start
    /// entry count when the instance restored from a snapshot file.
    warm: flowdns_core::SnapshotStats,
    dns_offered: u64,
    dns_accepted: u64,
    flows_offered: u64,
    flows_accepted: u64,
    routed: (u64, u64),
}

/// Stream `events` into a fresh correlator until the iterator is
/// exhausted or an event's timestamp reaches `until_sec`, sampling
/// store health after every clear-up.
#[allow(clippy::too_many_arguments)]
fn run_instance<I>(
    config: &CorrelatorConfig,
    events: &mut std::iter::Peekable<I>,
    until_sec: Option<u64>,
    samples: &mut Vec<MemorySample>,
    events_streamed: &mut u64,
) -> Result<InstanceRun, String>
where
    I: Iterator<Item = StreamEvent>,
{
    let correlator =
        Correlator::start(config.clone()).map_err(|e| format!("correlator start: {e}"))?;
    let warm = correlator.snapshot_stats();
    let mut feeder = Feeder::new();
    let mut last_clear_ups = correlator.store_health().clear_ups;
    let mut since_poll = 0u64;
    let mut last_sec = 0u64;

    while let Some(event) = events.peek() {
        let sec = event.ts().as_secs();
        if until_sec.is_some_and(|limit| sec >= limit) {
            break;
        }
        last_sec = sec;
        let event = events.next().expect("peeked");
        feeder.push(&correlator, event);
        *events_streamed += 1;
        since_poll += 1;
        if since_poll >= HEALTH_POLL_EVERY {
            since_poll = 0;
            let health = correlator.store_health();
            if health.clear_ups > last_clear_ups {
                last_clear_ups = health.clear_ups;
                samples.push(MemorySample {
                    sim_sec: last_sec,
                    clear_ups: health.clear_ups,
                    entries: health.entries as u64,
                    payload_bytes: health.memory.payload_bytes as u64,
                });
            }
        }
    }
    feeder.flush_all(&correlator);
    // Let the workers drain before the final health reading so a
    // clear-up triggered by the tail of the stream is still observed.
    while {
        let (f, l, w) = correlator.queue_depths();
        f + l + w > 0
    } {
        std::thread::yield_now();
    }
    let health = correlator.store_health();
    if health.clear_ups > last_clear_ups {
        samples.push(MemorySample {
            sim_sec: last_sec,
            clear_ups: health.clear_ups,
            entries: health.entries as u64,
            payload_bytes: health.memory.payload_bytes as u64,
        });
    }
    let routed = correlator
        .shard_routed_counts()
        .map_or((0, 0), |(dns, flows)| {
            (dns.iter().sum(), flows.iter().sum())
        });
    let report = correlator
        .finish()
        .map_err(|e| format!("correlator finish: {e}"))?;
    Ok(InstanceRun {
        report,
        warm,
        dns_offered: feeder.dns_offered,
        dns_accepted: feeder.dns_accepted,
        flows_offered: feeder.flows_offered,
        flows_accepted: feeder.flows_accepted,
        routed,
    })
}

/// Run the soak: one correlator up to the restart point, a second one
/// warm-started from its snapshot for the rest of the week. Progress
/// lines go to stderr via `progress`.
pub fn run(soak: &SoakConfig, mut progress: impl FnMut(&str)) -> Result<SoakReport, String> {
    progress(&format!(
        "shards={}: streaming {} simulated hours of '{}' ({} subscribers), restart at hour {}",
        soak.soak_shards,
        soak.sim_hours,
        soak.population_name,
        soak.population.subscribers,
        soak.restart_at_hour,
    ));
    let snapshot_path = std::env::temp_dir().join(format!(
        "flowdns_soak_{}_{}.snapshot",
        std::process::id(),
        soak.seed
    ));
    let snapshot_path = snapshot_path.to_string_lossy().into_owned();
    // A stale file from a killed previous run must not warm-start us.
    let _ = std::fs::remove_file(&snapshot_path);

    let config = soak.correlator_config(&snapshot_path);
    let workload = soak.workload();
    let mut events = workload.events().peekable();
    let restart_sec = (soak.restart_at_hour * 3_600.0) as u64;
    let mut samples = Vec::new();
    let mut events_streamed = 0u64;

    // First instance: cold start, stream up to the restart point, shut
    // down (writes the snapshot).
    let first = run_instance(
        &config,
        &mut events,
        Some(restart_sec),
        &mut samples,
        &mut events_streamed,
    )?;
    let snapshot_entries = first.report.metrics.snapshot.last_entries;
    if first.report.metrics.snapshot.snapshots_written == 0 {
        return Err("first instance wrote no shutdown snapshot".into());
    }

    // Second instance: warm start from the snapshot, stream the rest of
    // the week.
    let second = run_instance(
        &config,
        &mut events,
        None,
        &mut samples,
        &mut events_streamed,
    )?;
    let _ = std::fs::remove_file(&snapshot_path);
    let restart = RestartOutcome {
        snapshot_entries,
        warm_start_entries: second.warm.warm_start_entries,
        warm_started: second.warm.warm_started(),
        continuity: second.warm.warm_start_entries == snapshot_entries && snapshot_entries > 0,
    };

    let loss = LossOutcome {
        dns_offered: first.dns_offered + second.dns_offered,
        dns_accepted: first.dns_accepted + second.dns_accepted,
        dns_processed: first.report.metrics.fillup.total() + second.report.metrics.fillup.total(),
        flows_offered: first.flows_offered + second.flows_offered,
        flows_accepted: first.flows_accepted + second.flows_accepted,
        flows_processed: first.report.metrics.lookup.total() + second.report.metrics.lookup.total(),
        shard_routed_dns: first.routed.0 + second.routed.0,
        shard_routed_flows: first.routed.1 + second.routed.1,
    };
    let first_bytes = first.report.volumes.total.bytes() as f64;
    let second_bytes = second.report.volumes.total.bytes() as f64;
    let total_bytes = first_bytes + second_bytes;
    let correlation_rate_pct = if total_bytes == 0.0 {
        0.0
    } else {
        (first.report.correlation_rate_pct() * first_bytes
            + second.report.correlation_rate_pct() * second_bytes)
            / total_bytes
    };
    let clear_ups = samples.last().map(|s| s.clear_ups).unwrap_or(0);
    let run = RunOutcome {
        shards: soak.soak_shards,
        events_streamed,
        memory_samples: samples,
        clear_ups,
        restart,
        loss,
        correlation_rate_pct,
    };
    progress(&format!(
        "{} events, {} clear-ups, {} post-clear-up samples, correlation {:.1}%, \
         warm_start {} entries",
        run.events_streamed,
        run.clear_ups,
        run.memory_samples.len(),
        run.correlation_rate_pct,
        run.restart.warm_start_entries,
    ));
    Ok(SoakReport {
        config: soak.clone(),
        run,
    })
}

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

fn run_json(m: &RunOutcome, band_factor: f64) -> String {
    let samples = m
        .memory_samples
        .iter()
        .map(|s| {
            format!(
                r#"{{"sim_sec": {}, "clear_ups": {}, "entries": {}, "payload_bytes": {}}}"#,
                s.sim_sec, s.clear_ups, s.entries, s.payload_bytes
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"{{
      "shards": {shards},
      "events_streamed": {events},
      "clear_ups": {clear_ups},
      "memory_samples": [{samples}],
      "memory_bounded": {bounded},
      "restart": {{"snapshot_entries": {snap}, "warm_start_entries": {warm}, "warm_started": {started}, "continuity": {cont}}},
      "loss": {{"dns_offered": {dof}, "dns_accepted": {dacc}, "dns_processed": {dproc}, "flows_offered": {fof}, "flows_accepted": {facc}, "flows_processed": {fproc}, "shard_routed_dns": {rdns}, "shard_routed_flows": {rflows}, "zero_accepted_loss": {zl}}},
      "correlation_rate_pct": {corr}
    }}"#,
        shards = m.shards,
        events = m.events_streamed,
        clear_ups = m.clear_ups,
        samples = samples,
        bounded = m.memory_bounded(band_factor),
        snap = m.restart.snapshot_entries,
        warm = m.restart.warm_start_entries,
        started = m.restart.warm_started,
        cont = m.restart.continuity,
        dof = m.loss.dns_offered,
        dacc = m.loss.dns_accepted,
        dproc = m.loss.dns_processed,
        fof = m.loss.flows_offered,
        facc = m.loss.flows_accepted,
        fproc = m.loss.flows_processed,
        rdns = m.loss.shard_routed_dns,
        rflows = m.loss.shard_routed_flows,
        zl = m.loss.zero_accepted_loss(),
        corr = jnum(m.correlation_rate_pct),
    )
}

impl SoakReport {
    /// Render the report as the `BENCH_soak.json` document.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let run = run_json(&self.run, c.memory_band_factor);
        format!(
            r#"{{
  "schema": "{schema}",
  "mode": "{mode}",
  "config": {{
    "population": "{pop}",
    "subscribers": {subs},
    "sim_hours": {hours},
    "peak_flows_per_sec": {peak},
    "background_dns_per_sec": {bg},
    "seed": {seed},
    "restart_at_hour": {restart},
    "a_clear_up_secs": {a},
    "c_clear_up_secs": {cc},
    "soak_shards": {shards},
    "memory_band_factor": {band}
  }},
  "runs": [
    {run}
  ],
  "verdicts": {{
    "clear_ups_ok": {v_clear},
    "bounded_memory": {v_mem},
    "zero_loss": {v_loss},
    "warm_restart": {v_warm}
  }}
}}
"#,
            schema = SCHEMA,
            mode = if c.smoke { "smoke" } else { "full" },
            pop = c.population_name,
            subs = c.population.subscribers,
            hours = c.sim_hours,
            peak = jnum(c.peak_flows_per_sec),
            bg = jnum(c.background_dns_per_sec),
            seed = c.seed,
            restart = jnum(c.restart_at_hour),
            a = c.a_clear_up_secs,
            cc = c.c_clear_up_secs,
            shards = c.soak_shards,
            band = jnum(c.memory_band_factor),
            run = run,
            v_clear = self.clear_ups_ok(),
            v_mem = self.bounded_memory(),
            v_loss = self.zero_loss(),
            v_warm = self.warm_restart(),
        )
    }
}

// ---------------------------------------------------------------------
// JSON validation (the CI `--check` path)
// ---------------------------------------------------------------------

fn check_run(run: &Json, context: &str) -> Result<(), String> {
    if require_num(run, "shards", context)? < 1.0 {
        return Err(format!("{context}: 'shards' must be at least 1"));
    }
    if require_num(run, "events_streamed", context)? <= 0.0 {
        return Err(format!("{context}: 'events_streamed' must be positive"));
    }
    if require_num(run, "clear_ups", context)? < 3.0 {
        return Err(format!("{context}: fewer than 3 clear-ups observed"));
    }
    let samples = match run.get("memory_samples") {
        Some(Json::Arr(samples)) => samples,
        _ => return Err(format!("{context}: 'memory_samples' must be an array")),
    };
    if samples.len() < 3 {
        return Err(format!(
            "{context}: need >= 3 post-clear-up memory samples, have {}",
            samples.len()
        ));
    }
    for (i, sample) in samples.iter().enumerate() {
        let sctx = format!("{context}.memory_samples[{i}]");
        for key in ["sim_sec", "clear_ups", "entries", "payload_bytes"] {
            if require_num(sample, key, &sctx)? < 0.0 {
                return Err(format!("{sctx}: '{key}' is negative"));
            }
        }
    }
    require_bool(run, "memory_bounded", context)?;
    let restart = run
        .get("restart")
        .ok_or_else(|| format!("{context}: missing 'restart'"))?;
    for key in ["snapshot_entries", "warm_start_entries"] {
        if require_num(restart, key, context)? < 0.0 {
            return Err(format!("{context}.restart: '{key}' is negative"));
        }
    }
    require_bool(restart, "warm_started", context)?;
    require_bool(restart, "continuity", context)?;
    let loss = run
        .get("loss")
        .ok_or_else(|| format!("{context}: missing 'loss'"))?;
    for key in [
        "dns_offered",
        "dns_accepted",
        "dns_processed",
        "flows_offered",
        "flows_accepted",
        "flows_processed",
        "shard_routed_dns",
        "shard_routed_flows",
    ] {
        if require_num(loss, key, context)? < 0.0 {
            return Err(format!("{context}.loss: '{key}' is negative"));
        }
    }
    require_bool(loss, "zero_accepted_loss", context)?;
    let corr = require_num(run, "correlation_rate_pct", context)?;
    if !(0.0..=100.0).contains(&corr) {
        return Err(format!(
            "{context}: correlation_rate_pct {corr} outside 0..100"
        ));
    }
    Ok(())
}

/// Validate a `BENCH_soak.json` document against the v2 schema. Every
/// documented key must be present, the one run must carry ≥ 3
/// post-clear-up memory samples, the restart and loss ledgers must be
/// complete, and the four verdict booleans must exist. Returns a
/// human-readable reason on failure.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = parse_document(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing 'schema'".into()),
    }
    match doc.get("mode").and_then(Json::as_str) {
        Some("smoke") | Some("full") => {}
        _ => return Err("'mode' must be \"smoke\" or \"full\"".into()),
    }
    let config = doc.get("config").ok_or("missing 'config'")?;
    for key in [
        "subscribers",
        "sim_hours",
        "peak_flows_per_sec",
        "background_dns_per_sec",
        "restart_at_hour",
        "a_clear_up_secs",
        "c_clear_up_secs",
        "soak_shards",
        "memory_band_factor",
    ] {
        if require_num(config, key, "config")? <= 0.0 {
            return Err(format!("config: '{key}' must be positive"));
        }
    }
    require_num(config, "seed", "config")?;
    match config.get("population").and_then(Json::as_str) {
        Some(name) if !name.is_empty() => {}
        _ => return Err("config: 'population' must be a non-empty string".into()),
    }
    let runs = match doc.get("runs") {
        Some(Json::Arr(runs)) => runs,
        _ => return Err("'runs' must be an array".into()),
    };
    match runs.as_slice() {
        [run] => check_run(run, "runs[0]")?,
        _ => return Err(format!("expected exactly 1 run, have {}", runs.len())),
    }
    let verdicts = doc.get("verdicts").ok_or("missing 'verdicts'")?;
    for key in [
        "clear_ups_ok",
        "bounded_memory",
        "zero_loss",
        "warm_restart",
    ] {
        require_bool(verdicts, key, "verdicts")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_soak() -> SoakConfig {
        let mut cfg = SoakConfig::smoke();
        // Keep the unit-test run to a couple of seconds: a short, hot
        // trace with fast clear-ups.
        cfg.apply_file_text(
            "subscribers = 5000\n\
             sim_hours = 1\n\
             peak_flows_per_sec = 60\n\
             a_clear_up_secs = 600   # 6 clear-ups/hour\n\
             c_clear_up_secs = 1200\n\
             restart_at_hour = 0.5\n",
        )
        .unwrap();
        cfg
    }

    #[test]
    fn smoke_soak_is_green_and_emits_valid_json() {
        let report = run(&tiny_soak(), |_| {}).expect("soak runs");
        assert_eq!(report.run.shards, 2);
        assert!(
            report.clear_ups_ok(),
            "clear-ups: {:?}",
            report.run.clear_ups
        );
        assert!(report.bounded_memory());
        assert!(report.zero_loss(), "loss: {:?}", report.run.loss);
        assert!(report.warm_restart(), "restart: {:?}", report.run.restart);
        let json = report.to_json();
        validate_json(&json).expect("emitted JSON validates");
        // Only the current schema is accepted: a v1 two-mode document
        // (classic + sharded) must not pass as a v2 one.
        let v1 = json.replace("soak/v2", "soak/v1");
        assert!(validate_json(&v1).unwrap_err().contains("unknown schema"));
    }

    #[test]
    fn config_overrides_apply_and_reject_unknown_keys() {
        let mut cfg = SoakConfig::smoke();
        cfg.apply("population", "business").unwrap();
        assert_eq!(cfg.population_name, "business");
        cfg.apply("subscriber_skew", "1.5").unwrap();
        assert!((cfg.population.subscriber_skew - 1.5).abs() < 1e-9);
        assert!(cfg.apply("no_such_key", "1").is_err());
        assert!(cfg.apply("population", "nope").is_err());
        assert!(cfg.apply("sim_hours", "abc").is_err());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{}").is_err());
        let report = format!(r#"{{"schema": "{SCHEMA}", "mode": "smoke", "config": {{}}}}"#);
        assert!(validate_json(&report).is_err());
    }
}
