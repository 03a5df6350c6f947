//! The load generator and the daemon it drives: one thread, one UDP
//! socket, one TCP connection, against a real `IngestRuntime` on loopback.
//!
//! Rules that keep runs repeatable on a two-core host:
//! * progress is read from the sink wrapper's counter and the shard lane
//!   counters, never from `snapshot()` (it walks the store);
//! * out of credit, the generator sleeps instead of spinning;
//! * a janitor thread unlinks finished output files once a second, so the
//!   page cache never holds more than a second of output;
//! * the daemon's threads run on one CPU and the generator on another:
//!   six threads left to share two cores land differently every run, and
//!   that alone moved capacity by 9 % between runs of one seed;
//! * every wait has a deadline, so a stall fails the run.

use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowdns_core::{OutputSink, Report, RotatingFileSink};
use flowdns_ingest::{DaemonConfig, IngestRuntime};
use flowdns_types::SimDuration;

use crate::reference::Sums;
use crate::sink::{SinkShared, TimingSink};
use crate::wire::{Item, Kind, Wire};
use crate::workloads::{Spec, T_BASE};

/// Flow records the generator keeps in flight at most (sent, not yet
/// through `write_record`). As two-record datagrams that is 4096 socket
/// buffers, well inside the listener's receive buffer; the rings and the
/// write queue hold 32 times as much.
const FLOW_WINDOW: u64 = 8_192;
/// DNS records in flight at most (written to the feed, not yet popped by a
/// shard worker): about 150 kB on the feed connection, which its socket
/// buffers take without blocking the writer, and a thirty-second of a
/// shard's DNS ring.
const DNS_WINDOW: u64 = 2_048;
/// Datagrams per `sendmmsg`.
const BURST: usize = 16;
/// A send that takes longer than this was blocked by the receiver.
const BLOCKED_SEND: Duration = Duration::from_millis(1);
/// Pause when out of credit or ahead of schedule.
const IDLE_SLEEP: Duration = Duration::from_micros(100);
/// Grace a phase or a drain gets beyond its planned length.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// Latency probes per second of the open-loop phase, about.
const PROBES_PER_SEC: f64 = 1_000.0;
/// Width of one throughput window of the closed-loop phase.
pub const WINDOW: Duration = Duration::from_secs(1);
/// A window in which the generator fell this far behind its schedule by
/// itself (a twentieth of the window's load came as one burst; gaps of 5
/// to 25 ms are this host's everyday scheduling), or in which its thread
/// was this busy, measured the generator and not the daemon.
const LATE_LIMIT_MS: f64 = 50.0;
const GENERATOR_CPU_LIMIT_PCT: f64 = 60.0;

pub struct Paths {
    pub out: PathBuf,
}

impl Paths {
    /// The store image as trace generation wrote it.
    pub fn image(&self) -> PathBuf {
        self.out.join("store.image")
    }
    /// The daemon's `snapshot_path`: a copy of the image before every
    /// start, because a shutdown writes the store back to it.
    pub fn snapshot(&self) -> PathBuf {
        self.out.join("store.fdns")
    }
    pub fn rib(&self) -> PathBuf {
        self.out.join("rib.txt")
    }
    pub fn tsv_dir(&self) -> PathBuf {
        self.out.join("tsv")
    }
    pub fn flight(&self) -> PathBuf {
        self.out.join("flight.jsonl")
    }
}

/// Data time: starts at `T_BASE`, runs `speed` times as fast as the wall
/// clock, and can be frozen for the segment whose lines are read back.
pub struct Clock {
    t0: Instant,
    speed: u64,
    frozen: Option<u64>,
}

impl Clock {
    pub fn new(speed: u64) -> Self {
        Clock {
            t0: Instant::now(),
            speed,
            frozen: None,
        }
    }

    pub fn data_micros(&self) -> u64 {
        self.frozen.unwrap_or_else(|| {
            T_BASE * 1_000_000 + self.t0.elapsed().as_micros() as u64 * self.speed
        })
    }
}

pub fn daemon_config(spec: &Spec, paths: &Paths, with_rib: bool) -> DaemonConfig {
    let mut config = DaemonConfig::default();
    config.ingest.netflow_bind = "127.0.0.1:0".parse().expect("loopback address");
    config.ingest.dns_bind = "127.0.0.1:0".parse().expect("loopback address");
    config.ingest.netflow_listeners = 1;
    config.ingest.dns_listeners = 1;
    config.ingest.recv_batch = 32;
    config.correlator.correlator_shards = 2;
    config.correlator.write_workers = 1;
    config.correlator.a_clear_up_interval = SimDuration::from_secs(spec.a_clear_up_interval);
    config.correlator.snapshot_path = Some(paths.snapshot().display().to_string());
    if with_rib {
        config.correlator.routing_table = Some(paths.rib().display().to_string());
    }
    config
}

/// A started daemon with the generator's two connections to it.
pub struct Daemon {
    pub rt: IngestRuntime,
    pub sink: Arc<SinkShared>,
    udp: UdpSocket,
    tcp: Option<TcpStream>,
    /// Cold start to first record through the sink, seconds.
    pub setup_secs: f64,
}

fn io(context: &str, e: std::io::Error) -> String {
    format!("{context}: {e}")
}

impl Daemon {
    /// Cold-start the daemon on the store image and routing table under
    /// `paths`, and time it until the store is loaded and one datagram's
    /// first record has come out of the sink.
    pub fn start(
        config: &DaemonConfig,
        paths: &Paths,
        store_entries: usize,
        wire: &mut Wire,
        clock: &Clock,
    ) -> Result<Daemon, String> {
        std::fs::copy(paths.image(), paths.snapshot()).map_err(|e| io("store image", e))?;
        // Threads inherit the CPU set of the thread that spawns them: the
        // daemon's get the first allowed CPU, then the generator (this
        // thread) moves to the second.
        let cpus = crate::sys::allowed_cpus();
        let confined = cpus.len() >= 2 && crate::sys::pin_to(cpus[0]);
        let started = Instant::now();
        let sink = Arc::new(SinkShared::default());
        let tsv_dir = paths.tsv_dir();
        let shared = Arc::clone(&sink);
        let rt = IngestRuntime::start_with_sink_factory(config, move |_| {
            // One data second per file, the `output_rotate_interval = 1`
            // of a deployment that wants its output fresh.
            let files = RotatingFileSink::new(&tsv_dir, "corr", SimDuration::from_secs(1))?;
            Ok(Box::new(TimingSink::new(files, Arc::clone(&shared))) as Box<dyn OutputSink>)
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        if !(confined && crate::sys::pin_to(cpus[1])) {
            eprintln!("daemon and generator share CPUs {cpus:?}: expect noisier numbers");
        }
        let loaded = rt.correlator().stored_entries();
        if loaded != store_entries {
            return Err(format!(
                "warm start loaded {loaded} entries, the image holds {store_entries}"
            ));
        }
        let udp = UdpSocket::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
        udp.connect(rt.netflow_addr())
            .map_err(|e| io("connect", e))?;
        let tcp = if wire.dns_records > 0 {
            let tcp = TcpStream::connect(rt.dns_addr()).map_err(|e| io("DNS feed", e))?;
            tcp.set_nodelay(true).map_err(|e| io("DNS feed", e))?;
            Some(tcp)
        } else {
            None
        };
        let probe = first_datagram(wire);
        wire.stamp(&probe, clock.data_micros());
        udp.send(wire.bytes(&probe)).map_err(|e| io("send", e))?;
        wait_until(STALL_LIMIT, "the first record of a cold start", || {
            sink.written() >= 1
        })?;
        let setup_secs = started.elapsed().as_secs_f64();
        wait_until(STALL_LIMIT, "the cold-start datagram", || {
            sink.written() >= probe.records as u64
        })?;
        Ok(Daemon {
            rt,
            sink,
            udp,
            tcp,
            setup_secs,
        })
    }

    /// DNS records a shard worker has taken off its ring.
    fn dns_applied(&self) -> u64 {
        let correlator = self.rt.correlator();
        let routed: u64 = correlator
            .shard_routed_counts()
            .map_or(0, |(dns, _)| dns.iter().sum());
        routed.saturating_sub(correlator.queue_depths().0 as u64)
    }

    pub fn shutdown(self) -> Result<(Report, Sums), String> {
        drop(self.tcp);
        let report = self.rt.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok((report, self.sink.totals()))
    }
}

pub fn first_datagram(wire: &Wire) -> Item {
    *wire
        .items
        .iter()
        .find(|item| item.kind == Kind::Flows)
        .expect("a lap holds flows")
}

fn wait_until(limit: Duration, what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("stalled waiting for {what}"));
        }
        std::thread::sleep(IDLE_SLEEP);
    }
    Ok(())
}

fn raise_last(values: &mut [f64], to: f64) {
    if let Some(last) = values.last_mut() {
        *last = last.max(to);
    }
}

/// Unlink the finished output files under `dir`; returns their bytes.
fn unlink_finished(dir: &Path) -> Result<u64, String> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| io("output dir", e))? {
        let path = entry.map_err(|e| io("output dir", e))?.path();
        if path.extension().is_some_and(|ext| ext == "tsv") {
            bytes += std::fs::metadata(&path).map_err(|e| io("stat", e))?.len();
            std::fs::remove_file(&path).map_err(|e| io("unlink", e))?;
        }
    }
    Ok(bytes)
}

/// The thread that unlinks finished output files once a second, so that
/// the page cache never holds more than about a second of output.
/// Unlinking a second of `wide_store` output takes 5 ms; done by the
/// generator it would put that hole into the schedule every second.
struct Janitor {
    stop: Arc<AtomicBool>,
    /// CPU time the janitor has used, for the daemon's CPU accounting.
    cpu_ns: Arc<AtomicU64>,
    thread: std::thread::JoinHandle<Result<u64, String>>,
}

impl Janitor {
    fn start(dir: PathBuf) -> Janitor {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let (stopped, cpu) = (Arc::clone(&stop), Arc::clone(&cpu_ns));
        let thread = std::thread::spawn(move || {
            let mut bytes = 0;
            let mut last = Instant::now();
            // ordering: a stop flag and a statistic; neither publishes data.
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                if last.elapsed() >= Duration::from_secs(1) {
                    last = Instant::now();
                    bytes += unlink_finished(&dir)?;
                    cpu.store(crate::sys::thread_cpu_ns(), Ordering::Relaxed);
                }
            }
            Ok(bytes)
        });
        Janitor {
            stop,
            cpu_ns,
            thread,
        }
    }

    /// Stop the thread; returns the bytes of the files it unlinked.
    fn finish(self) -> Result<u64, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| "the janitor thread panicked".to_string())?
    }
}

/// One whole one-second window of the open-loop phase.
pub struct PacedWindow {
    /// CPU time of the process minus the generator's and the janitor's,
    /// microseconds per record completed.
    pub cpu_us: f64,
    /// Median sink lag of the probes due in the window, milliseconds.
    pub lag_ms: Option<f64>,
    /// The most the generator by itself was behind its schedule in the
    /// window, ms: its thread away, a burst sent late with credit in hand,
    /// or still catching up after either. Then the generator thread's CPU
    /// time as a share of the window.
    pub late_max_ms: f64,
    pub generator_cpu_pct: f64,
}

impl PacedWindow {
    /// Whether the window measured the daemon: a generator that sent late
    /// or was short of CPU offered another load than the schedule's.
    pub fn healthy(&self) -> bool {
        self.late_max_ms <= LATE_LIMIT_MS && self.generator_cpu_pct <= GENERATOR_CPU_LIMIT_PCT
    }
}

/// What the open-loop phase measured. The two gated figures are taken
/// per healthy one-second window and reported through `best_quarter`.
#[derive(Default)]
pub struct Paced {
    /// Length of the phase with its final drain, and of its whole windows.
    pub wall_secs: f64,
    pub window_secs: f64,
    /// Records completed within the whole windows.
    pub records: u64,
    pub windows: Vec<PacedWindow>,
    /// Sink lag of every probe, milliseconds, sorted.
    pub lag_ms: Vec<f64>,
    /// Lateness of each burst against its schedule, ms, sorted; bursts
    /// the daemon held back (full window, blocked feed) are the daemon's
    /// lateness, not the generator's, and are left out.
    pub late_ms: Vec<f64>,
    pub generator_cpu_ns: u64,
}

impl Paced {
    pub fn healthy(&self) -> impl Iterator<Item = &PacedWindow> {
        self.windows.iter().filter(|w| w.healthy())
    }

    pub fn cpu_us_per_record(&self) -> f64 {
        let windows: Vec<f64> = self.healthy().map(|w| w.cpu_us).collect();
        crate::best_quarter(&windows, false)
    }

    pub fn lag_p50_ms(&self) -> f64 {
        let windows: Vec<f64> = self.healthy().filter_map(|w| w.lag_ms).collect();
        crate::best_quarter(&windows, false)
    }

    /// The generator thread's CPU time as a share of one core.
    pub fn generator_cpu_pct(&self) -> f64 {
        self.generator_cpu_ns as f64 / (self.wall_secs * 1e9) * 100.0
    }
}

/// The generator: a cursor over the lap that never stops, and the counts
/// the checks at the end need.
pub struct Generator<'a> {
    wire: &'a mut Wire,
    clock: &'a mut Clock,
    daemon: &'a Daemon,
    tsv_dir: PathBuf,
    cursor: usize,
    pub flows_sent: u64,
    pub dns_sent: u64,
    pub datagrams_sent: u64,
    /// Bytes of the output files unlinked so far.
    pub file_bytes: u64,
    janitor: Option<Janitor>,
    pub write_depth_max: usize,
    /// Records of the cold-start datagram, which the sink counts too.
    cold_start_records: u64,
}

impl<'a> Generator<'a> {
    pub fn new(
        wire: &'a mut Wire,
        clock: &'a mut Clock,
        daemon: &'a Daemon,
        paths: &Paths,
    ) -> Self {
        let cold_start_records = first_datagram(wire).records as u64;
        Generator {
            wire,
            clock,
            daemon,
            tsv_dir: paths.tsv_dir(),
            cursor: 0,
            flows_sent: 0,
            dns_sent: 0,
            datagrams_sent: 0,
            file_bytes: 0,
            janitor: Some(Janitor::start(paths.tsv_dir())),
            write_depth_max: 0,
            cold_start_records,
        }
    }

    /// Trace records completed: flows through the sink (not counting the
    /// cold-start datagram) plus DNS records applied.
    pub fn completed(&self) -> u64 {
        self.flows_written() + self.daemon.dns_applied()
    }

    fn flows_written(&self) -> u64 {
        self.daemon.sink.written() - self.cold_start_records
    }

    fn has_credit(&self) -> bool {
        self.flows_sent - self.flows_written() < FLOW_WINDOW
            && (self.wire.dns_records == 0
                || self.dns_sent - self.daemon.dns_applied() < DNS_WINDOW)
    }

    /// Send the item under the cursor, and the datagrams after it while
    /// `more` allows, in one burst. `probe` marks the first datagram.
    fn send(
        &mut self,
        probe: Option<u32>,
        mut more: impl FnMut(&Item) -> bool,
    ) -> Result<u32, String> {
        let stamp = self.clock.data_micros();
        let items = self.wire.items.len();
        let first = self.wire.items[self.cursor];
        self.wire.stamp(&first, stamp);
        if first.kind == Kind::Dns {
            let Some(tcp) = self.daemon.tcp.as_ref() else {
                return Err("DNS in the lap but no feed connection".into());
            };
            let mut tcp: &TcpStream = tcp;
            tcp.write_all(self.wire.bytes(&first))
                .map_err(|e| io("DNS feed write", e))?;
            self.dns_sent += first.records as u64;
            self.cursor = (self.cursor + 1) % items;
            return Ok(first.records);
        }
        let unmark = probe.map(|id| self.wire.mark_probe(&first, id));
        let mut burst = [first; BURST];
        let mut n = 1;
        while n < BURST {
            let next = self.wire.items[(self.cursor + n) % items];
            if next.kind != Kind::Flows || !more(&next) {
                break;
            }
            self.wire.stamp(&next, stamp);
            burst[n] = next;
            n += 1;
        }
        let mut views: [&[u8]; BURST] = [&[]; BURST];
        for (view, item) in views.iter_mut().zip(&burst[..n]) {
            *view = self.wire.bytes(item);
        }
        let mut sent = 0;
        while sent < n {
            sent += flowdns_ingest::mmsg::send_burst(&self.daemon.udp, &views[sent..n])
                .map_err(|e| io("sendmmsg", e))?;
        }
        if let Some(saved) = unmark {
            self.wire.unmark(&first, saved);
        }
        let records: u32 = burst[..n].iter().map(|i| i.records).sum();
        self.flows_sent += records as u64;
        self.datagrams_sent += n as u64;
        self.cursor = (self.cursor + n) % items;
        Ok(records)
    }

    /// Closed loop for `duration`: send whenever there is credit. Returns
    /// the completed-record count at every window edge, first edge at the
    /// start.
    pub fn closed_loop(&mut self, duration: Duration) -> Result<Vec<(Instant, u64)>, String> {
        let start = Instant::now();
        let mut edges = vec![(start, self.completed())];
        let mut last_send = start;
        loop {
            let now = Instant::now();
            if now - edges[edges.len() - 1].0 >= WINDOW {
                edges.push((now, self.completed()));
            }
            if now - start >= duration {
                return Ok(edges);
            }
            if self.has_credit() {
                self.send(None, |_| true)?;
                last_send = now;
            } else if now - last_send > STALL_LIMIT {
                return Err("closed-loop phase stalled without credit".into());
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    /// Send and complete exactly the next `datagrams` datagrams (and the
    /// DNS chunks between them), closed loop.
    pub fn send_datagrams(&mut self, datagrams: u64) -> Result<(), String> {
        let target = self.datagrams_sent + datagrams;
        let deadline = Instant::now() + STALL_LIMIT;
        while self.datagrams_sent < target {
            if Instant::now() > deadline {
                return Err("stalled sending the read-back segment".into());
            }
            if self.has_credit() {
                let mut left = target - self.datagrams_sent - 1;
                self.send(None, |_| {
                    let go = left > 0;
                    left = left.saturating_sub(1);
                    go
                })?;
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        self.drain()
    }

    /// Open loop for `duration` at the workload's rate: every item has a
    /// due instant fixed by its position, sent as soon after as the
    /// generator gets to it. About a thousand datagrams a second carry a
    /// probe whose sink lag counts from the due instant.
    pub fn paced(&mut self, duration: Duration, spec: &Spec) -> Result<Paced, String> {
        self.drain()?;
        self.daemon.sink.take_probes();
        let datagram_rate = spec.paced_rate / spec.per_datagram as f64
            * self.wire.flow_records as f64
            / (self.wire.flow_records + self.wire.dns_records) as f64;
        let probe_every = (datagram_rate / PROBES_PER_SEC).round().max(1.0) as u64;
        let per_record = Duration::from_secs_f64(1.0 / spec.paced_rate);
        let own_cpu_before = crate::sys::thread_cpu_ns();
        let start = Instant::now();
        let due_of = |position: u64| start + per_record.mul_f64(position as f64);
        // (instant, records completed, CPU of everything but this thread
        // and the janitor, CPU of this thread)
        let edge = |generator: &Self, at: Instant| {
            let own = crate::sys::thread_cpu_ns();
            let janitor = generator
                .janitor
                .as_ref()
                .map_or(0, |j| j.cpu_ns.load(Ordering::Relaxed));
            let daemon_cpu = crate::sys::process_cpu_ns().saturating_sub(own + janitor);
            (at, generator.completed(), daemon_cpu, own)
        };
        let mut edges = vec![edge(self, start)];
        let mut position = 0u64;
        let mut due: Vec<Instant> = Vec::new();
        let mut late_ms = Vec::new();
        // Per window so far: the most the generator itself was behind its
        // schedule, ms.
        let mut behind_max_ms = vec![0.0f64];
        // Set while the daemon holds the schedule up (full window, blocked
        // feed) and until the generator has caught up with it again: what
        // is sent late in between is late because of the daemon.
        let mut held = false;
        // Set when the generator thread did not get to run (a turn of this
        // loop is a 100 us sleep and one burst) and until it has caught up:
        // what the daemon is offered in between is not the schedule.
        let mut away_ms = 0.0f64;
        let mut last_turn = start;
        loop {
            let now = Instant::now();
            let turn_ms = (now - last_turn).as_secs_f64() * 1e3;
            last_turn = now;
            if turn_ms > LATE_LIMIT_MS {
                // The absence lay in the window about to be closed.
                away_ms = turn_ms;
                raise_last(&mut behind_max_ms, away_ms);
            }
            if now - edges[edges.len() - 1].0 >= WINDOW {
                edges.push(edge(self, now));
                behind_max_ms.push(0.0);
            }
            if now - start >= duration {
                break;
            }
            let next_due = due_of(position);
            if now < next_due {
                held = false;
                away_ms = 0.0;
                std::thread::sleep((next_due - now).min(IDLE_SLEEP));
                continue;
            }
            raise_last(&mut behind_max_ms, away_ms);
            let behind_ms = (now - next_due).as_secs_f64() * 1e3;
            if !self.has_credit() {
                // Open loop, but lossless: a full window holds the
                // schedule up, and the hold-up shows as lag.
                if now - next_due > STALL_LIMIT {
                    return Err(format!(
                        "{}: the daemon fell {STALL_LIMIT:?} behind {} records/s",
                        spec.name, spec.paced_rate
                    ));
                }
                held = true;
                std::thread::sleep(IDLE_SLEEP);
                continue;
            }
            let probe = (self.wire.items[self.cursor].kind == Kind::Flows
                && self.datagrams_sent.is_multiple_of(probe_every))
            .then(|| {
                due.push(next_due);
                due.len() as u32 - 1
            });
            let mut ahead = position + self.wire.items[self.cursor].records as u64;
            let mut nth = self.datagrams_sent;
            let records = self.send(probe, |next| {
                nth += 1;
                // Stop the burst before the next probe and at the schedule.
                let go = !nth.is_multiple_of(probe_every) && due_of(ahead) <= now;
                ahead += next.records as u64;
                go
            })?;
            if !held {
                late_ms.push(behind_ms);
                raise_last(&mut behind_max_ms, behind_ms);
            }
            // A send that blocks is the feed connection pushing back.
            held |= now.elapsed() > BLOCKED_SEND;
            position += records as u64;
            let depth = self.daemon.rt.correlator().queue_depths().2;
            self.write_depth_max = self.write_depth_max.max(depth);
        }
        self.drain()?;
        let wall_secs = start.elapsed().as_secs_f64();
        let generator_cpu_ns = crate::sys::thread_cpu_ns() - own_cpu_before;
        let mut lags: Vec<Vec<f64>> = vec![Vec::new(); edges.len() - 1];
        let mut lag_ms = Vec::with_capacity(due.len());
        for (id, at) in self.daemon.sink.take_probes() {
            let Some(due) = due.get(id as usize) else {
                continue;
            };
            let lag = (at - *due).as_secs_f64() * 1e3;
            lag_ms.push(lag);
            let window = edges[1..].partition_point(|e| e.0 <= *due);
            if let Some(lags) = lags.get_mut(window) {
                lags.push(lag);
            }
        }
        if lag_ms.len() != due.len() {
            return Err(format!(
                "{} of {} probes came out of the sink",
                lag_ms.len(),
                due.len()
            ));
        }
        let windows = edges
            .windows(2)
            .zip(lags.iter_mut().zip(behind_max_ms))
            .map(|(w, (lags, late_max_ms))| PacedWindow {
                cpu_us: (w[1].2 - w[0].2) as f64 / 1e3 / (w[1].1 - w[0].1).max(1) as f64,
                lag_ms: (!lags.is_empty()).then(|| crate::median(lags)),
                late_max_ms,
                generator_cpu_pct: (w[1].3 - w[0].3) as f64 / (w[1].0 - w[0].0).as_nanos() as f64
                    * 100.0,
            })
            .collect();
        lag_ms.sort_by(f64::total_cmp);
        late_ms.sort_by(f64::total_cmp);
        Ok(Paced {
            wall_secs,
            window_secs: (edges[edges.len() - 1].0 - edges[0].0).as_secs_f64(),
            records: edges[edges.len() - 1].1 - edges[0].1,
            windows,
            lag_ms,
            late_ms,
            generator_cpu_ns,
        })
    }

    /// Wait until everything sent has come out: flows through the sink,
    /// DNS off the rings.
    pub fn drain(&mut self) -> Result<(), String> {
        wait_until(STALL_LIMIT, "the pipeline to drain", || {
            self.flows_written() == self.flows_sent && self.daemon.dns_applied() == self.dns_sent
        })
    }

    /// Freeze data time at a second no record has carried yet and send
    /// the next `datagrams` datagrams under it, so that the output files
    /// left at the end hold exactly their lines. Returns that second.
    pub fn read_back_segment(&mut self, datagrams: u64) -> Result<u64, String> {
        self.drain()?;
        let second = self.clock.data_micros() / 1_000_000 + 2;
        self.clock.frozen = Some(second * 1_000_000);
        // The first datagram of the new second makes the sink finish the
        // file it had open; then every finished file can go.
        self.send_datagrams(1)?;
        if let Some(janitor) = self.janitor.take() {
            self.file_bytes += janitor.finish()?;
        }
        self.file_bytes += unlink_finished(&self.tsv_dir)?;
        self.send_datagrams(datagrams - 1)?;
        Ok(second)
    }
}

impl Drop for Generator<'_> {
    /// Joins the janitor when a run ends early.
    fn drop(&mut self) {
        if let Some(janitor) = self.janitor.take() {
            let _ = janitor.finish();
        }
    }
}

/// Sums over the lines of the output files left in `dir`, which must all
/// carry `second` as their timestamp.
pub fn read_back(dir: &Path, second: u64) -> Result<(Sums, u64), String> {
    let mut sums = Sums::default();
    let mut file_bytes = 0;
    let stamp = format!("{second}\t");
    for entry in std::fs::read_dir(dir).map_err(|e| io("output dir", e))? {
        let path = entry.map_err(|e| io("output dir", e))?.path();
        let text = std::fs::read_to_string(&path).map_err(|e| io("read output", e))?;
        file_bytes += text.len() as u64;
        for line in text.lines() {
            if !line.starts_with(&stamp) {
                return Err(format!(
                    "{}: line {line:?} is not of second {second}",
                    path.display()
                ));
            }
            sums.records += 1;
            sums.add_line(line);
        }
    }
    Ok((sums, file_bytes))
}
