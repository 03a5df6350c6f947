//! The live, threaded correlation pipeline (Figure 1, as shipped).
//!
//! [`Correlator`] wires the stages together with bounded lossy queues:
//!
//! * producers route every record **by IP key** into one of
//!   `correlator_shards` lanes through a per-thread [`ShardRouter`]
//!   ([`Correlator::dns_router`], [`Correlator::flow_router`]) whose
//!   pushes are lock-free SPSC ring writes;
//! * one **shard worker** per lane drains its DNS ring into the
//!   [`ShardPartition`](crate::ShardPartition) it exclusively owns
//!   (FillUp, Algorithm 1), then resolves a bounded run of flows against
//!   it (LookUp, Algorithm 2) — stamping origin-AS attribution from the
//!   loaded routing table on the way — and places the results on one of
//!   the **Write queues**;
//! * each Write worker owns one queue shard and one [`OutputSink`]:
//!   records are partitioned by flow-key hash, so one flow's records
//!   always land in the same output shard. A shard worker stages up to
//!   [`EGRESS_BATCH`] records per Write worker and hands them over in
//!   one push, the Write worker takes them off in one pop, so the
//!   queue's lock is paid **per batch** and no lock sits on the
//!   per-record write path.
//!
//! All queues are bounded and lossy (see `flowdns-stream`): when a ring
//! or queue overflows, records are dropped and counted, exactly like the
//! paper's stream buffers. `finish()` performs an ordered shutdown
//! (producers first, writers last) so no accepted record is lost on the
//! way out; `snapshot()` reads live [`PipelineMetrics`] without stopping
//! anything.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use flowdns_bgp::{AsnView, FrozenTable, RoutingTable};
use flowdns_obs::{FlightRecorder, Histogram, HistogramSnapshot, MetricsRegistry};
use flowdns_stream::{LatencySnapshot, ShardProducer, ShardedChannel, StreamBuffer};
use flowdns_types::{CorrelatedRecord, DnsRecord, FlowDnsError, FlowKey, FlowRecord, SimDuration};

use crate::config::{CorrelatorConfig, Variant, MIGRATION_HINT};
use crate::lookup::LookUpStats;
use crate::metrics::{PipelineMetrics, Report, SnapshotStats};
use crate::shard::FillUpStats;
use crate::shard::{shard_of_dns, shard_of_flow, ShardedStore};
use crate::write::{MemorySink, OutputSink, WriteStats};

const POP_WAIT: Duration = Duration::from_millis(5);

/// Records a shard worker stages per Write worker before it hands them
/// to that worker's queue in one push, and the most a Write worker takes
/// off its queue in one pop: the queue's lock and wake-up are paid per
/// batch. A partial batch never outlives the wake-up that staged it, so
/// batching adds no timer-length delay.
pub const EGRESS_BATCH: usize = 64;

/// How many flow records a shard worker processes per partition-lock
/// acquisition before re-checking its DNS lane. FillUp-first: the DNS
/// lane is drained completely at the top of every round so flows always
/// see the freshest possible mappings, then at most this many flows run
/// before the next DNS check.
const SHARD_FLOW_BATCH: usize = 1024;

/// How long an idle shard worker sleeps before polling its lanes again.
/// Much shorter than the write stage's `POP_WAIT`: an SPSC poll is two
/// cache-line reads per registered producer, so polling often is cheap
/// and keeps idle-to-busy latency low.
const SHARD_IDLE_WAIT: Duration = Duration::from_micros(500);

/// Records a worker processes between flushes of its thread-local stats
/// into the shared counters `snapshot()` reads. Large enough to keep the
/// hot loop lock-free in practice, small enough that live stats lag by
/// at most a few hundred records per worker.
const STATS_FLUSH_EVERY: u64 = 512;

/// Every n-th record accepted into a shard's DNS/flow lane is timed from
/// enqueue to dequeue (see [`ShardedChannel::lane_latency`]). Sparse
/// enough to be free at millions of records per second, dense enough
/// that a one-second measurement window at interesting load still
/// collects thousands of samples.
const QUEUE_LATENCY_SAMPLE_EVERY: u64 = 64;

/// Every n-th record a worker processes is timed into its stage's
/// service-time histogram. Sampling keeps the per-record telemetry cost
/// at one local counter increment; only sampled records pay the two
/// `Instant::now()` calls and the histogram's relaxed `fetch_add`.
const SERVICE_SAMPLE_EVERY: u64 = 16;

/// The per-stage service-time histograms (microseconds), sharded one
/// recorder per worker so the recording path is an uncontended atomic
/// add.
#[derive(Debug, Clone)]
struct StageService {
    fillup: Histogram,
    lookup: Histogram,
    write: Histogram,
}

/// Bridge a stream-side [`LatencySnapshot`] into the telemetry plane's
/// [`HistogramSnapshot`]. The two sides use the identical log-bucket
/// scheme (4 sub-buckets per octave, 160 buckets — asserted by a test
/// below), so the bucket counters carry over one-to-one.
fn latency_to_histogram(snap: &LatencySnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: snap.buckets.clone(),
        sum: snap.sum_us,
    }
}

/// Shared bookkeeping of the snapshot subsystem: counters plus the
/// wall-clock instant of the last successful write, read by `snapshot()`
/// to compute the snapshot age.
#[derive(Debug, Default)]
struct SnapshotShared {
    stats: Mutex<SnapshotStats>,
    last_write: Mutex<Option<Instant>>,
    /// Serializes export+write: the background thread and
    /// [`Correlator::write_snapshot_now`] share one `.part` path, so two
    /// concurrent writers could interleave into it and then publish a
    /// torn file via the rename — exactly what the checksum would later
    /// reject. One writer at a time keeps the atomicity contract.
    write_serial: Mutex<()>,
}

impl SnapshotShared {
    fn record_write(&self, bytes: u64, entries: u64) {
        let mut stats = self.stats.lock();
        stats.snapshots_written += 1;
        stats.last_bytes = bytes;
        stats.last_entries = entries;
        stats.last_error = None;
        *self.last_write.lock() = Some(Instant::now());
    }

    fn record_error(&self, context: &str, e: &FlowDnsError) {
        self.stats.lock().last_error = Some(format!("{context}: {e}"));
    }

    fn record_warm_start(&self, entries: u64, read: Duration, import: Duration) {
        let mut stats = self.stats.lock();
        stats.warm_start_entries = entries;
        stats.warm_start_read_secs = read.as_secs_f64();
        stats.warm_start_import_secs = import.as_secs_f64();
    }

    fn stats(&self) -> SnapshotStats {
        let mut stats = self.stats.lock().clone();
        stats.last_write_age_secs = self
            .last_write
            .lock()
            .map(|instant| instant.elapsed().as_secs_f64());
        stats
    }
}

/// A point-in-time health sample of the DNS store, returned by
/// [`Correlator::store_health`]. Every field aggregates over all
/// partitions plus the shared name→CNAME store.
#[derive(Debug, Clone)]
pub struct StoreHealth {
    /// Entries currently held.
    pub entries: usize,
    /// Rotation clear-ups performed since start (Algorithm 1's
    /// `AClearUp`/`CClearUp` both count).
    pub clear_ups: u64,
    /// Entries dropped by rotation so far.
    pub rotated_entries: u64,
    /// The store's own memory accounting.
    pub memory: flowdns_storage::MemoryEstimate,
}

/// Export the store and write it to `path` atomically, folding the
/// outcome into the shared snapshot stats.
fn write_store_snapshot(store: &ShardedStore, path: &str, shared: &SnapshotShared) {
    let _one_writer = shared.write_serial.lock();
    let image = store.export_image();
    let entries = image.entry_count() as u64;
    match flowdns_snapshot::write_snapshot(path, &image) {
        Ok(bytes) => shared.record_write(bytes, entries),
        Err(e) => shared.record_error("snapshot write", &e),
    }
}

/// A per-thread ingress handle for one stream: routes each record to
/// its shard's lane ([`shard_of_dns`] for DNS, [`shard_of_flow`] for
/// flows) and pushes into that lane's private SPSC ring. Build one per
/// producing thread via [`Correlator::dns_router`] or
/// [`Correlator::flow_router`]; pushes take no lock and allocate
/// nothing. Dropping the router hands its rings back for the next one.
pub struct ShardRouter<T> {
    channel: Arc<ShardedChannel<T>>,
    producer: ShardProducer<T>,
    shard_of: fn(&T, usize) -> usize,
    /// Reusable per-lane accept/drop tallies for the batch form, so a
    /// batch costs one counter update per touched lane and zero
    /// allocations.
    accepted: Vec<u64>,
    dropped: Vec<u64>,
}

impl<T> std::fmt::Debug for ShardRouter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.channel.lanes())
            .finish()
    }
}

impl<T> ShardRouter<T> {
    fn new(channel: &Arc<ShardedChannel<T>>, shard_of: fn(&T, usize) -> usize) -> Self {
        ShardRouter {
            channel: Arc::clone(channel),
            producer: channel.producer(),
            shard_of,
            accepted: vec![0; channel.lanes()],
            dropped: vec![0; channel.lanes()],
        }
    }

    /// Number of correlator shards this router fans out to.
    pub fn shards(&self) -> usize {
        self.channel.lanes()
    }

    /// Route one record to its shard's ring. Returns `false` if the
    /// ring was full and the record was dropped (stream loss).
    pub fn route(&mut self, record: T) -> bool {
        let lane = (self.shard_of)(&record, self.producer.lanes());
        self.producer.push(&self.channel, lane, record)
    }

    /// Route a batch of records, returning how many were accepted.
    /// Lane counters are updated once per touched lane, not per record.
    pub fn route_batch<I>(&mut self, records: I) -> usize
    where
        I: IntoIterator<Item = T>,
    {
        let lanes = self.producer.lanes();
        let mut total = 0usize;
        for record in records {
            let lane = (self.shard_of)(&record, lanes);
            if self.producer.push_uncounted(lane, record) {
                self.accepted[lane] += 1;
                total += 1;
            } else {
                self.dropped[lane] += 1;
            }
        }
        for lane in 0..lanes {
            let accepted = std::mem::take(&mut self.accepted[lane]);
            let dropped = std::mem::take(&mut self.dropped[lane]);
            self.producer.note_accepted(&self.channel, lane, accepted);
            self.producer.note_dropped(&self.channel, lane, dropped);
        }
        total
    }
}

/// The write-queue shard a flow's records belong to: a stable hash of
/// the flow 5-tuple modulo the shard count, so every record of one flow
/// lands in the same output file.
fn shard_of(key: &FlowKey, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// A running correlation pipeline.
pub struct Correlator {
    config: CorrelatorConfig,
    store: Arc<ShardedStore>,
    /// Per-shard DNS ingress lanes (one SPSC ring per producer and lane).
    dns: Arc<ShardedChannel<DnsRecord>>,
    /// Per-shard flow ingress lanes.
    flows: Arc<ShardedChannel<FlowRecord>>,
    /// One bounded queue per Write worker; shard workers partition
    /// records across them by flow-key hash.
    write_queues: Vec<StreamBuffer<CorrelatedRecord>>,
    fillup_stats: Arc<Mutex<FillUpStats>>,
    lookup_stats: Arc<Mutex<LookUpStats>>,
    /// Write stats merged from the workers' thread-local counters.
    write_stats: Arc<Mutex<WriteStats>>,
    input_shutdown: Arc<AtomicBool>,
    write_shutdown: Arc<AtomicBool>,
    /// Records lost to sink errors (queue overflow is counted by the
    /// queues themselves).
    writes_dropped: Arc<AtomicU64>,
    /// First sink failure — a failed `write_record` or idle flush while
    /// running, or the end-of-run finalize (flush/rotation rename). Read
    /// live by `/healthz`, returned by `finish()`.
    egress_error: Arc<Mutex<Option<FlowDnsError>>>,
    /// The swappable routing-table view, when AS attribution is on.
    asn_view: Option<AsnView>,
    /// Per-stage service-time histograms (µs), fed by sampled timings.
    stage_service: StageService,
    /// The sampled flow tracer, when `trace_sample_every` is nonzero.
    flight: Option<Arc<FlightRecorder>>,
    /// Snapshot counters shared with the background snapshot thread.
    snapshot_shared: Arc<SnapshotShared>,
    /// Stops the background snapshot thread.
    snapshot_shutdown: Arc<AtomicBool>,
    /// The background snapshot thread, when periodic persistence is on.
    snapshot_worker: Option<JoinHandle<()>>,
    /// Shard worker handles (joined first at shutdown).
    input_workers: Vec<JoinHandle<()>>,
    /// Write worker handles (joined after the input stages have drained).
    write_workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Correlator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Correlator")
            .field("config", &self.config)
            .field("stored_entries", &self.store.total_entries())
            .finish()
    }
}

impl Correlator {
    /// Start a pipeline writing to in-memory sinks (one per Write
    /// worker).
    pub fn start(config: CorrelatorConfig) -> Result<Self, FlowDnsError> {
        Correlator::start_with_sink_factory(config, |_| {
            Ok(Box::new(MemorySink::new()) as Box<dyn OutputSink>)
        })
    }

    /// Start a pipeline writing to the given single sink. The sink is
    /// owned by the one Write worker, so this form requires
    /// `write_workers == 1`; use [`Correlator::start_with_sink_factory`]
    /// to scale the write stage.
    pub fn start_with_sink(
        config: CorrelatorConfig,
        sink: Box<dyn OutputSink>,
    ) -> Result<Self, FlowDnsError> {
        let factory = crate::write::single_sink_factory(config.write_workers, sink)?;
        Correlator::start_with_sink_factory(config, factory)
    }

    /// Start a pipeline whose Write stage is sharded: `factory(i)` builds
    /// the sink owned by Write worker `i` (e.g. a
    /// [`crate::write::RotatingFileSink`] tagged with the shard id).
    pub fn start_with_sink_factory<F>(
        config: CorrelatorConfig,
        factory: F,
    ) -> Result<Self, FlowDnsError>
    where
        F: FnMut(usize) -> Result<Box<dyn OutputSink>, FlowDnsError>,
    {
        let asn_view = match &config.routing_table {
            Some(path) => Some(AsnView::new(
                RoutingTable::load_announcements(path)?.freeze(),
            )),
            None => None,
        };
        Correlator::start_with_egress(config, factory, asn_view)
    }

    /// The full-control constructor: sharded sinks from `factory` plus an
    /// explicit routing-table view (pass a view built from an in-memory
    /// table, or `None` to disable AS attribution even if
    /// `config.routing_table` is set — the config path is only consulted
    /// by the other constructors).
    pub fn start_with_egress<F>(
        config: CorrelatorConfig,
        mut factory: F,
        asn_view: Option<AsnView>,
    ) -> Result<Self, FlowDnsError>
    where
        F: FnMut(usize) -> Result<Box<dyn OutputSink>, FlowDnsError>,
    {
        config.validate()?;
        if config.variant == Variant::ExactTtl {
            // The exact-TTL strawman has no partitioned store: it is the
            // offline simulator's Appendix A.8 oracle, not a deployable
            // variant.
            return Err(FlowDnsError::Config(format!(
                "variant = ExactTTL is simulator-only (OfflineSimulator / exp_exact_ttl); \
                 the live correlator runs the rotating variants, use variant = Main \
                 ({MIGRATION_HINT})"
            )));
        }
        // Build every sink before spawning anything: a factory error must
        // fail the whole start without leaking already-running workers.
        let sinks: Vec<Box<dyn OutputSink>> = (0..config.write_workers)
            .map(&mut factory)
            .collect::<Result<_, _>>()?;
        let store = Arc::new(ShardedStore::new(&config));
        let snapshot_shared = Arc::new(SnapshotShared::default());
        // Warm start: restore the store from the configured snapshot file
        // before any worker runs. A missing file is a normal cold start; a
        // torn or corrupt file is *recorded* (and visible in the metrics)
        // but never fatal — the daemon starts cold and overwrites the bad
        // file at the next snapshot write.
        //
        // The import ages generations to `as_of + downtime`: the file's
        // modification time tells us how long the process was down, so a
        // quick supervisor restart loses nothing while a day-long outage
        // correctly expires everything but the Long maps (live record
        // timestamps are wall-clock-derived, so the two clocks advance
        // together). An unreadable mtime degrades to "quick restart".
        if let Some(path) = &config.snapshot_path {
            if std::path::Path::new(path).exists() {
                let downtime = std::fs::metadata(path)
                    .and_then(|meta| meta.modified())
                    .ok()
                    .and_then(|written| written.elapsed().ok())
                    .unwrap_or_default();
                let started = Instant::now();
                let loaded = flowdns_snapshot::read_snapshot(path).and_then(|image| {
                    let read = started.elapsed();
                    let now = image.as_of + SimDuration::from_secs(downtime.as_secs());
                    let imported = Instant::now();
                    let entries = store.import_image(&image, Some(now))?;
                    Ok((entries, read, imported.elapsed()))
                });
                match loaded {
                    Ok((entries, read, import)) => {
                        snapshot_shared.record_warm_start(entries as u64, read, import)
                    }
                    Err(e) => snapshot_shared.record_error("warm start", &e),
                }
            }
        }
        // Flight recorder: only constructed when sampling is on, so the
        // "off" configuration costs nothing beyond `Option` branches.
        let flight = match (&config.trace_path, config.trace_sample_every) {
            (Some(path), n) if n > 0 => Some(Arc::new(
                FlightRecorder::create(path, n, flowdns_obs::trace::DEFAULT_TRACE_MAX_BYTES)
                    .map_err(|e| FlowDnsError::Io(format!("trace file {path}: {e}")))?,
            )),
            _ => None,
        };
        // One worker per shard runs both input stages, so both service
        // histograms are sharded by correlator shard.
        let stage_service = StageService {
            fillup: Histogram::new(config.correlator_shards),
            lookup: Histogram::new(config.correlator_shards),
            write: Histogram::new(config.write_workers),
        };
        // The configured write capacity is the total across shards.
        let per_shard_capacity = (config.write_queue_capacity / config.write_workers).max(1);
        let write_queues: Vec<StreamBuffer<CorrelatedRecord>> = (0..config.write_workers)
            .map(|_| StreamBuffer::new(per_shard_capacity))
            .collect();
        let fillup_stats = Arc::new(Mutex::new(FillUpStats::default()));
        let lookup_stats = Arc::new(Mutex::new(LookUpStats::default()));
        let write_stats = Arc::new(Mutex::new(WriteStats::default()));
        let input_shutdown = Arc::new(AtomicBool::new(false));
        let write_shutdown = Arc::new(AtomicBool::new(false));
        let writes_dropped = Arc::new(AtomicU64::new(0));
        let egress_error = Arc::new(Mutex::new(None::<FlowDnsError>));

        let mut input_workers = Vec::new();
        let mut write_workers = Vec::new();

        // Per-shard SPSC ingress lanes, one worker per shard running
        // FillUp and LookUp back to back over its exclusive partition.
        let dns_channel = Arc::new(ShardedChannel::<DnsRecord>::new(
            config.correlator_shards,
            config.shard_dns_ring_capacity,
            QUEUE_LATENCY_SAMPLE_EVERY,
        ));
        let flow_channel = Arc::new(ShardedChannel::<FlowRecord>::new(
            config.correlator_shards,
            config.shard_flow_ring_capacity,
            QUEUE_LATENCY_SAMPLE_EVERY,
        ));
        for i in 0..config.correlator_shards {
            let dns_channel = Arc::clone(&dns_channel);
            let flow_channel = Arc::clone(&flow_channel);
            let store = Arc::clone(&store);
            let out_queues = write_queues.clone();
            let fstats = Arc::clone(&fillup_stats);
            let lstats = Arc::clone(&lookup_stats);
            let shutdown = Arc::clone(&input_shutdown);
            let asn_reader = asn_view.as_ref().map(|view| view.reader());
            let fillup_service = stage_service.fillup.recorder(i);
            let lookup_service = stage_service.lookup.recorder(i);
            let flight_handle = flight.clone();
            input_workers.push(
                std::thread::Builder::new()
                    .name(format!("shard-{i}"))
                    .spawn(move || {
                        let mut dns_in = dns_channel.consumer(i);
                        let mut flow_in = flow_channel.consumer(i);
                        let mut asn = asn_reader;
                        let write_shards = out_queues.len();
                        let mut staged: Vec<Vec<CorrelatedRecord>> = (0..write_shards)
                            .map(|_| Vec::with_capacity(EGRESS_BATCH))
                            .collect();
                        let mut flocal = FillUpStats::default();
                        let mut llocal = LookUpStats::default();
                        let mut fseen = 0u64;
                        let mut lseen = 0u64;
                        loop {
                            let mut processed = 0usize;
                            {
                                // One lock acquisition per wake-up:
                                // worker `i` is the only long-lived
                                // holder, so this is uncontended
                                // except against snapshot export.
                                let mut partition = store.partition(i).lock();
                                // FillUp-first: drain the DNS lane
                                // completely before touching flows.
                                while let Some(record) = dns_in.pop_adopting() {
                                    if fseen % SERVICE_SAMPLE_EVERY == 0 {
                                        let started = Instant::now();
                                        partition.process_dns(&store, &record, &mut flocal);
                                        fillup_service.record(started.elapsed().as_micros() as u64);
                                    } else {
                                        partition.process_dns(&store, &record, &mut flocal);
                                    }
                                    fseen += 1;
                                    processed += 1;
                                }
                                // Then a bounded run of flows, so
                                // fresh DNS is re-checked at least
                                // every SHARD_FLOW_BATCH records.
                                let mut budget = SHARD_FLOW_BATCH;
                                while budget > 0 {
                                    let Some(flow) = flow_in.pop_adopting() else {
                                        break;
                                    };
                                    budget -= 1;
                                    let trace = flow.trace;
                                    if let (Some(flight), Some(id)) = (&flight_handle, trace) {
                                        flight.stamp_dequeue(id);
                                    }
                                    let record = if lseen % SERVICE_SAMPLE_EVERY == 0 {
                                        let started = Instant::now();
                                        let record = partition.process_flow(
                                            &store,
                                            &mut asn,
                                            flow,
                                            &mut llocal,
                                        );
                                        lookup_service.record(started.elapsed().as_micros() as u64);
                                        record
                                    } else {
                                        partition.process_flow(&store, &mut asn, flow, &mut llocal)
                                    };
                                    lseen += 1;
                                    if let (Some(flight), Some(id)) = (&flight_handle, trace) {
                                        flight.stamp_lookup_done(id, record.src_asn.is_some());
                                    }
                                    let wshard = shard_of(&record.flow.key, write_shards);
                                    let batch = &mut staged[wshard];
                                    batch.push(record);
                                    if batch.len() >= EGRESS_BATCH {
                                        out_queues[wshard].push_batch(batch);
                                    }
                                    processed += 1;
                                }
                            }
                            // Partition lock released: hand over what is
                            // still staged, so no record waits for a
                            // later wake-up to fill its batch.
                            for (batch, queue) in staged.iter_mut().zip(&out_queues) {
                                queue.push_batch(batch);
                            }
                            if flocal.total() + llocal.total() >= STATS_FLUSH_EVERY {
                                fstats.lock().merge(&flocal);
                                flocal = FillUpStats::default();
                                lstats.lock().merge(&llocal);
                                llocal = LookUpStats::default();
                            }
                            if processed == 0 {
                                // Idle: flush pending local stats so
                                // `snapshot()` converges on quiet
                                // streams, then check for shutdown.
                                if flocal != FillUpStats::default() {
                                    fstats.lock().merge(&flocal);
                                    flocal = FillUpStats::default();
                                }
                                if llocal != LookUpStats::default() {
                                    lstats.lock().merge(&llocal);
                                    llocal = LookUpStats::default();
                                }
                                if shutdown.load(Ordering::Acquire)
                                    && dns_channel.lane_is_empty(i)
                                    && flow_channel.lane_is_empty(i)
                                {
                                    break;
                                }
                                std::thread::sleep(SHARD_IDLE_WAIT);
                            }
                        }
                        fstats.lock().merge(&flocal);
                        lstats.lock().merge(&llocal);
                    })
                    // Spawn failure (thread exhaustion) aborts startup;
                    // main's error path exits the process, which tears
                    // down any workers already running.
                    .map_err(|e| FlowDnsError::Io(format!("spawn shard worker: {e}")))?,
            );
        }

        // Write workers: each owns its queue shard and its sink. Records
        // come off the queue a batch at a time and stats are merged once
        // per batch, so the per-record path takes no lock at all.
        for (i, (queue, mut sink)) in write_queues.iter().zip(sinks).enumerate() {
            let queue = queue.clone();
            let stats = Arc::clone(&write_stats);
            let shutdown = Arc::clone(&write_shutdown);
            let dropped = Arc::clone(&writes_dropped);
            let sink_error = Arc::clone(&egress_error);
            let service = stage_service.write.recorder(i);
            let flight_handle = flight.clone();
            write_workers.push(
                std::thread::Builder::new()
                    .name(format!("write-{i}"))
                    .spawn(move || {
                        // The first sink failure is kept for `/healthz`
                        // and `finish()`; later ones are only counted.
                        let note_error = |e: FlowDnsError| {
                            let mut slot = sink_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                        };
                        let mut batch: Vec<CorrelatedRecord> = Vec::with_capacity(EGRESS_BATCH);
                        let mut seen = 0u64;
                        // Lines written since the last flush.
                        let mut unflushed = false;
                        loop {
                            if queue.pop_batch_wait(&mut batch, EGRESS_BATCH, POP_WAIT) == 0 {
                                // Quiet stream: what the sink buffers
                                // becomes readable now, not when a later
                                // record fills the buffer.
                                if unflushed {
                                    unflushed = false;
                                    if let Err(e) = sink.flush() {
                                        note_error(e);
                                    }
                                }
                                if shutdown.load(Ordering::Acquire) && queue.is_empty() {
                                    break;
                                }
                                continue;
                            }
                            let mut local = WriteStats::default();
                            for record in batch.drain(..) {
                                let result = if seen % SERVICE_SAMPLE_EVERY == 0 {
                                    let started = Instant::now();
                                    let result = sink.write_record(&record);
                                    service.record(started.elapsed().as_micros() as u64);
                                    result
                                } else {
                                    sink.write_record(&record)
                                };
                                seen += 1;
                                match result {
                                    Ok(()) => {
                                        local.records_written += 1;
                                        local
                                            .volumes
                                            .record(record.flow.bytes, record.is_correlated());
                                    }
                                    Err(e) => {
                                        // ordering: stats-only drop counter
                                        // read by snapshot(); carries no
                                        // other state.
                                        dropped.fetch_add(1, Ordering::Relaxed);
                                        note_error(e);
                                    }
                                }
                                if let (Some(flight), Some(id)) =
                                    (&flight_handle, record.flow.trace)
                                {
                                    flight.finish(id, i);
                                }
                            }
                            unflushed = true;
                            stats.lock().merge(&local);
                        }
                        // Finish the sink (flush, rotation rename). An
                        // end-of-run I/O failure must surface through
                        // `finish()`, not vanish in a Drop impl.
                        if let Err(e) = sink.finalize() {
                            note_error(e);
                        }
                    })
                    .map_err(|e| FlowDnsError::Io(format!("spawn write worker: {e}")))?,
            );
        }

        // Background snapshot thread: periodically export the store
        // (each partition locked briefly in turn — the hot path is never
        // globally locked) and write it via `.part` + atomic rename. Only
        // spawned when a path is configured and the interval is nonzero.
        let snapshot_shutdown = Arc::new(AtomicBool::new(false));
        let mut snapshot_worker = None;
        if let Some(path) = config
            .snapshot_path
            .clone()
            .filter(|_| !config.snapshot_interval.is_zero())
        {
            let store = Arc::clone(&store);
            let shared = Arc::clone(&snapshot_shared);
            let shutdown = Arc::clone(&snapshot_shutdown);
            let interval = config.snapshot_interval;
            snapshot_worker = Some(
                std::thread::Builder::new()
                    .name("snapshot".into())
                    .spawn(move || {
                        let mut last = Instant::now();
                        loop {
                            // Sleep in short steps so shutdown is prompt
                            // even with long snapshot intervals.
                            std::thread::sleep(Duration::from_millis(50));
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            if last.elapsed() >= interval {
                                write_store_snapshot(&store, &path, &shared);
                                last = Instant::now();
                            }
                        }
                    })
                    .map_err(|e| FlowDnsError::Io(format!("spawn snapshot worker: {e}")))?,
            );
        }

        Ok(Correlator {
            config,
            store,
            dns: dns_channel,
            flows: flow_channel,
            write_queues,
            fillup_stats,
            lookup_stats,
            write_stats,
            input_shutdown,
            write_shutdown,
            writes_dropped,
            egress_error,
            asn_view,
            stage_service,
            flight,
            snapshot_shared,
            snapshot_shutdown,
            snapshot_worker,
            input_workers,
            write_workers,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CorrelatorConfig {
        &self.config
    }

    /// Entries currently held by the DNS store (all partitions plus the
    /// shared NAME-CNAME store).
    pub fn stored_entries(&self) -> usize {
        self.store.total_entries()
    }

    /// A point-in-time health sample of the DNS store — entries,
    /// clear-up count, rotated entries and the memory estimate,
    /// aggregated across partitions. The soak tier samples this after
    /// every rotation clear-up to assert the bounded-memory claim; the
    /// ledger can log it as a periodic line.
    pub fn store_health(&self) -> StoreHealth {
        StoreHealth {
            entries: self.store.total_entries(),
            clear_ups: self.store.clear_ups(),
            rotated_entries: self.store.rotated_entries(),
            memory: self.store.memory_estimate(),
        }
    }

    /// The partitioned store (for inspection in tests).
    pub fn sharded_store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Number of correlator shards (always at least 1).
    pub fn shards(&self) -> usize {
        self.dns.lanes()
    }

    /// A per-thread router into the DNS lanes. Each producing thread
    /// (a resolver connection, a feeder) holds its own: its pushes then
    /// go straight into per-shard SPSC rings with no lock and no
    /// allocation per record. The rings are registered on the DNS lanes
    /// only, and a dropped router's rings serve the next one.
    pub fn dns_router(&self) -> ShardRouter<DnsRecord> {
        ShardRouter::new(&self.dns, shard_of_dns)
    }

    /// A per-thread router into the flow lanes; see
    /// [`dns_router`](Self::dns_router).
    pub fn flow_router(&self) -> ShardRouter<FlowRecord> {
        ShardRouter::new(&self.flows, shard_of_flow)
    }

    /// Per-shard routed-record counters `(dns, flows)`: how many records
    /// each shard's ingress lanes have accepted so far. The sums equal
    /// the totals the routers' `route`/`route_batch` calls accepted —
    /// the CI saturation smoke asserts exactly that. Always `Some`; the `Option` is what `benchmark/`
    /// (which a program change may not edit) calls `map_or` on.
    pub fn shard_routed_counts(&self) -> Option<(Vec<u64>, Vec<u64>)> {
        Some((
            (0..self.dns.lanes())
                .map(|i| self.dns.lane_stats(i).accepted)
                .collect(),
            (0..self.flows.lanes())
                .map(|i| self.flows.lane_stats(i).accepted)
                .collect(),
        ))
    }

    /// The routing-table view the LookUp workers read, if AS attribution
    /// is enabled.
    pub fn asn_view(&self) -> Option<&AsnView> {
        self.asn_view.as_ref()
    }

    /// The flight recorder, when `trace_sample_every` is nonzero.
    ///
    /// The live ingest layer calls [`FlightRecorder::maybe_start`] after
    /// decode to hand out trace tokens; the pipeline stages stamp and
    /// finish them.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// The first egress failure observed so far — a sink `write_record`
    /// or flush error as soon as a Write worker meets it, or the
    /// end-of-run finalize error — rendered for health reporting.
    /// `finish()` still surfaces the error itself; this accessor lets
    /// `/healthz` see it live.
    pub fn egress_error_message(&self) -> Option<String> {
        self.egress_error.lock().as_ref().map(|e| e.to_string())
    }

    /// Current fill level (0.0–1.0) of the fullest DNS lane, the fullest
    /// flow lane, and the fullest write shard — the saturation signal
    /// `/healthz` checks. The fullest lane is the signal because one hot
    /// shard stalls its listeners' sub-batches however empty the others
    /// are.
    pub fn queue_fill_levels(&self) -> (f64, f64, f64) {
        let write = self
            .write_queues
            .iter()
            .map(|q| q.fill_level())
            .fold(0.0f64, f64::max);
        (
            (0..self.dns.lanes())
                .map(|i| self.dns.lane_fill_level(i))
                .fold(0.0f64, f64::max),
            (0..self.flows.lanes())
                .map(|i| self.flows.lane_fill_level(i))
                .fold(0.0f64, f64::max),
            write,
        )
    }

    /// Register every pipeline metric into `registry`, making it the
    /// single source of truth telemetry consumers (the `/metrics`
    /// endpoint, `flowdnsd`'s periodic stderr lines) read. All series
    /// are closures over the counters the pipeline already maintains —
    /// registration adds no hot-path work.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        // FillUp stage.
        for (kind, read) in [
            (
                "addresses",
                Box::new(|s: &FillUpStats| s.addresses_stored)
                    as Box<dyn Fn(&FillUpStats) -> u64 + Send + Sync>,
            ),
            ("cnames", Box::new(|s: &FillUpStats| s.cnames_stored)),
            ("filtered", Box::new(|s: &FillUpStats| s.filtered)),
        ] {
            let stats = Arc::clone(&self.fillup_stats);
            registry.counter_fn(
                "flowdns_fillup_records_total",
                "DNS records processed by the FillUp stage, by outcome",
                &[("kind", kind)],
                move || read(&stats.lock()),
            );
        }
        // LookUp stage.
        for (result, read) in [
            (
                "ip_hit",
                Box::new(|s: &LookUpStats| s.ip_hits)
                    as Box<dyn Fn(&LookUpStats) -> u64 + Send + Sync>,
            ),
            ("ip_miss", Box::new(|s: &LookUpStats| s.ip_misses)),
            ("memoized", Box::new(|s: &LookUpStats| s.memoized)),
            ("filtered", Box::new(|s: &LookUpStats| s.filtered)),
        ] {
            let stats = Arc::clone(&self.lookup_stats);
            registry.counter_fn(
                "flowdns_lookup_flows_total",
                "Flow records resolved by the LookUp stage, by outcome",
                &[("result", result)],
                move || read(&stats.lock()),
            );
        }
        let stats = Arc::clone(&self.lookup_stats);
        registry.counter_fn(
            "flowdns_lookup_cname_hops_total",
            "CNAME chain hops walked during lookups",
            &[],
            move || stats.lock().cname_hops,
        );
        let stats = Arc::clone(&self.lookup_stats);
        registry.counter_fn(
            "flowdns_lookup_loop_limit_hits_total",
            "CNAME chains cut off at the loop limit",
            &[],
            move || stats.lock().loop_limit_hits,
        );
        let stats = Arc::clone(&self.lookup_stats);
        registry.counter_fn(
            "flowdns_lookup_asn_stamped_total",
            "Records stamped with a BGP origin AS",
            &[],
            move || stats.lock().asn_stamped,
        );
        // Write (egress) stage: merged counters plus per-shard queues.
        let stats = Arc::clone(&self.write_stats);
        registry.counter_fn(
            "flowdns_egress_records_total",
            "Correlated records written to the output sinks",
            &[],
            move || stats.lock().records_written,
        );
        let stats = Arc::clone(&self.write_stats);
        registry.counter_fn(
            "flowdns_egress_bytes_total",
            "Flow bytes accounted by the egress stage",
            &[],
            move || stats.lock().volumes.total.bytes(),
        );
        let stats = Arc::clone(&self.write_stats);
        registry.counter_fn(
            "flowdns_egress_correlated_bytes_total",
            "Flow bytes attributed to a service name",
            &[],
            move || stats.lock().volumes.correlated.bytes(),
        );
        for (shard, queue) in self.write_queues.iter().enumerate() {
            let shard_label = shard.to_string();
            let depth_queue = queue.clone();
            registry.gauge_fn(
                "flowdns_egress_queue_depth",
                "Records currently queued for one Write shard",
                &[("shard", &shard_label)],
                move || depth_queue.len() as f64,
            );
            let drop_queue = queue.clone();
            registry.counter_fn(
                "flowdns_egress_queue_dropped_total",
                "Records dropped at a full Write shard queue",
                &[("shard", &shard_label)],
                move || drop_queue.stats().dropped,
            );
        }
        let dropped = Arc::clone(&self.writes_dropped);
        registry.counter_fn(
            "flowdns_egress_sink_errors_total",
            "Records lost to sink write errors",
            &[],
            move || dropped.load(Ordering::Relaxed),
        );
        // Ingress lanes, one registration per lane: depth, resident ring
        // bytes, drops, the sampled wait histogram, and the routed-record
        // counter — all labelled `{queue, shard}` so a hot shard is
        // visible directly.
        // The two channels hold different record types, so each gets its
        // own monomorphized registration.
        fn register_shard_lanes<T: Send + 'static>(
            registry: &MetricsRegistry,
            name: &str,
            channel: &Arc<ShardedChannel<T>>,
        ) {
            for lane in 0..channel.lanes() {
                let shard_label = lane.to_string();
                let depth_channel = Arc::clone(channel);
                registry.gauge_fn(
                    "flowdns_queue_depth",
                    "Records currently queued for a pipeline stage",
                    &[("queue", name), ("shard", &shard_label)],
                    move || depth_channel.lane_depth(lane) as f64,
                );
                let resident_channel = Arc::clone(channel);
                registry.gauge_fn(
                    "flowdns_queue_resident_bytes",
                    "Ring segment bytes resident in one shard's ingress lane",
                    &[("queue", name), ("shard", &shard_label)],
                    move || resident_channel.lane_resident_bytes(lane) as f64,
                );
                let drop_channel = Arc::clone(channel);
                registry.counter_fn(
                    "flowdns_queue_dropped_total",
                    "Records dropped at a full stage queue (stream loss)",
                    &[("queue", name), ("shard", &shard_label)],
                    move || drop_channel.lane_stats(lane).dropped,
                );
                let routed_channel = Arc::clone(channel);
                registry.counter_fn(
                    "flowdns_shard_routed_total",
                    "Records routed into one correlator shard's ingress lane",
                    &[("queue", name), ("shard", &shard_label)],
                    move || routed_channel.lane_stats(lane).accepted,
                );
                let wait_channel = Arc::clone(channel);
                registry.histogram_fn(
                    "flowdns_queue_wait_us",
                    "Sampled enqueue-to-dequeue residency of a stage queue (µs)",
                    &[("queue", name), ("shard", &shard_label)],
                    move || latency_to_histogram(&wait_channel.lane_latency(lane)),
                );
            }
        }
        register_shard_lanes(registry, "fillup", &self.dns);
        register_shard_lanes(registry, "lookup", &self.flows);
        // Per-stage service time (sampled 1-in-16 per worker).
        for (stage, histogram) in [
            ("fillup", self.stage_service.fillup.clone()),
            ("lookup", self.stage_service.lookup.clone()),
            ("write", self.stage_service.write.clone()),
        ] {
            registry.histogram_fn(
                "flowdns_stage_service_us",
                "Sampled per-record service time of a pipeline stage (µs)",
                &[("stage", stage)],
                move || histogram.snapshot(),
            );
        }
        // Store occupancy.
        let store = Arc::clone(&self.store);
        registry.gauge_fn(
            "flowdns_store_entries",
            "Entries currently held by the DNS store",
            &[],
            move || store.total_entries() as f64,
        );
        let store = Arc::clone(&self.store);
        registry.gauge_fn(
            "flowdns_store_payload_bytes",
            "Estimated payload bytes held by the DNS store",
            &[],
            move || store.memory_estimate().payload_bytes as f64,
        );
        // Snapshot persistence.
        let shared = Arc::clone(&self.snapshot_shared);
        registry.counter_fn(
            "flowdns_snapshots_written_total",
            "Store snapshots written (periodic + shutdown)",
            &[],
            move || shared.stats().snapshots_written,
        );
        let shared = Arc::clone(&self.snapshot_shared);
        registry.gauge_fn(
            "flowdns_snapshot_last_bytes",
            "File size of the most recent store snapshot",
            &[],
            move || shared.stats().last_bytes as f64,
        );
        let shared = Arc::clone(&self.snapshot_shared);
        registry.gauge_fn(
            "flowdns_snapshot_last_write_age_seconds",
            "Seconds since the last successful snapshot write (-1 = never)",
            &[],
            move || shared.stats().last_write_age_secs.unwrap_or(-1.0),
        );
        let shared = Arc::clone(&self.snapshot_shared);
        registry.gauge_fn(
            "flowdns_snapshot_warm_start_entries",
            "Entries restored from a snapshot at boot (0 = cold start)",
            &[],
            move || shared.stats().warm_start_entries as f64,
        );
        let warm_start_phase = |phase: &str, secs: fn(&SnapshotStats) -> f64| {
            let shared = Arc::clone(&self.snapshot_shared);
            registry.gauge_fn(
                "flowdns_snapshot_warm_start_seconds",
                "Seconds the boot-time snapshot load spent per phase (0 = cold start)",
                &[("phase", phase)],
                move || secs(&shared.stats()),
            );
        };
        warm_start_phase("read", |stats| stats.warm_start_read_secs);
        warm_start_phase("import", |stats| stats.warm_start_import_secs);
        // BGP attribution.
        if let Some(view) = &self.asn_view {
            let epoch_view = view.clone();
            registry.gauge_fn(
                "flowdns_bgp_routing_epoch",
                "Routing-table reloads since start",
                &[],
                move || epoch_view.epoch() as f64,
            );
            let prefix_view = view.clone();
            registry.gauge_fn(
                "flowdns_bgp_prefixes",
                "Prefixes in the active routing table",
                &[],
                move || prefix_view.snapshot().len() as f64,
            );
        }
        // Flight recorder.
        if let Some(flight) = &self.flight {
            let emitted = Arc::clone(flight);
            registry.counter_fn(
                "flowdns_trace_spans_total",
                "Flight-recorder spans written to the trace file",
                &[],
                move || emitted.spans_emitted(),
            );
            let dropped = Arc::clone(flight);
            registry.counter_fn(
                "flowdns_trace_spans_dropped_total",
                "Trace samples dropped at the active-span cap",
                &[],
                move || dropped.spans_dropped(),
            );
        }
    }

    /// Install a freshly compiled routing table without stopping the
    /// pipeline (live BGP feed reload). Returns `false` when the
    /// pipeline was started without a routing table — attribution cannot
    /// be turned on after the fact.
    pub fn swap_routing_table(&self, table: FrozenTable) -> bool {
        match &self.asn_view {
            Some(view) => {
                view.swap(table);
                true
            }
            None => false,
        }
    }

    /// Current depth of the three stages' queues (fillup, lookup, write),
    /// each summed over its lanes or shards. The write depth leaves out
    /// what shard workers hold staged: at most `EGRESS_BATCH - 1` records
    /// per shard worker and Write worker, and only within one wake-up.
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        (
            (0..self.dns.lanes()).map(|i| self.dns.lane_depth(i)).sum(),
            (0..self.flows.lanes())
                .map(|i| self.flows.lane_depth(i))
                .sum(),
            self.write_queues.iter().map(|q| q.len()).sum(),
        )
    }

    /// Records dropped on the write path: shard-queue overflow plus sink
    /// write errors.
    fn writes_dropped_total(&self) -> u64 {
        let overflow: u64 = self.write_queues.iter().map(|q| q.stats().dropped).sum();
        overflow + self.writes_dropped.load(Ordering::Relaxed)
    }

    /// A live snapshot of the pipeline's metrics without consuming it:
    /// worker stats (shard workers flush every `STATS_FLUSH_EVERY` = 512
    /// records, Write workers after every batch, so slightly behind the
    /// instantaneous truth), queue drop counters, and
    /// the store's current memory estimate. This is what periodic stats
    /// reporters (e.g. `flowdnsd`) should read; `finish()` returns the
    /// exact final numbers.
    pub fn snapshot(&self) -> PipelineMetrics {
        let mut fillup_latency = LatencySnapshot::default();
        let mut lookup_latency = LatencySnapshot::default();
        let mut dns_dropped = 0u64;
        let mut flows_dropped = 0u64;
        for lane in 0..self.dns.lanes() {
            fillup_latency.merge(&self.dns.lane_latency(lane));
            dns_dropped += self.dns.lane_stats(lane).dropped;
        }
        for lane in 0..self.flows.lanes() {
            lookup_latency.merge(&self.flows.lane_latency(lane));
            flows_dropped += self.flows.lane_stats(lane).dropped;
        }
        PipelineMetrics {
            fillup: *self.fillup_stats.lock(),
            lookup: *self.lookup_stats.lock(),
            write: *self.write_stats.lock(),
            dns_dropped,
            flows_dropped,
            writes_dropped: self.writes_dropped_total(),
            fillup_queue_latency: fillup_latency,
            lookup_queue_latency: lookup_latency,
            work_units: 0.0,
            peak_memory: self.store.memory_estimate(),
            ingest: Default::default(),
            snapshot: self.snapshot_shared.stats(),
        }
    }

    /// Live snapshot-persistence counters: writes so far, last file size,
    /// wall-clock age of the last write, warm-start entry count, and the
    /// most recent error if any. All zero when no `snapshot_path` is
    /// configured.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshot_shared.stats()
    }

    /// Export the store and write the configured snapshot file now,
    /// regardless of the periodic interval. Returns `false` when no
    /// `snapshot_path` is configured; errors are folded into
    /// [`Correlator::snapshot_stats`] like the background thread's.
    pub fn write_snapshot_now(&self) -> bool {
        match &self.config.snapshot_path {
            Some(path) => {
                write_store_snapshot(&self.store, path, &self.snapshot_shared);
                true
            }
            None => false,
        }
    }

    /// Stop accepting input, drain every queue, join all workers, write
    /// the final store snapshot (when configured), and return the final
    /// report.
    pub fn finish(mut self) -> Result<Report, FlowDnsError> {
        // Phase 0: stop the periodic snapshot thread. The *final*
        // snapshot is written below, after the input stages have drained,
        // so a clean shutdown always persists the complete store. A
        // panicked snapshot thread must NOT abort the shutdown here —
        // the worker stages still have to drain and flush their sinks —
        // so the error is held and surfaced at the end.
        self.snapshot_shutdown.store(true, Ordering::Release);
        let snapshot_panic = match self.snapshot_worker.take() {
            Some(handle) => handle
                .join()
                .err()
                .map(|_| FlowDnsError::PipelineState("snapshot worker panicked".into())),
            None => None,
        };
        // Phase 1: stop input stages and let them drain. The input and
        // write stages keep their handles in separate vectors, so the
        // ordering does not depend on thread names.
        self.input_shutdown.store(true, Ordering::Release);
        for handle in self.input_workers.drain(..) {
            handle
                .join()
                .map_err(|_| FlowDnsError::PipelineState("worker panicked".into()))?;
        }
        // Phase 2: input stages are done, so the write queues will receive
        // nothing more; let the writers drain, flush their sinks and stop.
        self.write_shutdown.store(true, Ordering::Release);
        for handle in self.write_workers.drain(..) {
            handle
                .join()
                .map_err(|_| FlowDnsError::PipelineState("write worker panicked".into()))?;
        }
        // Every record has reached egress, so the flight recorder's
        // buffered spans can be flushed to disk.
        if let Some(flight) = &self.flight {
            flight.flush();
        }
        // Final snapshot BEFORE the egress-error check: the store is
        // quiescent now (every accepted DNS record has been applied), so
        // this image is exact — and an output-disk failure must not also
        // forfeit the warm-start file (the snapshot usually lives on a
        // different path or volume than the TSV output). A snapshot
        // *write* failure lands in the metrics, not in the Result —
        // losing the warm-start file must not mask an otherwise clean
        // run.
        self.write_snapshot_now();
        // A failed end-of-run flush or rotation rename means output is
        // incomplete; report it instead of an Ok-looking Report.
        if let Some(e) = self.egress_error.lock().take() {
            return Err(e);
        }
        // A snapshot-thread panic is a real defect and errors out (after
        // the output is safely flushed above).
        if let Some(e) = snapshot_panic {
            return Err(e);
        }

        let metrics = self.snapshot();
        Ok(Report {
            volumes: metrics.write.volumes,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::write::RotatingFileSink;
    use flowdns_bgp::Announcement;
    use flowdns_types::{DomainName, SimDuration, SimTime};
    use std::net::Ipv4Addr;

    fn dns(ts: u64, name: &str, ip: [u8; 4], ttl: u32) -> DnsRecord {
        DnsRecord::address(
            SimTime::from_secs(ts),
            DomainName::literal(name),
            Ipv4Addr::from(ip).into(),
            ttl,
        )
    }

    fn flow(ts: u64, src: [u8; 4], bytes: u64) -> FlowRecord {
        FlowRecord::inbound(
            SimTime::from_secs(ts),
            Ipv4Addr::from(src).into(),
            Ipv4Addr::new(10, 0, 0, 1).into(),
            bytes,
        )
    }

    #[test]
    fn end_to_end_correlation_through_threads() {
        let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
        assert_eq!(correlator.shards(), 4);
        assert_eq!(correlator.sharded_store().shards(), 4);
        // Fill DNS first and give the shard workers a moment to drain, so
        // the flows looked up afterwards find their records.
        for i in 0..50u8 {
            assert!(correlator.dns_router().route(dns(
                1,
                &format!("svc{i}.example"),
                [203, 0, 113, i],
                300
            )));
        }
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..50u8 {
            assert!(correlator
                .flow_router()
                .route(flow(2, [203, 0, 113, i], 1_000)));
        }
        // One flow from an unknown source.
        assert!(correlator
            .flow_router()
            .route(flow(2, [192, 0, 2, 1], 1_000)));
        // Per-shard routed counters must account for every accepted
        // record (the CI saturation smoke asserts the same invariant).
        let (dns_routed, flow_routed) = correlator.shard_routed_counts().unwrap();
        assert_eq!(dns_routed.len(), 4);
        assert_eq!(dns_routed.iter().sum::<u64>(), 50);
        assert_eq!(flow_routed.iter().sum::<u64>(), 51);
        // 50 distinct IPs across 4 shards: every shard must see some.
        assert!(
            dns_routed.iter().all(|&n| n > 0),
            "unbalanced: {dns_routed:?}"
        );
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.write.records_written, 51);
        assert_eq!(report.metrics.lookup.ip_hits, 50);
        assert_eq!(report.metrics.lookup.ip_misses, 1);
        let expected = 50.0 / 51.0 * 100.0;
        assert!((report.correlation_rate_pct() - expected).abs() < 0.5);
        assert_eq!(report.metrics.dns_dropped, 0);
        assert_eq!(report.metrics.flows_dropped, 0);
    }

    #[test]
    fn finish_drains_queues_before_reporting() {
        let config = CorrelatorConfig {
            correlator_shards: 1,
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        for i in 0..200u8 {
            correlator
                .dns_router()
                .route(dns(1, "bulk.example", [198, 51, 100, i], 60));
        }
        for i in 0..200u8 {
            correlator
                .flow_router()
                .route(flow(2, [198, 51, 100, i], 500));
        }
        let report = correlator.finish().unwrap();
        // Every accepted record must have been processed and written.
        assert_eq!(report.metrics.write.records_written, 200);
        assert_eq!(
            report.metrics.fillup.addresses_stored + report.metrics.fillup.filtered,
            200
        );
        // 200 accepted records cross the 64-record sampling boundary at
        // least once per lane, so the residency histograms are live.
        assert!(report.metrics.fillup_queue_latency.count >= 1);
        assert!(report.metrics.lookup_queue_latency.count >= 1);
    }

    #[test]
    fn sharded_writers_cover_every_record_exactly_once() {
        // Plenty of flows over 1, 2 and 4 write shards: the per-shard
        // partitioning must neither lose nor duplicate records, and the
        // merged stats must equal the single-writer totals. The count is
        // no multiple of EGRESS_BATCH, so every shard worker ends with a
        // partial staged batch that finish() still has to see written.
        const FLOWS: u64 = 401;
        assert_ne!(FLOWS as usize % EGRESS_BATCH, 0);
        for write_workers in [1, 2, 4] {
            let config = CorrelatorConfig {
                write_workers,
                ..CorrelatorConfig::default()
            };
            let correlator = Correlator::start(config).unwrap();
            for i in 0..100u8 {
                correlator.dns_router().route(dns(
                    1,
                    &format!("s{i}.example"),
                    [203, 0, 113, i],
                    300,
                ));
            }
            while correlator.queue_depths().0 > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            let accepted = correlator.flow_router().route_batch(
                (0..FLOWS).map(|n| flow(2 + n / 100, [203, 0, 113, (n % 100) as u8], 1_000)),
            );
            assert_eq!(accepted as u64, FLOWS);
            let report = correlator.finish().unwrap();
            assert_eq!(report.metrics.write.records_written, FLOWS);
            assert_eq!(report.metrics.lookup.ip_hits, FLOWS);
            assert_eq!(report.metrics.writes_dropped, 0);
            assert_eq!(report.volumes.total.bytes(), FLOWS * 1_000);
        }
    }

    #[test]
    fn overflowing_write_queue_accounts_for_every_looked_up_record() {
        // A write queue of 8 behind a sink that does not take a record
        // until the test says so: the shard worker's batches overflow the
        // queue, and every record it resolved is either written or
        // counted as dropped — none vanishes between stage and queue.
        struct GatedSink {
            gate: std::sync::mpsc::Receiver<()>,
            open: bool,
        }
        impl crate::write::OutputSink for GatedSink {
            fn write_record(&mut self, _record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
                if !self.open {
                    // A dropped sender opens the gate as well.
                    let _ = self.gate.recv();
                    self.open = true;
                }
                Ok(())
            }
        }
        const FLOWS: u64 = 500;
        let (release, gate) = std::sync::mpsc::channel();
        let config = CorrelatorConfig {
            correlator_shards: 1,
            write_queue_capacity: 8,
            write_workers: 1,
            ..CorrelatorConfig::default()
        };
        let correlator =
            Correlator::start_with_sink(config, Box::new(GatedSink { gate, open: false })).unwrap();
        let accepted = correlator
            .flow_router()
            .route_batch((0..FLOWS).map(|n| flow(1, [198, 51, 100, n as u8], 100)));
        assert_eq!(accepted as u64, FLOWS);
        // All flows resolved while the sink still holds its first record.
        let deadline = Instant::now() + Duration::from_secs(10);
        while correlator.snapshot().lookup.total() < FLOWS {
            assert!(Instant::now() < deadline, "lookups never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
        release.send(()).unwrap();
        let report = correlator.finish().unwrap();
        let written = report.metrics.write.records_written;
        assert_eq!(report.metrics.lookup.total(), FLOWS);
        assert_eq!(written + report.metrics.writes_dropped, FLOWS);
        // One batch in the sink's hands plus a full queue is all that can
        // get through a closed gate.
        assert!(
            written <= (EGRESS_BATCH + 8) as u64,
            "written {written} of {FLOWS}"
        );
    }

    /// A sink whose disk fills up: every record from the `fail_from`-th
    /// on (0-based) is refused.
    struct FillingDiskSink {
        seen: u64,
        fail_from: u64,
    }

    impl crate::write::OutputSink for FillingDiskSink {
        fn write_record(&mut self, _record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
            self.seen += 1;
            if self.seen > self.fail_from {
                return Err(FlowDnsError::Io(format!(
                    "no space left on device (record {})",
                    self.seen
                )));
            }
            Ok(())
        }
    }

    #[test]
    fn write_errors_are_visible_live_and_returned_by_finish() {
        let config = CorrelatorConfig {
            write_workers: 1,
            ..CorrelatorConfig::default()
        };
        let sink = FillingDiskSink {
            seen: 0,
            fail_from: 3,
        };
        let correlator = Correlator::start_with_sink(config, Box::new(sink)).unwrap();
        assert_eq!(correlator.egress_error_message(), None);
        for i in 0..10u8 {
            assert!(correlator
                .flow_router()
                .route(flow(1, [203, 0, 113, i], 100)));
        }
        // The running daemon reports the failure: no finish() needed.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = correlator.snapshot();
            if snap.write.records_written == 3 && snap.writes_dropped == 7 {
                break;
            }
            assert!(Instant::now() < deadline, "write stage never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The first error is the one kept.
        let message = correlator
            .egress_error_message()
            .expect("live egress error");
        assert!(
            message.contains("no space left on device (record 4)"),
            "{message}"
        );
        match correlator.finish() {
            Err(FlowDnsError::Io(msg)) => assert!(msg.contains("(record 4)"), "{msg}"),
            other => panic!("expected the write error, got {other:?}"),
        }
    }

    #[test]
    fn quiet_stream_is_flushed_to_the_open_window_file() {
        // One flow, then silence: the line must become readable in the
        // `.part` file of the open window while the pipeline keeps
        // running, not when 8 KiB have accumulated or finish() is called.
        let dir = std::env::temp_dir().join("flowdns-pipeline-idle-flush-test");
        std::fs::remove_dir_all(&dir).ok();
        let config = CorrelatorConfig {
            write_workers: 1,
            ..CorrelatorConfig::default()
        };
        let sink = RotatingFileSink::new(&dir, "corr", SimDuration::from_secs(3600)).unwrap();
        let correlator = Correlator::start_with_sink(config, Box::new(sink)).unwrap();
        assert!(correlator
            .flow_router()
            .route(flow(7, [203, 0, 113, 9], 1_234)));
        let part = dir.join("corr-0000000000.tsv.part");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let content = std::fs::read_to_string(&part).unwrap_or_default();
            if content.ends_with('\n') {
                assert_eq!(content, "7\t203.0.113.9\t10.0.0.1\t1234\t-\t-\t-\t-\n");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the line never reached {part:?}: {content:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        correlator.finish().unwrap();
        assert!(dir.join("corr-0000000000.tsv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_partitioning_is_stable_per_flow_key() {
        let key = FlowKey {
            src_ip: Ipv4Addr::new(203, 0, 113, 5).into(),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1).into(),
            src_port: 443,
            dst_port: 50000,
            proto: flowdns_types::Protocol::Tcp,
        };
        let shard = shard_of(&key, 8);
        for _ in 0..100 {
            assert_eq!(shard_of(&key, 8), shard);
        }
        assert!(shard < 8);
        assert_eq!(shard_of(&key, 1), 0);
        // Different keys spread across shards.
        let spread: std::collections::HashSet<usize> = (0..64u8)
            .map(|i| {
                let mut k = key;
                k.src_ip = Ipv4Addr::new(203, 0, 113, i).into();
                shard_of(&k, 8)
            })
            .collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn start_with_sink_rejects_multiple_write_workers() {
        let config = CorrelatorConfig {
            write_workers: 2,
            ..CorrelatorConfig::default()
        };
        assert!(Correlator::start_with_sink(config, Box::new(MemorySink::new())).is_err());
    }

    #[test]
    fn sink_factory_error_fails_start_without_leaking_workers() {
        // Sinks are built before any worker thread is spawned, so a
        // factory failure (e.g. an unwritable output path) is a clean
        // start error — nothing is left spinning on the queues.
        let config = CorrelatorConfig {
            write_workers: 2,
            ..CorrelatorConfig::default()
        };
        let mut calls = 0usize;
        let result = Correlator::start_with_sink_factory(config, |shard| {
            calls += 1;
            if shard == 1 {
                Err(FlowDnsError::Config("no disk".into()))
            } else {
                Ok(Box::new(MemorySink::new()) as Box<dyn OutputSink>)
            }
        });
        assert!(result.is_err());
        assert_eq!(calls, 2);
    }

    #[test]
    fn finalize_errors_surface_through_finish() {
        // A sink whose end-of-run finalize fails (disk full during the
        // last flush / rotation rename) must turn finish() into an
        // error, not an Ok-looking report with missing output.
        struct BadEndSink;
        impl crate::write::OutputSink for BadEndSink {
            fn write_record(&mut self, _record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
                Ok(())
            }
            fn finalize(&mut self) -> Result<(), FlowDnsError> {
                Err(FlowDnsError::Io("disk full at shutdown".into()))
            }
        }
        let correlator =
            Correlator::start_with_sink(CorrelatorConfig::default(), Box::new(BadEndSink)).unwrap();
        correlator
            .flow_router()
            .route(flow(1, [203, 0, 113, 1], 100));
        match correlator.finish() {
            Err(FlowDnsError::Io(msg)) => assert!(msg.contains("disk full")),
            other => panic!("expected the finalize error, got {other:?}"),
        }
    }

    #[test]
    fn tiny_queues_produce_loss_not_deadlock() {
        let config = CorrelatorConfig {
            correlator_shards: 1,
            shard_dns_ring_capacity: 8,
            shard_flow_ring_capacity: 8,
            write_queue_capacity: 8,
            write_workers: 1,
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        let mut dns_accepted = 0u64;
        for i in 0..10_000u32 {
            if correlator.dns_router().route(dns(
                1,
                "x.example",
                [10, (i >> 8) as u8, i as u8, 1],
                60,
            )) {
                dns_accepted += 1;
            }
        }
        let report = correlator.finish().unwrap();
        assert_eq!(
            report.metrics.fillup.total(),
            dns_accepted,
            "every accepted record is processed"
        );
        // With a ring of 8 against a burst of 10k, some loss is certain.
        assert!(report.metrics.dns_dropped > 0);
    }

    #[test]
    fn batched_ingress_matches_per_record_ingress() {
        let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
        let dns_batch: Vec<DnsRecord> = (0..40u8)
            .map(|i| dns(1, &format!("svc{i}.example"), [203, 0, 113, i], 300))
            .collect();
        assert_eq!(correlator.dns_router().route_batch(dns_batch), 40);
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        let flow_batch: Vec<FlowRecord> = (0..40u8)
            .map(|i| flow(2, [203, 0, 113, i], 1_000))
            .collect();
        assert_eq!(correlator.flow_router().route_batch(flow_batch), 40);
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.lookup.ip_hits, 40);
        assert_eq!(report.metrics.write.records_written, 40);
        assert_eq!(report.metrics.dns_dropped, 0);
    }

    #[test]
    fn batch_push_reports_partial_acceptance_on_overflow() {
        let config = CorrelatorConfig {
            correlator_shards: 1,
            shard_dns_ring_capacity: 8,
            write_workers: 1,
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        let batch: Vec<DnsRecord> = (0..10_000u32)
            .map(|i| dns(1, "x.example", [10, (i >> 8) as u8, i as u8, 1], 60))
            .collect();
        let accepted = correlator.dns_router().route_batch(batch);
        assert!(accepted < 10_000, "a burst past a ring of 8 must drop");
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.fillup.total(), accepted as u64);
        assert_eq!(report.metrics.dns_dropped, 10_000 - accepted as u64);
    }

    #[test]
    fn snapshot_reads_live_metrics_without_consuming() {
        let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
        for i in 0..30u8 {
            correlator
                .dns_router()
                .route(dns(1, "snap.example", [198, 51, 100, i], 60));
        }
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..30u8 {
            correlator
                .flow_router()
                .route(flow(2, [198, 51, 100, i], 500));
        }
        // Wait until the pipeline has visibly written everything, then
        // snapshot: the pipeline keeps running afterwards.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = correlator.snapshot();
            // Worker-local stats flush on idle, so the live snapshot must
            // converge to the full totals without finishing the pipeline.
            if snap.write.records_written == 30
                && snap.lookup.total() == 30
                && snap.fillup.addresses_stored == 30
            {
                assert!(snap.peak_memory.entries > 0);
                assert_eq!(snap.dns_dropped, 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "live snapshot never converged to 30 records"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Worker-side stats (flushed periodically) must be exact in the
        // final report even if the snapshot lagged.
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.lookup.total(), 30);
        assert_eq!(report.metrics.write.records_written, 30);
    }

    #[test]
    fn exact_ttl_variant_is_refused_at_start() {
        // The Appendix A.8 strawman is the simulator's oracle; a conf
        // file asking the daemon for it must hear which key to change.
        match Correlator::start(CorrelatorConfig::for_variant(Variant::ExactTtl)) {
            Err(FlowDnsError::Config(msg)) => {
                assert!(msg.contains("variant = ExactTTL"), "{msg}");
                assert!(msg.contains("variant = Main"), "{msg}");
                assert!(msg.contains("docs/MIGRATION.md"), "{msg}");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_stamps_asns_and_swaps_tables_live() {
        let table = |asn: u32| {
            let mut t = RoutingTable::new();
            t.announce(Announcement {
                prefix: "203.0.113.0/24".parse().unwrap(),
                origin_as: asn,
            });
            t.freeze()
        };
        let view = AsnView::new(table(64500));
        let dir = std::env::temp_dir().join("flowdns-pipeline-asn-test");
        std::fs::remove_dir_all(&dir).ok();
        let correlator = Correlator::start_with_egress(
            CorrelatorConfig::default(),
            |shard| {
                Ok(Box::new(
                    RotatingFileSink::new(&dir, "corr", SimDuration::from_secs(3600))?
                        .with_shard(shard),
                ))
            },
            Some(view),
        )
        .unwrap();

        correlator
            .dns_router()
            .route(dns(1, "svc.example", [203, 0, 113, 9], 300));
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        correlator
            .flow_router()
            .route(flow(2, [203, 0, 113, 9], 1_000));

        // Live reload: later flows must see the new origin AS.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while correlator.snapshot().write.records_written < 1 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(correlator.swap_routing_table(table(64999)));
        assert_eq!(correlator.asn_view().unwrap().epoch(), 1);
        correlator
            .flow_router()
            .route(flow(3, [203, 0, 113, 9], 2_000));

        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.write.records_written, 2);
        assert_eq!(report.metrics.lookup.asn_stamped, 2);

        let mut lines: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flat_map(|e| {
                let content = std::fs::read_to_string(e.unwrap().path()).unwrap_or_default();
                content.lines().map(String::from).collect::<Vec<_>>()
            })
            .collect();
        lines.sort();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\t64500\t"), "line: {}", lines[0]);
        assert!(lines[1].contains("\t64999\t"), "line: {}", lines[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_writes_a_snapshot_and_restart_warm_starts_from_it() {
        let dir = std::env::temp_dir().join("flowdns-pipeline-snapshot-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("store.fdns");
        let config = CorrelatorConfig {
            snapshot_path: Some(path.to_string_lossy().into_owned()),
            snapshot_interval: Duration::ZERO, // shutdown snapshot only
            ..CorrelatorConfig::default()
        };

        // First run: learn 20 DNS records, shut down cleanly.
        let first = Correlator::start(config.clone()).unwrap();
        assert!(!first.snapshot_stats().warm_started());
        for i in 0..20u8 {
            first
                .dns_router()
                .route(dns(1, &format!("svc{i}.example"), [203, 0, 113, i], 300));
        }
        let report = first.finish().unwrap();
        assert_eq!(report.metrics.snapshot.snapshots_written, 1);
        assert!(report.metrics.snapshot.last_bytes > 0);
        assert_eq!(report.metrics.snapshot.last_entries, 20);
        assert!(path.exists());
        assert!(!flowdns_snapshot::part_path(&path).exists());

        // Second run: no DNS ingest at all — flows must still correlate
        // from the snapshotted state.
        let second = Correlator::start(config).unwrap();
        let stats = second.snapshot_stats();
        assert!(stats.warm_started(), "expected a warm start: {stats:?}");
        assert_eq!(stats.warm_start_entries, 20);
        assert_eq!(second.stored_entries(), 20);
        for i in 0..20u8 {
            second.flow_router().route(flow(2, [203, 0, 113, i], 1_000));
        }
        let report = second.finish().unwrap();
        assert_eq!(report.metrics.lookup.ip_hits, 20);
        assert_eq!(report.metrics.lookup.ip_misses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn periodic_snapshot_thread_writes_while_live() {
        let dir = std::env::temp_dir().join("flowdns-pipeline-snapshot-periodic");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("store.fdns");
        let config = CorrelatorConfig {
            snapshot_path: Some(path.to_string_lossy().into_owned()),
            snapshot_interval: Duration::from_millis(100),
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        for i in 0..10u8 {
            correlator
                .dns_router()
                .route(dns(1, "live.example", [198, 51, 100, i], 60));
        }
        // The background thread must write without any shutdown.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let stats = correlator.snapshot_stats();
            if stats.snapshots_written >= 1 {
                assert!(path.exists());
                assert!(stats.last_write_age_secs.is_some());
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "periodic snapshot never appeared"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = correlator.finish().unwrap();
        // Shutdown adds a final snapshot on top of the periodic ones.
        assert!(report.metrics.snapshot.snapshots_written >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_ages_snapshotted_state_by_process_downtime() {
        let dir = std::env::temp_dir().join("flowdns-pipeline-snapshot-downtime");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("store.fdns");
        let config = CorrelatorConfig {
            snapshot_path: Some(path.to_string_lossy().into_owned()),
            snapshot_interval: Duration::ZERO,
            ..CorrelatorConfig::default()
        };
        let first = Correlator::start(config.clone()).unwrap();
        // One short-TTL record (Active map) and one long-TTL (Long map).
        first
            .dns_router()
            .route(dns(1, "short.example", [203, 0, 113, 1], 300));
        first
            .dns_router()
            .route(dns(1, "stable.example", [203, 0, 113, 2], 86_400));
        first.finish().unwrap();

        // Backdate the snapshot by two days, as if the process had been
        // down that long; live record timestamps are wall-clock-derived,
        // so the warm start must expire everything but the Long maps.
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(std::time::SystemTime::now() - Duration::from_secs(2 * 86_400))
            .unwrap();
        drop(file);

        let second = Correlator::start(config).unwrap();
        let stats = second.snapshot_stats();
        assert!(stats.warm_started(), "{stats:?}");
        // Only the Long entry survived the simulated outage.
        assert_eq!(second.stored_entries(), 1);
        second.flow_router().route(flow(2, [203, 0, 113, 1], 1_000)); // expired
        second.flow_router().route(flow(2, [203, 0, 113, 2], 1_000)); // long-lived
        let report = second.finish().unwrap();
        assert_eq!(report.metrics.lookup.ip_hits, 1);
        assert_eq!(report.metrics.lookup.ip_misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_degrades_to_a_cold_start() {
        let dir = std::env::temp_dir().join("flowdns-pipeline-snapshot-corrupt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.fdns");
        std::fs::write(&path, b"FDNSSNAPgarbage-not-a-snapshot").unwrap();
        let config = CorrelatorConfig {
            snapshot_path: Some(path.to_string_lossy().into_owned()),
            snapshot_interval: Duration::ZERO,
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        let stats = correlator.snapshot_stats();
        assert!(!stats.warm_started());
        assert!(
            stats
                .last_error
                .as_deref()
                .is_some_and(|e| e.contains("warm start")),
            "expected a recorded warm-start error: {stats:?}"
        );
        // The pipeline still runs, and shutdown replaces the bad file.
        correlator
            .dns_router()
            .route(dns(1, "fresh.example", [203, 0, 113, 1], 60));
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.snapshot.snapshots_written, 1);
        assert!(flowdns_snapshot::read_snapshot(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_and_obs_bucket_schemes_are_identical() {
        // `latency_to_histogram` moves bucket counters verbatim between
        // the two crates' histograms; that is only sound if every value
        // lands in the same index with the same upper bound on both
        // sides.
        assert_eq!(
            flowdns_stream::LATENCY_BUCKETS,
            flowdns_obs::HISTOGRAM_BUCKETS
        );
        for us in [0u64, 1, 3, 4, 5, 7, 8, 100, 1_000, 65_536, u64::MAX >> 20] {
            assert_eq!(
                flowdns_stream::bucket_index_us(us),
                flowdns_obs::bucket_index(us),
                "bucket index diverges at {us}µs"
            );
        }
        for index in 0..flowdns_obs::HISTOGRAM_BUCKETS {
            assert_eq!(
                flowdns_stream::bucket_upper_bound_us(index),
                flowdns_obs::bucket_upper_bound(index),
                "upper bound diverges at bucket {index}"
            );
        }
    }

    #[test]
    fn registry_reflects_pipeline_counters() {
        let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
        let registry = MetricsRegistry::new();
        correlator.register_metrics(&registry);
        for i in 0..30u8 {
            correlator
                .dns_router()
                .route(dns(1, "reg.example", [203, 0, 113, i], 300));
        }
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..30u8 {
            correlator
                .flow_router()
                .route(flow(2, [203, 0, 113, i], 1_000));
        }
        // The registry reads the same live counters as `snapshot()`, so
        // it must converge to the full totals without a shutdown.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = registry.snapshot();
            // Worker-local stats flush on idle; wait for every stage's
            // counters to converge, then check the derived series.
            if snap.counter("flowdns_egress_records_total") == 30
                && snap.counter_with("flowdns_lookup_flows_total", "result", "ip_hit") == 30
                && snap.counter_with("flowdns_fillup_records_total", "kind", "addresses") == 30
            {
                assert_eq!(snap.counter("flowdns_egress_bytes_total"), 30_000);
                assert!(snap.gauge("flowdns_store_entries").unwrap() >= 1.0);
                // Sampled 1-in-16: 30 records time at least one sample.
                let service = snap
                    .histogram_with("flowdns_stage_service_us", "stage", "lookup")
                    .expect("service histogram registered");
                assert!(service.count() >= 1);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "registry never converged: {}",
                registry.render_prometheus()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The exposition renders and mentions the key families.
        let text = registry.render_prometheus();
        for family in [
            "flowdns_queue_depth",
            "flowdns_queue_wait_us_bucket",
            "flowdns_egress_queue_depth",
            "flowdns_snapshots_written_total",
        ] {
            assert!(text.contains(family), "missing {family} in exposition");
        }
        correlator.finish().unwrap();
    }

    #[test]
    fn flight_recorder_traces_flows_end_to_end() {
        let dir = std::env::temp_dir().join("flowdns-pipeline-trace-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.jsonl");
        let config = CorrelatorConfig {
            trace_sample_every: 1,
            trace_path: Some(trace_path.to_string_lossy().into_owned()),
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        let flight = Arc::clone(correlator.flight_recorder().expect("tracing on"));
        correlator
            .dns_router()
            .route(dns(1, "traced.example", [203, 0, 113, 1], 300));
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        // The ingest layer hands out tokens post-decode; emulate it.
        for i in 0..8u8 {
            let mut f = flow(2, [203, 0, 113, 1], 1_000 + i as u64);
            f.trace = flight.maybe_start();
            if let Some(id) = f.trace {
                flight.stamp_enqueue(id);
            }
            correlator.flow_router().route(f);
        }
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.write.records_written, 8);
        assert_eq!(flight.spans_emitted(), 8);
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(text.lines().count(), 8);
        for line in text.lines() {
            for key in [
                "\"trace_id\":",
                "\"queue_wait_us\":",
                "\"lookup_us\":",
                "\"egress_us\":",
                "\"total_us\":",
                "\"shard\":0",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracing_requires_a_path() {
        let config = CorrelatorConfig {
            trace_sample_every: 64,
            ..CorrelatorConfig::default()
        };
        assert!(Correlator::start(config).is_err());
    }

    #[test]
    fn pipeline_without_table_leaves_asns_unstamped() {
        let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
        assert!(correlator.asn_view().is_none());
        assert!(!correlator.swap_routing_table(FrozenTable::new()));
        correlator
            .flow_router()
            .route(flow(1, [203, 0, 113, 1], 100));
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.lookup.asn_stamped, 0);
    }

    #[test]
    fn sharded_router_batches_match_per_record_pushes() {
        let config = CorrelatorConfig {
            correlator_shards: 2,
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        let mut router = correlator.dns_router();
        assert_eq!(router.shards(), 2);
        let accepted =
            router.route_batch((0..40u8).map(|i| dns(1, "batch.example", [198, 51, 100, i], 60)));
        assert_eq!(accepted, 40);
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        let accepted = correlator
            .flow_router()
            .route_batch((0..40u8).map(|i| flow(2, [198, 51, 100, i], 500)));
        assert_eq!(accepted, 40);
        let (dns_routed, flow_routed) = correlator.shard_routed_counts().unwrap();
        assert_eq!(dns_routed.iter().sum::<u64>(), 40);
        assert_eq!(flow_routed.iter().sum::<u64>(), 40);
        // A DNS answer for an IP and a flow from that IP must route to
        // the same shard — that is the whole correctness argument.
        assert_eq!(dns_routed, flow_routed);
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.write.records_written, 40);
        assert_eq!(report.metrics.lookup.ip_hits, 40);
    }

    #[test]
    fn shard_count_change_on_warm_start_degrades_to_a_cold_start() {
        let dir = std::env::temp_dir().join("flowdns-pipeline-shard-count-change");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("store.fdns");
        let write_config = CorrelatorConfig {
            correlator_shards: 2,
            snapshot_path: Some(path.to_string_lossy().into_owned()),
            snapshot_interval: Duration::ZERO,
            ..CorrelatorConfig::default()
        };
        let first = Correlator::start(write_config.clone()).unwrap();
        first
            .dns_router()
            .route(dns(1, "persist.example", [203, 0, 113, 7], 300));
        first.finish().unwrap();
        assert!(path.exists());

        // Same snapshot, different shard count: the warm start must be
        // rejected cleanly — cold start, recorded error, daemon still up.
        let reread_config = CorrelatorConfig {
            correlator_shards: 4,
            ..write_config
        };
        let second = Correlator::start(reread_config).unwrap();
        let stats = second.snapshot_stats();
        assert!(!stats.warm_started());
        assert!(
            stats
                .last_error
                .as_deref()
                .is_some_and(|e| e.contains("warm start") && e.contains("shards")),
            "expected a recorded shard-count error: {stats:?}"
        );
        assert_eq!(second.stored_entries(), 0);
        // Still a live pipeline; shutdown overwrites the incompatible
        // snapshot with a 4-shard image.
        second
            .dns_router()
            .route(dns(1, "fresh.example", [203, 0, 113, 8], 300));
        second.finish().unwrap();
        let image = flowdns_snapshot::read_snapshot(path.to_str().unwrap()).unwrap();
        assert_eq!(image.ip_name.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_2_snapshot_degrades_to_a_counted_cold_start() {
        // A file an earlier build wrote: the upgrade must take the
        // ordinary rejection path — recorded error, cold start, no panic.
        let dir = std::env::temp_dir().join("flowdns-pipeline-v2-snapshot");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.fdns");
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../snapshot/tests/fixtures/golden_v2.fdns"
        );
        std::fs::copy(fixture, &path).unwrap();

        let config = CorrelatorConfig {
            snapshot_path: Some(path.to_string_lossy().into_owned()),
            snapshot_interval: Duration::ZERO,
            ..CorrelatorConfig::default()
        };
        let correlator = Correlator::start(config).unwrap();
        let stats = correlator.snapshot_stats();
        assert!(!stats.warm_started());
        let error = stats.last_error.as_deref().unwrap_or_default();
        assert!(
            error.contains("warm start") && error.contains("unsupported snapshot version 2"),
            "expected a recorded version error: {stats:?}"
        );
        assert_eq!(correlator.stored_entries(), 0);
        // Cold but alive: new DNS correlates, and shutdown replaces the
        // unreadable file with a version-3 one in the running layout.
        correlator
            .dns_router()
            .route(dns(1, "fresh.example", [203, 0, 113, 200], 300));
        while correlator.queue_depths().0 > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        correlator
            .flow_router()
            .route(flow(2, [203, 0, 113, 200], 1_000));
        correlator
            .flow_router()
            .route(flow(2, [198, 51, 100, 30], 1_000)); // was only in the file
        let report = correlator.finish().unwrap();
        assert_eq!(report.metrics.lookup.ip_hits, 1);
        assert_eq!(report.metrics.lookup.ip_misses, 1);
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(
            rewritten[8..12],
            flowdns_snapshot::FORMAT_VERSION.to_le_bytes()
        );
        let rewritten = flowdns_snapshot::decode_snapshot(&rewritten).unwrap();
        assert_eq!(rewritten.ip_name.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
