//! The UDP NetFlow/IPFIX listener group.
//!
//! # Drain loop
//!
//! Each listener thread owns one socket of a `SO_REUSEPORT` group (see
//! [`crate::reuseport`]; a group of one is just a plain socket) and runs
//! a batched receive loop instead of one syscall-decode-push round trip
//! per datagram. A round is:
//!
//! 1. one receive call into the thread's pre-allocated ring of
//!    `recv_batch` slots ([`crate::mmsg`]): on Linux a blocking
//!    `recvmmsg(2)` that waits up to a short timeout (so the shutdown
//!    flag stays responsive) for the first datagram and takes whatever
//!    else the kernel has queued, elsewhere one blocking `recv_from`;
//! 2. decode every received datagram into one reusable
//!    `Vec<FlowRecord>`;
//! 3. offer the whole batch to the correlator's per-shard flow rings
//!    with a single `route_batch` on this thread's own flow router —
//!    lane counters are updated once per round, not per datagram, and
//!    the overflow remainder is a counted drop, never a blocked socket.
//!
//! With `recv_batch = 1` the ring has one slot and the loop is the
//! per-datagram baseline (that is what the saturation harness
//! measures the batched path against).
//!
//! # Ownership
//!
//! Decode state is **sharded per listener thread**: thread *i* owns
//! [`ListenerShard`] *i*, whose per-exporter [`ExporterDecoder`] map it
//! alone mutates (the mutex is only there so stats readers can walk the
//! map; it is never contended by another listener, and the owner takes
//! it once per drain round, around the decode of step 2). `SO_REUSEPORT`
//! hashes by source address, so one exporter's datagrams consistently
//! land on one socket and its template state never migrates between
//! shards. A malformed datagram increments that exporter's own
//! `DecodeStats` and poisons nothing: the drain continues and the
//! already-decoded records of the same batch are still delivered.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use flowdns_core::metrics::ExporterStats;
use flowdns_core::Correlator;
use flowdns_netflow::{DecodeStats, ExporterDecoder, ExtractorConfig};
use flowdns_types::FlowRecord;

use crate::mmsg::MmsgRing;
use crate::runtime::ActivityStamp;

/// Largest datagram the listener accepts (64 KiB, the UDP maximum).
const MAX_DATAGRAM: usize = 65_535;
/// How long one blocking receive waits before re-checking shutdown.
const RECV_TIMEOUT: Duration = Duration::from_millis(50);

/// Per-listener-thread drain counters (all monotonic).
#[derive(Debug, Default)]
pub struct ListenerStats {
    /// Datagrams received by this listener.
    pub datagrams: AtomicU64,
    /// Drain rounds that received at least one datagram (one receive
    /// call each).
    pub drains: AtomicU64,
    /// Batches offered to the LookUp queue (≤ `drains`; a drain of
    /// purely malformed datagrams pushes nothing).
    pub batch_pushes: AtomicU64,
    /// Largest number of datagrams taken in a single drain.
    pub max_drain: AtomicU64,
    /// Flow bytes of the batches this listener offered.
    pub bytes: AtomicU64,
}

/// A point-in-time copy of one listener's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ListenerCounters {
    /// Datagrams received.
    pub datagrams: u64,
    /// Drain rounds completed.
    pub drains: u64,
    /// Batches pushed to the pipeline.
    pub batch_pushes: u64,
    /// Largest single drain, in datagrams.
    pub max_drain: u64,
}

impl ListenerCounters {
    /// Mean datagrams per drain round (1.0 = no batching happening).
    pub fn avg_drain(&self) -> f64 {
        if self.drains == 0 {
            0.0
        } else {
            self.datagrams as f64 / self.drains as f64
        }
    }
}

/// One listener thread's decode state: its exporters' decoders plus its
/// drain counters. The mutex exists for stats readers; the owning
/// listener thread is the only writer.
#[derive(Debug, Default)]
pub struct ListenerShard {
    decoders: Mutex<HashMap<SocketAddr, ExporterDecoder>>,
    /// Drain counters for this listener.
    pub stats: ListenerStats,
}

impl ListenerShard {
    fn counters(&self) -> ListenerCounters {
        ListenerCounters {
            datagrams: self.stats.datagrams.load(Ordering::Relaxed),
            drains: self.stats.drains.load(Ordering::Relaxed),
            batch_pushes: self.stats.batch_pushes.load(Ordering::Relaxed),
            max_drain: self.stats.max_drain.load(Ordering::Relaxed),
        }
    }
}

/// Sharded per-exporter decode state plus listener-level counters.
/// Malformed/unknown-template counts live inside each exporter's
/// [`DecodeStats`]; [`ExporterTable::totals`] folds them across shards.
#[derive(Debug)]
pub struct ExporterTable {
    shards: Vec<Arc<ListenerShard>>,
    /// Flow records dropped because the LookUp queue was full.
    pub queue_drops: AtomicU64,
    /// When a listener last offered a batch.
    pub(crate) last_activity: ActivityStamp,
}

impl Default for ExporterTable {
    fn default() -> Self {
        ExporterTable::new(1)
    }
}

impl ExporterTable {
    /// A table with one decoder shard per listener thread.
    pub fn new(listeners: usize) -> Self {
        ExporterTable {
            shards: (0..listeners.max(1))
                .map(|_| Arc::new(ListenerShard::default()))
                .collect(),
            queue_drops: AtomicU64::new(0),
            last_activity: ActivityStamp::default(),
        }
    }

    /// Number of listener shards.
    pub fn listeners(&self) -> usize {
        self.shards.len()
    }

    /// Flow bytes offered by every listener.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stats.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-listener drain counters, in listener order.
    pub fn per_listener(&self) -> Vec<ListenerCounters> {
        self.shards.iter().map(|s| s.counters()).collect()
    }

    /// Per-exporter counters merged across shards, sorted by exporter
    /// address. (An exporter normally lives in exactly one shard, but a
    /// group resize across restarts may leave its history split.)
    pub fn per_exporter(&self) -> Vec<ExporterStats> {
        let mut merged: HashMap<String, ExporterStats> = HashMap::new();
        for shard in &self.shards {
            for (addr, dec) in shard.decoders.lock().iter() {
                let entry = merged
                    .entry(addr.to_string())
                    .or_insert_with(|| ExporterStats {
                        exporter: addr.to_string(),
                        ..Default::default()
                    });
                entry.datagrams += dec.stats.datagrams;
                entry.flows += dec.stats.flows;
                entry.malformed += dec.stats.malformed;
                entry.unknown_template_drops += dec.stats.unknown_template_drops;
                entry.skipped_records += dec.stats.skipped_records;
            }
        }
        let mut out: Vec<ExporterStats> = merged.into_values().collect();
        out.sort_by(|a, b| a.exporter.cmp(&b.exporter));
        out
    }

    /// Totals folded over every exporter in every shard.
    pub fn totals(&self) -> DecodeStats {
        let mut total = DecodeStats::default();
        for shard in &self.shards {
            for dec in shard.decoders.lock().values() {
                total.merge(&dec.stats);
            }
        }
        total
    }
}

/// Spawn one listener thread per socket. Thread *i* owns socket *i* and
/// decoder shard *i* of `table` (which must have been built with
/// `ExporterTable::new(sockets.len())`); each exits once `shutdown` is
/// set.
pub(crate) fn spawn_group(
    sockets: Vec<UdpSocket>,
    recv_batch: usize,
    correlator: Arc<Correlator>,
    shutdown: Arc<AtomicBool>,
    table: Arc<ExporterTable>,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    assert_eq!(
        sockets.len(),
        table.listeners(),
        "listener group and shard count must match"
    );
    let recv_batch = recv_batch.max(1);
    let mut handles = Vec::with_capacity(sockets.len());
    for (i, socket) in sockets.into_iter().enumerate() {
        socket.set_read_timeout(Some(RECV_TIMEOUT))?;
        let shard = Arc::clone(&table.shards[i]);
        let correlator = Arc::clone(&correlator);
        let shutdown = Arc::clone(&shutdown);
        let table = Arc::clone(&table);
        handles.push(
            std::thread::Builder::new()
                .name(format!("ingest-netflow-{i}"))
                .spawn(move || {
                    listener_loop(&socket, recv_batch, &correlator, &shutdown, &shard, &table)
                })?,
        );
    }
    Ok(handles)
}

/// Decode one datagram into `batch` with its exporter's decoder. Errors
/// are already counted in the exporter's stats.
fn decode_into(
    decoders: &mut HashMap<SocketAddr, ExporterDecoder>,
    peer: SocketAddr,
    bytes: &[u8],
    batch: &mut Vec<FlowRecord>,
) {
    let decoder = decoders
        .entry(peer)
        .or_insert_with(|| ExporterDecoder::new(ExtractorConfig::default()));
    let _ = decoder.decode_datagram_into(bytes, batch);
}

fn listener_loop(
    socket: &UdpSocket,
    recv_batch: usize,
    correlator: &Correlator,
    shutdown: &AtomicBool,
    shard: &ListenerShard,
    table: &ExporterTable,
) {
    let mut ring = MmsgRing::new(recv_batch, MAX_DATAGRAM);
    let mut batch: Vec<FlowRecord> = Vec::new();
    // Tracing off = no recorder = no per-flow work beyond this Option.
    let flight = correlator.flight_recorder().cloned();
    // Each listener thread owns its flow router, so routed pushes are
    // lock-free SPSC ring writes.
    let mut router = correlator.flow_router();
    while !shutdown.load(Ordering::Acquire) {
        // Step 1: the round's one receive call. A timeout re-checks the
        // shutdown flag; transient network errors (e.g. ICMP port
        // unreachable bounced back on Linux) must not kill the listener.
        let Ok(count) = ring.recv(socket) else {
            continue;
        };
        // Step 2. The shard's decoder lock (uncontended: only stats
        // readers ever take it besides this thread) is held for the
        // decode of the whole round, not re-taken per datagram, and never
        // across the blocking receive above.
        let mut decoders = shard.decoders.lock();
        for i in 0..count {
            let (bytes, peer) = ring.datagram(i);
            decode_into(&mut decoders, peer, bytes, &mut batch);
        }
        drop(decoders);
        let drained = count as u64;
        // ordering: stats-only counters read by scrapes; momentary skew
        // between them is tolerated.
        shard.stats.datagrams.fetch_add(drained, Ordering::Relaxed);
        shard.stats.drains.fetch_add(1, Ordering::Relaxed);
        shard.stats.max_drain.fetch_max(drained, Ordering::Relaxed);
        if batch.is_empty() {
            continue; // purely malformed / unknown-template drain
        }
        if let Some(flight) = &flight {
            // Sampled flows pick up their trace token here, right after
            // decode; the non-sampled majority costs one fetch_add each.
            for flow in &mut batch {
                flow.trace = flight.maybe_start();
            }
        }
        let bytes: u64 = batch.iter().map(|flow| flow.bytes).sum();
        // ordering: stats-only counter.
        shard.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        // Wall-clock activity is per drain round, not per record — it
        // feeds the `last_activity_seconds` gauge.
        table.last_activity.mark();
        // Step 3: the whole drain in one queue offer; the overflow
        // remainder is counted as dropped. `drain(..)` keeps the batch
        // vector's capacity for the next round.
        let offered = batch.len();
        // ordering: stats-only counter.
        shard.stats.batch_pushes.fetch_add(1, Ordering::Relaxed);
        if let Some(flight) = &flight {
            for flow in &batch {
                if let Some(id) = flow.trace {
                    flight.stamp_enqueue(id);
                }
            }
        }
        let accepted = router.route_batch(batch.drain(..));
        if accepted < offered {
            // ordering: stats-only drop counter.
            table
                .queue_drops
                .fetch_add((offered - accepted) as u64, Ordering::Relaxed);
        }
    }
}
