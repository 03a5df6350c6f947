//! The TCP DNS-feed listener group.
//!
//! The ISP's resolvers forward cache-miss records over framed TCP
//! (Section 4, Coverage). With `dns_listeners > 1` the runtime binds a
//! `SO_REUSEPORT` listener group (see [`crate::reuseport`]) and the
//! kernel spreads incoming resolver connections across the accept
//! loops; each group member runs its own accept thread, and each
//! accepted connection still gets a dedicated handler thread running the
//! incremental [`FrameDecoder`] — frames split across arbitrary read
//! boundaries decode correctly and a connection cut mid-message simply
//! ends that stream.
//!
//! # Read loop and ownership
//!
//! A handler thread owns its connection's socket, decoder, receive
//! buffer and DNS router. Each round is one blocking read (short
//! timeout, keeps shutdown responsive); the records that read completes
//! are offered to the per-shard DNS rings in **one** `route_batch` on
//! the thread's own router, and a full ring is a counted drop. A read
//! holds up to 16 KiB, a few hundred records, so the ring offer is paid
//! per read, not per record. A framing error counts the stream malformed
//! and drops the connection; the records of earlier reads are already
//! delivered. The router registers rings on the DNS lanes only, and a
//! closed connection's rings serve the next one, so reconnecting
//! resolvers leave no rings behind.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use flowdns_core::Correlator;
use flowdns_dns::framing::FrameDecoder;

use crate::runtime::ActivityStamp;

/// How long a blocked accept/read waits before re-checking shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Socket read buffer size.
const READ_BUF: usize = 16 * 1024;

/// Listener-level DNS-feed counters shared with the runtime.
#[derive(Debug, Default)]
pub struct DnsFeedStats {
    /// Connections accepted (across every listener of the group).
    pub connections: AtomicU64,
    /// Records decoded across all connections.
    pub records: AtomicU64,
    /// Socket reads that returned data.
    pub reads: AtomicU64,
    /// Batches offered to the FillUp queue, one per read that completed
    /// a frame (≤ `reads`).
    pub batch_pushes: AtomicU64,
    /// Connections dropped because their stream was malformed.
    pub malformed_streams: AtomicU64,
    /// Records dropped because the FillUp queue was full.
    pub queue_drops: AtomicU64,
    /// When a connection last offered a batch.
    pub(crate) last_activity: ActivityStamp,
}

/// Spawn one accept-loop thread per listener in the group.
/// Per-connection handler threads are pushed onto `conn_handles` so the
/// runtime can join them at shutdown.
pub(crate) fn spawn_group(
    listeners: Vec<TcpListener>,
    correlator: Arc<Correlator>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<DnsFeedStats>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    let mut handles = Vec::with_capacity(listeners.len());
    for (i, listener) in listeners.into_iter().enumerate() {
        listener.set_nonblocking(true)?;
        let correlator = Arc::clone(&correlator);
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        let conn_handles = Arc::clone(&conn_handles);
        handles.push(
            std::thread::Builder::new()
                .name(format!("ingest-dns-accept-{i}"))
                .spawn(move || {
                    let mut next_conn = 0u64;
                    while !shutdown.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                // ordering: stats-only counter; scrapes
                                // tolerate momentary skew.
                                stats.connections.fetch_add(1, Ordering::Relaxed);
                                let handle = spawn_connection(
                                    stream,
                                    i,
                                    next_conn,
                                    Arc::clone(&correlator),
                                    Arc::clone(&shutdown),
                                    Arc::clone(&stats),
                                );
                                next_conn += 1;
                                match handle {
                                    Ok(h) => conn_handles.lock().push(h),
                                    Err(_) => {
                                        // ordering: stats-only counter.
                                        stats.malformed_streams.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL_INTERVAL);
                            }
                            Err(_) => std::thread::sleep(POLL_INTERVAL),
                        }
                    }
                })?,
        );
    }
    Ok(handles)
}

fn spawn_connection(
    stream: TcpStream,
    listener_id: usize,
    id: u64,
    correlator: Arc<Correlator>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<DnsFeedStats>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("ingest-dns-{listener_id}-{id}"))
        .spawn(move || {
            // The accept loop runs nonblocking; the accepted stream
            // inherits that on some platforms, so switch to blocking reads
            // with a timeout to keep the shutdown flag responsive.
            if stream.set_nonblocking(false).is_err()
                || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
            {
                // ordering: stats-only counter.
                stats.malformed_streams.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let mut stream = stream;
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; READ_BUF];
            // This connection thread owns its router, so routed pushes
            // are lock-free SPSC ring writes.
            let mut router = correlator.dns_router();
            while !shutdown.load(Ordering::Acquire) {
                let n = match stream.read(&mut buf) {
                    Ok(0) => break, // clean EOF; partial frame (if any) discarded
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break, // reset mid-stream; never a panic
                };
                // ordering: stats-only counter.
                stats.reads.fetch_add(1, Ordering::Relaxed);
                let Ok(records) = decoder.feed(&buf[..n]) else {
                    // ordering: stats-only counter.
                    stats.malformed_streams.fetch_add(1, Ordering::Relaxed);
                    break;
                };
                if records.is_empty() {
                    continue; // a partial frame, completed by a later read
                }
                // One wall-clock activity mark per read, for the
                // `last_activity_seconds` gauge.
                stats.last_activity.mark();
                let offered = records.len();
                // ordering: stats-only counters (records, batches).
                stats.records.fetch_add(offered as u64, Ordering::Relaxed);
                stats.batch_pushes.fetch_add(1, Ordering::Relaxed);
                // One ring offer for the read; the overflow remainder is
                // counted as dropped.
                let accepted = router.route_batch(records);
                if accepted < offered {
                    // ordering: stats-only drop counter.
                    stats
                        .queue_drops
                        .fetch_add((offered - accepted) as u64, Ordering::Relaxed);
                }
            }
        })
}
