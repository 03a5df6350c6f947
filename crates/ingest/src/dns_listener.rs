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
//! per read, not per record. The decoder reads frames in place and the
//! read's record batch is reused, so a warmed handler allocates only one
//! string per distinct name. A framing error counts the stream malformed
//! and drops the connection, after routing the records that the same
//! read decoded before the bad frame; the records of earlier reads are
//! already delivered. The router registers rings on the DNS lanes only,
//! and a closed connection's rings serve the next one, so reconnecting
//! resolvers leave no rings behind.
//!
//! # Accept loop
//!
//! An accept loop blocks in `accept`, so a reconnecting resolver is
//! taken at once. It owns the handler threads it spawned and joins the
//! finished ones after every accept, so reconnecting resolvers leave no
//! thread stacks behind either. At shutdown `join_group` wakes the
//! loops by connecting to the group.

use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use flowdns_core::Correlator;
use flowdns_dns::framing::FrameDecoder;
use flowdns_types::FlowDnsError;

use crate::runtime::ActivityStamp;

/// How long a blocked read waits before re-checking shutdown, and how
/// long an accept loop backs off after an accept error.
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

/// Spawn one accept-loop thread per listener in the group. A loop
/// returns how many of its connection handlers panicked.
pub(crate) fn spawn_group(
    listeners: Vec<TcpListener>,
    correlator: Arc<Correlator>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<DnsFeedStats>,
) -> std::io::Result<Vec<JoinHandle<usize>>> {
    let mut handles = Vec::with_capacity(listeners.len());
    for (i, listener) in listeners.into_iter().enumerate() {
        let correlator = Arc::clone(&correlator);
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        handles.push(
            std::thread::Builder::new()
                .name(format!("ingest-dns-accept-{i}"))
                .spawn(move || accept_loop(i, listener, &correlator, &shutdown, &stats))?,
        );
    }
    Ok(handles)
}

/// One listener's accept loop. It blocks in `accept` and owns the
/// handler threads of the connections it accepted: after every accept it
/// joins those that have finished, since an exited thread that is never
/// joined keeps its stack mapped, and it joins the rest when it exits.
fn accept_loop(
    listener_id: usize,
    listener: TcpListener,
    correlator: &Arc<Correlator>,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<DnsFeedStats>,
) -> usize {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut panicked = 0;
    let mut next_conn = 0u64;
    while !shutdown.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // Back off so a persistent error (EMFILE) cannot spin.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            break; // the runtime's wake-up connection
        }
        // ordering: stats-only counter; scrapes tolerate momentary skew.
        stats.connections.fetch_add(1, Ordering::Relaxed);
        let handler = spawn_connection(
            stream,
            listener_id,
            next_conn,
            Arc::clone(correlator),
            Arc::clone(shutdown),
            Arc::clone(stats),
        );
        next_conn += 1;
        match handler {
            Ok(h) => handlers.push(h),
            Err(_) => {
                // ordering: stats-only counter.
                stats.malformed_streams.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut handlers)
            .into_iter()
            .partition(JoinHandle::is_finished);
        handlers = running;
        panicked += join_all(finished);
    }
    // Close the listener before waiting on the handlers, so the
    // runtime's wake-up connections reach the loops still accepting.
    drop(listener);
    panicked + join_all(handlers)
}

/// Join handler threads; returns how many panicked.
fn join_all(handlers: Vec<JoinHandle<()>>) -> usize {
    handlers
        .into_iter()
        .map(JoinHandle::join)
        .filter(Result::is_err)
        .count()
}

/// Wake and join the accept loops of a group once the shutdown flag is
/// set. A loop blocks in `accept`, so the runtime connects to the group
/// until every loop has seen the flag and exited (the kernel picks the
/// group member a connection reaches); each loop joins its connection
/// handlers before it exits, within one read timeout.
pub(crate) fn join_group(
    bound: SocketAddr,
    accepts: Vec<JoinHandle<usize>>,
) -> Result<(), FlowDnsError> {
    let wake = wake_addr(bound);
    while accepts.iter().any(|h| !h.is_finished()) {
        // A refused or timed-out connect only means a loop closed its
        // listener in between; the next round tries again.
        let _ = TcpStream::connect_timeout(&wake, POLL_INTERVAL);
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut panicked = 0;
    for handle in accepts {
        panicked += handle
            .join()
            .map_err(|_| FlowDnsError::PipelineState("dns accept loop panicked".into()))?;
    }
    if panicked > 0 {
        return Err(FlowDnsError::PipelineState(
            "dns feed handler panicked".into(),
        ));
    }
    Ok(())
}

/// Where to connect to reach a listener bound to `bound`: an unspecified
/// bind address is reached through the loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
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
            // Blocking reads with a timeout keep the shutdown flag
            // responsive.
            if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                // ordering: stats-only counter.
                stats.malformed_streams.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let mut stream = stream;
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; READ_BUF];
            // The records of one read, reused across reads.
            let mut batch = Vec::new();
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
                // A malformed frame ends the stream, but only after the
                // records decoded before it in this read are routed.
                let decoded = decoder.feed_into(&buf[..n], &mut batch);
                if !batch.is_empty() {
                    // One wall-clock activity mark per read, for the
                    // `last_activity_seconds` gauge.
                    stats.last_activity.mark();
                    let offered = batch.len();
                    // ordering: stats-only counters (records, batches).
                    stats.records.fetch_add(offered as u64, Ordering::Relaxed);
                    stats.batch_pushes.fetch_add(1, Ordering::Relaxed);
                    // One ring offer for the read; the overflow remainder
                    // is counted as dropped.
                    let accepted = router.route_batch(batch.drain(..));
                    if accepted < offered {
                        // ordering: stats-only drop counter.
                        stats
                            .queue_drops
                            .fetch_add((offered - accepted) as u64, Ordering::Relaxed);
                    }
                }
                if decoded.is_err() {
                    // ordering: stats-only counter.
                    stats.malformed_streams.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unspecified_binds_are_woken_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:9953".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:9953".parse().unwrap());
        let v6: SocketAddr = "[::]:9953".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:9953".parse().unwrap());
        let bound: SocketAddr = "192.0.2.7:9953".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }
}
