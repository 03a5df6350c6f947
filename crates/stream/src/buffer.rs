//! Bounded, lossy stream buffers.
//!
//! A [`StreamBuffer`] is the in-memory stand-in for the ISP feed's socket
//! buffer: producers `push` without ever blocking; when the buffer is full
//! the record is dropped and counted. Consumers `pop` (non-blocking) or
//! `pop_wait` (blocking with timeout). The loss statistics feed directly
//! into the paper's "loss on the streams" metric. In the pipeline this is
//! the queue between the shard workers and each Write worker; ingress
//! runs on the per-shard rings of [`crate::spsc`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

/// Snapshot of a buffer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Records accepted into the buffer.
    pub accepted: u64,
    /// Records dropped because the buffer was full.
    pub dropped: u64,
    /// Records taken out by the consumer.
    pub consumed: u64,
}

impl BufferStats {
    /// Total records offered to the buffer.
    pub fn offered(&self) -> u64 {
        self.accepted + self.dropped
    }

    /// Loss rate in percent of offered records (0 when nothing offered).
    pub fn loss_rate_pct(&self) -> f64 {
        if self.offered() == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered() as f64 * 100.0
        }
    }
}

struct Shared {
    accepted: AtomicU64,
    dropped: AtomicU64,
    consumed: AtomicU64,
}

/// The producer+consumer handle of a bounded lossy buffer.
///
/// Cloning the buffer clones both ends (all clones share the same queue
/// and counters), which is how every shard worker feeds one Write
/// worker's queue.
pub struct StreamBuffer<T> {
    tx: Sender<T>,
    rx: Receiver<T>,
    shared: Arc<Shared>,
    capacity: usize,
}

impl<T> Clone for StreamBuffer<T> {
    fn clone(&self) -> Self {
        StreamBuffer {
            tx: self.tx.clone(),
            rx: self.rx.clone(),
            shared: Arc::clone(&self.shared),
            capacity: self.capacity,
        }
    }
}

impl<T> std::fmt::Debug for StreamBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBuffer")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T> StreamBuffer<T> {
    /// Create a buffer holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stream buffer capacity must be positive");
        let (tx, rx) = bounded(capacity);
        StreamBuffer {
            tx,
            rx,
            shared: Arc::new(Shared {
                accepted: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                consumed: AtomicU64::new(0),
            }),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently queued.
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// Is the queue currently empty?
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Current fill level as a fraction of capacity (0.0–1.0).
    pub fn fill_level(&self) -> f64 {
        self.len() as f64 / self.capacity as f64
    }

    /// Offer one record. Returns `true` if it was accepted, `false` if the
    /// buffer was full and the record was dropped (the stream "loss" of
    /// the paper). Never blocks.
    pub fn push(&self, item: T) -> bool {
        match self.tx.try_send(item) {
            Ok(()) => {
                // ordering: monotonic stats counter; the record itself
                // travels through the channel (which synchronizes), the
                // counter carries no payload and tolerates stale reads.
                self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // ordering: stats-only, as above.
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Take one record if immediately available.
    pub fn pop(&self) -> Option<T> {
        match self.rx.try_recv() {
            Ok(item) => {
                // ordering: stats-only counter; receiving the item is
                // what synchronizes with the producer.
                self.shared.consumed.fetch_add(1, Ordering::Relaxed);
                Some(item)
            }
            Err(_) => None,
        }
    }

    /// Take one record, waiting up to `timeout` for one to arrive.
    pub fn pop_wait(&self, timeout: Duration) -> Option<T> {
        match self.rx.recv_timeout(timeout) {
            Ok(item) => {
                // ordering: stats-only counter, as in pop.
                self.shared.consumed.fetch_add(1, Ordering::Relaxed);
                Some(item)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            consumed: self.shared.consumed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn push_pop_preserves_order() {
        let buf = StreamBuffer::new(16);
        for i in 0..10 {
            assert!(buf.push(i));
        }
        assert_eq!(buf.len(), 10);
        let drained: Vec<i32> = std::iter::from_fn(|| buf.pop()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        let s = buf.stats();
        assert_eq!(s.accepted, 10);
        assert_eq!(s.consumed, 10);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.loss_rate_pct(), 0.0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let buf = StreamBuffer::new(4);
        let mut accepted = 0;
        for i in 0..10 {
            if buf.push(i) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        let s = buf.stats();
        assert_eq!(s.accepted, 4);
        assert_eq!(s.dropped, 6);
        assert!((s.loss_rate_pct() - 60.0).abs() < 1e-9);
        assert!((buf.fill_level() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consumer_makes_room_again() {
        let buf = StreamBuffer::new(2);
        assert!(buf.push(1));
        assert!(buf.push(2));
        assert!(!buf.push(3));
        assert_eq!(buf.pop(), Some(1));
        assert!(buf.push(4));
        assert_eq!(buf.pop(), Some(2));
        assert_eq!(buf.pop(), Some(4));
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_wait_times_out_and_receives() {
        let buf: StreamBuffer<u32> = StreamBuffer::new(4);
        assert_eq!(buf.pop_wait(Duration::from_millis(10)), None);
        let producer = buf.clone();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            producer.push(99);
        });
        assert_eq!(buf.pop_wait(Duration::from_secs(2)), Some(99));
        handle.join().unwrap();
    }

    #[test]
    fn clones_share_queue_and_counters() {
        let a: StreamBuffer<u32> = StreamBuffer::new(8);
        let b = a.clone();
        a.push(1);
        b.push(2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.pop(), Some(1));
        assert_eq!(a.pop(), Some(2));
        assert_eq!(a.stats().accepted, 2);
        assert_eq!(b.stats().consumed, 2);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing_when_sized() {
        let buf: StreamBuffer<u64> = StreamBuffer::new(100_000);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let b = buf.clone();
                thread::spawn(move || {
                    for i in 0..10_000u64 {
                        b.push(p * 10_000 + i);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let b = buf.clone();
                thread::spawn(move || {
                    let mut n = 0u64;
                    while b.pop().is_some() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 40_000);
        let s = buf.stats();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.consumed, 40_000);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_is_rejected() {
        let _ = StreamBuffer::<u8>::new(0);
    }
}
