//! Bounded, lossy stream buffers.
//!
//! A [`StreamBuffer`] is the in-memory stand-in for the ISP feed's socket
//! buffer: producers `push` without ever blocking; when the buffer is full
//! the record is dropped and counted. Consumers `pop` (non-blocking) or
//! `pop_wait` (blocking with timeout). The loss statistics feed directly
//! into the paper's "loss on the streams" metric. In the pipeline this is
//! the queue between the shard workers and each Write worker; ingress
//! runs on the per-shard rings of [`crate::spsc`].
//!
//! The queue is a mutex-guarded `VecDeque` that grows with the backlog.
//! The daemon moves records through it a batch at a time
//! ([`StreamBuffer::push_batch`], [`StreamBuffer::pop_batch_wait`]): one
//! lock per batch on either side, a condvar wake-up only when a consumer
//! is actually parked, and the clock read only on the way into a park.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

/// Everything the mutex guards. Each update below leaves it valid at
/// every step, which is why a poisoned guard is recovered, not fatal.
struct Queue<T> {
    items: VecDeque<T>,
    /// Consumers currently waiting on `not_empty`.
    parked: usize,
    accepted: u64,
    dropped: u64,
    consumed: u64,
    /// Wake-ups issued to parked consumers.
    wakes: u64,
}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    not_empty: Condvar,
    capacity: usize,
}

/// The producer+consumer handle of a bounded lossy buffer.
///
/// Cloning the buffer clones both ends (all clones share the same queue
/// and counters), which is how every shard worker feeds one Write
/// worker's queue.
pub struct StreamBuffer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for StreamBuffer<T> {
    fn clone(&self) -> Self {
        StreamBuffer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for StreamBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBuffer")
            .field("capacity", &self.shared.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T> StreamBuffer<T> {
    /// Create a buffer holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stream buffer capacity must be positive");
        StreamBuffer {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    items: VecDeque::new(),
                    parked: 0,
                    accepted: 0,
                    dropped: 0,
                    consumed: 0,
                    wakes: 0,
                }),
                not_empty: Condvar::new(),
                capacity,
            }),
        }
    }

    /// The one lock of the buffer: taken once per call of every method
    /// here, so once per batch on the daemon's path.
    fn lock_queue(&self) -> MutexGuard<'_, Queue<T>> {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Records currently queued.
    pub fn len(&self) -> usize {
        self.lock_queue().items.len()
    }

    /// Is the queue currently empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current fill level as a fraction of capacity (0.0–1.0).
    pub fn fill_level(&self) -> f64 {
        self.len() as f64 / self.shared.capacity as f64
    }

    /// Offer one record. Returns `true` if it was accepted, `false` if the
    /// buffer was full and the record was dropped (the stream "loss" of
    /// the paper). Never blocks.
    pub fn push(&self, item: T) -> bool {
        let mut queue = self.lock_queue();
        if queue.items.len() >= self.shared.capacity {
            queue.dropped += 1;
            return false;
        }
        queue.items.push_back(item);
        queue.accepted += 1;
        self.wake_parked(queue);
        true
    }

    /// Offer every record of `batch` under one lock, in order. The head
    /// that fits is accepted; the tail beyond the free space is dropped
    /// and counted. Returns the accepted count and leaves `batch` empty
    /// (capacity kept for reuse). Never blocks.
    pub fn push_batch(&self, batch: &mut Vec<T>) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let mut queue = self.lock_queue();
        let room = self.shared.capacity.saturating_sub(queue.items.len());
        let accepted = room.min(batch.len());
        queue.items.extend(batch.drain(..accepted));
        queue.accepted += accepted as u64;
        queue.dropped += batch.len() as u64;
        self.wake_parked(queue);
        // The dropped tail is freed outside the lock.
        batch.clear();
        accepted
    }

    /// Release the lock, then wake one parked consumer if there is one.
    /// A consumer registers in `parked` under the lock before it waits,
    /// so a producer that saw `parked == 0` has nobody to wake.
    fn wake_parked(&self, mut queue: MutexGuard<'_, Queue<T>>) {
        let wake = queue.parked > 0;
        if wake {
            queue.wakes += 1;
        }
        drop(queue);
        if wake {
            self.shared.not_empty.notify_one();
        }
    }

    /// With the queue empty, park until a producer pushes or `timeout`
    /// passes. Returns at once when records are queued.
    fn wait_for_records<'a>(
        &'a self,
        mut queue: MutexGuard<'a, Queue<T>>,
        timeout: Duration,
    ) -> MutexGuard<'a, Queue<T>> {
        if !queue.items.is_empty() {
            return queue;
        }
        queue.parked += 1;
        let (mut queue, _) = self
            .shared
            .not_empty
            .wait_timeout_while(queue, timeout, |queue| queue.items.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        queue.parked -= 1;
        queue
    }

    /// Take one record if immediately available.
    pub fn pop(&self) -> Option<T> {
        let mut queue = self.lock_queue();
        let item = queue.items.pop_front()?;
        queue.consumed += 1;
        Some(item)
    }

    /// Take one record, waiting up to `timeout` for one to arrive.
    pub fn pop_wait(&self, timeout: Duration) -> Option<T> {
        let mut queue = self.wait_for_records(self.lock_queue(), timeout);
        let item = queue.items.pop_front()?;
        queue.consumed += 1;
        Some(item)
    }

    /// Move up to `max` records onto the end of `out` under one lock,
    /// waiting up to `timeout` for the first to arrive. Returns how many
    /// were moved; 0 means the wait timed out.
    pub fn pop_batch_wait(&self, out: &mut Vec<T>, max: usize, timeout: Duration) -> usize {
        let mut queue = self.wait_for_records(self.lock_queue(), timeout);
        let taken = max.min(queue.items.len());
        out.extend(queue.items.drain(..taken));
        queue.consumed += taken as u64;
        taken
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        let queue = self.lock_queue();
        BufferStats {
            accepted: queue.accepted,
            dropped: queue.dropped,
            consumed: queue.consumed,
        }
    }

    /// Consumers parked right now, and wake-ups issued so far.
    #[cfg(test)]
    fn parked_and_wakes(&self) -> (usize, u64) {
        let queue = self.lock_queue();
        (queue.parked, queue.wakes)
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
    fn push_batch_accepts_the_head_and_counts_the_dropped_tail() {
        let buf: StreamBuffer<u32> = StreamBuffer::new(8);
        let mut batch: Vec<u32> = (0..5).collect();
        assert_eq!(buf.push_batch(&mut batch), 5);
        assert!(batch.is_empty());
        // Three free slots against a batch of six.
        batch.extend(5..11);
        assert_eq!(buf.push_batch(&mut batch), 3);
        assert!(batch.is_empty());
        assert_eq!(buf.len(), 8);
        // Full: everything is dropped, nothing blocks.
        batch.extend(100..104);
        assert_eq!(buf.push_batch(&mut batch), 0);
        assert!(batch.is_empty());
        assert_eq!(buf.push_batch(&mut batch), 0);
        let s = buf.stats();
        assert_eq!((s.accepted, s.dropped, s.consumed), (8, 7, 0));
        let mut out = vec![u32::MAX];
        assert_eq!(buf.pop_batch_wait(&mut out, 6, Duration::ZERO), 6);
        assert_eq!(out, vec![u32::MAX, 0, 1, 2, 3, 4, 5]);
        assert_eq!(buf.pop_batch_wait(&mut out, 6, Duration::ZERO), 2);
        assert_eq!(&out[7..], &[6, 7]);
        assert_eq!(buf.pop_batch_wait(&mut out, 6, Duration::ZERO), 0);
        assert_eq!(buf.stats().consumed, 8);
    }

    #[test]
    fn a_push_wakes_a_parked_consumer_and_only_a_parked_one() {
        let buf: StreamBuffer<u32> = StreamBuffer::new(64);
        // Nobody waits: pushes issue no wake-up, and the pop that follows
        // finds the records without parking.
        assert!(buf.push(1));
        assert_eq!(buf.push_batch(&mut vec![2, 3]), 2);
        assert_eq!(buf.parked_and_wakes(), (0, 0));
        let mut out = Vec::new();
        assert_eq!(buf.pop_batch_wait(&mut out, 64, Duration::from_secs(30)), 3);
        assert_eq!(buf.parked_and_wakes(), (0, 0));

        // A consumer registers as parked under the lock and releases it
        // only by waiting, so once `parked` reads 1 the push below runs
        // against a consumer that is inside its wait.
        let consumer = buf.clone();
        let handle = thread::spawn(move || {
            let mut out = Vec::new();
            let taken = consumer.pop_batch_wait(&mut out, 64, Duration::from_secs(30));
            (taken, out)
        });
        while buf.parked_and_wakes().0 == 0 {
            thread::yield_now();
        }
        assert_eq!(buf.push_batch(&mut vec![7, 8, 9]), 3);
        assert_eq!(handle.join().unwrap(), (3, vec![7, 8, 9]));
        assert_eq!(buf.parked_and_wakes(), (0, 1));
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
