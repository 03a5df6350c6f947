//! Single-producer/single-consumer rings and the key-routed
//! [`ShardedChannel`] built from them.
//!
//! A shared [`crate::StreamBuffer`] serializes every producer and
//! consumer on one queue; at saturation the queue itself becomes the
//! bottleneck and queueing delay explodes long before the workers run
//! out of CPU. The correlator instead routes each record to a
//! *lane* (one per correlator shard) at decode time, and each
//! (producer thread, lane) pair gets its own bounded SPSC `Ring`:
//! the hot path is two plain writes plus one `Release` store on the
//! producer side and one `Acquire` load plus a `Release` store on the
//! consumer side — no locks, no CAS loops, no shared tail.
//!
//! Like every stream buffer in this workspace the rings are **lossy**:
//! a full ring drops the record and counts it (the paper's stream
//! loss), producers never block. Per-lane counters aggregate accepted /
//! dropped / consumed across all of a lane's rings, and every
//! `sample_every`-th record a producer pushes carries an enqueue
//! timestamp that the consumer resolves into the lane's
//! [`LatencyHistogram`] — a sampled queue-residency measurement per
//! shard.

// The ring slots are `UnsafeCell<MaybeUninit<..>>`; the module-level
// rationale for each `unsafe` block is the SPSC contract: exactly one
// producer half and one consumer half exist per ring, the producer only
// writes slots in `[tail, head + capacity)` and the consumer only reads
// slots in `[head, tail)`, with the `Release`/`Acquire` pair on the
// position counters ordering the slot accesses.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::buffer::BufferStats;
use crate::latency::{LatencyHistogram, LatencySnapshot};

/// Pad-and-align wrapper keeping the producer and consumer position
/// counters on separate cache lines, so the two sides of a ring never
/// false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// One slot: the record plus the optional enqueue timestamp of a
/// latency-sampled record.
struct Slot<T>(UnsafeCell<MaybeUninit<(T, Option<Instant>)>>);

/// The state shared between a ring's producer and consumer halves.
///
/// `head` is the consumer position (next slot to read), `tail` the
/// producer position (next slot to write); both increase without bound
/// and are reduced modulo the power-of-two capacity on access. The ring
/// holds `tail - head` records.
struct Ring<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: a Ring is only driven through its unique producer/consumer
// halves: the producer writes a slot strictly before the Release store
// advancing `tail`, the consumer reads it strictly after the Acquire
// load observing that store (and symmetrically for reuse via `head`),
// so no slot is touched from two threads and Send only needs T: Send.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: shared references to a Ring only touch the atomic position
// counters (`len`/`is_empty` on arbitrary threads); the slot array is
// only dereferenced by the two unique halves as described above.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn with_capacity(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(2).next_power_of_two();
        Arc::new(Ring {
            mask: capacity - 1,
            slots: (0..capacity)
                .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
                .collect(),
            head: CachePadded::default(),
            tail: CachePadded::default(),
        })
    }

    /// Records currently in the ring. Racy by nature (either side may be
    /// mid-advance) but always within one record of the truth — fine for
    /// depth gauges and fill-level health checks.
    fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drain the records still in flight so their Drop impls run.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut pos = head;
        while pos != tail {
            let slot = &self.slots[pos & self.mask];
            // SAFETY: `&mut self` proves both halves are gone; every
            // slot in [head, tail) was fully written by the producer and
            // not yet consumed, so it holds an initialized value.
            unsafe { (*slot.0.get()).assume_init_drop() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// The producer half of one ring: plain local positions plus a cached
/// copy of the consumer position so the common push touches no shared
/// state beyond one `Release` store.
struct RingProducer<T> {
    ring: Arc<Ring<T>>,
    tail: usize,
    cached_head: usize,
}

impl<T> RingProducer<T> {
    /// `true` if accepted, `false` if the ring was full (record dropped).
    fn push(&mut self, item: T, stamp: Option<Instant>) -> bool {
        if self.tail.wrapping_sub(self.cached_head) > self.ring.mask {
            self.cached_head = self.ring.head.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) > self.ring.mask {
                return false;
            }
        }
        let slot = &self.ring.slots[self.tail & self.ring.mask];
        // SAFETY: `tail - cached_head <= mask` proves the consumer has
        // finished with this slot (its Acquire-loaded head covers it),
        // and this thread holds the unique producer half, so the write
        // is exclusive. The Release store below publishes it.
        unsafe { (*slot.0.get()).write((item, stamp)) };
        self.tail = self.tail.wrapping_add(1);
        self.ring.tail.store(self.tail, Ordering::Release);
        true
    }
}

/// The consumer half of one ring.
struct RingConsumer<T> {
    ring: Arc<Ring<T>>,
    head: usize,
    cached_tail: usize,
}

impl<T> RingConsumer<T> {
    fn pop(&mut self) -> Option<(T, Option<Instant>)> {
        if self.head == self.cached_tail {
            self.cached_tail = self.ring.tail.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        let slot = &self.ring.slots[self.head & self.ring.mask];
        // SAFETY: `head < cached_tail` (Acquire-loaded from the
        // producer's Release store) proves the slot was fully written,
        // and this thread holds the unique consumer half. The Release
        // store below hands the slot back for reuse.
        let value = unsafe { (*slot.0.get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        self.ring.head.store(self.head, Ordering::Release);
        Some(value)
    }

    fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }
}

fn ring_pair<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>, Arc<Ring<T>>) {
    let ring = Ring::with_capacity(capacity);
    (
        RingProducer {
            ring: Arc::clone(&ring),
            tail: 0,
            cached_head: 0,
        },
        RingConsumer {
            ring: Arc::clone(&ring),
            head: 0,
            cached_tail: 0,
        },
        ring,
    )
}

/// One lane (= one correlator shard) of a [`ShardedChannel`]: the
/// consumer halves awaiting adoption by the lane's worker, the ring
/// handles kept for depth gauges, and the lane-wide counters.
struct Lane<T> {
    /// Consumer halves registered by producers and not yet adopted by
    /// the lane's worker. Locked only on registration and adoption.
    incoming: Mutex<Vec<RingConsumer<T>>>,
    /// Every ring ever registered on this lane (for depth/fill gauges).
    rings: Mutex<Vec<Arc<Ring<T>>>>,
    /// Monotonic count of registered rings; the consumer compares it to
    /// its adopted count with one Acquire load to detect newcomers
    /// without touching the mutex.
    registered: AtomicUsize,
    accepted: AtomicU64,
    dropped: AtomicU64,
    consumed: AtomicU64,
    latency: LatencyHistogram,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            incoming: Mutex::new(Vec::new()),
            rings: Mutex::new(Vec::new()),
            registered: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }
}

/// A fixed set of lanes, each fed by per-producer SPSC rings and
/// drained by exactly one worker.
///
/// Producers call [`ShardedChannel::producer`] once per thread and get
/// a private ring per lane; the routing decision (which lane a record
/// belongs to) is the caller's, made at decode time from the record's
/// IP key. Each lane's worker builds one [`LaneConsumer`] and drains
/// whatever rings have registered, adopting late-registering producers
/// on the fly.
pub struct ShardedChannel<T> {
    lanes: Vec<Lane<T>>,
    ring_capacity: usize,
    sample_every: u64,
}

impl<T> std::fmt::Debug for ShardedChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedChannel")
            .field("lanes", &self.lanes.len())
            .field("ring_capacity", &self.ring_capacity)
            .finish()
    }
}

impl<T> ShardedChannel<T> {
    /// A channel with `lanes` lanes whose rings hold `ring_capacity`
    /// records each (rounded up to a power of two); every
    /// `sample_every`-th record each producer pushes is latency-stamped
    /// (0 disables sampling).
    pub fn new(lanes: usize, ring_capacity: usize, sample_every: u64) -> Self {
        assert!(lanes > 0, "a sharded channel needs at least one lane");
        assert!(ring_capacity > 0, "ring capacity must be positive");
        ShardedChannel {
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            ring_capacity,
            sample_every,
        }
    }

    /// Number of lanes (= correlator shards).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Register a new producer: one private ring per lane. Call once
    /// per producing thread and reuse the handle — registration takes
    /// each lane's mutex.
    pub fn producer(&self) -> ShardProducer<T> {
        let mut producers = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let (producer, consumer, ring) = ring_pair(self.ring_capacity);
            // A poisoned lane mutex means a worker panicked mid-
            // registration elsewhere; the producer still works, the
            // ring just never gets drained (records count as
            // dropped-by-overflow once it fills).
            if let (Ok(mut incoming), Ok(mut rings)) = (lane.incoming.lock(), lane.rings.lock()) {
                incoming.push(consumer);
                rings.push(ring);
            }
            lane.registered.fetch_add(1, Ordering::Release);
            producers.push(producer);
        }
        ShardProducer {
            producers,
            pushed: vec![0; self.lanes.len()],
            sample_every: self.sample_every,
        }
    }

    /// The single consumer handle of `lane`. Build exactly one per lane
    /// — the rings are SPSC, so two workers draining one lane would
    /// race for the same consumer halves (the second one finds the
    /// lane's incoming list already empty).
    pub fn consumer(&self, lane: usize) -> LaneConsumer<'_, T> {
        LaneConsumer {
            lane: &self.lanes[lane],
            rings: Vec::new(),
            adopted: 0,
            next: 0,
        }
    }

    /// Lane-wide accepted/dropped/consumed counters.
    pub fn lane_stats(&self, lane: usize) -> BufferStats {
        let lane = &self.lanes[lane];
        BufferStats {
            accepted: lane.accepted.load(Ordering::Relaxed),
            dropped: lane.dropped.load(Ordering::Relaxed),
            consumed: lane.consumed.load(Ordering::Relaxed),
        }
    }

    /// Records currently queued across all of `lane`'s rings.
    pub fn lane_depth(&self, lane: usize) -> usize {
        match self.lanes[lane].rings.lock() {
            Ok(rings) => rings.iter().map(|ring| ring.len()).sum(),
            Err(_) => 0,
        }
    }

    /// The fullest ring of `lane` as a fraction of its capacity
    /// (0.0–1.0) — the lane's saturation signal for health checks.
    pub fn lane_fill_level(&self, lane: usize) -> f64 {
        match self.lanes[lane].rings.lock() {
            Ok(rings) => rings
                .iter()
                .map(|ring| ring.len() as f64 / ring.capacity() as f64)
                .fold(0.0f64, f64::max),
            Err(_) => 0.0,
        }
    }

    /// Snapshot of `lane`'s sampled enqueue→dequeue residency.
    pub fn lane_latency(&self, lane: usize) -> LatencySnapshot {
        self.lanes[lane].latency.snapshot()
    }

    /// Are all rings of `lane` empty?
    pub fn lane_is_empty(&self, lane: usize) -> bool {
        self.lane_depth(lane) == 0
    }
}

/// A registered producer: one private SPSC ring per lane.
///
/// Not `Clone` and not shareable — each producing thread registers its
/// own handle via [`ShardedChannel::producer`].
pub struct ShardProducer<T> {
    producers: Vec<RingProducer<T>>,
    /// Per-lane push counts, for the 1-in-`sample_every` stamping.
    pushed: Vec<u64>,
    sample_every: u64,
}

impl<T> std::fmt::Debug for ShardProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardProducer")
            .field("lanes", &self.producers.len())
            .finish()
    }
}

impl<T> ShardProducer<T> {
    /// Number of lanes this producer can push to.
    pub fn lanes(&self) -> usize {
        self.producers.len()
    }

    fn stamp(&mut self, lane: usize) -> Option<Instant> {
        if self.sample_every == 0 {
            return None;
        }
        let n = self.pushed[lane];
        self.pushed[lane] = n + 1;
        (n % self.sample_every == 0).then(Instant::now)
    }

    /// Offer one record to `lane`'s ring, without updating the lane
    /// counters: the caller batches counter updates via
    /// [`note_accepted`](Self::note_accepted) /
    /// [`note_dropped`](Self::note_dropped) once per routed batch.
    /// Returns `true` if accepted, `false` if the ring was full.
    pub fn push_uncounted(&mut self, lane: usize, item: T) -> bool {
        let stamp = self.stamp(lane);
        self.producers[lane].push(item, stamp)
    }

    /// Offer one record to `lane`, updating the lane counters.
    pub fn push(&mut self, channel: &ShardedChannel<T>, lane: usize, item: T) -> bool {
        if self.push_uncounted(lane, item) {
            self.note_accepted(channel, lane, 1);
            true
        } else {
            self.note_dropped(channel, lane, 1);
            false
        }
    }

    /// Offer a whole batch to `lane`, returning how many were accepted;
    /// the lane counters are updated once for the batch.
    pub fn push_batch<I>(&mut self, channel: &ShardedChannel<T>, lane: usize, items: I) -> usize
    where
        I: IntoIterator<Item = T>,
    {
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for item in items {
            if self.push_uncounted(lane, item) {
                accepted += 1;
            } else {
                dropped += 1;
            }
        }
        self.note_accepted(channel, lane, accepted);
        self.note_dropped(channel, lane, dropped);
        accepted as usize
    }

    /// Fold `n` accepted records into `lane`'s counters (no-op for 0).
    pub fn note_accepted(&self, channel: &ShardedChannel<T>, lane: usize, n: u64) {
        if n > 0 {
            // ordering: stats-only counter; the records themselves are
            // published by the ring's Release/Acquire position pair.
            channel.lanes[lane].accepted.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Fold `n` dropped records into `lane`'s counters (no-op for 0).
    pub fn note_dropped(&self, channel: &ShardedChannel<T>, lane: usize, n: u64) {
        if n > 0 {
            // ordering: stats-only, as in note_accepted.
            channel.lanes[lane].dropped.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The single consumer of one lane: drains all rings registered on the
/// lane, adopting newly registered producers between pops.
pub struct LaneConsumer<'a, T> {
    lane: &'a Lane<T>,
    rings: Vec<RingConsumer<T>>,
    /// How many registered rings this consumer has adopted so far.
    adopted: usize,
    /// Round-robin cursor over `rings`.
    next: usize,
}

impl<T> std::fmt::Debug for LaneConsumer<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneConsumer")
            .field("adopted", &self.adopted)
            .finish()
    }
}

impl<T> LaneConsumer<'_, T> {
    /// Adopt consumer halves registered since the last check. Takes the
    /// lane mutex only when the registration counter actually moved, so
    /// the steady-state drain never locks.
    fn adopt_new_rings(&mut self) {
        if self.lane.registered.load(Ordering::Acquire) == self.adopted {
            return;
        }
        if let Ok(mut incoming) = self.lane.incoming.lock() {
            self.adopted += incoming.len();
            self.rings.append(&mut incoming);
        }
    }

    /// Take one record, round-robin across this lane's rings. Returns
    /// `None` when every ring is momentarily empty.
    pub fn pop(&mut self) -> Option<T> {
        let rings = self.rings.len();
        for _ in 0..rings {
            let index = self.next;
            self.next = if index + 1 == rings { 0 } else { index + 1 };
            if let Some((item, stamp)) = self.rings[index].pop() {
                // ordering: stats-only counter, uncontended (single
                // consumer per lane); carries no payload.
                self.lane.consumed.fetch_add(1, Ordering::Relaxed);
                if let Some(enqueued) = stamp {
                    self.lane.latency.record(enqueued.elapsed());
                }
                return Some(item);
            }
        }
        None
    }

    /// Like [`pop`](Self::pop), but first adopts any newly registered
    /// producer rings. Call at the top of a drain round.
    pub fn pop_adopting(&mut self) -> Option<T> {
        self.adopt_new_rings();
        self.pop()
    }

    /// Are all adopted rings empty? (Unadopted rings are picked up by
    /// the next [`pop_adopting`](Self::pop_adopting); callers check
    /// emptiness via the channel's lane view for shutdown decisions.)
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(RingConsumer::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn ring_preserves_fifo_order_and_capacity() {
        let (mut tx, mut rx, ring) = ring_pair::<u32>(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..8 {
            assert!(tx.push(i, None));
        }
        assert!(!tx.push(99, None), "9th push into a ring of 8 must drop");
        assert_eq!(ring.len(), 8);
        for i in 0..8 {
            assert_eq!(rx.pop().map(|(v, _)| v), Some(i));
        }
        assert!(rx.pop().is_none());
        // Space freed by the consumer is reusable (wraparound).
        for round in 0..5u32 {
            assert!(tx.push(round, None));
            assert_eq!(rx.pop().map(|(v, _)| v), Some(round));
        }
    }

    #[test]
    fn ring_capacity_rounds_up_to_power_of_two() {
        let (mut tx, _rx, ring) = ring_pair::<u8>(100);
        assert_eq!(ring.capacity(), 128);
        for _ in 0..128 {
            assert!(tx.push(0, None));
        }
        assert!(!tx.push(0, None));
    }

    #[test]
    fn ring_cross_thread_transfer_is_lossless() {
        let (mut tx, mut rx, _ring) = ring_pair::<u64>(1024);
        let producer = thread::spawn(move || {
            let mut sent = 0u64;
            for i in 0..100_000u64 {
                while !tx.push(i, None) {
                    thread::yield_now();
                }
                sent += 1;
            }
            sent
        });
        let mut expected = 0u64;
        while expected < 100_000 {
            if let Some((v, _)) = rx.pop() {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            }
        }
        assert_eq!(producer.join().unwrap(), 100_000);
    }

    #[test]
    fn dropped_ring_drops_in_flight_records() {
        let counted = Arc::new(AtomicU64::new(0));
        struct Tracked(Arc<AtomicU64>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, mut rx, ring) = ring_pair::<Tracked>(16);
        for _ in 0..10 {
            assert!(tx.push(Tracked(Arc::clone(&counted)), None));
        }
        drop(rx.pop()); // one consumed normally
        drop((tx, rx, ring));
        assert_eq!(counted.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn channel_routes_and_counts_per_lane() {
        let channel: ShardedChannel<u32> = ShardedChannel::new(2, 64, 0);
        let mut producer = channel.producer();
        assert_eq!(producer.lanes(), 2);
        assert_eq!(producer.push_batch(&channel, 0, 0..10), 10);
        assert!(producer.push(&channel, 1, 42));
        assert_eq!(channel.lane_depth(0), 10);
        assert_eq!(channel.lane_depth(1), 1);
        let mut c0 = channel.consumer(0);
        let drained: Vec<u32> = std::iter::from_fn(|| c0.pop_adopting()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        let stats0 = channel.lane_stats(0);
        assert_eq!(stats0.accepted, 10);
        assert_eq!(stats0.consumed, 10);
        assert_eq!(stats0.dropped, 0);
        assert_eq!(channel.lane_stats(1).accepted, 1);
        assert!(channel.lane_is_empty(0));
        assert!(!channel.lane_is_empty(1));
    }

    #[test]
    fn full_lane_drops_and_counts() {
        let channel: ShardedChannel<u32> = ShardedChannel::new(1, 8, 0);
        let mut producer = channel.producer();
        let accepted = producer.push_batch(&channel, 0, 0..100);
        assert_eq!(accepted, 8);
        let stats = channel.lane_stats(0);
        assert_eq!(stats.accepted, 8);
        assert_eq!(stats.dropped, 92);
        assert!((channel.lane_fill_level(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consumer_adopts_late_producers() {
        let channel: ShardedChannel<u32> = ShardedChannel::new(1, 64, 0);
        let mut early = channel.producer();
        early.push(&channel, 0, 1);
        let mut consumer = channel.consumer(0);
        assert_eq!(consumer.pop_adopting(), Some(1));
        // A producer registering *after* the consumer started must be
        // picked up without rebuilding the consumer.
        let mut late = channel.producer();
        late.push(&channel, 0, 2);
        assert_eq!(consumer.pop_adopting(), Some(2));
        assert!(consumer.pop_adopting().is_none());
        assert!(consumer.is_empty());
    }

    #[test]
    fn multi_producer_multi_lane_totals_add_up() {
        let channel: Arc<ShardedChannel<u64>> = Arc::new(ShardedChannel::new(4, 1 << 14, 0));
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let channel = Arc::clone(&channel);
                thread::spawn(move || {
                    let mut producer = channel.producer();
                    for i in 0..20_000u64 {
                        let lane = (i % 4) as usize;
                        while !producer.push(&channel, lane, p * 100_000 + i) {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|lane| {
                let channel = Arc::clone(&channel);
                thread::spawn(move || {
                    let mut consumer = channel.consumer(lane);
                    let mut n = 0u64;
                    let deadline = Instant::now() + Duration::from_secs(20);
                    while n < 15_000 {
                        match consumer.pop_adopting() {
                            Some(_) => n += 1,
                            None => {
                                assert!(Instant::now() < deadline, "lane {lane} starved at {n}");
                                thread::yield_now();
                            }
                        }
                    }
                    n
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(consumed, 60_000);
        let accepted: u64 = (0..4).map(|lane| channel.lane_stats(lane).accepted).sum();
        assert_eq!(accepted, 60_000);
    }

    #[test]
    fn latency_sampling_resolves_into_the_lane_histogram() {
        let channel: ShardedChannel<u32> = ShardedChannel::new(1, 1024, 10);
        let mut producer = channel.producer();
        assert_eq!(producer.push_batch(&channel, 0, 0..100), 100);
        thread::sleep(Duration::from_millis(25));
        let mut consumer = channel.consumer(0);
        while consumer.pop_adopting().is_some() {}
        let snap = channel.lane_latency(0);
        // 100 pushed / sample_every=10 → exactly 10 stamped records.
        assert_eq!(snap.count, 10);
        assert!(snap.p50_us() >= 15_000, "dwell not captured: {snap:?}");
    }

    #[test]
    fn unsampled_channel_keeps_an_empty_histogram() {
        let channel: ShardedChannel<u32> = ShardedChannel::new(1, 16, 0);
        let mut producer = channel.producer();
        producer.push(&channel, 0, 7);
        let mut consumer = channel.consumer(0);
        assert_eq!(consumer.pop_adopting(), Some(7));
        assert!(channel.lane_latency(0).is_empty());
    }
}
