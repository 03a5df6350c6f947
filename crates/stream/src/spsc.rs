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
//! A ring's capacity is a bound in records, not an allocation. The
//! slots live in fixed segments of [`SEGMENT`] slots (the whole
//! capacity when that is smaller), linked into a cycle in data order.
//! The producer takes a segment when its tail enters one: the oldest
//! segment of the cycle once the consumer has moved past it, otherwise
//! a fresh one spliced in behind the current one. The consumer hands a
//! drained segment back by advancing its head beyond it — the head
//! counter is the return path, so retiring a segment costs the consumer
//! nothing. Resident memory therefore follows the backlog's high-water
//! mark, at most ⌈high-water / `SEGMENT`⌉ + 1 segments, instead of the
//! configured bound: a ring whose backlog stays under one segment
//! cycles through two, however deep its bound. Retired segments are
//! reused in place, so the steady state allocates nothing per record
//! or per segment.
//!
//! A producer handle is pooled, not torn down: dropping a
//! [`ShardProducer`] hands its rings to the channel's idle list, and the
//! next [`ShardedChannel::producer`] call takes them back before it
//! registers new ones. A lane's ring count is therefore bounded by the
//! peak number of producers alive at once, however many come and go
//! (one per resolver connection, say), and the consumer's pop cost,
//! which grows with the rings it polls, stays bounded with it.
//!
//! Like every stream buffer in this workspace the rings are **lossy**:
//! a full ring drops the record and counts it (the paper's stream
//! loss), producers never block. A push is refused exactly when the
//! ring holds `capacity` records. Per-lane counters aggregate accepted /
//! dropped / consumed across all of a lane's rings, and every
//! `sample_every`-th record a producer pushes carries an enqueue
//! timestamp that the consumer resolves into the lane's
//! [`LatencyHistogram`] — a sampled queue-residency measurement per
//! shard.

// The ring slots are `UnsafeCell<MaybeUninit<..>>` inside heap
// segments reached through raw pointers; the module-level rationale for
// each `unsafe` block is the SPSC contract: exactly one producer half
// and one consumer half exist per ring, the producer only writes slots
// of a segment it has just entered (fresh, or one the consumer has
// left), and the consumer only reads slots in `[head, tail)`, with the
// `Release`/`Acquire` pair on the position counters ordering the slot
// accesses. Segments are freed only when the ring itself drops.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::buffer::BufferStats;
use crate::latency::{LatencyHistogram, LatencySnapshot};

/// Slots per ring segment: the unit in which a ring's memory follows
/// its backlog. A ring whose capacity is smaller uses one
/// capacity-sized segment instead.
pub const SEGMENT: usize = 1024;

const _: () = assert!(SEGMENT.is_power_of_two());

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

/// A fixed run of slots and the link to the segment after it.
struct Segment<T> {
    /// The next segment of the ring's cycle, in data order. Written
    /// only by the producer, before the `Release` store of `tail` that
    /// publishes the first record past this segment.
    next: AtomicPtr<Segment<T>>,
    slots: Box<[Slot<T>]>,
}

impl<T> Segment<T> {
    /// A fresh heap segment of `len` empty slots whose `next` is
    /// `next`, or the segment itself when `next` is null (a one-segment
    /// cycle). The ring owns the returned pointer and frees it in its
    /// `Drop`.
    fn allocate(len: usize, next: *mut Segment<T>) -> *mut Segment<T> {
        let segment = Box::into_raw(Box::new(Segment {
            next: AtomicPtr::new(next),
            slots: (0..len)
                .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
                .collect(),
        }));
        if next.is_null() {
            // SAFETY: `segment` came from `Box::into_raw` just above and
            // is not shared with anyone yet.
            let fresh = unsafe { &*segment };
            // ordering: published with the segment itself (see `first`).
            fresh.next.store(segment, Ordering::Relaxed);
        }
        segment
    }
}

/// The state shared between a ring's producer and consumer halves.
///
/// `head` is the consumer position (next slot to read), `tail` the
/// producer position (next slot to write); both increase without bound.
/// Position `p` lives at offset `p % segment length` of whichever
/// segment the producer entered for it. The ring holds `tail - head`
/// records.
struct Ring<T> {
    /// `capacity - 1`; the capacity is a power of two.
    mask: usize,
    /// `segment length - 1`; the segment length is a power of two that
    /// divides the capacity.
    segment_mask: usize,
    /// The segment holding position 0, set by the producer's first push
    /// (null until then). The consumer starts its walk there, and
    /// `Drop` frees the cycle from it.
    first: AtomicPtr<Segment<T>>,
    /// Segments in the cycle: the ring's resident memory. Written only
    /// by the producer.
    segments: AtomicUsize,
    /// The consumer half's segment, left here when that half drops so
    /// the ring's own `Drop` can walk the records still in flight.
    consumer_segment: AtomicPtr<Segment<T>>,
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
}

// A Ring is only driven through its unique producer/consumer halves:
// the producer writes a slot strictly before the Release store advancing
// `tail`, the consumer reads it strictly after the Acquire load observing
// that store, and the producer reuses a segment only after an Acquire
// load of `head` shows the consumer has left it.
// SAFETY: so no slot is touched from two threads at once, and the links
// and counters are atomics; moving or sharing the ring moves records
// between threads, which needs only T: Send.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: shared references to a Ring only touch the atomic fields
// (`len`/`resident_bytes` on arbitrary threads); the segments are only
// dereferenced by the two unique halves as described above, and by
// `Drop`, which has exclusive access.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    fn with_capacity(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(2).next_power_of_two();
        Arc::new(Ring {
            mask: capacity - 1,
            segment_mask: capacity.min(SEGMENT) - 1,
            first: AtomicPtr::new(ptr::null_mut()),
            segments: AtomicUsize::new(0),
            consumer_segment: AtomicPtr::new(ptr::null_mut()),
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

    /// Bytes of slot storage this ring has allocated so far.
    fn resident_bytes(&self) -> usize {
        self.segments.load(Ordering::Relaxed)
            * (self.segment_mask + 1)
            * std::mem::size_of::<Slot<T>>()
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        let first = *self.first.get_mut();
        if first.is_null() {
            return; // never pushed to: nothing in flight, nothing allocated
        }
        // Drop the records still in flight, walking the segments the way
        // the consumer would have.
        let tail = *self.tail.get_mut();
        let mut pos = *self.head.get_mut();
        let mut segment = *self.consumer_segment.get_mut();
        while pos != tail {
            let offset = pos & self.segment_mask;
            // `&mut self` proves both halves are gone and no segment has
            // been freed yet. `segment` is the consumer's last segment (or
            // null before its first pop), and its link leads to the
            // segment holding `pos`, exactly as in `pop`.
            // SAFETY: so the pointers are live, and every slot in
            // [head, tail) was written by the producer and not yet
            // consumed, so it holds a value.
            unsafe {
                if offset == 0 {
                    segment = if segment.is_null() {
                        first
                    } else {
                        (*segment).next.load(Ordering::Acquire)
                    };
                }
                (*(*segment).slots[offset].0.get()).assume_init_drop();
            }
            pos = pos.wrapping_add(1);
        }
        // Free the cycle, once around from the first segment.
        let mut segment = first;
        loop {
            // SAFETY: every segment of the cycle came from
            // `Segment::allocate`'s `Box::into_raw` and appears in the
            // cycle exactly once, so each is freed exactly once.
            let boxed = unsafe { Box::from_raw(segment) };
            segment = boxed.next.load(Ordering::Acquire);
            drop(boxed);
            if segment == first {
                break;
            }
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
    /// Records offered so far, for the 1-in-`sample_every` stamping.
    pushed: u64,
    /// The segment holding position `tail - 1` (null before the first
    /// push).
    segment: *mut Segment<T>,
}

// SAFETY: the producer half is the only user of its `segment` pointer
// and of the unpublished slots of that segment; moving the half to
// another thread moves that exclusive access with it, and what it
// writes are records of a `T: Send`.
unsafe impl<T: Send> Send for RingProducer<T> {}

impl<T> RingProducer<T> {
    /// `true` if accepted, `false` if the ring was full (record dropped).
    fn push(&mut self, item: T, stamp: Option<Instant>) -> bool {
        if self.tail.wrapping_sub(self.cached_head) > self.ring.mask {
            self.cached_head = self.ring.head.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) > self.ring.mask {
                return false;
            }
        }
        let offset = self.tail & self.ring.segment_mask;
        if offset == 0 {
            self.enter_segment();
        }
        // `segment` holds position `tail`: `enter_segment` just took it
        // at offset 0, and later offsets stay in it. It is either fresh
        // or one the consumer has left, and it lives until the ring
        // drops, which the `Arc` held here prevents.
        // SAFETY: the slots from `offset` on are unpublished, so this
        // thread, the unique producer half, writes the slot exclusively;
        // the Release store below publishes the write.
        unsafe { (*(*self.segment).slots[offset].0.get()).write((item, stamp)) };
        self.tail = self.tail.wrapping_add(1);
        self.ring.tail.store(self.tail, Ordering::Release);
        true
    }

    /// Take the segment `tail` enters (`tail` is at a segment start).
    ///
    /// The cycle holds positions `[tail - segments·len, tail)` in order,
    /// starting from the segment after the current one. That oldest
    /// segment is reused once the consumer has popped from the segment
    /// after it — by then it has read the oldest one's slots and link —
    /// otherwise a fresh segment is spliced in between the two. Runs
    /// once per segment length of pushes.
    #[cold]
    fn enter_segment(&mut self) {
        let len = self.ring.segment_mask + 1;
        // This thread is the count's only writer.
        let segments = self.ring.segments.load(Ordering::Relaxed);
        if self.segment.is_null() {
            self.segment = Segment::allocate(len, ptr::null_mut());
            self.ring.first.store(self.segment, Ordering::Release);
        } else {
            // SAFETY: a non-null `segment` is a live segment of this
            // ring's cycle (freed only when the ring drops, which the
            // `Arc` held here prevents); only its atomic link is used.
            let current = unsafe { &*self.segment };
            let oldest = current.next.load(Ordering::Acquire);
            let in_use = (segments - 1) * len;
            if self.tail.wrapping_sub(self.cached_head) >= in_use {
                self.cached_head = self.ring.head.load(Ordering::Acquire);
            }
            if self.tail.wrapping_sub(self.cached_head) < in_use {
                self.segment = oldest;
                return;
            }
            self.segment = Segment::allocate(len, oldest);
            current.next.store(self.segment, Ordering::Release);
        }
        // ordering: gauge only; the segment itself is published through
        // `first`/`next` and the `tail` Release store.
        self.ring.segments.store(segments + 1, Ordering::Relaxed);
    }
}

/// The consumer half of one ring.
struct RingConsumer<T> {
    ring: Arc<Ring<T>>,
    head: usize,
    cached_tail: usize,
    /// The segment holding position `head - 1` (null before the first
    /// pop).
    segment: *mut Segment<T>,
}

// SAFETY: the consumer half is the only reader of the published slots
// and the only user of its `segment` pointer; moving the half to
// another thread moves that exclusive access with it, and what it reads
// out are records of a `T: Send`.
unsafe impl<T: Send> Send for RingConsumer<T> {}

impl<T> RingConsumer<T> {
    fn pop(&mut self) -> Option<(T, Option<Instant>)> {
        if self.head == self.cached_tail {
            self.cached_tail = self.ring.tail.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        let offset = self.head & self.ring.segment_mask;
        if offset == 0 {
            self.segment = self.next_segment();
        }
        // `segment` holds position `head` (`next_segment` just followed
        // the link at offset 0); the producer reuses it only after the
        // head has moved into the next one.
        // SAFETY: `head < cached_tail` (Acquire-loaded from the
        // producer's Release store) proves the slot was fully written,
        // and this thread holds the unique consumer half.
        let value = unsafe { (*(*self.segment).slots[offset].0.get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        self.ring.head.store(self.head, Ordering::Release);
        Some(value)
    }

    /// The segment holding `head`, which starts a segment: the ring's
    /// first one, or the successor of the segment just drained. Leaving
    /// a drained segment retires it; the head store that follows hands
    /// it back to the producer.
    fn next_segment(&self) -> *mut Segment<T> {
        if self.segment.is_null() {
            return self.ring.first.load(Ordering::Acquire);
        }
        // SAFETY: a non-null `segment` is a live segment of this ring's
        // cycle, and the producer rewrites its link only after the head
        // has moved past the segment after it — which this step precedes.
        unsafe { (*self.segment).next.load(Ordering::Acquire) }
    }

    fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        // ordering: read only by `Ring::drop`, which the `Arc` count's
        // own synchronization orders after this store.
        self.ring
            .consumer_segment
            .store(self.segment, Ordering::Relaxed);
    }
}

fn ring_pair<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>, Arc<Ring<T>>) {
    let ring = Ring::with_capacity(capacity);
    (
        RingProducer {
            ring: Arc::clone(&ring),
            tail: 0,
            cached_head: 0,
            pushed: 0,
            segment: ptr::null_mut(),
        },
        RingConsumer {
            ring: Arc::clone(&ring),
            head: 0,
            cached_tail: 0,
            segment: ptr::null_mut(),
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

/// The ring sets of dropped producers, one ring per lane each, waiting
/// for the next [`ShardedChannel::producer`] call.
type IdleRings<T> = Arc<Mutex<Vec<Vec<RingProducer<T>>>>>;

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
    idle: IdleRings<T>,
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
    /// A channel with `lanes` lanes whose rings hold at most
    /// `ring_capacity` records each (rounded up to a power of two); a
    /// ring allocates its slots a [`SEGMENT`] at a time as its backlog
    /// grows. Every `sample_every`-th record each producer pushes is
    /// latency-stamped (0 disables sampling).
    pub fn new(lanes: usize, ring_capacity: usize, sample_every: u64) -> Self {
        assert!(lanes > 0, "a sharded channel needs at least one lane");
        assert!(ring_capacity > 0, "ring capacity must be positive");
        ShardedChannel {
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            ring_capacity,
            sample_every,
            idle: Arc::default(),
        }
    }

    /// Number of lanes (= correlator shards).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// A producer: one private ring per lane. Reuses the rings of a
    /// dropped producer when there is one, and registers new rings
    /// (taking each lane's mutex) only when every earlier set is in use.
    pub fn producer(&self) -> ShardProducer<T> {
        // Every update of the idle list is one push or pop, so a lock
        // poisoned by a panic elsewhere still guards a valid list.
        let reused = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let rings = reused.unwrap_or_else(|| {
            self.lanes
                .iter()
                .map(|lane| {
                    let (producer, consumer, ring) = ring_pair(self.ring_capacity);
                    // A poisoned lane mutex means a worker panicked mid-
                    // registration elsewhere; the producer still works,
                    // the ring just never gets drained (records count as
                    // dropped-by-overflow once it fills).
                    if let (Ok(mut incoming), Ok(mut rings)) =
                        (lane.incoming.lock(), lane.rings.lock())
                    {
                        incoming.push(consumer);
                        rings.push(ring);
                    }
                    lane.registered.fetch_add(1, Ordering::Release);
                    producer
                })
                .collect()
        });
        ShardProducer {
            rings,
            sample_every: self.sample_every,
            idle: Arc::clone(&self.idle),
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

    /// Bytes of ring segments resident across all of `lane`'s rings:
    /// [`SEGMENT`] slots of `(T, Option<Instant>)` per segment a ring
    /// has taken (one capacity-sized segment for smaller rings). Follows
    /// each ring's backlog high-water mark, not its capacity.
    pub fn lane_resident_bytes(&self, lane: usize) -> usize {
        match self.lanes[lane].rings.lock() {
            Ok(rings) => rings.iter().map(|ring| ring.resident_bytes()).sum(),
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
/// Not `Clone` and not shareable — each producing thread takes its own
/// handle via [`ShardedChannel::producer`]. Dropping it hands the rings
/// back to the channel for the next producer.
pub struct ShardProducer<T> {
    rings: Vec<RingProducer<T>>,
    sample_every: u64,
    idle: IdleRings<T>,
}

impl<T> std::fmt::Debug for ShardProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardProducer")
            .field("lanes", &self.rings.len())
            .finish()
    }
}

impl<T> Drop for ShardProducer<T> {
    fn drop(&mut self) {
        // The lock hands this thread's ring positions to whichever
        // thread takes the set next (poisoning: see `producer`).
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(std::mem::take(&mut self.rings));
    }
}

impl<T> ShardProducer<T> {
    /// Number of lanes this producer can push to.
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }

    fn stamp(&mut self, lane: usize) -> Option<Instant> {
        if self.sample_every == 0 {
            return None;
        }
        let ring = &mut self.rings[lane];
        let n = ring.pushed;
        ring.pushed = n + 1;
        (n % self.sample_every == 0).then(Instant::now)
    }

    /// Offer one record to `lane`'s ring, without updating the lane
    /// counters: the caller batches counter updates via
    /// [`note_accepted`](Self::note_accepted) /
    /// [`note_dropped`](Self::note_dropped) once per routed batch.
    /// Returns `true` if accepted, `false` if the ring was full.
    pub fn push_uncounted(&mut self, lane: usize, item: T) -> bool {
        let stamp = self.stamp(lane);
        self.rings[lane].push(item, stamp)
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
    use proptest::prelude::*;
    use std::collections::VecDeque;
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

    /// A small deterministic generator (64-bit LCG, high bits) for the
    /// threaded test's burst sizes, so a failure reproduces exactly.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn ring_cross_thread_transfer_is_lossless() {
        // 1,100 segments' worth of records through a 4-segment ring: the
        // producer crosses over 1,000 segment boundaries while a bursty
        // consumer lets the backlog swing between empty and full, so
        // segments are both spliced in and reused under concurrency.
        const TOTAL: u64 = 1_100 * SEGMENT as u64;
        let (mut tx, mut rx, ring) = ring_pair::<u64>(4 * SEGMENT);
        let producer = thread::spawn(move || {
            let mut refused = 0u64;
            for i in 0..TOTAL {
                while !tx.push(i, None) {
                    refused += 1;
                    thread::yield_now();
                }
            }
            refused
        });
        let mut expected = 0u64;
        let mut rng = 0x5eed_u64;
        while expected < TOTAL {
            // A pause, then a burst of up to three segments.
            for _ in 0..lcg(&mut rng) % 4 {
                thread::yield_now();
            }
            let burst = lcg(&mut rng) % (3 * SEGMENT as u64) + 1;
            for _ in 0..burst {
                match rx.pop() {
                    Some((v, _)) => {
                        assert_eq!(v, expected, "lost, duplicated or reordered record");
                        expected += 1;
                    }
                    None => break,
                }
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none(), "a record past the last one sent");
        let segments = ring.resident_bytes() / (SEGMENT * std::mem::size_of::<Slot<u64>>());
        assert!(segments <= 5, "{segments} segments for a 4-segment bound");
    }

    #[test]
    fn dropped_ring_drops_in_flight_records() {
        struct Tracked(usize, Arc<Vec<AtomicUsize>>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.1[self.0].fetch_add(1, Ordering::Relaxed);
            }
        }
        // The queued records span four segments; the consumer stops
        // before its first pop, mid-segment, right at a segment start,
        // and two segments in.
        let queued = 3 * SEGMENT + 100;
        for popped in [0, 50, SEGMENT, 2 * SEGMENT + 7] {
            let drops: Arc<Vec<AtomicUsize>> =
                Arc::new((0..queued).map(|_| AtomicUsize::new(0)).collect());
            let (mut tx, mut rx, ring) = ring_pair::<Tracked>(4 * SEGMENT);
            for id in 0..queued {
                assert!(tx.push(Tracked(id, Arc::clone(&drops)), None));
            }
            for _ in 0..popped {
                drop(rx.pop()); // consumed normally
            }
            drop((tx, rx, ring));
            for (id, count) in drops.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "record {id} dropped a wrong number of times (popped {popped})"
                );
            }
        }
    }

    #[test]
    fn unconsumed_ring_accepts_exactly_its_capacity() {
        for (requested, capacity) in [
            (8, 8),
            (100, 128),
            (SEGMENT - 1, SEGMENT),
            (SEGMENT, SEGMENT),
            (SEGMENT + 1, 2 * SEGMENT),
            (4 * SEGMENT, 4 * SEGMENT),
        ] {
            let (mut tx, _rx, ring) = ring_pair::<u32>(requested);
            assert_eq!(ring.resident_bytes(), 0, "a segment before the first push");
            for i in 0..capacity {
                assert!(tx.push(i as u32, None), "push {i} of {capacity} refused");
            }
            assert!(!tx.push(0, None), "push past capacity {capacity} accepted");
            assert_eq!(ring.len(), capacity);
            // Filling the ring takes exactly the segments its bound covers.
            assert_eq!(
                ring.resident_bytes(),
                capacity * std::mem::size_of::<Slot<u32>>()
            );
        }
    }

    #[test]
    fn ring_memory_follows_the_backlog_not_the_bound() {
        let (mut tx, mut rx, ring) = ring_pair::<u64>(256 * SEGMENT);
        let segment_bytes = SEGMENT * std::mem::size_of::<Slot<u64>>();
        // A backlog that never exceeds four records cycles through two
        // segments however many records pass.
        for i in 0..20 * SEGMENT as u64 {
            assert!(tx.push(i, None));
            if i % 4 == 3 {
                for _ in 0..4 {
                    assert!(rx.pop().is_some());
                }
            }
        }
        assert_eq!(ring.resident_bytes(), 2 * segment_bytes);
        // A burst of 5.5 segments grows the cycle to at most ⌈5.5⌉ + 1,
        // and draining it keeps the high-water segments for reuse.
        for i in 0..(11 * SEGMENT / 2) as u64 {
            assert!(tx.push(i, None));
        }
        assert!(ring.resident_bytes() <= 7 * segment_bytes);
        let high_water = ring.resident_bytes();
        while rx.pop().is_some() {}
        for _ in 0..3 {
            for i in 0..(11 * SEGMENT / 2) as u64 {
                assert!(tx.push(i, None));
            }
            while rx.pop().is_some() {}
        }
        assert_eq!(ring.resident_bytes(), high_water, "a warmed ring allocated");
    }

    /// One step of a bound-parity schedule: push or pop a burst whose
    /// length is `permille` thousandths of 1.5 × the ring's capacity,
    /// or, when `aligned`, one to three whole segments — so the consumer
    /// often stops exactly at a segment end, before following its link,
    /// while the producer goes on to splice.
    #[derive(Debug, Clone, Copy)]
    struct Burst {
        push: bool,
        aligned: bool,
        permille: u32,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ring's loss bound is a bounded deque's: against a
        /// `VecDeque` that accepts iff `len < capacity`, every push is
        /// accepted or refused alike and every pop returns the same
        /// value, across segment boundaries and splices; resident
        /// segments stay within ⌈high-water / segment⌉ + 1.
        #[test]
        fn ring_matches_a_bounded_deque(
            which in 0usize..6,
            schedule in proptest::collection::vec(
                (any::<bool>(), any::<bool>(), 0u32..1000)
                    .prop_map(|(push, aligned, permille)| Burst { push, aligned, permille }),
                1..24,
            ),
        ) {
            let requested = [8, 100, SEGMENT - 1, SEGMENT, SEGMENT + 1, 4 * SEGMENT][which];
            let (mut tx, mut rx, ring) = ring_pair::<u64>(requested);
            let capacity = ring.capacity();
            prop_assert_eq!(capacity, requested.next_power_of_two());
            let segment_len = capacity.min(SEGMENT);
            let segment_bytes = segment_len * std::mem::size_of::<Slot<u64>>();
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next = 0u64;
            let mut high_water = 0usize;
            for step in &schedule {
                let n = if step.aligned {
                    segment_len * (1 + step.permille as usize % 3)
                } else {
                    (step.permille as usize * capacity * 3 / 2000).max(1)
                };
                for _ in 0..n {
                    if step.push {
                        let accepts = model.len() < capacity;
                        prop_assert_eq!(tx.push(next, None), accepts, "push {} of {:?}", next, step);
                        if accepts {
                            model.push_back(next);
                        }
                        next += 1;
                        high_water = high_water.max(model.len());
                    } else {
                        prop_assert_eq!(rx.pop().map(|(v, _)| v), model.pop_front());
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                let segments = ring.resident_bytes() / segment_bytes;
                prop_assert!(
                    segments <= high_water.div_ceil(segment_len) + 1,
                    "{} segments for a high-water mark of {}",
                    segments,
                    high_water
                );
            }
            while let Some(v) = model.pop_front() {
                prop_assert_eq!(rx.pop().map(|(v, _)| v), Some(v));
            }
            prop_assert!(rx.pop().is_none());
        }
    }

    /// Push every item to lane 0, returning how many were accepted.
    fn push_all(
        producer: &mut ShardProducer<u32>,
        channel: &ShardedChannel<u32>,
        items: std::ops::Range<u32>,
    ) -> usize {
        items.filter(|&i| producer.push(channel, 0, i)).count()
    }

    #[test]
    fn channel_routes_and_counts_per_lane() {
        let channel: ShardedChannel<u32> = ShardedChannel::new(2, 64, 0);
        let mut producer = channel.producer();
        assert_eq!(producer.lanes(), 2);
        assert_eq!(push_all(&mut producer, &channel, 0..10), 10);
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
        let accepted = push_all(&mut producer, &channel, 0..100);
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
    fn dropped_producers_are_reused_not_re_registered() {
        let channel: ShardedChannel<u32> = ShardedChannel::new(2, 64, 0);
        let mut consumer = channel.consumer(0);
        for i in 0..1_000 {
            let mut producer = channel.producer();
            assert!(producer.push(&channel, 0, i));
            drop(producer);
            assert_eq!(consumer.pop_adopting(), Some(i));
        }
        for lane in &channel.lanes {
            assert_eq!(lane.rings.lock().unwrap().len(), 1);
            assert_eq!(lane.registered.load(Ordering::Acquire), 1);
        }
        // Two live producers need two ring sets; both come back.
        let (first, second) = (channel.producer(), channel.producer());
        drop((first, second));
        let again = (channel.producer(), channel.producer());
        assert_eq!(channel.lanes[1].rings.lock().unwrap().len(), 2);
        drop(again);
        // A reused ring keeps its place in the record order.
        let mut producer = channel.producer();
        assert!(producer.push(&channel, 0, 7));
        drop(producer);
        assert!(channel.producer().push(&channel, 0, 8));
        assert_eq!(consumer.pop_adopting(), Some(7));
        assert_eq!(consumer.pop_adopting(), Some(8));
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
        assert_eq!(push_all(&mut producer, &channel, 0..100), 100);
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
