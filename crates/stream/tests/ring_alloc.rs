//! The exact memory gate of the ingress rings: a warmed lane allocates
//! nothing per record or per segment, and its resident segments follow
//! the backlog's high-water mark rather than the ring's bound.
//!
//! A counting `#[global_allocator]` tallies the allocations of the
//! measuring thread only, so the test harness's own threads cannot leak
//! into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use flowdns_stream::spsc::SEGMENT;
use flowdns_stream::ShardedChannel;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note(&self) {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down, when the flag is gone (and nobody is measuring).
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // which returned `System`'s pointer.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` as `GlobalAlloc::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The flow ring's default bound: 256 segments' worth of records, of
/// which the schedule below never needs more than four.
const BOUND: usize = 262_144;

#[test]
fn warmed_ring_allocates_nothing_and_holds_only_its_backlog() {
    let channel: ShardedChannel<u64> = ShardedChannel::new(1, BOUND, 64);
    let mut producer = channel.producer();
    let mut consumer = channel.consumer(0);
    let segment_bytes = SEGMENT * std::mem::size_of::<(u64, Option<Instant>)>();
    assert_eq!(
        channel.lane_resident_bytes(0),
        0,
        "segments before any push"
    );

    // Warm-up lap: adopt the ring, then fill it to three segments from a
    // position one past a segment start, which spans four segments — the
    // most a backlog of three segments can ever touch.
    assert!(producer.push(&channel, 0, 0));
    assert_eq!(consumer.pop_adopting(), Some(0));
    for i in 0..3 * SEGMENT as u64 {
        assert!(producer.push(&channel, 0, i));
    }
    while consumer.pop_adopting().is_some() {}
    let warmed = channel.lane_resident_bytes(0);
    assert_eq!(warmed, 4 * segment_bytes);

    // 1 M push/pop pairs in bursts, the backlog swinging between empty
    // and three segments, crossing segment boundaries at every offset.
    let pairs = 1_000_000u64;
    let mut rng = 0x0a11_0c5e_u64;
    let mut draw = |bound: u64| {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (rng >> 33) % bound
    };
    let (mut pushed, mut popped, mut high_water) = (0u64, 0u64, 0u64);
    COUNTING.with(|c| c.set(true));
    while popped < pairs {
        let room = 3 * SEGMENT as u64 - (pushed - popped);
        let burst = draw(room + 1).min(pairs - pushed);
        for _ in 0..burst {
            assert!(
                producer.push_uncounted(0, pushed),
                "refused below the bound"
            );
            pushed += 1;
        }
        high_water = high_water.max(pushed - popped);
        let drain = draw(pushed - popped + 1);
        for _ in 0..drain {
            match consumer.pop_adopting() {
                Some(v) if v == popped => popped += 1,
                other => {
                    COUNTING.with(|c| c.set(false));
                    panic!("expected record {popped}, popped {other:?}");
                }
            }
        }
    }
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {pairs} push/pop pairs"
    );
    assert_eq!(popped, pairs);
    assert!(
        high_water > 2 * SEGMENT as u64,
        "the schedule never backed up past two segments ({high_water})"
    );
    let resident = channel.lane_resident_bytes(0);
    let bound = (high_water as usize).div_ceil(SEGMENT) + 1;
    assert!(
        resident <= bound * segment_bytes,
        "{} segments resident for a high-water mark of {high_water} records (≤ {bound})",
        resident / segment_bytes
    );
    assert_eq!(resident, warmed, "the warmed ring took more segments");
}
