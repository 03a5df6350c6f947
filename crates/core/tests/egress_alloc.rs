//! The noise-free egress gate: a warmed `RotatingFileSink` allocates
//! nothing per record inside one window.
//!
//! Timing bounds on a shared guest sit at 25 %; an allocation count is
//! exact. A counting `#[global_allocator]` tallies the allocations of the
//! measuring thread only, so the test harness's own threads cannot leak
//! into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};

use flowdns_core::{OutputSink, RotatingFileSink};
use flowdns_types::{
    CorrelatedRecord, CorrelationOutcome, DomainName, FlowRecord, SimDuration, SimTime,
};

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

/// The columns a record can take, all inside the window starting at 7200:
/// IPv4 and IPv6, both ASN columns set and unset, a miss, a direct name
/// and a CNAME chain with long names.
fn records() -> Vec<CorrelatedRecord> {
    let v4: IpAddr = Ipv4Addr::new(203, 0, 113, 77).into();
    let v6: IpAddr = "2001:db8:0:0:1::42".parse().unwrap();
    let long = |tag: &str| {
        DomainName::literal(&format!(
            "{tag}.a-rather-long-label-of-a-content-delivery-network.edge.example.net"
        ))
    };
    let outcomes = [
        CorrelationOutcome::NotFound,
        CorrelationOutcome::Name(DomainName::literal("video.example.com")),
        CorrelationOutcome::Chain(vec![long("www"), long("cdn"), long("pop17")]),
    ];
    let mut records = Vec::new();
    for (i, outcome) in outcomes.iter().cycle().take(600).enumerate() {
        let (src, dst) = if i % 3 == 0 { (v6, v4) } else { (v4, v6) };
        let flow = FlowRecord::inbound(
            SimTime::from_secs(7_200 + i as u64),
            src,
            dst,
            u64::MAX - i as u64,
        );
        let asn = |on: bool| on.then_some(u32::MAX - i as u32);
        records.push(
            CorrelatedRecord::new(flow, outcome.clone()).with_asns(asn(i % 2 == 0), asn(i % 5 < 2)),
        );
    }
    records
}

#[test]
fn warmed_rotating_sink_allocates_nothing_per_record() {
    let dir = std::env::temp_dir().join(format!("flowdns-egress-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut sink = RotatingFileSink::new(&dir, "corr", SimDuration::from_secs(3_600)).unwrap();
    let records = records();
    // Warm-up: opens the window file and grows the line buffer to the
    // longest line.
    for record in &records {
        sink.write_record(record).unwrap();
    }

    let rounds = 20;
    COUNTING.with(|c| c.set(true));
    for _ in 0..rounds {
        for record in &records {
            sink.write_record(record).unwrap();
        }
    }
    sink.flush().unwrap();
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        allocations,
        0,
        "{allocations} allocations over {} records",
        rounds * records.len()
    );
    sink.finalize().unwrap();
    let written: usize = sink
        .completed_files()
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap().lines().count())
        .sum();
    assert_eq!(written, (rounds + 1) * records.len());
    std::fs::remove_dir_all(&dir).ok();
}
