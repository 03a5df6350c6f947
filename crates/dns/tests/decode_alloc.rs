//! The noise-free resolver-feed gate: a warmed `FrameDecoder` allocates
//! nothing per frame for the payload or the record batch, and one shared
//! string per distinct name, however often the name repeats.
//!
//! Timing bounds on a shared guest sit at 25 %; an allocation count is
//! exact. A counting `#[global_allocator]` tallies allocations per
//! thread, so each test reads only what its own thread did. (The NetFlow
//! half of the ingest gate is `crates/netflow/tests/decode_alloc.rs`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use flowdns_dns::{FrameDecoder, FrameEncoder};
use flowdns_types::{DnsRecord, DomainName, SimTime};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note(&self) {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down, when the counter is gone (and nobody is measuring).
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// Bytes per simulated socket read; frames straddle the reads.
const READ: usize = 4 * 1024;

/// Feed `wire` a read at a time, draining the reused batch after every
/// read as the DNS handler does; return the records decoded.
fn decode_in_reads(decoder: &mut FrameDecoder, wire: &[u8], batch: &mut Vec<DnsRecord>) -> usize {
    let mut decoded = 0;
    for read in wire.chunks(READ) {
        decoder.feed_into(read, batch).unwrap();
        decoded += batch.len();
        batch.clear();
    }
    decoded
}

/// Decode `records` twice through one decoder and one batch: the first
/// pass warms both, the second is measured.
fn allocations_of_a_warmed_pass(records: &[DnsRecord]) -> u64 {
    let wire = FrameEncoder::new().encode_batch(records).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut batch = Vec::new();
    assert_eq!(
        decode_in_reads(&mut decoder, &wire, &mut batch),
        records.len()
    );

    let before = ALLOCATIONS.with(Cell::get);
    let decoded = decode_in_reads(&mut decoder, &wire, &mut batch);
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(decoded, records.len());
    assert_eq!(decoder.buffered(), 0);
    allocations
}

#[test]
fn warmed_decoder_allocates_nothing_per_frame() {
    let query = DomainName::literal("video.example.com");
    let records: Vec<DnsRecord> = (0..1_000u32)
        .map(|n| {
            DnsRecord::address(
                SimTime::from_millis(u64::from(n)),
                query.clone(),
                Ipv4Addr::from(0xcb00_7100 + n).into(),
                300,
            )
        })
        .collect();
    let allocations = allocations_of_a_warmed_pass(&records);
    assert_eq!(
        allocations,
        0,
        "{allocations} allocations over {} frames",
        records.len()
    );
}

#[test]
fn a_cname_response_allocates_once_per_distinct_name() {
    const RESPONSES: usize = 300;
    let mut records = Vec::new();
    for n in 0..RESPONSES {
        let ts = SimTime::from_millis(n as u64);
        let www = DomainName::literal(&format!("www{n}.shop.example"));
        let edge = DomainName::literal(&format!("shop{n}.edge.example.net"));
        let cdn = DomainName::literal(&format!("e{n}.cdn.example.net"));
        // 2 CNAMEs and 3 A answers: 7 name occurrences, 3 distinct names.
        records.push(DnsRecord::cname(ts, www, edge.clone(), 60));
        records.push(DnsRecord::cname(ts, edge, cdn.clone(), 60));
        for host in 1..=3u8 {
            let ip = Ipv4Addr::new(203, 0, 113, host).into();
            records.push(DnsRecord::address(ts, cdn.clone(), ip, 20));
        }
    }
    let allocations = allocations_of_a_warmed_pass(&records);
    assert_eq!(
        allocations,
        3 * RESPONSES as u64,
        "{allocations} allocations over {RESPONSES} responses"
    );
}
