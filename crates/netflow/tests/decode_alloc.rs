//! The noise-free ingest gate: a warmed `ExporterDecoder` allocates
//! nothing per data datagram, whichever of the three protocols it speaks.
//!
//! Timing bounds on a shared guest sit at 25 %; an allocation count is
//! exact. A counting `#[global_allocator]` tallies allocations per
//! thread, so each test reads only what its own thread did. (The egress
//! half of the gate is `crates/core/tests/egress_alloc.rs`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, Ipv6Addr};

use flowdns_netflow::v5::{V5Header, V5Packet, V5Record};
use flowdns_netflow::v9::encode_standard_ipv4_record;
use flowdns_netflow::{
    ExporterDecoder, ExtractorConfig, IpfixMessageBuilder, Template, V9PacketBuilder,
};
use flowdns_types::FlowRecord;

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

const DATAGRAMS: usize = 1_000;

/// Decode `warm_up` once, then `datagrams` twice into one reused vector:
/// the first pass grows the vector, the second is measured.
fn allocations_of_a_warmed_pass(
    warm_up: &[Vec<u8>],
    datagrams: &[Vec<u8>],
    records_per_datagram: usize,
) -> u64 {
    let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
    let mut flows: Vec<FlowRecord> = Vec::new();
    for datagram in warm_up.iter().chain(datagrams) {
        decoder.decode_datagram_into(datagram, &mut flows).unwrap();
    }
    flows.clear();

    let before = ALLOCATIONS.with(Cell::get);
    for datagram in datagrams {
        decoder.decode_datagram_into(datagram, &mut flows).unwrap();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(flows.len(), datagrams.len() * records_per_datagram);
    assert_eq!(decoder.stats.malformed, 0);
    assert_eq!(decoder.stats.skipped_records, 0);
    allocations
}

/// 16 IPv4 and 8 IPv6 records of datagram `n`, following the two
/// standard templates.
fn mixed_records(n: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let v4 = (0..16u32)
        .map(|i| {
            encode_standard_ipv4_record(
                Ipv4Addr::from(0xcb00_7100 + i),
                Ipv4Addr::from(0x0a00_0000 + n as u32),
                443,
                50_000 + i as u16,
                6,
                1_500 + n as u32,
                3,
                0,
                1,
            )
        })
        .collect();
    let v6 = (0..8u16)
        .map(|i| {
            let mut r = Vec::with_capacity(45);
            r.extend_from_slice(&Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i).octets());
            r.extend_from_slice(&Ipv6Addr::new(0x2001, 0xdb8, 1, 0, 0, 0, 0, n as u16).octets());
            r.extend_from_slice(&443u16.to_be_bytes());
            r.extend_from_slice(&(40_000 + i).to_be_bytes());
            r.push(17);
            r.extend_from_slice(&9_000u32.to_be_bytes());
            r.extend_from_slice(&7u32.to_be_bytes());
            r
        })
        .collect();
    (v4, v6)
}

#[test]
fn warmed_decoder_allocates_nothing_per_v9_datagram() {
    let templates = [Template::standard_ipv4(256), Template::standard_ipv6(257)];
    let mut announce = V9PacketBuilder::new(1, 0, 1_700_000_000);
    announce.add_templates(&templates);
    let datagrams: Vec<Vec<u8>> = (0..DATAGRAMS)
        .map(|n| {
            let (v4, v6) = mixed_records(n);
            let mut b = V9PacketBuilder::new(1, n as u32, 1_700_000_000);
            b.add_data(&templates[0], &v4).unwrap();
            b.add_data(&templates[1], &v6).unwrap();
            b.build(0)
        })
        .collect();
    let allocations = allocations_of_a_warmed_pass(&[announce.build(0)], &datagrams, 24);
    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {DATAGRAMS} v9 datagrams"
    );
}

#[test]
fn warmed_decoder_allocates_nothing_per_ipfix_datagram() {
    let templates = [Template::standard_ipv4(256), Template::standard_ipv6(257)];
    let mut announce = IpfixMessageBuilder::new(1, 0, 1_700_000_000);
    announce.add_templates(&templates);
    let datagrams: Vec<Vec<u8>> = (0..DATAGRAMS)
        .map(|n| {
            let (v4, v6) = mixed_records(n);
            let mut b = IpfixMessageBuilder::new(1, n as u32, 1_700_000_000);
            b.add_data(&templates[0], &v4).unwrap();
            b.add_data(&templates[1], &v6).unwrap();
            b.build()
        })
        .collect();
    let allocations = allocations_of_a_warmed_pass(&[announce.build()], &datagrams, 24);
    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {DATAGRAMS} IPFIX datagrams"
    );
}

#[test]
fn warmed_decoder_allocates_nothing_per_v5_datagram() {
    let datagrams: Vec<Vec<u8>> = (0..DATAGRAMS)
        .map(|n| {
            let record = |i: u32| V5Record {
                src_addr: Ipv4Addr::from(0xcb00_7100 + i),
                dst_addr: Ipv4Addr::from(0x0a00_0000 + n as u32),
                packets: 3,
                octets: 1_500,
                ..V5Record::default()
            };
            V5Packet {
                header: V5Header {
                    unix_secs: 1_700_000_000,
                    ..V5Header::default()
                },
                records: vec![record(0), record(1)],
            }
            .encode()
            .unwrap()
        })
        .collect();
    let allocations = allocations_of_a_warmed_pass(&[], &datagrams, 2);
    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {DATAGRAMS} v5 datagrams"
    );
}
