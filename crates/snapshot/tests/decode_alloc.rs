//! The byte gates of a decoded snapshot: an image costs at most 24 bytes
//! per entry beyond its name text, all allocations included (columns,
//! the name table's handles and headers), and a corrupt column count
//! cannot make the decoder allocate more than the payload's size.
//!
//! A decoded generation is columnar: 8 bytes per IPv4 or NAME-CNAME
//! entry and 20 per IPv6 entry, each column reserved exactly; this image
//! reads 19.8 bytes per entry, 9 of them the name table's. The layout
//! before the columns — one `(SnapshotKey, u32)` list per generation,
//! where a 16-byte `u128` inside the key enum padded every entry to 48
//! bytes — fails the gate at about 48 bytes per entry (56.7 with the
//! name table), and its image stayed resident under the store a warm
//! start built above it.
//!
//! A counting `#[global_allocator]` tallies, per thread, the bytes a
//! measuring thread requests and its largest single request, so neither
//! the test harness's own threads nor the other test, which runs on a
//! thread of its own, can leak into a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flowdns_snapshot::{
    checksum, decode_snapshot, encode_snapshot, DnsStoreImage, IpColumns, NameColumns, StoreImage,
    HEADER_LEN,
};
use flowdns_types::{IpKey, SimTime};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note(&self, bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down, when the flag is gone (and nobody is measuring).
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let bytes = bytes as u64;
            BYTES.with(|total| total.set(total.get() + bytes));
            LARGEST.with(|largest| largest.set(largest.get().max(bytes)));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // which returned `System`'s pointer.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrown buffer is charged its whole new size.
        self.note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` as `GlobalAlloc::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Names of the image; it holds four entries per name, like a store
/// whose names each back a few addresses and chain links.
const NAMES: u32 = 4_000;

/// A two-shard image: 14,000 IP-NAME entries (30 % IPv6) over all three
/// generations and 2,000 NAME-CNAME entries.
fn image() -> DnsStoreImage {
    let names: Vec<Arc<str>> = (0..NAMES)
        .map(|i| Arc::from(format!("edge{i}.pop{}.cdn.example.net", i % 31)))
        .collect();
    let mut ip_name: Vec<StoreImage<IpColumns>> =
        vec![StoreImage::default(), StoreImage::default()];
    for i in 0..14_000u32 {
        let key = if i % 10 < 3 {
            IpKey::V6(0x2001_0db8_u128 << 96 | i as u128)
        } else {
            IpKey::V4(0x0A00_0000 + i)
        };
        let section = &mut ip_name[i as usize % 2];
        let generation = match i % 3 {
            0 => &mut section.active,
            1 => &mut section.inactive,
            _ => &mut section.long,
        };
        generation.push_ip(key, i % NAMES);
    }
    let mut name_cname: StoreImage<NameColumns> = StoreImage::default();
    for i in 0..2_000u32 {
        name_cname.long.push((i, (i + 1) % NAMES));
    }
    DnsStoreImage {
        as_of: SimTime::from_secs(1),
        a_interval_secs: 3_600,
        c_interval_secs: 7_200,
        names,
        ip_name,
        name_cname,
    }
}

#[test]
fn a_decoded_image_costs_at_most_24_bytes_per_entry_beyond_its_names() {
    let image = image();
    let bytes = encode_snapshot(&image);
    let (decoded, allocated, _) = counted_decode(&bytes);
    let allocated = allocated as usize;
    assert_eq!(decoded.expect("the image decodes"), image);
    let text: usize = image.names.iter().map(|name| name.len()).sum();
    let per_entry = (allocated - text) as f64 / image.entry_count() as f64;
    assert!(
        per_entry <= 24.0,
        "decoding allocated {per_entry:.1} B per entry beyond the name text \
         ({allocated} B for {} entries and {text} B of names)",
        image.entry_count()
    );
}

/// Decode `bytes` while counting; returns the result, the bytes
/// allocated and the largest single allocation.
fn counted_decode(bytes: &[u8]) -> (Result<DnsStoreImage, flowdns_types::FlowDnsError>, u64, u64) {
    BYTES.with(|total| total.set(0));
    LARGEST.with(|largest| largest.set(0));
    COUNTING.with(|c| c.set(true));
    let decoded = decode_snapshot(bytes);
    COUNTING.with(|c| c.set(false));
    (decoded, BYTES.with(Cell::get), LARGEST.with(Cell::get))
}

#[test]
fn a_column_count_of_u32_max_is_rejected_without_a_large_allocation() {
    // The payload's last column is the NAME-CNAME Long one: its count
    // sits just before its entries at the end of the file.
    let image = image();
    let mut bytes = encode_snapshot(&image);
    let column = bytes.len() - 8 * image.name_cname.long.len() - 4;
    assert_eq!(
        bytes[column..column + 4],
        (image.name_cname.long.len() as u32).to_le_bytes()
    );
    bytes[column..column + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // Re-sign the payload, so only the decoder's own bounds stand between
    // the count and an allocation.
    let sum = checksum(&bytes[HEADER_LEN..]);
    bytes[20..28].copy_from_slice(&sum.to_le_bytes());
    let payload = (bytes.len() - HEADER_LEN) as u64;
    let (decoded, _, largest) = counted_decode(&bytes);
    match decoded {
        Err(flowdns_types::FlowDnsError::Snapshot(msg)) => {
            assert!(msg.contains("implausible element count"), "{msg}")
        }
        other => panic!("expected a count rejection, got {other:?}"),
    }
    assert!(
        largest <= payload,
        "the decoder allocated {largest} B at once for a {payload} B payload"
    );
}
