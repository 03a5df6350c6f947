//! The byte gate of a decoded snapshot: an image costs at most 24 bytes
//! per entry beyond its name text, all allocations included (columns,
//! the name table's handles and headers).
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
//! A counting `#[global_allocator]` tallies the bytes requested by the
//! measuring thread only, so the test harness's own threads cannot leak
//! into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flowdns_snapshot::{decode_snapshot, encode_snapshot, DnsStoreImage, StoreImage};
use flowdns_types::{IpKey, SimTime};

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn note(&self, bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down, when the flag is gone (and nobody is measuring).
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
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
    let mut ip_name = vec![StoreImage::default(), StoreImage::default()];
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
    let mut name_cname = StoreImage::default();
    for i in 0..2_000u32 {
        name_cname.long.names.push((i, (i + 1) % NAMES));
    }
    DnsStoreImage {
        as_of: SimTime::from_secs(1),
        num_split: 1,
        shards: 2,
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
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let decoded = decode_snapshot(&bytes);
    COUNTING.with(|c| c.set(false));
    let allocated = BYTES.load(Ordering::Relaxed) as usize;
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
