//! The exact allocation gate of a warm start: importing a store image
//! makes no allocation per name or per entry, and grows no map by
//! doubling. An image and one four times its size — names, IP entries
//! and CNAME entries all scaled — must cost the same number of
//! allocations: a fixed handful of scratch vectors plus one reserve per
//! pool stripe (its index and its slot table) and per table.
//!
//! The per-name import this gate replaced fails it: its interner stripes
//! and its NAME-CNAME map grew by doubling as names and entries arrived,
//! so four times the image took a few more allocations per map.
//!
//! A counting `#[global_allocator]` tallies the allocations of the
//! measuring thread only, so the test harness's own threads cannot leak
//! into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flowdns_core::{CorrelatorConfig, ShardedStore};
use flowdns_snapshot::{DnsStoreImage, IpColumns, NameColumns, StoreImage};
use flowdns_types::{IpKey, SimTime};

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

const SHARDS: usize = 2;

fn config() -> CorrelatorConfig {
    CorrelatorConfig {
        correlator_shards: SHARDS,
        ..CorrelatorConfig::default()
    }
}

/// A current image (every generation loads as exported) of `scale`
/// units: 1,000 names, 2,000 IP entries per shard (IPv4 and IPv6 over
/// all three generations) and 800 CNAME entries per unit.
fn image(scale: usize) -> DnsStoreImage {
    let config = config();
    let as_of = SimTime::from_secs(100_000);
    fn clocked<C: Default>(as_of: SimTime) -> StoreImage<C> {
        StoreImage {
            last_clear_ts: Some(SimTime::from_secs(99_000)),
            last_seen_ts: Some(as_of),
            ..StoreImage::default()
        }
    }
    let names: Vec<Arc<str>> = (0..1_000 * scale)
        .map(|i| Arc::from(format!("edge{i}.cdn{}.example.net", i % 97)))
        .collect();
    let name_count = names.len() as u32;
    let ip_name = (0..SHARDS)
        .map(|shard| {
            let mut section: StoreImage<IpColumns> = clocked(as_of);
            for i in 0..2_000 * scale {
                let bits = (shard * 2_000 * scale + i) as u32;
                let key = if i % 3 == 0 {
                    IpKey::V6(0x2001_0db8_u128 << 96 | bits as u128)
                } else {
                    IpKey::V4(0x6440_0000 + bits)
                };
                let name = bits % name_count;
                match i % 4 {
                    0 | 1 => section.active.push_ip(key, name),
                    2 => section.inactive.push_ip(key, name),
                    _ => section.long.push_ip(key, name),
                }
            }
            section
        })
        .collect();
    let mut name_cname: StoreImage<NameColumns> = clocked(as_of);
    for i in 0..800 * scale as u32 {
        let entry = (i, (i + 1) % name_count);
        match i % 3 {
            0 => name_cname.active.push(entry),
            1 => name_cname.inactive.push(entry),
            _ => name_cname.long.push(entry),
        }
    }
    DnsStoreImage {
        as_of,
        a_interval_secs: config.a_clear_up_interval.as_secs(),
        c_interval_secs: config.c_clear_up_interval.as_secs(),
        names,
        ip_name,
        name_cname,
    }
}

/// Allocations made by importing `image` into a fresh store.
fn import_allocations(image: &DnsStoreImage) -> u64 {
    let store = ShardedStore::new(&config());
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let loaded = store.import_image(image, None);
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(loaded.expect("a valid image imports"), image.entry_count());
    assert_eq!(store.interned_names(), image.names.len());
    allocations
}

#[test]
fn import_allocations_do_not_grow_with_the_image() {
    let small = image(1);
    let large = image(4);
    assert_eq!(large.entry_count(), 4 * small.entry_count());
    let (at_1x, at_4x) = (import_allocations(&small), import_allocations(&large));
    assert_eq!(
        at_1x, at_4x,
        "importing 4× the image took {at_4x} allocations against {at_1x}"
    );
}
