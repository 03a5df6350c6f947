//! Process measurements read from `/proc`, and the one allocator call the
//! memory baseline needs.

use std::fs;

/// CPU time (user + system) of every live thread of this process, in
/// nanoseconds, from the scheduler's per-task run time.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| schedstat_ns(&task.path().join("schedstat")))
        .sum()
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns(std::path::Path::new("/proc/thread-self/schedstat"))
}

fn schedstat_ns(path: &std::path::Path) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resident set size of this process in MB.
pub fn rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Datagrams the kernel dropped at the UDP socket bound to `port`
/// (receive buffer full), from the `drops` column of `/proc/net/udp`.
pub fn udp_socket_drops(port: u16) -> u64 {
    let table = fs::read_to_string("/proc/net/udp").unwrap_or_default();
    let wanted = format!(":{port:04X}");
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            (cols.get(1)?.ends_with(&wanted)).then(|| cols.last()?.parse::<u64>().ok())?
        })
        .sum()
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs (of the first 64) this process was allowed when it first
/// asked, which must be before any thread is pinned.
pub fn allowed_cpus() -> &'static [u32] {
    static CPUS: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = 0u64;
        // SAFETY: `mask` is a live, writable 8-byte buffer and its size is
        // passed along; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, 8, &mut mask) } == 0;
        (0..64).filter(|cpu| ok && mask >> cpu & 1 == 1).collect()
    })
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// one CPU. Returns whether the kernel accepted it.
pub fn pin_to(cpu: u32) -> bool {
    let mask = 1u64 << cpu;
    // SAFETY: `mask` is a live 8-byte buffer and its size is passed along;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, 8, &mask) == 0 }
}

/// Return freed heap pages to the kernel, so that the resident-set
/// baseline taken after trace generation holds live data only and the
/// daemon's later growth is not hidden by reuse of the generator's garbage.
pub fn release_free_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator already holds as free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}
