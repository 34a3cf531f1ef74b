//! What the benchmark measures about its own process: heap allocations
//! (a counting global allocator) and resident memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, so a span can report how
/// many heap allocations the call it wraps made.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The process's peak resident set so far, in KiB (`VmHWM`).
///
/// Read from `/proc/self/status` rather than `getrusage`: a spawned
/// process's `ru_maxrss` starts at its parent's resident size, which
/// would make a fresh-process probe depend on who spawned it.
pub fn peak_rss_kib() -> Result<u64, String> {
    status_kib("VmHWM:")
}

/// The process's current resident set, in KiB (`VmRSS`).
pub fn rss_kib() -> Result<u64, String> {
    status_kib("VmRSS:")
}

fn status_kib(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("resident memory needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}
