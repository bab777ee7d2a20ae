//! A counting global allocator: every allocation the benchmark process
//! makes is tallied, so `allocs_per_event` is a count, not an estimate,
//! and so is the most memory the process ever held (`peak_heap_mb`).
//!
//! It is on in every rep of every run, so two commits measured with this
//! binary pay the same few relaxed adds per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus four counters.
pub struct Counting;

// Relaxed: the counters are statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `n` more bytes are held.
fn took(n: usize) {
    let live = LIVE.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
    // The plain load keeps the compare-and-swap off the steady state.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// `n` bytes were given back.
fn gave(n: usize) {
    LIVE.fetch_sub(n as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        took(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        gave(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        took(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still asks the allocator for memory: count it
        // as one allocation of the new size.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // Held is the new size whether the block moved or grew in place.
        if new_size >= layout.size() {
            took(new_size - layout.size());
        } else {
            gave(layout.size() - new_size);
        }
        // SAFETY: `ptr`/`layout` came from this allocator and `new_size`
        // obeys the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The most bytes held at once since process start.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// `(allocations, bytes requested)` since process start.
pub fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
