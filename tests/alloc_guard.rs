//! The TCP byte path's copy discipline (DESIGN.md §17), pinned by exact
//! allocator counts instead of wall-clock: a bulk transfer allocates
//! little more than the application's own send buffers, and nothing of
//! segment size per segment sent.
//!
//! This binary has its own counting `#[global_allocator]` and a single
//! test, so the counters see the simulation and nothing else.

use lrp::core::{Architecture, CcAlgo};
use lrp::experiments::fault_sweep;
use lrp::net::FaultPlan;
use lrp::sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes moved per architecture.
const TOTAL: usize = 4 << 20;
/// The default MSS: a full segment's payload buffer is exactly this, its
/// frame this plus 40 bytes of IP and TCP header.
const MSS: usize = 9140;

// Relaxed: the counters are statistics that publish no other data.
static BYTES: AtomicU64 = AtomicU64::new(0);
static SEGMENT_SIZED: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if (MSS..=MSS + 44).contains(&size) {
        SEGMENT_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator and `new_size`
        // obeys the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn bulk_transfer_allocates_per_send_not_per_segment() {
    for arch in [
        Architecture::Bsd,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (mut world, metrics) =
            fault_sweep::build_cc(arch, CcAlgo::NewReno, FaultPlan::none(), TOTAL);
        let (bytes0, segs0) = (
            BYTES.load(Ordering::Relaxed),
            SEGMENT_SIZED.load(Ordering::Relaxed),
        );
        world.run_until(SimTime::from_secs(30));
        let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
        let segment_sized = SEGMENT_SIZED.load(Ordering::Relaxed) - segs0;
        let m = metrics.borrow();
        assert!(
            m.done && m.bytes == TOTAL as u64,
            "{arch:?}: transfer incomplete"
        );

        // The sender's `vec![..; 16 KiB]` per send is 1.0 of this, the
        // world's fixed structures and per-event small change another
        // 0.55 at this transfer size; a copy into a fresh `Vec` anywhere
        // on the path (send-buffer peek, receive-buffer read) would add
        // 1.0 each, as both did before the arena backed them (3.56).
        let per_byte = bytes as f64 / TOTAL as f64;
        assert!(
            per_byte <= 2.0,
            "{arch:?}: {per_byte:.3} bytes allocated per payload byte delivered"
        );
        // Payload scratch and frame buffers come from the arena: a few
        // while it warms up, not one per segment.
        let segments = (TOTAL / MSS) as u64;
        assert!(
            segment_sized <= 16,
            "{arch:?}: {segment_sized} segment-sized allocations for {segments} segments"
        );
    }
}
