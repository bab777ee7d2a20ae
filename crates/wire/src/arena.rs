//! The frame arena: free lists of byte vectors in exact size classes,
//! and of the reference-counted boxes that wrap them.
//!
//! 4.4BSD keeps every packet in mbufs drawn from a global pool; the
//! simulator keeps every frame and UDP payload in buffers drawn from a
//! [`FrameArena`]. Both halves of a buffer — the byte vector *and* the
//! `Rc` box around it — are recycled, so steady-state frame traffic does
//! no allocator work at all. [`crate::buf`] is the arena's one front end:
//! it keeps one arena per thread, and says what a buffer's `Rc` and its
//! TCP-summed mark mean.
//!
//! Storage comes in size classes, eight per power of two, as 4.4BSD's
//! mbufs and clusters come in fixed sizes: a request is rounded up to
//! its class (at most 12.5 % more) and allocated at exactly the class
//! size, and a returned vector is filed under the largest class its
//! capacity covers, so whatever a class hands out fits.
//!
//! The `Rc` boxes are kept in a [`SpareList`], so cached plus live boxes
//! never exceed the most buffers ever live at once: a burst (a SYN
//! flood's stalled channels) leaves its boxes for the next one. Cached
//! byte vectors are bounded by their total capacity, `MAX_CACHED_BYTES`.
//!
//! The arena holds no back-pointers: a checked-out `Rc<PooledBuf>` is
//! plain data, so the arena is touched only at checkout and return, never
//! on the data path.
//!
//! # Examples
//!
//! ```
//! use lrp_wire::arena::FrameArena;
//!
//! let mut arena = FrameArena::new();
//! let mut v = arena.take_storage(1500);
//! v.extend_from_slice(b"frame bytes");
//! let buf = arena.adopt(v);
//! assert_eq!(buf.bytes(), b"frame bytes");
//! arena.reclaim(buf);
//! // The next frame of the same size reuses the bytes and the box.
//! let v = arena.take_storage(1500);
//! let again = arena.adopt(v);
//! let s = arena.stats();
//! assert_eq!((s.storage_allocs, s.boxes.made, s.boxes.live()), (1, 1, 1));
//! arena.reclaim(again);
//! ```

use crate::spare::{SpareList, SpareStats};
use std::rc::Rc;

/// Capacity of all cached byte vectors together, per arena: the one
/// bound on cached storage. Beyond it a returned vector is simply
/// dropped.
const MAX_CACHED_BYTES: usize = 4 << 20;

/// Classes per power of two, as a shift: capacities `2^k ..= 2^(k+1) - 1`
/// split into eight classes `2^(k-3)` apart.
const CLASS_BITS: u32 = 3;

/// Size classes kept: every capacity below 128 KiB, past the largest IP
/// datagram, belongs to one; larger vectors are not cached.
const CLASSES: usize = class(MAX_CLASSED);

/// The first capacity with no class.
const MAX_CLASSED: usize = 1 << 17;

/// The class of a vector of `capacity` (non-zero) bytes: the largest
/// class size not above it. Below 16 bytes every size is a class.
const fn class(capacity: usize) -> usize {
    let k = capacity.ilog2();
    if k <= CLASS_BITS {
        return capacity;
    }
    let shift = k - CLASS_BITS;
    ((shift as usize) << CLASS_BITS) + (capacity >> shift)
}

/// `capacity` (non-zero) rounded up to a class size.
fn class_size(capacity: usize) -> usize {
    let k = capacity.ilog2();
    if k <= CLASS_BITS {
        return capacity;
    }
    let step = 1 << (k - CLASS_BITS);
    capacity.next_multiple_of(step)
}

/// Per-arena counters, for tests and the bench report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out.
    pub checkouts: u64,
    /// The `Rc` boxes: `made` is the checkouts that allocated one,
    /// `pooled` the boxes cached, and `live()` the buffers checked out.
    pub boxes: SpareStats,
    /// Scratch requests the recycle cache could not serve: the request's
    /// size class was empty. Zero growth over a steady-state run is the
    /// point of the classes.
    pub storage_allocs: u64,
    /// Capacity of all cached byte vectors together.
    pub cached_bytes: usize,
}

/// An arena-owned byte buffer: storage plus the TCP-summed mark (see
/// [`crate::buf`]).
///
/// Plain data — no destructor, no arena pointer. Wrap it in `Rc` for
/// sharing; hand the `Rc` back via [`FrameArena::reclaim`] when done.
/// Only an arena makes one, so every box the arena caches is one it
/// handed out.
#[derive(Debug)]
pub struct PooledBuf {
    storage: Vec<u8>,
    /// The TCP-summed mark.
    tcp_summed: bool,
}

impl PooledBuf {
    /// Unmarked storage.
    fn new(storage: Vec<u8>) -> Self {
        PooledBuf {
            storage,
            tcp_summed: false,
        }
    }

    /// The buffer contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.storage
    }

    /// Mutable access to the underlying vector. Clears the TCP-summed
    /// mark: the caller may change the bytes.
    #[inline]
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        self.tcp_summed = false;
        &mut self.storage
    }

    /// True if the TCP framer checksummed these bytes and nothing has
    /// had mutable access to them since.
    #[inline]
    pub fn tcp_summed(&self) -> bool {
        self.tcp_summed
    }

    /// Sets the TCP-summed mark. For the TCP framer, which calls it on a
    /// buffer it has just filled and holds uniquely.
    pub(crate) fn mark_tcp_summed(&mut self) {
        self.tcp_summed = true;
    }
}

/// A freelist arena of reusable frame buffers.
#[derive(Debug)]
pub struct FrameArena {
    /// Recycled byte vectors (empty, capacity kept) by size class, ready
    /// to hand out.
    raw_cache: [Vec<Vec<u8>>; CLASSES],
    /// Recycled `Rc` boxes (strong count 1, storage already moved to
    /// `raw_cache`), ready to wrap new bytes.
    boxes: SpareList<Rc<PooledBuf>>,
    checkouts: u64,
    storage_allocs: u64,
    cached_bytes: usize,
}

impl FrameArena {
    /// Creates an empty arena.
    pub const fn new() -> Self {
        FrameArena {
            raw_cache: [const { Vec::new() }; CLASSES],
            boxes: SpareList::new(),
            checkouts: 0,
            storage_allocs: 0,
            cached_bytes: 0,
        }
    }

    /// Wraps a byte vector in an arena-tracked shared buffer without
    /// copying it. Reuses a cached `Rc` box when one is available, so in
    /// steady state this allocates nothing.
    pub fn adopt(&mut self, storage: Vec<u8>) -> Rc<PooledBuf> {
        self.checkouts += 1;
        let mut rc = self
            .boxes
            .take_or_make(|| Rc::new(PooledBuf::new(Vec::new())));
        *Rc::get_mut(&mut rc).expect("cached Rc is unique") = PooledBuf::new(storage);
        rc
    }

    /// Returns a buffer whose caller-side references are gone.
    ///
    /// If `rc` is the last reference, the bytes join the storage cache
    /// and the box the box cache; otherwise only this reference is
    /// released (the eventual last holder reclaims).
    pub fn reclaim(&mut self, mut rc: Rc<PooledBuf>) {
        let Some(buf) = Rc::get_mut(&mut rc) else {
            return; // Still shared: just drop this reference.
        };
        let storage = std::mem::take(&mut buf.storage);
        self.give_storage(storage);
        self.boxes.give(rc);
    }

    /// Takes empty scratch storage with `cap` capacity — for builders
    /// that assemble bytes before handing the vector to [`Self::adopt`].
    pub fn take_storage(&mut self, capacity: usize) -> Vec<u8> {
        if capacity == 0 {
            return Vec::new();
        }
        let size = class_size(capacity);
        if let Some(v) = self.raw_cache.get_mut(class(size)).and_then(Vec::pop) {
            // A pool keeps capacity, never content: no byte of a frame
            // given back may reach the next one.
            debug_assert!(v.is_empty(), "a cached frame vector kept its bytes");
            self.cached_bytes -= v.capacity();
            return v;
        }
        self.storage_allocs += 1;
        Vec::with_capacity(size)
    }

    /// Returns scratch storage taken with [`Self::take_storage`] that
    /// never became a buffer (e.g. an intermediate builder layer).
    pub fn give_storage(&mut self, mut storage: Vec<u8>) {
        let capacity = storage.capacity();
        if capacity == 0 || self.cached_bytes + capacity > MAX_CACHED_BYTES {
            return;
        }
        if let Some(stack) = self.raw_cache.get_mut(class(capacity)) {
            storage.clear();
            stack.push(storage);
            self.cached_bytes += capacity;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            checkouts: self.checkouts,
            boxes: self.boxes.stats(),
            storage_allocs: self.storage_allocs,
            cached_bytes: self.cached_bytes,
        }
    }
}

impl Default for FrameArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adopt_wraps_without_copying() {
        let mut arena = FrameArena::new();
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr();
        let buf = arena.adopt(v);
        assert_eq!(buf.bytes(), &[1, 2, 3]);
        assert_eq!(buf.bytes().as_ptr(), ptr);
        let s = arena.stats();
        assert_eq!((s.checkouts, s.boxes.live(), s.boxes.made), (1, 1, 1));
    }

    #[test]
    fn reclaim_recycles_the_rc_box() {
        let mut arena = FrameArena::new();
        let a = arena.adopt(vec![0u8; 64]);
        let box_addr = Rc::as_ptr(&a) as usize;
        arena.reclaim(a);
        let s = arena.stats();
        assert_eq!((s.boxes.live(), s.boxes.pooled), (0, 1));
        let b = arena.adopt(vec![9u8]);
        assert_eq!(Rc::as_ptr(&b) as usize, box_addr, "Rc box reused");
        assert_eq!(b.bytes(), &[9]);
        assert_eq!(arena.stats().boxes.made, 1);
    }

    #[test]
    fn shared_reclaim_releases_without_retiring() {
        let mut arena = FrameArena::new();
        let a = arena.adopt(vec![1u8, 2]);
        let b = Rc::clone(&a);
        arena.reclaim(a);
        assert_eq!(arena.stats().boxes.pooled, 0, "still shared — no retire");
        assert_eq!(b.bytes(), &[1, 2]);
        arena.reclaim(b);
        let s = arena.stats();
        assert_eq!((s.boxes.live(), s.boxes.pooled), (0, 1));
    }

    #[test]
    fn the_mark_clears_on_mutable_access_and_on_reuse() {
        let mut arena = FrameArena::new();
        let mut a = arena.adopt(vec![1u8, 2]);
        assert!(!a.tcp_summed(), "checkouts start unmarked");
        let buf = Rc::get_mut(&mut a).expect("unique");
        buf.mark_tcp_summed();
        assert!(buf.tcp_summed());
        buf.vec_mut();
        assert!(!buf.tcp_summed(), "mutable access clears the mark");
        buf.mark_tcp_summed();
        arena.reclaim(a);
        let b = arena.adopt(vec![3u8]);
        assert_eq!(arena.stats().boxes.made, 1, "the box was reused");
        assert!(!b.tcp_summed(), "a reused box starts unmarked");
    }

    #[test]
    fn a_frame_costs_no_more_than_its_storage_and_mark() {
        assert!(std::mem::size_of::<PooledBuf>() <= 32);
    }

    #[test]
    fn take_and_give_storage_round_trip() {
        let mut arena = FrameArena::new();
        let mut v = arena.take_storage(32);
        assert!(v.is_empty() && v.capacity() >= 32);
        v.extend_from_slice(b"abc");
        arena.give_storage(v);
        let w = arena.take_storage(4);
        assert!(w.is_empty(), "recycled scratch comes back empty");
    }

    #[test]
    fn small_request_after_large_return_takes_the_small_buffer() {
        let mut arena = FrameArena::new();
        let small = arena.take_storage(40);
        let large = arena.take_storage(9180);
        let (small_ptr, large_ptr) = (small.as_ptr(), large.as_ptr());
        // The MSS-sized buffer comes back last: a size-blind stack would
        // hand it to the next request whatever its size.
        arena.give_storage(small);
        arena.give_storage(large);
        let ack = arena.take_storage(40);
        assert_eq!(
            ack.as_ptr(),
            small_ptr,
            "ACK-sized request got the ACK-sized buffer"
        );
        let data = arena.take_storage(9180);
        assert_eq!(data.as_ptr(), large_ptr);
        assert_eq!(arena.stats().storage_allocs, 2, "only the two fresh ones");
    }

    #[test]
    fn ack_data_interleave_allocates_nothing_after_warm_up() {
        let mut arena = FrameArena::new();
        let cycle = |arena: &mut FrameArena, len: usize| {
            let mut v = arena.take_storage(len);
            assert_eq!(v.capacity(), class_size(len), "no drift");
            v.resize(len, 0xBB);
            // In flight together, as a data frame and the ACK it draws.
            let frame = arena.adopt(v);
            let mut w = arena.take_storage(40);
            w.resize(40, 0);
            let ack = arena.adopt(w);
            arena.reclaim(frame);
            arena.reclaim(ack);
        };
        cycle(&mut arena, 9180);
        let warm = arena.stats();
        for _ in 0..500 {
            cycle(&mut arena, 9180);
        }
        let s = arena.stats();
        assert_eq!(
            s.storage_allocs, warm.storage_allocs,
            "no growth, no fresh storage"
        );
        assert_eq!(s.boxes.made, warm.boxes.made, "no fresh Rc box");
        assert_eq!(s.checkouts - warm.checkouts, 1000);
    }

    #[test]
    fn classes_tile_the_sizes_eight_to_a_power_of_two() {
        assert_eq!(class_size(9180), 9216, "an MTU frame");
        assert_eq!((class_size(40), class_size(44)), (40, 44));
        assert_eq!((class_size(65_536), class_size(65_537)), (65_536, 73_728));
        for c in 1..MAX_CLASSED {
            let size = class_size(c);
            assert!(size >= c && size * 8 <= c * 9, "{c} rounds to {size}");
            assert_eq!(class_size(size), size, "a class size is its own class");
            assert!(class(c) <= class(size), "{c} files at or below its take");
            if c > 1 {
                assert!(class(c - 1) <= class(c), "classes ascend");
            }
        }
        assert_eq!(class(MAX_CLASSED - 1), CLASSES - 1);
    }

    #[test]
    fn a_vector_files_under_the_largest_class_it_covers() {
        let mut arena = FrameArena::new();
        // 9 180 bytes fall between the 8 192 and 9 216 classes: the
        // vector serves an 8 192-byte request, never a 9 216-byte one.
        arena.give_storage(Vec::with_capacity(9180));
        let v = arena.take_storage(9000);
        assert_eq!(v.capacity(), 9216, "not from the smaller vector");
        assert_eq!(arena.stats().storage_allocs, 1);
        let w = arena.take_storage(8192);
        assert_eq!(w.capacity(), 9180);
        assert_eq!(arena.stats().storage_allocs, 1);
    }

    #[test]
    fn retained_bytes_are_bounded() {
        let mut arena = FrameArena::new();
        for _ in 0..MAX_CACHED_BYTES / 9216 + 10 {
            arena.give_storage(Vec::with_capacity(9216));
        }
        let s = arena.stats();
        assert!(s.cached_bytes <= MAX_CACHED_BYTES);
        assert!(
            s.cached_bytes > MAX_CACHED_BYTES - 9216,
            "filled to the bound"
        );
        // Oversized and empty vectors are never kept.
        arena.give_storage(Vec::with_capacity(MAX_CLASSED));
        arena.give_storage(Vec::new());
        assert_eq!(arena.stats().cached_bytes, s.cached_bytes);
        let v = arena.take_storage(9180);
        assert_eq!(arena.stats().cached_bytes, s.cached_bytes - v.capacity());
    }

    #[test]
    fn reclaimed_storage_serves_the_next_frame_of_its_size() {
        let mut arena = FrameArena::new();
        let mut v = arena.take_storage(1500);
        v.resize(1500, 0xAA);
        let ptr = v.as_ptr();
        let buf = arena.adopt(v);
        arena.reclaim(buf);
        let w = arena.take_storage(1500);
        assert_eq!(w.as_ptr(), ptr, "the frame's bytes came back");
        assert!(w.is_empty());
        assert_eq!(arena.stats().storage_allocs, 1);
    }

    #[test]
    fn a_second_burst_reuses_all_the_first_one_held() {
        let mut arena = FrameArena::new();
        let burst = |arena: &mut FrameArena| {
            let frames: Vec<Rc<PooledBuf>> = (0..3_000)
                .map(|_| {
                    let mut v = arena.take_storage(60);
                    v.resize(60, 0x5A);
                    arena.adopt(v)
                })
                .collect();
            assert_eq!(arena.stats().boxes.live(), 3_000);
            for f in frames {
                arena.reclaim(f);
            }
        };
        burst(&mut arena);
        let first = arena.stats();
        assert_eq!(
            first.boxes.pooled, 3_000,
            "every box the burst held is kept"
        );
        burst(&mut arena);
        let s = arena.stats();
        assert_eq!(s.boxes.made, first.boxes.made, "no fresh Rc box");
        assert_eq!(s.storage_allocs, first.storage_allocs, "no fresh storage");
        assert_eq!((s.boxes.live(), s.boxes.pooled), (0, 3_000));
    }

    #[test]
    fn cached_boxes_never_outnumber_the_peak_live() {
        let mut arena = FrameArena::new();
        let mut held: Vec<Rc<PooledBuf>> = (0..10).map(|_| arena.adopt(Vec::new())).collect();
        held.drain(..5).for_each(|b| arena.reclaim(b));
        held.extend((0..3).map(|_| arena.adopt(Vec::new())));
        let s = arena.stats();
        assert_eq!((s.boxes.live(), s.boxes.pooled, s.boxes.made), (8, 2, 10));
        held.into_iter().for_each(|b| arena.reclaim(b));
        let s = arena.stats();
        assert_eq!(
            (s.boxes.live(), s.boxes.pooled),
            (0, 10),
            "the peak, not every checkout"
        );
    }

    #[test]
    fn empty_request_takes_nothing_from_the_cache() {
        let mut arena = FrameArena::new();
        let small = Vec::with_capacity(1);
        let cached = small.capacity();
        arena.give_storage(small);
        let v = arena.take_storage(0);
        assert_eq!(v.capacity(), 0);
        let s = arena.stats();
        assert_eq!((s.storage_allocs, s.cached_bytes), (0, cached));
    }

    #[test]
    fn live_and_returns_balance() {
        let mut arena = FrameArena::new();
        let bufs: Vec<Rc<PooledBuf>> = (0..10).map(|i| arena.adopt(vec![i as u8])).collect();
        assert_eq!(arena.stats().boxes.live(), 10);
        for b in bufs {
            arena.reclaim(b);
        }
        let s = arena.stats();
        assert_eq!((s.boxes.live(), s.checkouts, s.boxes.pooled), (0, 10, 10));
    }
}
