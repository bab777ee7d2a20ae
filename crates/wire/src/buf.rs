//! Arena-backed frame bytes.
//!
//! [`FrameBuf`] is the byte storage behind [`crate::Frame`]: an
//! `Rc<PooledBuf>` drawn from a thread-local [`FrameArena`]. Cloning a
//! frame — fan-out, duplication faults, capture — is a reference-count
//! bump instead of a full byte copy. The `Rc` is the buffer's one
//! identity: its strong count decides when the buffer comes back, so
//! when the last reference drops, both the byte vector and the `Rc` box
//! go back to the arena for the next packet, exactly once, and
//! steady-state traffic leaves the allocator alone.
//!
//! A [`FrameSlice`] is a byte range of one, held by reference: the unit
//! a TCP socket buffer queues, so payload bytes stay where they arrived
//! (or where the application built them) until they are copied out.
//!
//! The buffer is immutable through `Deref`; the rare writer (fault
//! injection corrupting a byte) goes through [`FrameBuf::make_mut`],
//! which copies only when the bytes are shared. Equality is by content,
//! so swapping `Vec<u8>` for `FrameBuf` changes no observable
//! behaviour.
//!
//! A buffer carries one more bit: the *TCP-summed mark*, which says
//! "these bytes are exactly an IPv4+TCP datagram whose TCP checksum the
//! framer wrote, and nothing has written to them since". Only the TCP
//! framer ([`crate::tcp::PayloadBuf::frame`]) sets it, on storage it
//! alone owns, and [`FrameArena::adopt`] starts every checkout unmarked.
//! Every path to `&mut` bytes clears it: [`FrameBuf::get_mut`],
//! [`FrameBuf::make_mut`] and [`FrameSlice::extend_in_place`] (a copy
//! made for a shared buffer starts unmarked; the original keeps its mark
//! and its bytes). Nothing outside this crate can set it, so
//! [`crate::tcp::verify_segment`] may trust it and skip summing a whole
//! segment that carries it (Linux's `CHECKSUM_UNNECESSARY` for loopback):
//! the sum cannot fail.

use crate::arena::{ArenaStats, FrameArena, PooledBuf};
use std::cell::RefCell;
use std::rc::Rc;

thread_local! {
    static ARENA: RefCell<FrameArena> = const { RefCell::new(FrameArena::new()) };
}

/// Counters for this thread's frame arena (reuse rate, live buffers).
pub fn frame_arena_stats() -> ArenaStats {
    ARENA.with_borrow(FrameArena::stats)
}

/// Takes empty scratch storage with at least `cap` capacity from the
/// arena.
///
/// Packet builders and the TCP machine's payload and read buffers use
/// this instead of `Vec::with_capacity` so their storage participates in
/// recycling. Hand the result to a [`FrameBuf`] (via `into()`) or back to
/// [`recycle`]; one that is simply dropped is freed, nothing leaks.
pub fn storage(cap: usize) -> Vec<u8> {
    ARENA.with_borrow_mut(|a| a.take_storage(cap))
}

/// Returns scratch storage that did not become a frame.
pub fn recycle(v: Vec<u8>) {
    // During thread teardown the arena may already be gone; the storage
    // then just frees normally.
    let _ = ARENA.try_with(|a| a.borrow_mut().give_storage(v));
}

/// `len` copies of `byte` in arena storage: a send payload that goes back
/// to the arena, for the next one, when the kernel drops it.
pub fn filled(len: usize, byte: u8) -> FrameBuf {
    let mut v = storage(len);
    v.resize(len, byte);
    FrameBuf::from_vec(v)
}

/// Shared, arena-backed, content-compared frame bytes.
///
/// The inner `Option` is an implementation detail of the destructor
/// (it moves the `Rc` out to reclaim it); it is `Some` at every other
/// moment of the buffer's life.
pub struct FrameBuf(Option<Rc<PooledBuf>>);

impl FrameBuf {
    /// Wraps a byte vector without copying; the storage joins the
    /// arena's recycle cache when the last clone drops.
    pub fn from_vec(v: Vec<u8>) -> Self {
        FrameBuf(Some(ARENA.with_borrow_mut(|a| a.adopt(v))))
    }

    /// Wraps a datagram the TCP framer has just built and summed, with
    /// the TCP-summed mark set.
    pub(crate) fn framed_tcp(v: Vec<u8>) -> Self {
        let mut buf = FrameBuf::from_vec(v);
        Rc::get_mut(buf.0.as_mut().expect("live"))
            .expect("a fresh buffer is unique")
            .mark_tcp_summed();
        buf
    }

    #[inline]
    fn inner(&self) -> &Rc<PooledBuf> {
        self.0.as_ref().expect("live FrameBuf always holds its Rc")
    }

    /// The frame bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.inner().bytes()
    }

    /// Mutable access, copy-on-write: clones the bytes first if any
    /// other `FrameBuf` shares them. Clears the TCP-summed mark (a copy
    /// never had it).
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if self.get_mut().is_none() {
            let mut copy = storage(self.bytes().len());
            copy.extend_from_slice(self.bytes());
            *self = FrameBuf::from_vec(copy);
        }
        self.get_mut().expect("unique after copy")
    }

    /// Mutable access without a copy: `None` while any other `FrameBuf`
    /// shares the bytes. Clears the TCP-summed mark.
    pub fn get_mut(&mut self) -> Option<&mut Vec<u8>> {
        Rc::get_mut(self.0.as_mut().expect("live")).map(PooledBuf::vec_mut)
    }

    /// True if both handles share the same storage (for tests asserting
    /// that a clone did not copy).
    pub fn ptr_eq(a: &FrameBuf, b: &FrameBuf) -> bool {
        Rc::ptr_eq(a.inner(), b.inner())
    }
}

impl Clone for FrameBuf {
    #[inline]
    fn clone(&self) -> Self {
        FrameBuf(Some(Rc::clone(self.inner())))
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        if let Some(rc) = self.0.take() {
            // During thread teardown the arena may already be gone; the
            // buffer then just frees normally.
            let _ = ARENA.try_with(|a| a.borrow_mut().reclaim(rc));
        }
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.inner().bytes()
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(v: Vec<u8>) -> Self {
        FrameBuf::from_vec(v)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(s: &[u8]) -> Self {
        let mut v = storage(s.len());
        v.extend_from_slice(s);
        FrameBuf::from_vec(v)
    }
}

/// A byte range of a shared [`FrameBuf`]: the unit a socket buffer
/// queues (4.4BSD's mbuf pointing into a cluster).
///
/// Cloning, trimming and queueing a slice move a reference, never the
/// bytes; [`Deref`](std::ops::Deref) yields exactly the range.
#[derive(Clone)]
pub struct FrameSlice {
    buf: FrameBuf,
    start: usize,
    end: usize,
}

impl FrameSlice {
    /// The bytes `range` of `buf`, held by reference.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not within `buf`.
    pub fn new(buf: FrameBuf, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "slice {range:?} outside a {}-byte buffer",
            buf.len()
        );
        FrameSlice {
            buf,
            start: range.start,
            end: range.end,
        }
    }

    /// The buffer the slice points into.
    pub fn buf(&self) -> &FrameBuf {
        &self.buf
    }

    /// Drops the first `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the slice.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance beyond slice");
        self.start += n;
    }

    /// Keeps only the first `n` bytes (no-op if the slice is shorter).
    pub fn truncate(&mut self, n: usize) {
        self.end = self.end.min(self.start + n);
    }

    /// True if the slice is exactly the TCP segment of a datagram the
    /// TCP framer built, which nothing has written to since: its buffer
    /// carries the TCP-summed mark and the slice runs from the end of
    /// the (option-free) IP header to the end of the buffer.
    pub(crate) fn is_framed_tcp_segment(&self) -> bool {
        self.buf.inner().tcp_summed()
            && self.start == crate::ipv4::HEADER_LEN
            && self.end == self.buf.len()
    }

    /// Appends as much of `bytes` as fits in place: only when the slice
    /// ends its buffer, no other `FrameBuf` shares the buffer, and its
    /// storage has spare capacity (it never grows). Returns the number
    /// of bytes appended. On an unshared buffer it clears the buffer's
    /// TCP-summed mark, even when nothing fits.
    pub fn extend_in_place(&mut self, bytes: &[u8]) -> usize {
        if self.end != self.buf.len() {
            return 0;
        }
        let Some(v) = self.buf.get_mut() else {
            return 0;
        };
        let n = bytes.len().min(v.capacity() - v.len());
        v.extend_from_slice(&bytes[..n]);
        self.end += n;
        n
    }
}

impl std::ops::Deref for FrameSlice {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl From<&[u8]> for FrameSlice {
    /// A copy of `bytes` in arena storage.
    fn from(bytes: &[u8]) -> Self {
        let buf = FrameBuf::from(bytes);
        FrameSlice::new(buf, 0..bytes.len())
    }
}

impl std::fmt::Debug for FrameSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(self.inner(), other.inner()) || self.bytes() == other.bytes()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.bytes() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.bytes() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FrameBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.bytes() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.bytes() == other.as_slice()
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Same rendering as Vec<u8> so debug output is unchanged.
        std::fmt::Debug::fmt(self.bytes(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a: FrameBuf = vec![1u8, 2, 3].into();
        let b = a.clone();
        assert!(FrameBuf::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(&*a, &[1, 2, 3]);
    }

    #[test]
    fn make_mut_copies_only_when_shared() {
        let mut a: FrameBuf = vec![1u8, 2, 3].into();
        let b = a.clone();
        a.make_mut()[0] = 9;
        assert_eq!(&*a, &[9, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3], "shared clone untouched");
        assert!(!FrameBuf::ptr_eq(&a, &b));
        // Unshared: mutation in place, no copy.
        let p = a.bytes().as_ptr();
        a.make_mut()[1] = 8;
        assert_eq!(a.bytes().as_ptr(), p);
    }

    #[test]
    fn equality_is_by_content() {
        let a: FrameBuf = vec![5u8, 6].into();
        let b: FrameBuf = vec![5u8, 6].into();
        assert_eq!(a, b);
        assert!(!FrameBuf::ptr_eq(&a, &b));
        let c: FrameBuf = vec![7u8].into();
        assert_ne!(a, c);
    }

    #[test]
    fn debug_matches_vec_rendering() {
        let a: FrameBuf = vec![1u8, 2].into();
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![1u8, 2]));
    }

    #[test]
    fn dropped_frames_recycle_their_rc_box() {
        let before = frame_arena_stats();
        let a: FrameBuf = vec![0u8; 256].into();
        drop(a);
        let _b: FrameBuf = vec![1u8, 2].into();
        let after = frame_arena_stats();
        assert!(
            after.checkouts - after.boxes.made > before.checkouts - before.boxes.made,
            "second frame reused the first frame's Rc box"
        );
        assert_eq!(after.boxes.live(), before.boxes.live() + 1);
    }

    #[test]
    fn filled_payload_storage_comes_back_for_the_next() {
        let a = filled(300, 7);
        assert_eq!(a, [7u8; 300]);
        let p = a.bytes().as_ptr();
        drop(a);
        let b = filled(300, 9);
        assert_eq!(b, [9u8; 300]);
        assert_eq!(b.bytes().as_ptr(), p, "the next payload reused the storage");
    }

    #[test]
    fn slices_share_and_trim_without_copying() {
        let a: FrameBuf = b"headerpayload".to_vec().into();
        let mut s = FrameSlice::new(a.clone(), 6..13);
        assert_eq!(&*s, b"payload");
        assert!(FrameBuf::ptr_eq(s.buf(), &a));
        s.advance(3);
        s.truncate(2);
        assert_eq!(&*s, b"lo");
        assert_eq!(format!("{s:?}"), format!("{:?}", b"lo"));
    }

    #[test]
    fn extend_in_place_only_at_the_unshared_end_with_room() {
        let mut v = storage(8);
        v.extend_from_slice(b"ab");
        let cap = v.capacity();
        let mut s = FrameSlice::new(FrameBuf::from_vec(v), 0..2);
        let other = s.buf().clone();
        assert_eq!(s.extend_in_place(b"cd"), 0, "shared");
        drop(other);
        assert_eq!(s.extend_in_place(b"cd"), 2);
        assert_eq!(&*s, b"abcd");
        let fill = vec![b'x'; cap];
        assert_eq!(s.extend_in_place(&fill), cap - 4, "never grows the storage");
        assert_eq!(s.buf().len(), cap);
        let mut head = FrameSlice::new(s.buf().clone(), 0..1);
        drop(s);
        assert_eq!(head.extend_in_place(b"z"), 0, "does not end its buffer");
    }

    #[test]
    fn shared_drop_keeps_buffer_live() {
        let before = frame_arena_stats();
        let a: FrameBuf = vec![1u8].into();
        let b = a.clone();
        drop(a);
        assert_eq!(&*b, &[1], "still readable after co-owner dropped");
        let mid = frame_arena_stats();
        assert_eq!(
            mid.boxes.live(),
            before.boxes.live() + 1,
            "no retire while shared"
        );
        drop(b);
        assert_eq!(frame_arena_stats().boxes.live(), before.boxes.live());
    }
}
