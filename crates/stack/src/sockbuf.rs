//! Socket buffers: the BSD `sockbuf` in two flavours.
//!
//! [`DatagramQueue`] is the receive queue of a UDP socket: a bounded queue
//! of datagrams with byte accounting (`sbspace`). Packets arriving at a
//! full queue are dropped — under BSD this drop happens *after* all
//! protocol processing has been paid for, which is the waste LRP removes.
//!
//! [`ByteBuffer`] is the byte-stream buffer used by TCP for both send and
//! receive sides: a chain of shared arena slices, as 4.4BSD's mbuf chain.
//! Bytes enter by reference — the application's send payload, an arrived
//! frame's TCP payload (`sbappend`) — and leave by copy: a segment's
//! payload once from the chain into its frame's storage, a receive once
//! into the reader's storage (`soreceive`'s `uiomove`). 4.4BSD makes its
//! send-side copy earlier, in `sosend` (`uiomove` into clusters that
//! `tcp_output` then shares with `m_copy`); here the application's payload
//! already is arena storage, so the one send-side copy is the framing.
//! Either way a byte is copied once per side. Short appends are copied
//! into a tail buffer instead (`sbcompress`), which bounds the chain at
//! `limit / MIN_ADOPT + 2` slices.

use lrp_wire::tcp::PayloadBuf;
use lrp_wire::{Endpoint, FrameBuf, FrameSlice};
use std::collections::VecDeque;

/// Minimum buffer space one datagram occupies: a small packet still
/// consumes a whole mbuf, and BSD's `sbspace` accounts for that (`sb_mbcnt`
/// against `sb_mbmax`). This is what bounds the socket queue to a few
/// hundred small packets rather than thousands.
pub const DGRAM_MIN_SPACE: usize = 128;

/// A received datagram: source endpoint and payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Sender endpoint.
    pub from: Endpoint,
    /// Payload bytes (arena-backed: queueing and dequeueing a datagram
    /// moves a reference-counted buffer, never copies the bytes).
    pub payload: FrameBuf,
}

/// Statistics for a datagram queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DgramStats {
    /// Datagrams enqueued.
    pub enqueued: u64,
    /// Datagrams dropped because the buffer was full.
    pub dropped_full: u64,
    /// Datagrams dequeued by the application.
    pub dequeued: u64,
    /// Deepest the queue has ever been, in datagrams.
    pub peak_depth: u64,
}

/// A bounded queue of datagrams (UDP socket receive buffer).
#[derive(Debug)]
pub struct DatagramQueue {
    queue: VecDeque<Datagram>,
    bytes: usize,
    limit_bytes: usize,
    stats: DgramStats,
}

/// Default socket receive-buffer size (BSD default `sb_hiwat`).
pub const DEFAULT_SOCKBUF: usize = 41_600;

impl DatagramQueue {
    /// Creates a queue bounded at `limit_bytes` of payload.
    pub fn new(limit_bytes: usize) -> Self {
        DatagramQueue {
            queue: VecDeque::new(),
            bytes: 0,
            limit_bytes,
            stats: DgramStats::default(),
        }
    }

    /// Buffered payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of queued datagrams.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DgramStats {
        self.stats
    }

    /// Space remaining, in bytes (`sbspace`).
    pub fn space(&self) -> usize {
        self.limit_bytes.saturating_sub(self.bytes)
    }

    /// Enqueues a datagram; returns false (counting the drop) if it does
    /// not fit. Every datagram occupies at least [`DGRAM_MIN_SPACE`]
    /// (mbuf-granularity accounting, as in BSD's `sbspace`).
    pub fn enqueue(&mut self, dgram: Datagram) -> bool {
        let cost = dgram.payload.len().max(DGRAM_MIN_SPACE);
        if self.bytes + cost > self.limit_bytes {
            self.stats.dropped_full += 1;
            return false;
        }
        self.bytes += cost;
        self.queue.push_back(dgram);
        self.stats.enqueued += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.queue.len() as u64);
        true
    }

    /// Dequeues the oldest datagram.
    pub fn dequeue(&mut self) -> Option<Datagram> {
        let d = self.queue.pop_front()?;
        self.bytes -= d.payload.len().max(DGRAM_MIN_SPACE);
        self.stats.dequeued += 1;
        Some(d)
    }
}

/// Appends shorter than this are copied into the buffer's tail instead
/// of adopted by reference, and a short last slice is topped up to this
/// before anything is queued behind it: 4.4BSD's `sbcompress` rule
/// (copy an mbuf of at most `MCLBYTES / 4` into trailing space). Every
/// slice but the first and the last therefore holds at least this many
/// bytes, so a buffer never holds more than `limit / MIN_ADOPT + 2`
/// slices, however small the segments that filled it.
pub const MIN_ADOPT: usize = 512;

/// Capacity of a tail buffer the queue copies short appends into (an
/// `MCLBYTES` cluster).
const TAIL_CAP: usize = 2048;

/// A bounded FIFO byte buffer (TCP socket buffer): a queue of shared
/// arena slices, 4.4BSD's mbuf chain.
///
/// Bytes enter by reference — the application's send payload, an
/// arrived frame's TCP payload — and leave by copy: a segment's payload
/// is copied from the chain into its frame's storage, and a receive
/// copies into the reader's storage. So each payload byte is copied
/// once per side. `len`, `space` and `limit` count bytes exactly, as the
/// window arithmetic needs.
#[derive(Debug)]
pub struct ByteBuffer {
    slices: VecDeque<FrameSlice>,
    len: usize,
    limit: usize,
}

impl ByteBuffer {
    /// Creates a buffer bounded at `limit` bytes.
    pub fn new(limit: usize) -> Self {
        ByteBuffer {
            slices: VecDeque::new(),
            len: 0,
            limit,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space in bytes.
    pub fn space(&self) -> usize {
        self.limit - self.len
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Copies as much of `bytes` as fits into arena storage and appends
    /// it; returns the number appended.
    pub fn write(&mut self, bytes: &[u8]) -> usize {
        let n = bytes.len().min(self.space());
        self.adopt(FrameSlice::from(&bytes[..n]))
    }

    /// Appends as much of `data` as fits, by reference (a short run is
    /// copied instead, see [`MIN_ADOPT`]); returns the number appended.
    pub fn adopt(&mut self, mut data: FrameSlice) -> usize {
        data.truncate(self.space());
        let n = data.len();
        self.len += n;
        while !data.is_empty() {
            let copied = match self.slices.back_mut() {
                Some(last) if last.len() < MIN_ADOPT || data.len() < MIN_ADOPT => {
                    let want = if data.len() < MIN_ADOPT {
                        data.len()
                    } else {
                        MIN_ADOPT - last.len()
                    };
                    last.extend_in_place(&data[..want])
                }
                _ => 0,
            };
            if copied > 0 {
                data.advance(copied);
                continue;
            }
            // The last slice is the first one, or holds `MIN_ADOPT`
            // bytes: a short one behind the first is a tail buffer with
            // room to be topped up.
            if data.len() < MIN_ADOPT {
                let mut tail = lrp_wire::buf::storage(TAIL_CAP);
                tail.extend_from_slice(&data);
                let end = tail.len();
                data = FrameSlice::new(FrameBuf::from_vec(tail), 0..end);
            }
            self.slices.push_back(data);
            break;
        }
        n
    }

    /// The buffered bytes `[offset, offset + n)`, slice by slice.
    fn chunks(&self, mut offset: usize, mut n: usize) -> impl Iterator<Item = &[u8]> {
        assert!(offset + n <= self.len, "range beyond buffer");
        self.slices
            .iter()
            .map_while(move |s| {
                (n > 0).then(|| {
                    let from = offset.min(s.len());
                    offset -= from;
                    let take = n.min(s.len() - from);
                    n -= take;
                    &s[from..from + take]
                })
            })
            .filter(|c| !c.is_empty())
    }

    /// Removes and returns up to `n` bytes from the front, copied into
    /// arena storage (see [`lrp_wire::buf::storage`]).
    pub fn read(&mut self, n: usize) -> Vec<u8> {
        let take = n.min(self.len);
        let mut out = lrp_wire::buf::storage(take);
        for c in self.chunks(0, take) {
            out.extend_from_slice(c);
        }
        self.discard(take);
        out
    }

    /// Copies bytes `[offset, offset+n)` to the end of `out` without
    /// removing them: a segment's payload, straight into its frame's
    /// storage, for transmission and retransmission.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffered data.
    pub fn peek_into(&self, offset: usize, n: usize, out: &mut PayloadBuf) {
        for c in self.chunks(offset, n) {
            out.extend_from_slice(c);
        }
    }

    /// Discards `n` bytes from the front (data acknowledged by the peer,
    /// or read): whole slices are dropped, the last one trimmed.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the buffered data.
    pub fn discard(&mut self, n: usize) {
        assert!(n <= self.len, "discard beyond buffer");
        self.len -= n;
        let mut left = n;
        while left > 0 {
            let head = self
                .slices
                .front_mut()
                .expect("len counts the slices' bytes");
            if head.len() > left {
                head.advance(left);
                break;
            }
            left -= head.len();
            self.slices.pop_front();
        }
    }

    /// True if some buffered slice points into `buf` (for tests that a
    /// buffer holds bytes by reference).
    #[cfg(test)]
    pub(crate) fn holds(&self, buf: &FrameBuf) -> bool {
        self.slices.iter().any(|s| FrameBuf::ptr_eq(s.buf(), buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_wire::Ipv4Addr;
    use proptest::prelude::*;
    use proptest::sample::Index;

    fn from() -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1234)
    }

    #[test]
    fn dgram_queue_fifo() {
        let mut q = DatagramQueue::new(1000);
        q.enqueue(Datagram {
            from: from(),
            payload: b"a".to_vec().into(),
        });
        q.enqueue(Datagram {
            from: from(),
            payload: b"b".to_vec().into(),
        });
        assert_eq!(q.dequeue().unwrap().payload, b"a");
        assert_eq!(q.dequeue().unwrap().payload, b"b");
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn dgram_queue_byte_limit() {
        let mut q = DatagramQueue::new(300);
        assert!(q.enqueue(Datagram {
            from: from(),
            payload: vec![0; 200].into()
        }));
        assert!(!q.enqueue(Datagram {
            from: from(),
            payload: vec![0; 200].into()
        }));
        assert_eq!(q.stats().dropped_full, 1);
        assert_eq!(q.space(), 100);
        q.dequeue();
        assert!(q.enqueue(Datagram {
            from: from(),
            payload: vec![0; 200].into()
        }));
    }

    #[test]
    fn dgram_queue_tracks_peak_depth() {
        let mut q = DatagramQueue::new(1000);
        let d = || Datagram {
            from: from(),
            payload: b"x".to_vec().into(),
        };
        assert_eq!(q.stats().peak_depth, 0);
        q.enqueue(d());
        q.enqueue(d());
        assert_eq!(q.stats().peak_depth, 2);
        // Draining does not lower the high-water mark...
        q.dequeue();
        q.dequeue();
        assert_eq!(q.stats().peak_depth, 2);
        // ...and a shallower refill does not raise it.
        q.enqueue(d());
        assert_eq!(q.stats().peak_depth, 2);
    }

    #[test]
    fn dgram_small_packets_cost_an_mbuf() {
        let mut q = DatagramQueue::new(2 * DGRAM_MIN_SPACE);
        assert!(q.enqueue(Datagram {
            from: from(),
            payload: vec![7].into()
        }));
        assert!(q.enqueue(Datagram {
            from: from(),
            payload: vec![7].into()
        }));
        assert!(!q.enqueue(Datagram {
            from: from(),
            payload: vec![7].into()
        }));
        assert_eq!(q.bytes(), 2 * DGRAM_MIN_SPACE);
    }

    /// Bytes `[offset, offset + n)` through the transmit path.
    fn peek(b: &ByteBuffer, offset: usize, n: usize) -> Vec<u8> {
        let mut p = PayloadBuf::with_capacity(n);
        b.peek_into(offset, n, &mut p);
        p.to_vec()
    }

    /// `bytes` as the payload of a frame with a header in front and a
    /// trailer behind, held by reference.
    fn framed(bytes: &[u8]) -> FrameSlice {
        let mut v = lrp_wire::buf::storage(bytes.len() + 48);
        v.extend_from_slice(&[0xEE; 40]);
        v.extend_from_slice(bytes);
        v.extend_from_slice(&[0xFF; 8]);
        FrameSlice::new(FrameBuf::from_vec(v), 40..40 + bytes.len())
    }

    #[test]
    fn byte_buffer_write_read() {
        let mut b = ByteBuffer::new(8);
        assert_eq!(b.write(b"hello"), 5);
        assert_eq!(b.write(b"world"), 3, "bounded at limit");
        assert_eq!(b.read(4), b"hell");
        assert_eq!(b.space(), 4);
        assert_eq!(b.read(100), b"owor");
        assert!(b.is_empty());
    }

    #[test]
    fn byte_buffer_peek_discard() {
        let mut b = ByteBuffer::new(100);
        b.write(b"abcdefgh");
        assert_eq!(peek(&b, 2, 3), b"cde");
        assert_eq!(b.len(), 8, "peek does not consume");
        b.discard(4);
        assert_eq!(peek(&b, 0, 2), b"ef");
    }

    #[test]
    fn long_appends_are_held_by_reference_and_read_across_slices() {
        let mut b = ByteBuffer::new(4 * MIN_ADOPT);
        let (x, y) = (vec![1u8; MIN_ADOPT], vec![2u8; 2 * MIN_ADOPT]);
        let (fx, fy) = (framed(&x), framed(&y));
        assert_eq!(b.adopt(fx.clone()), MIN_ADOPT);
        assert_eq!(b.adopt(fy.clone()), 2 * MIN_ADOPT);
        assert!(b.holds(fx.buf()) && b.holds(fy.buf()), "no copy on append");
        assert_eq!(b.slices.len(), 2);
        let want = [&x[..], &y[..]].concat();
        assert_eq!(
            peek(&b, MIN_ADOPT - 3, 6),
            want[MIN_ADOPT - 3..MIN_ADOPT + 3]
        );
        b.discard(MIN_ADOPT + 1);
        assert!(!b.holds(fx.buf()), "a fully discarded slice is released");
        assert_eq!(b.read(usize::MAX), want[MIN_ADOPT + 1..]);
    }

    #[test]
    fn a_partial_append_adopts_only_what_fits() {
        let data = vec![7u8; 3 * MIN_ADOPT];
        let mut b = ByteBuffer::new(2 * MIN_ADOPT);
        let f = framed(&data);
        assert_eq!(b.adopt(f.clone()), 2 * MIN_ADOPT);
        assert!(b.holds(f.buf()));
        assert_eq!(b.space(), 0);
        assert_eq!(b.adopt(f), 0, "a full buffer takes nothing");
        assert_eq!(peek(&b, 0, b.len()), data[..2 * MIN_ADOPT]);
    }

    #[test]
    fn short_appends_coalesce_into_a_tail_buffer() {
        let mut b = ByteBuffer::new(1 << 16);
        let mut n = 0;
        while b.slices.len() < 2 {
            assert_eq!(b.adopt(framed(&[n as u8])), 1);
            n += 1;
        }
        assert!(n > TAIL_CAP, "{n} one-byte appends filled one tail");
        let want: Vec<u8> = (0..n).map(|i| i as u8).collect();
        assert_eq!(b.read(usize::MAX), want);
    }

    /// One step of the model test.
    #[derive(Clone, Debug)]
    enum Op {
        /// Append by reference; `true` keeps another reference alive,
        /// as a sender holding its payload does.
        Adopt(Vec<u8>, bool),
        Write(Vec<u8>),
        Read(usize),
        Peek(Index, Index),
        Discard(Index),
    }

    /// Appends of every size class: empty, one byte, short, around
    /// [`MIN_ADOPT`], and long.
    fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..2),
            proptest::collection::vec(any::<u8>(), 2..64),
            proptest::collection::vec(any::<u8>(), MIN_ADOPT - 8..MIN_ADOPT + 8),
            proptest::collection::vec(any::<u8>(), MIN_ADOPT..3 * MIN_ADOPT),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (arb_bytes(), any::<bool>()).prop_map(|(b, keep)| Op::Adopt(b, keep)),
            arb_bytes().prop_map(Op::Write),
            (0usize..2 * MIN_ADOPT).prop_map(Op::Read),
            (any::<Index>(), any::<Index>()).prop_map(|(a, b)| Op::Peek(a, b)),
            any::<Index>().prop_map(Op::Discard),
        ]
    }

    proptest! {
        /// Random operation sequences against a `VecDeque<u8>` model:
        /// equal bytes, exact `len` and `space`, and the slice bound.
        /// The limit is a few `MIN_ADOPT`s, so appends often meet a full
        /// or nearly full buffer, and discards trim inside slices.
        #[test]
        fn byte_buffer_matches_vecdeque_model(
            limit in MIN_ADOPT..=6 * MIN_ADOPT,
            ops in proptest::collection::vec(arb_op(), 40..160),
        ) {
            let mut b = ByteBuffer::new(limit);
            let mut model: VecDeque<u8> = VecDeque::new();
            let mut kept = Vec::new();
            for op in ops {
                let fits = |bytes: &[u8], model: &VecDeque<u8>| bytes.len().min(limit - model.len());
                match op {
                    Op::Adopt(bytes, keep) => {
                        let n = fits(&bytes, &model);
                        let f = framed(&bytes);
                        if keep {
                            kept.push(f.clone());
                        }
                        prop_assert_eq!(b.adopt(f), n);
                        model.extend(&bytes[..n]);
                    }
                    Op::Write(bytes) => {
                        let n = fits(&bytes, &model);
                        prop_assert_eq!(b.write(&bytes), n);
                        model.extend(&bytes[..n]);
                    }
                    Op::Read(n) => {
                        let n = n.min(model.len());
                        prop_assert_eq!(b.read(n), model.drain(..n).collect::<Vec<u8>>());
                    }
                    Op::Peek(at, len) => {
                        let offset = at.index(model.len() + 1);
                        let n = len.index(model.len() - offset + 1);
                        let want: Vec<u8> = model.range(offset..offset + n).copied().collect();
                        prop_assert_eq!(peek(&b, offset, n), want);
                    }
                    Op::Discard(n) => {
                        let n = n.index(model.len() + 1);
                        b.discard(n);
                        model.drain(..n);
                    }
                }
                prop_assert_eq!(b.len(), model.len());
                prop_assert_eq!(b.space(), limit - model.len());
                prop_assert_eq!(b.is_empty(), model.is_empty());
                prop_assert!(b.slices.iter().all(|s| !s.is_empty()));
                prop_assert!(
                    b.slices.len() <= limit / MIN_ADOPT + 2,
                    "{} slices for a {}-byte limit", b.slices.len(), limit
                );
                prop_assert_eq!(peek(&b, 0, b.len()), model.iter().copied().collect::<Vec<u8>>());
            }
        }
    }

    #[test]
    #[should_panic]
    fn byte_buffer_peek_out_of_range() {
        let mut b = ByteBuffer::new(10);
        b.write(b"ab");
        let _ = peek(&b, 1, 5);
    }
}
