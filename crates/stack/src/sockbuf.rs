//! Socket buffers: the BSD `sockbuf` in two flavours.
//!
//! [`DatagramQueue`] is the receive queue of a UDP socket: a bounded queue
//! of datagrams with byte accounting (`sbspace`). Packets arriving at a
//! full queue are dropped — under BSD this drop happens *after* all
//! protocol processing has been paid for, which is the waste LRP removes.
//!
//! [`ByteBuffer`] is the byte-stream buffer used by TCP for both send and
//! receive sides.

use lrp_wire::{Endpoint, FrameBuf};
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

/// A bounded FIFO byte buffer (TCP socket buffer).
#[derive(Debug)]
pub struct ByteBuffer {
    data: VecDeque<u8>,
    limit: usize,
}

impl ByteBuffer {
    /// Creates a buffer bounded at `limit` bytes.
    pub fn new(limit: usize) -> Self {
        ByteBuffer {
            data: VecDeque::new(),
            limit,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Free space in bytes.
    pub fn space(&self) -> usize {
        self.limit - self.data.len()
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Appends as much of `bytes` as fits; returns the number appended.
    pub fn write(&mut self, bytes: &[u8]) -> usize {
        let n = bytes.len().min(self.space());
        self.data.extend(&bytes[..n]);
        n
    }

    /// Copies bytes `[offset, offset+n)` into arena storage: the ring is
    /// at most two contiguous slices, so at most two slice copies.
    fn copy_out(&self, offset: usize, n: usize) -> Vec<u8> {
        let (head, tail) = self.data.as_slices();
        let (split, end) = (head.len(), offset + n);
        let mut out = lrp_wire::buf::storage(n);
        if offset < split {
            out.extend_from_slice(&head[offset..end.min(split)]);
        }
        if end > split {
            out.extend_from_slice(&tail[offset.max(split) - split..end - split]);
        }
        out
    }

    /// Removes and returns up to `n` bytes from the front (in arena
    /// storage, see [`lrp_wire::buf::storage`]).
    pub fn read(&mut self, n: usize) -> Vec<u8> {
        let take = n.min(self.data.len());
        let out = self.copy_out(0, take);
        self.data.drain(..take);
        out
    }

    /// Copies bytes `[offset, offset+n)` without removing them (for
    /// transmission and retransmission from the send buffer; in arena
    /// storage, see [`lrp_wire::buf::storage`]).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffered data.
    pub fn peek_at(&self, offset: usize, n: usize) -> Vec<u8> {
        assert!(offset + n <= self.data.len(), "peek beyond buffer");
        self.copy_out(offset, n)
    }

    /// Discards `n` bytes from the front (data acknowledged by the peer).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the buffered data.
    pub fn discard(&mut self, n: usize) {
        assert!(n <= self.data.len(), "discard beyond buffer");
        self.data.drain(..n);
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
        assert_eq!(b.peek_at(2, 3), b"cde");
        assert_eq!(b.len(), 8, "peek does not consume");
        b.discard(4);
        assert_eq!(b.peek_at(0, 2), b"ef");
    }

    #[test]
    fn byte_buffer_peek_and_read_span_the_wrap_point() {
        let mut b = ByteBuffer::new(16);
        // Fill, free the front, refill: the ring's storage (16 bytes)
        // does not grow, so the second write wraps.
        assert_eq!(b.write(&[0xAA; 16]), 16);
        assert_eq!(b.read(10), [0xAA; 10]);
        assert_eq!(b.write(b"0123456789"), 10);
        let (head, tail) = b.data.as_slices();
        assert!(!head.is_empty() && !tail.is_empty(), "ring is wrapped");
        let (split, want) = (head.len(), [&[0xAA; 6][..], b"0123456789"].concat());
        assert_eq!(b.peek_at(0, 16), want);
        assert_eq!(b.peek_at(split - 1, 2), want[split - 1..split + 1]);
        assert_eq!(b.peek_at(split, 3), want[split..split + 3]);
        assert_eq!(b.peek_at(16, 0), b"");
        b.discard(split - 1);
        assert_eq!(b.read(usize::MAX), want[split - 1..]);
        assert!(b.is_empty());
    }

    /// One step of the model test.
    #[derive(Clone, Debug)]
    enum Op {
        Write(Vec<u8>),
        Read(usize),
        Peek(Index, Index),
        Discard(Index),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..24).prop_map(Op::Write),
            (0usize..24).prop_map(Op::Read),
            (any::<Index>(), any::<Index>()).prop_map(|(a, b)| Op::Peek(a, b)),
            any::<Index>().prop_map(Op::Discard),
        ]
    }

    proptest! {
        /// Random operation sequences against a `Vec<u8>` model. The
        /// limit is small, so the ring's storage stops growing after the
        /// first few writes and wraps from then on (nine cases in ten
        /// have a wrapped ring at some step).
        #[test]
        fn byte_buffer_matches_vec_model(
            limit in 6usize..=16,
            ops in proptest::collection::vec(arb_op(), 40..120),
        ) {
            let mut b = ByteBuffer::new(limit);
            let mut model: Vec<u8> = Vec::new();
            for op in ops {
                match op {
                    Op::Write(bytes) => {
                        let n = bytes.len().min(limit - model.len());
                        prop_assert_eq!(b.write(&bytes), n);
                        model.extend_from_slice(&bytes[..n]);
                    }
                    Op::Read(n) => {
                        let n = n.min(model.len());
                        prop_assert_eq!(b.read(n), model.drain(..n).collect::<Vec<u8>>());
                    }
                    Op::Peek(at, len) => {
                        let offset = at.index(model.len() + 1);
                        let n = len.index(model.len() - offset + 1);
                        prop_assert_eq!(b.peek_at(offset, n), &model[offset..offset + n]);
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
                // Whole contents, whichever way the ring is split now.
                prop_assert_eq!(b.peek_at(0, b.len()), &model[..]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn byte_buffer_peek_out_of_range() {
        let mut b = ByteBuffer::new(10);
        b.write(b"ab");
        let _ = b.peek_at(1, 5);
    }
}
