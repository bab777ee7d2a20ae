//! Property tests: encode∘decode identity, checksum detection, and
//! fragmentation/reassembly identity at the wire level; and for the frame
//! arena, exact accounting, no aliasing of live buffers, and bounded
//! storage under any interleaving of checkouts and returns.

use lrp_wire::arena::{FrameArena, PooledBuf};
use lrp_wire::{checksum, icmp, ipv4, proto, tcp, udp, FrameBuf, FrameSlice, Ipv4Addr};
use proptest::prelude::*;
use std::collections::HashSet;
use std::rc::Rc;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

/// `payload` framed as the host's transmit path frames it, with a few
/// bytes of spare capacity so the frame can be extended in place.
fn framed(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    h: &tcp::TcpHeader,
    ident: u16,
    payload: &[u8],
) -> FrameBuf {
    let mut p = tcp::PayloadBuf::with_capacity(payload.len() + 8);
    p.extend_from_slice(payload);
    p.frame(src, dst, h, ident)
}

/// The TCP segment of a framed datagram: the whole IP payload.
fn segment(b: &FrameBuf) -> FrameSlice {
    FrameSlice::new(b.clone(), ipv4::HEADER_LEN..b.len())
}

/// True if `verify_segment` gives `verify_checksum`'s answer on `seg`.
fn agrees(src: Ipv4Addr, dst: Ipv4Addr, seg: &FrameSlice) -> bool {
    tcp::verify_segment(src, dst, seg) == tcp::verify_checksum(src, dst, seg)
}

proptest! {
    #[test]
    fn ipv4_header_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        p in any::<u8>(),
        ident in any::<u16>(),
        payload_len in 0usize..1400,
        ttl in 1u8..=255,
        tos in any::<u8>(),
    ) {
        let mut h = ipv4::Ipv4Header::new(src, dst, p, ident, payload_len);
        h.ttl = ttl;
        h.tos = tos;
        let mut buf = h.encode().to_vec();
        buf.resize(ipv4::HEADER_LEN + payload_len, 0);
        let parsed = ipv4::Ipv4Header::decode(&buf).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn ipv4_single_bit_flip_detected(
        src in arb_addr(),
        dst in arb_addr(),
        bit in 0usize..(ipv4::HEADER_LEN * 8),
    ) {
        let h = ipv4::Ipv4Header::new(src, dst, proto::UDP, 1, 0);
        let mut buf = h.encode().to_vec();
        buf[bit / 8] ^= 1 << (bit % 8);
        // Any single-bit corruption must be rejected (checksum or version
        // or length check).
        prop_assert!(ipv4::Ipv4Header::decode(&buf).is_err());
    }

    #[test]
    fn udp_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        csum in any::<bool>(),
    ) {
        let pkt = udp::build(src, dst, sp, dp, &payload, csum);
        let (h, body) = udp::parse(&pkt).unwrap();
        prop_assert_eq!(h.src_port, sp);
        prop_assert_eq!(h.dst_port, dp);
        prop_assert_eq!(body, &payload[..]);
        prop_assert!(udp::verify_checksum(src, dst, &pkt));
    }

    #[test]
    fn udp_payload_corruption_detected(
        src in arb_addr(),
        dst in arb_addr(),
        payload in proptest::collection::vec(any::<u8>(), 1..500),
        which in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut pkt = udp::build(src, dst, 7, 8, &payload, true);
        let idx = udp::HEADER_LEN + which.index(payload.len());
        pkt[idx] ^= flip;
        prop_assert!(!udp::verify_checksum(src, dst, &pkt));
    }

    #[test]
    fn tcp_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        fl in 0u8..0x40,
        window in any::<u16>(),
        mss in proptest::option::of(536u16..=9180),
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let h = tcp::TcpHeader {
            src_port: sp, dst_port: dp, seq, ack, flags: fl, window, mss,
        };
        let seg = tcp::build(src, dst, &h, &payload);
        prop_assert!(tcp::verify_checksum(src, dst, &seg));
        let (ph, body) = tcp::parse(&seg).unwrap();
        prop_assert_eq!(ph, h);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn framed_tcp_segments_are_trusted_only_while_untouched(
        src in arb_addr(),
        dst in arb_addr(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        fl in 0u8..0x40,
        window in any::<u16>(),
        syn_mss in proptest::option::of(536u16..=9180),
        data in proptest::collection::vec(any::<u8>(), 0..=1460),
        ident in any::<u16>(),
        at in any::<proptest::sample::Index>(),
        bit in 0u8..8,
        extra in any::<u8>(),
    ) {
        // A SYN carries the MSS option and no data, as the stack sends it.
        let (flags, mss, payload) = match syn_mss {
            Some(m) => (fl | tcp::flags::SYN, Some(m), &[][..]),
            None => (fl & !tcp::flags::SYN, None, &data[..]),
        };
        let h = tcp::TcpHeader {
            src_port: sp, dst_port: dp, seq, ack, flags, window, mss,
        };
        let frame = || framed(src, dst, &h, ident, payload);
        let trusted = |seg: &FrameSlice| tcp::trusts_segment(src, dst, seg);
        let flip = |v: &mut Vec<u8>| {
            let i = at.index(v.len());
            v[i] ^= 1 << bit;
        };

        // Untouched: trusted, and the sum agrees.
        let b = frame();
        prop_assert!(trusted(&segment(&b)));
        prop_assert!(tcp::verify_checksum(src, dst, &segment(&b)));
        prop_assert!(tcp::verify_segment(src, dst, &segment(&b)));

        // One bit flipped through `make_mut` on the only reference.
        let mut b = frame();
        flip(b.make_mut());
        prop_assert!(!trusted(&segment(&b)));
        prop_assert!(agrees(src, dst, &segment(&b)));

        // Through `make_mut` on a shared buffer (a duplicated frame): the
        // copy is written, the original keeps its bytes and its mark.
        let original = frame();
        let mut copy = original.clone();
        flip(copy.make_mut());
        prop_assert!(trusted(&segment(&original)));
        prop_assert!(tcp::verify_segment(src, dst, &segment(&original)));
        prop_assert!(!trusted(&segment(&copy)));
        prop_assert!(agrees(src, dst, &segment(&copy)));

        // Through `get_mut`.
        let mut b = frame();
        flip(b.get_mut().expect("unique"));
        prop_assert!(!trusted(&segment(&b)));
        prop_assert!(agrees(src, dst, &segment(&b)));

        // Through `FrameSlice::extend_in_place`, which grows the segment.
        let mut seg = segment(&frame());
        prop_assert_eq!(seg.extend_in_place(&[extra]), 1);
        prop_assert!(!trusted(&seg));
        prop_assert!(agrees(src, dst, &seg));

        // Never trusted: a byte copy, a `build_datagram` frame, a slice
        // that is not the whole IP payload, other addresses.
        let b = frame();
        let copy = FrameBuf::from(&b[..]);
        let built = FrameBuf::from(tcp::build_datagram(src, dst, &h, ident, payload));
        prop_assert_eq!(&built, &b);
        for other in [&copy, &built] {
            prop_assert!(!trusted(&segment(other)));
            prop_assert!(tcp::verify_segment(src, dst, &segment(other)));
        }
        for range in [0..b.len(), ipv4::HEADER_LEN..b.len() - 1, ipv4::HEADER_LEN + 1..b.len()] {
            let part = FrameSlice::new(b.clone(), range);
            prop_assert!(!trusted(&part));
            prop_assert!(agrees(src, dst, &part));
        }
        if src != dst {
            prop_assert!(!tcp::trusts_segment(dst, src, &segment(&b)));
            prop_assert_eq!(
                tcp::verify_segment(dst, src, &segment(&b)),
                tcp::verify_checksum(dst, src, &segment(&b))
            );
        }
    }

    #[test]
    fn tcp_seq_ordering_total(a in any::<u32>(), b in any::<u32>()) {
        // In sequence space exactly one of <, ==, > holds (for spans
        // < 2^31, which TCP guarantees by windowing).
        let lt = tcp::seq_lt(a, b);
        let gt = tcp::seq_gt(a, b);
        let eq = a == b;
        prop_assert_eq!(u8::from(lt) + u8::from(gt) + u8::from(eq), 1);
        prop_assert_eq!(tcp::seq_le(a, b), lt || eq);
        prop_assert_eq!(tcp::seq_ge(a, b), gt || eq);
    }

    #[test]
    fn fragmentation_reassembles_exactly(
        src in arb_addr(),
        dst in arb_addr(),
        payload in proptest::collection::vec(any::<u8>(), 0..20_000),
        mtu in 68usize..=9180,
    ) {
        let frags = ipv4::fragment(src, dst, proto::UDP, 99, &payload, mtu);
        prop_assert!(!frags.is_empty());
        let mut buf = vec![0u8; payload.len()];
        let mut total = 0usize;
        let mut finals = 0;
        for f in &frags {
            prop_assert!(f.len() <= mtu, "fragment exceeds mtu");
            let (h, p) = ipv4::parse(f).unwrap();
            let off = h.frag_offset as usize * 8;
            buf[off..off + p.len()].copy_from_slice(p);
            total += p.len();
            if h.flags & ipv4::FLAG_MF == 0 {
                finals += 1;
            }
        }
        prop_assert_eq!(finals, 1, "exactly one final fragment");
        prop_assert_eq!(total, payload.len());
        prop_assert_eq!(buf, payload);
    }

    #[test]
    fn icmp_roundtrip(
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..500),
        req in any::<bool>(),
    ) {
        let msg = icmp::IcmpMessage {
            kind: if req { icmp::IcmpType::EchoRequest } else { icmp::IcmpType::EchoReply },
            ident, seq, payload,
        };
        let bytes = icmp::build(&msg);
        prop_assert_eq!(icmp::parse(&bytes).unwrap(), msg);
    }

    #[test]
    fn checksum_invariant_under_arbitrary_chunking(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
    ) {
        // Any split of the buffer — including odd-length interior slices
        // and empty slices — must fold to the single-shot checksum
        // (RFC 1071 incremental update).
        let mut splits: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        splits.sort_unstable();
        let mut inc = checksum::Checksum::new();
        let mut prev = 0usize;
        for s in splits {
            inc.add(&data[prev..s]);
            prev = s;
        }
        inc.add(&data[prev..]);
        prop_assert_eq!(inc.finish(), checksum::checksum(&data));
    }
}

/// One step of an arena workload.
#[derive(Clone, Debug)]
enum Op {
    /// Build a frame of this many bytes and adopt it.
    Adopt(usize),
    /// Share the picked live buffer (a second reference).
    Share(sample::Index),
    /// Reclaim the picked reference.
    Reclaim(sample::Index),
    /// Take scratch storage of this capacity and give it straight back.
    Scratch(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..10_000).prop_map(Op::Adopt),
        any::<sample::Index>().prop_map(Op::Share),
        any::<sample::Index>().prop_map(Op::Reclaim),
        (0usize..70_000).prop_map(Op::Scratch),
    ]
}

proptest! {
    /// A buffer is retired only when its last reference comes back, so
    /// the live boxes are the distinct buffers held; a box is made only
    /// for a checkout; and cached storage stays within its byte bound.
    #[test]
    fn accounting_is_exact_under_any_interleaving(ops in collection::vec(op(), 1..300)) {
        let mut arena = FrameArena::new();
        let mut refs: Vec<Rc<PooledBuf>> = Vec::new();
        for op in ops {
            match op {
                Op::Adopt(len) => {
                    let v = arena.take_storage(len);
                    refs.push(arena.adopt(v));
                }
                Op::Share(ix) if !refs.is_empty() => {
                    let r = Rc::clone(&refs[ix.index(refs.len())]);
                    refs.push(r);
                }
                Op::Reclaim(ix) if !refs.is_empty() => {
                    arena.reclaim(refs.swap_remove(ix.index(refs.len())));
                }
                Op::Scratch(cap) => {
                    let v = arena.take_storage(cap);
                    arena.give_storage(v);
                }
                _ => {}
            }
            let s = arena.stats();
            let distinct: HashSet<*const PooledBuf> = refs.iter().map(Rc::as_ptr).collect();
            prop_assert_eq!(s.boxes.live(), distinct.len());
            prop_assert!(s.boxes.made <= s.checkouts);
            prop_assert!(s.cached_bytes <= 4 << 20);
        }
        for r in refs {
            arena.reclaim(r);
        }
        prop_assert_eq!(arena.stats().boxes.live(), 0);
    }

    /// Recycling never hands a live buffer's bytes to another frame:
    /// every live buffer still holds what it was built with.
    #[test]
    fn live_buffers_are_never_aliased(ops in collection::vec(op(), 1..200)) {
        let mut arena = FrameArena::new();
        let mut live: Vec<(Rc<Vec<u8>>, Rc<PooledBuf>)> = Vec::new();
        let mut next = 0usize;
        for op in ops {
            match op {
                Op::Adopt(len) => {
                    let want: Vec<u8> = (0..len).map(|i| (next * 31 + i) as u8).collect();
                    let mut v = arena.take_storage(len);
                    v.extend_from_slice(&want);
                    live.push((Rc::new(want), arena.adopt(v)));
                    next += 1;
                }
                Op::Share(ix) if !live.is_empty() => {
                    let (want, r) = &live[ix.index(live.len())];
                    let shared = (Rc::clone(want), Rc::clone(r));
                    live.push(shared);
                }
                Op::Reclaim(ix) if !live.is_empty() => {
                    arena.reclaim(live.swap_remove(ix.index(live.len())).1);
                }
                Op::Scratch(cap) => {
                    let mut v = arena.take_storage(cap);
                    v.resize(cap, 0xEE);
                    arena.give_storage(v);
                }
                _ => {}
            }
            for (want, r) in &live {
                prop_assert!(r.bytes() == &want[..]);
            }
        }
    }

    /// Scratch storage comes back empty, large enough, and from the
    /// request's own power of two (less than twice the request).
    #[test]
    fn storage_is_served_from_its_own_band(
        caps in collection::vec((1usize..70_000, any::<bool>()), 1..200),
    ) {
        let mut arena = FrameArena::new();
        let mut held = Vec::new();
        for (cap, keep) in caps {
            let v = arena.take_storage(cap);
            prop_assert!(v.is_empty());
            prop_assert!(v.capacity() >= cap);
            prop_assert!(v.capacity() < 2 * cap, "cap {} got {}", cap, v.capacity());
            if keep {
                held.push(v);
            } else {
                arena.give_storage(v);
            }
        }
        for v in held {
            arena.give_storage(v);
        }
        prop_assert!(arena.stats().cached_bytes <= 4 << 20);
    }

    /// Each take gets between `c` and `1.125 · c` bytes, and a mix of
    /// sizes taken together, given back and taken again allocates
    /// nothing the second time: whatever a class holds fits every
    /// request of that class. Sixty takes of at most 64 KiB stay within
    /// the 4 MiB the cache keeps.
    #[test]
    fn storage_comes_in_exact_classes(caps in collection::vec(1usize..=65_536, 1..=60)) {
        let mut arena = FrameArena::new();
        let mix = |arena: &mut FrameArena| {
            let mut held = Vec::new();
            for &c in &caps {
                let v = arena.take_storage(c);
                prop_assert!(v.is_empty());
                prop_assert!(v.capacity() >= c && v.capacity() * 8 <= c * 9,
                    "{} got {}", c, v.capacity());
                held.push(v);
            }
            held.into_iter().for_each(|v| arena.give_storage(v));
        };
        mix(&mut arena);
        let warm = arena.stats();
        prop_assert_eq!(warm.storage_allocs, caps.len() as u64);
        mix(&mut arena);
        mix(&mut arena);
        prop_assert_eq!(arena.stats(), warm);
    }
}
