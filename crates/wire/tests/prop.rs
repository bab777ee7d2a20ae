//! Property tests: encode∘decode identity, checksum detection, and
//! fragmentation/reassembly identity at the wire level.

use lrp_wire::{checksum, icmp, ipv4, proto, tcp, udp, FrameBuf, FrameSlice, Ipv4Addr};
use proptest::prelude::*;

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
