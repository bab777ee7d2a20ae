//! Property tests for TCP: the delivered byte stream equals the sent
//! stream — in order, without duplication or loss — under arbitrary
//! segment drops and reordering.

use lrp_sim::{SimDuration, SimTime};
use lrp_stack::tcp::{Segment, TcpConfig, TcpConn, TcpState};
use lrp_wire::{Endpoint, Ipv4Addr};
use proptest::prelude::*;

fn ep(last: u8, port: u16) -> Endpoint {
    Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
}

/// Runs a full transfer of `payload` from a to b through a lossy,
/// reordering network controlled by `decisions` (drop) and `delays`
/// (per-segment extra latency causing reorder). Returns the received
/// stream.
fn lossy_transfer(payload: &[u8], drops: &[bool], delays: &[u8]) -> Vec<u8> {
    let cfg = TcpConfig {
        mss: 1000,
        rto_min: SimDuration::from_millis(100),
        rto_init: SimDuration::from_millis(200),
        delack: None,
        ..TcpConfig::default()
    };
    let mut now = SimTime::ZERO;
    let mut a = TcpConn::new(cfg, ep(1, 1), ep(2, 2), 5000);
    // Events carried on a little event queue so delayed segments reorder.
    // Heap entries: (time_ns, seqno, direction, header bytes, payload).
    type WireEntry = std::cmp::Reverse<(u64, u64, u8, Vec<u8>, Vec<u8>)>;
    let mut queue: std::collections::BinaryHeap<WireEntry> = Default::default();
    let mut seqno = 0u64;
    let push = |queue: &mut std::collections::BinaryHeap<_>,
                seqno: &mut u64,
                now: SimTime,
                dir: u8,
                seg: Segment,
                extra_us: u64| {
        // Serialize header via wire format to keep the test honest.
        let hdr_bytes = lrp_wire::tcp::build(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            &seg.hdr,
            &[],
        );
        let t = now.as_nanos() + 100_000 + extra_us * 1_000;
        queue.push(std::cmp::Reverse((
            t,
            *seqno,
            dir,
            hdr_bytes,
            seg.payload.to_vec(),
        )));
        *seqno += 1;
    };
    // Handshake (not subject to loss so every case converges fast).
    let acts = a.connect(now);
    let syn = acts.segments.into_iter().next().unwrap();
    let (mut b, acts_b) = TcpConn::accept_syn(cfg, ep(2, 2), ep(1, 1), 90_000, &syn.hdr, now);
    for s in acts_b.segments {
        push(&mut queue, &mut seqno, now, 1, s, 0);
    }
    let mut sent = 0usize;
    let mut received = Vec::new();
    let mut transmitted = 0usize; // Index into drops/delays.
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > 60_000 {
            panic!(
                "transfer did not converge: got {} of {}",
                received.len(),
                payload.len()
            );
        }
        // Feed data while there is send space.
        if sent < payload.len() && a.state == TcpState::Established {
            let (n, acts) = a.write(now, &payload[sent..]);
            sent += n;
            for s in acts.segments {
                let drop = *drops
                    .get(transmitted % drops.len().max(1))
                    .unwrap_or(&false);
                let delay = *delays.get(transmitted % delays.len().max(1)).unwrap_or(&0);
                transmitted += 1;
                if !drop {
                    push(&mut queue, &mut seqno, now, 0, s, delay as u64);
                }
            }
        }
        // Deliver next network event or fire next timer.
        let next_timer = [a.next_deadline(), b.next_deadline()]
            .into_iter()
            .flatten()
            .min();
        let next_pkt = queue.peek().map(|std::cmp::Reverse((t, ..))| *t);
        match (next_pkt, next_timer) {
            (None, None) => break,
            (pkt, timer) => {
                let take_pkt = match (pkt, timer) {
                    (Some(p), Some(t)) => p <= t.as_nanos(),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => unreachable!(),
                };
                if take_pkt {
                    let std::cmp::Reverse((t, _, dir, hdr_bytes, pl)) = queue.pop().unwrap();
                    now = SimTime::from_nanos(t.max(now.as_nanos()));
                    let (hdr, _) = lrp_wire::tcp::parse(&hdr_bytes).unwrap();
                    let acts = if dir == 0 {
                        b.on_segment(now, &hdr, &pl)
                    } else {
                        a.on_segment(now, &hdr, &pl)
                    };
                    for s in acts.segments {
                        let from_a = dir == 1;
                        if from_a {
                            let drop = *drops
                                .get(transmitted % drops.len().max(1))
                                .unwrap_or(&false);
                            let delay =
                                *delays.get(transmitted % delays.len().max(1)).unwrap_or(&0);
                            transmitted += 1;
                            if !drop {
                                push(&mut queue, &mut seqno, now, 0, s, delay as u64);
                            }
                        } else {
                            // ACK path from b is lossless (loss there only
                            // slows convergence; data-path loss is the
                            // interesting property).
                            push(&mut queue, &mut seqno, now, 1, s, 0);
                        }
                    }
                } else {
                    now = next_timer.unwrap();
                    for (conn, dir) in [(&mut a, 0u8), (&mut b, 1u8)] {
                        if conn.next_deadline().is_some_and(|d| d <= now) {
                            let acts = conn.on_timer(now);
                            for s in acts.segments {
                                if dir == 0 {
                                    let drop = *drops
                                        .get(transmitted % drops.len().max(1))
                                        .unwrap_or(&false);
                                    transmitted += 1;
                                    if !drop {
                                        push(&mut queue, &mut seqno, now, 0, s, 0);
                                    }
                                } else {
                                    push(&mut queue, &mut seqno, now, 1, s, 0);
                                }
                            }
                        }
                    }
                }
            }
        }
        let (chunk, acts) = b.read(usize::MAX);
        received.extend_from_slice(&chunk);
        for s in acts.segments {
            push(&mut queue, &mut seqno, now, 1, s, 0);
        }
        if received.len() >= payload.len() && sent >= payload.len() {
            break;
        }
    }
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stream integrity under periodic loss patterns.
    #[test]
    fn stream_survives_loss(
        payload in proptest::collection::vec(any::<u8>(), 1..12_000),
        drops in proptest::collection::vec(prop::bool::weighted(0.12), 16..64),
    ) {
        let received = lossy_transfer(&payload, &drops, &[0]);
        prop_assert_eq!(received, payload);
    }

    /// Stream integrity under reordering (random extra per-segment delay).
    #[test]
    fn stream_survives_reorder(
        payload in proptest::collection::vec(any::<u8>(), 1..12_000),
        delays in proptest::collection::vec(0u8..200, 16..64),
    ) {
        let received = lossy_transfer(&payload, &[false], &delays);
        prop_assert_eq!(received, payload);
    }

    /// Stream integrity under loss and reorder combined.
    #[test]
    fn stream_survives_loss_and_reorder(
        payload in proptest::collection::vec(any::<u8>(), 1..8_000),
        drops in proptest::collection::vec(prop::bool::weighted(0.08), 16..48),
        delays in proptest::collection::vec(0u8..150, 16..48),
    ) {
        let received = lossy_transfer(&payload, &drops, &delays);
        prop_assert_eq!(received, payload);
    }
}

mod fuzz {
    use lrp_sim::{SimDuration, SimTime};
    use lrp_stack::tcp::{TcpConfig, TcpConn, TcpState};
    use lrp_wire::tcp::TcpHeader;
    use lrp_wire::{Endpoint, Ipv4Addr};
    use proptest::prelude::*;

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    fn arb_header() -> impl Strategy<Value = TcpHeader> {
        (
            any::<u32>(),
            any::<u32>(),
            0u8..0x40,
            any::<u16>(),
            proptest::option::of(100u16..10_000),
        )
            .prop_map(|(seq, ack, flags, window, mss)| TcpHeader {
                src_port: 2000,
                dst_port: 1000,
                seq,
                ack,
                flags,
                window,
                mss,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The state machine survives arbitrary segment streams without
        /// panicking, and its invariants hold: snd_una <= snd_nxt (in
        /// sequence space), buffers bounded, timers sane.
        #[test]
        fn random_segments_never_panic(
            segments in proptest::collection::vec(
                (arb_header(), proptest::collection::vec(any::<u8>(), 0..600)),
                1..80
            ),
            do_connect in any::<bool>(),
            writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..5),
        ) {
            let cfg = TcpConfig {
                mss: 1000,
                ..TcpConfig::default()
            };
            let mut now = SimTime::ZERO;
            let mut c = TcpConn::new(cfg, ep(1, 1000), ep(2, 2000), 123_456);
            if do_connect {
                let _ = c.connect(now);
            }
            for (i, (hdr, payload)) in segments.iter().enumerate() {
                now += SimDuration::from_micros(137);
                let acts = c.on_segment(now, hdr, payload);
                // Segments the machine emits must carry our ports.
                for s in &acts.segments {
                    prop_assert_eq!(s.hdr.src_port, 1000);
                    prop_assert_eq!(s.hdr.dst_port, 2000);
                    prop_assert!(s.payload.len() <= 1000, "respects MSS");
                }
                // Interleave app activity.
                if let Some(w) = writes.get(i % writes.len().max(1)) {
                    let _ = c.write(now, w);
                }
                let _ = c.read(usize::MAX);
                // Fire any due timer.
                if let Some(d) = c.next_deadline() {
                    if d <= now {
                        let _ = c.on_timer(now);
                    }
                }
                prop_assert!(c.available() <= cfg.rcv_buf);
                prop_assert!(c.send_space() <= cfg.snd_buf);
                if c.state == TcpState::Closed {
                    break;
                }
            }
        }
    }
}
