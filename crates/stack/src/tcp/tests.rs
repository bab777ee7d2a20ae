//! Unit tests for the TCP state machine, using an in-memory segment pipe
//! between two connections with controllable loss.

use super::*;
use lrp_wire::{FrameBuf, Ipv4Addr};

fn ep(last: u8, port: u16) -> Endpoint {
    Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
}

/// Drop filter: `(direction, nth segment, segment) -> drop?`.
type DropFn = Box<dyn FnMut(u8, u64, &Segment) -> bool>;

/// A deterministic driver connecting two TcpConns with FIFO delivery,
/// per-direction drop filters, and virtual time.
struct Driver {
    a: TcpConn,
    b: TcpConn,
    now: SimTime,
    /// Queued segments (dir, Segment); dir=0 is a→b.
    wire: std::collections::VecDeque<(u8, Segment)>,
    events_a: Vec<ConnEvent>,
    events_b: Vec<ConnEvent>,
    /// Returns true to DROP the nth segment in the given direction.
    drop_fn: DropFn,
    sent_count: [u64; 2],
}

impl Driver {
    fn new(cfg: TcpConfig) -> Self {
        let a = TcpConn::new(cfg, ep(1, 1000), ep(2, 2000), 100);
        let b = TcpConn::new(cfg, ep(2, 2000), ep(1, 1000), 900_000);
        Driver {
            a,
            b,
            now: SimTime::ZERO,
            wire: Default::default(),
            events_a: vec![],
            events_b: vec![],
            drop_fn: Box::new(|_, _, _| false),
            sent_count: [0, 0],
        }
    }

    fn absorb(&mut self, dir: u8, acts: Actions) {
        for seg in acts.segments {
            let n = self.sent_count[dir as usize];
            self.sent_count[dir as usize] += 1;
            if !(self.drop_fn)(dir, n, &seg) {
                self.wire.push_back((dir, seg));
            }
        }
        let evs = if dir == 0 {
            &mut self.events_a
        } else {
            &mut self.events_b
        };
        evs.extend(acts.events);
    }

    /// Runs until the wire is empty and no timer is pending, or `max_steps`
    /// is exceeded.
    fn run(&mut self, max_steps: usize) {
        for _ in 0..max_steps {
            if let Some((dir, seg)) = self.wire.pop_front() {
                // Latency: 100us per hop keeps RTT sane for RTO tests.
                self.now += SimDuration::from_micros(100);
                let acts = if dir == 0 {
                    self.b.on_segment(self.now, &seg.hdr, &seg.payload)
                } else {
                    self.a.on_segment(self.now, &seg.hdr, &seg.payload)
                };
                self.absorb(1 - dir, acts);
                continue;
            }
            // Idle: advance to the next timer.
            let da = self.a.next_deadline();
            let db = self.b.next_deadline();
            let next = match (da, db) {
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => return,
            };
            self.now = next;
            if da.is_some_and(|d| d <= self.now) {
                let acts = self.a.on_timer(self.now);
                self.absorb(0, acts);
            }
            if db.is_some_and(|d| d <= self.now) {
                let acts = self.b.on_timer(self.now);
                self.absorb(1, acts);
            }
        }
    }
}

fn cfg() -> TcpConfig {
    TcpConfig {
        mss: 1460,
        ..TcpConfig::default()
    }
}

#[test]
fn handshake_establishes_both_ends() {
    let mut d = Driver::new(cfg());
    // Make b a passive opener by faking listener behaviour: b in Closed
    // responds with RST normally, so drive the passive side via accept_syn.
    let acts = d.a.connect(d.now);
    assert_eq!(d.a.state, TcpState::SynSent);
    let syn = &acts.segments[0];
    assert!(syn.hdr.has(flags::SYN));
    assert_eq!(syn.hdr.mss, Some(1460));
    let (mut b2, acts_b) =
        TcpConn::accept_syn(cfg(), ep(2, 2000), ep(1, 1000), 900_000, &syn.hdr, d.now);
    assert_eq!(b2.state, TcpState::SynReceived);
    let synack = &acts_b.segments[0];
    assert!(synack.hdr.has(flags::SYN | flags::ACK));
    let acts_a2 = d.a.on_segment(d.now, &synack.hdr, &[]);
    assert_eq!(d.a.state, TcpState::Established);
    assert!(acts_a2.events.contains(&ConnEvent::Established));
    let ack = &acts_a2.segments[0];
    let acts_b2 = b2.on_segment(d.now, &ack.hdr, &[]);
    assert_eq!(b2.state, TcpState::Established);
    assert!(acts_b2.events.contains(&ConnEvent::Established));
}

/// Builds an established pair by running a full handshake through the
/// driver (replacing `b` with the accept_syn-created conn).
fn established(mut d: Driver) -> Driver {
    let acts = d.a.connect(d.now);
    let syn = acts.segments.into_iter().next().unwrap();
    let (b2, acts_b) = TcpConn::accept_syn(
        *d.b.config(),
        ep(2, 2000),
        ep(1, 1000),
        900_000,
        &syn.hdr,
        d.now,
    );
    d.b = b2;
    d.absorb(1, acts_b);
    d.run(200);
    assert_eq!(d.a.state, TcpState::Established);
    assert_eq!(d.b.state, TcpState::Established);
    d
}

#[test]
fn simple_data_transfer() {
    let mut d = established(Driver::new(cfg()));
    let (n, acts) = d.a.write(d.now, b"hello tcp");
    assert_eq!(n, 9);
    d.absorb(0, acts);
    d.run(200);
    assert!(d.events_b.contains(&ConnEvent::DataReady));
    let (data, _) = d.b.read(100);
    assert_eq!(data, b"hello tcp");
}

#[test]
fn bidirectional_transfer() {
    let mut d = established(Driver::new(cfg()));
    let (_, acts) = d.a.write(d.now, b"ping");
    d.absorb(0, acts);
    let (_, acts) = d.b.write(d.now, b"pong");
    d.absorb(1, acts);
    d.run(400);
    assert_eq!(d.b.read(100).0, b"ping");
    assert_eq!(d.a.read(100).0, b"pong");
}

#[test]
fn bulk_transfer_respects_mss_and_completes() {
    let mut d = established(Driver::new(cfg()));
    let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    let mut sent = 0;
    let mut received = Vec::new();
    let mut guard = 0;
    while received.len() < payload.len() {
        guard += 1;
        assert!(guard < 10_000, "transfer did not complete");
        if sent < payload.len() {
            let (n, acts) = d.a.write(d.now, &payload[sent..]);
            sent += n;
            d.absorb(0, acts);
        }
        d.run(50);
        let (chunk, acts) = d.b.read(usize::MAX);
        received.extend_from_slice(&chunk);
        d.absorb(1, acts);
    }
    assert_eq!(received, payload);
    assert_eq!(d.a.stats.retransmits, 0, "clean path: no retransmits");
    assert!(d.a.cwnd() > 1460, "slow start grew the window");
}

#[test]
fn lost_segment_recovered_by_rto() {
    let mut d = established(Driver::new(cfg()));
    // Drop the first data segment a sends after establishment.
    let base = d.sent_count[0];
    d.drop_fn = Box::new(move |dir, n, seg| dir == 0 && n == base && !seg.payload.is_empty());
    let (_, acts) = d.a.write(d.now, b"will be lost then retransmitted");
    d.absorb(0, acts);
    d.run(500);
    assert_eq!(d.b.read(100).0, b"will be lost then retransmitted");
    assert!(d.a.stats.timeouts >= 1);
    assert!(d.a.stats.retransmits >= 1);
}

#[test]
fn fast_retransmit_on_dup_acks() {
    let cfg_small = TcpConfig {
        mss: 1000,
        delack: None, // Immediate acks make dup-acks deterministic.
        ..TcpConfig::default()
    };
    let mut d = established(Driver::new(cfg_small));
    // Pump the window up with a clean 40k transfer first.
    let warm: Vec<u8> = vec![7; 40_000];
    let mut sent = 0;
    let mut got = 0;
    while got < warm.len() {
        if sent < warm.len() {
            let (n, acts) = d.a.write(d.now, &warm[sent..]);
            sent += n;
            d.absorb(0, acts);
        }
        d.run(50);
        let (chunk, acts) = d.b.read(usize::MAX);
        got += chunk.len();
        d.absorb(1, acts);
    }
    assert!(
        d.a.cwnd() >= 4 * 1000,
        "need cwnd >= 4 segments for 3 dupacks"
    );
    // Now drop exactly one upcoming data segment.
    let target = d.sent_count[0];
    d.drop_fn = Box::new(move |dir, n, _| dir == 0 && n == target);
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 13) as u8).collect();
    let mut sent = 0;
    let mut received = Vec::new();
    let mut guard = 0;
    while received.len() < payload.len() {
        guard += 1;
        assert!(guard < 10_000);
        if sent < payload.len() {
            let (n, acts) = d.a.write(d.now, &payload[sent..]);
            sent += n;
            d.absorb(0, acts);
        }
        d.run(50);
        let (chunk, acts) = d.b.read(usize::MAX);
        received.extend_from_slice(&chunk);
        d.absorb(1, acts);
    }
    assert_eq!(received, payload);
    assert!(
        d.a.stats.fast_retransmits >= 1,
        "expected fast retransmit; stats: {:?}",
        d.a.stats
    );
}

#[test]
fn orderly_close_active_side_time_waits() {
    let mut d = established(Driver::new(cfg()));
    let acts = d.a.close(d.now);
    d.absorb(0, acts);
    d.run(200);
    assert!(d.events_b.contains(&ConnEvent::PeerClosed));
    assert_eq!(d.b.state, TcpState::CloseWait);
    let acts = d.b.close(d.now);
    d.absorb(1, acts);
    // Process the FIN exchange but not the (long) TIME_WAIT expiry: step
    // only while wire is non-empty.
    while let Some((dir, seg)) = d.wire.pop_front() {
        d.now += SimDuration::from_micros(100);
        let acts = if dir == 0 {
            d.b.on_segment(d.now, &seg.hdr, &seg.payload)
        } else {
            d.a.on_segment(d.now, &seg.hdr, &seg.payload)
        };
        d.absorb(1 - dir, acts);
    }
    assert_eq!(d.b.state, TcpState::Closed);
    assert!(d.events_b.contains(&ConnEvent::Closed));
    assert_eq!(d.a.state, TcpState::TimeWait);
    // TIME_WAIT expires.
    let deadline = d.a.next_deadline().expect("timewait timer armed");
    let acts = d.a.on_timer(deadline);
    assert!(acts.events.contains(&ConnEvent::Closed));
    assert_eq!(d.a.state, TcpState::Closed);
}

#[test]
fn time_wait_duration_configurable() {
    let c = TcpConfig {
        time_wait: SimDuration::from_millis(500),
        ..TcpConfig::default()
    };
    let mut d = established(Driver::new(c));
    let acts = d.a.close(d.now);
    d.absorb(0, acts);
    d.run(100);
    let acts = d.b.close(d.now);
    d.absorb(1, acts);
    while let Some((dir, seg)) = d.wire.pop_front() {
        let acts = if dir == 0 {
            d.b.on_segment(d.now, &seg.hdr, &seg.payload)
        } else {
            d.a.on_segment(d.now, &seg.hdr, &seg.payload)
        };
        d.absorb(1 - dir, acts);
    }
    let entered = d.now;
    let deadline = d.a.next_deadline().unwrap();
    let wait = deadline.since(entered);
    assert!(
        wait <= SimDuration::from_millis(500),
        "TIME_WAIT should be 500ms, got {wait}"
    );
}

#[test]
fn abort_sends_rst_and_peer_resets() {
    let mut d = established(Driver::new(cfg()));
    let acts = d.a.abort();
    assert!(acts.segments[0].hdr.has(flags::RST));
    d.absorb(0, acts);
    d.run(100);
    assert!(d.events_b.contains(&ConnEvent::Reset));
    assert_eq!(d.b.state, TcpState::Closed);
}

#[test]
fn segment_to_closed_conn_gets_rst() {
    let mut c = TcpConn::new(cfg(), ep(2, 80), ep(1, 5555), 42);
    let th = TcpHeader {
        src_port: 5555,
        dst_port: 80,
        seq: 7,
        ack: 0,
        flags: flags::SYN,
        window: 1000,
        mss: None,
    };
    let acts = c.on_segment(SimTime::ZERO, &th, &[]);
    assert_eq!(acts.segments.len(), 1);
    assert!(acts.segments[0].hdr.has(flags::RST));
}

#[test]
fn syn_retransmits_with_backoff() {
    let mut a = TcpConn::new(cfg(), ep(1, 1000), ep(2, 2000), 100);
    let acts = a.connect(SimTime::ZERO);
    assert_eq!(acts.segments.len(), 1);
    let d1 = a.next_deadline().unwrap();
    let acts = a.on_timer(d1);
    assert_eq!(acts.segments.len(), 1, "SYN retransmitted");
    assert!(acts.segments[0].hdr.has(flags::SYN));
    let d2 = a.next_deadline().unwrap();
    assert!(
        d2.since(d1) > d1.since(SimTime::ZERO),
        "exponential backoff: {} then {}",
        d1.since(SimTime::ZERO),
        d2.since(d1)
    );
    assert_eq!(a.stats.retransmits, 1);
}

#[test]
fn gives_up_after_max_retries() {
    let mut c = cfg();
    c.max_retries = 3;
    c.rto_max = SimDuration::from_secs(2);
    let mut a = TcpConn::new(c, ep(1, 1000), ep(2, 2000), 100);
    let _ = a.connect(SimTime::ZERO);
    let mut timed_out = false;
    for _ in 0..10 {
        let Some(d) = a.next_deadline() else { break };
        let acts = a.on_timer(d);
        if acts.events.contains(&ConnEvent::TimedOut) {
            timed_out = true;
            break;
        }
    }
    assert!(timed_out);
    assert_eq!(a.state, TcpState::Closed);
}

#[test]
fn mss_negotiated_to_minimum() {
    let mut big = cfg();
    big.mss = 9140;
    let mut small = cfg();
    small.mss = 536;
    let mut a = TcpConn::new(big, ep(1, 1000), ep(2, 2000), 100);
    let acts = a.connect(SimTime::ZERO);
    let syn = &acts.segments[0];
    let (b, acts_b) =
        TcpConn::accept_syn(small, ep(2, 2000), ep(1, 1000), 7, &syn.hdr, SimTime::ZERO);
    assert_eq!(b.mss(), 536);
    let synack = &acts_b.segments[0];
    let _ = a.on_segment(SimTime::ZERO, &synack.hdr, &[]);
    assert_eq!(a.mss(), 536);
    let _ = b;
}

#[test]
fn zero_window_stalls_then_recovers() {
    let mut c = cfg();
    c.rcv_buf = 4096;
    c.mss = 1000;
    c.delack = None;
    let mut d = established(Driver::new(c));
    // Fill b's receive buffer without reading.
    let payload = vec![5u8; 12_000];
    let (n, acts) = d.a.write(d.now, &payload);
    assert!(n >= 8_000, "send buffer accepts most of it");
    d.absorb(0, acts);
    d.run(300);
    // b's buffer (4096) is full; a must have stalled.
    assert_eq!(d.b.available(), 4096);
    assert!(d.a.send_space() < d.a.config().snd_buf);
    // Reader drains; window update lets the rest flow.
    let mut received = Vec::new();
    let mut guard = 0;
    let mut sent = n;
    while received.len() < payload.len() {
        guard += 1;
        assert!(guard < 2000, "stalled: got {}", received.len());
        let (chunk, acts) = d.b.read(usize::MAX);
        received.extend_from_slice(&chunk);
        d.absorb(1, acts);
        if sent < payload.len() {
            let (m, acts) = d.a.write(d.now, &payload[sent..]);
            sent += m;
            d.absorb(0, acts);
        }
        d.run(100);
    }
    assert_eq!(received, payload);
}

#[test]
fn out_of_order_segments_reassembled() {
    let mut d = established(Driver::new(cfg()));
    // Hand-deliver segments out of order.
    let (_, acts1) = d.a.write(d.now, b"AAAA");
    let seg1 = acts1.segments.into_iter().next().unwrap();
    let (_, acts2) = d.a.write(d.now, b"BBBB");
    let seg2 = acts2.segments.into_iter().next().unwrap();
    // Deliver seg2 first.
    let acts = d.b.on_segment(d.now, &seg2.hdr, &seg2.payload);
    assert!(
        !acts.events.contains(&ConnEvent::DataReady),
        "out-of-order data is not ready"
    );
    // Dup-ack expected.
    assert!(!acts.segments.is_empty());
    let acts = d.b.on_segment(d.now, &seg1.hdr, &seg1.payload);
    assert!(acts.events.contains(&ConnEvent::DataReady));
    assert_eq!(d.b.read(100).0, b"AAAABBBB");
}

/// `payload` in a frame-like buffer (40 header bytes in front), held by
/// reference.
fn in_frame(payload: &[u8]) -> FrameSlice {
    let bytes = [&[0u8; 40][..], payload].concat();
    FrameSlice::new(FrameBuf::from(&bytes[..]), 40..bytes.len())
}

#[test]
fn send_buffer_holds_the_applications_storage() {
    let mut d = established(Driver::new(cfg()));
    let app = FrameBuf::from(&[0xBB; 4000][..]);
    let mut out = Actions::default();
    let n =
        d.a.write_slice_into(d.now, FrameSlice::new(app.clone(), 0..4000), &mut out);
    assert_eq!(n, 4000);
    assert!(d.a.snd_buf.holds(&app), "queued by reference");
    // The segments sent from it are copies in their own storage.
    assert_eq!(out.segments[0].payload, [0xBB; 1460]);
    let mut out = Actions::default();
    d.a.write_slice_into(d.now, FrameSlice::new(app.clone(), 1000..4000), &mut out);
    assert_eq!(d.a.snd_buf.len(), 7000, "a partial write's rest");
}

#[test]
fn arrived_payloads_are_held_in_their_frames() {
    let mut d = established(Driver::new(cfg()));
    // Two segments inside the initial window, each long enough to adopt.
    let (_, acts1) = d.a.write(d.now, &[b'A'; 600]);
    let (_, acts2) = d.a.write(d.now, &[b'B'; 600]);
    let (s1, s2) = (&acts1.segments[0], &acts2.segments[0]);
    let (f1, f2) = (in_frame(&s1.payload), in_frame(&s2.payload));
    let mut out = Actions::default();
    d.b.on_segment_slice_into(d.now, &s2.hdr, f2.clone(), &mut out);
    assert!(
        d.b.ooo
            .values()
            .any(|o| FrameBuf::ptr_eq(o.buf(), f2.buf())),
        "out-of-order stash holds the frame"
    );
    d.b.on_segment_slice_into(d.now, &s1.hdr, f1.clone(), &mut out);
    assert!(d.b.rcv_buf.holds(f1.buf()), "in-order payload held");
    assert!(d.b.rcv_buf.holds(f2.buf()), "drained stash held");
    assert!(d.b.ooo.is_empty());
    let want = [[b'A'; 600], [b'B'; 600]].concat();
    assert_eq!(d.b.read(usize::MAX).0, want);
}

#[test]
fn delayed_ack_fires_on_timer() {
    let mut c = cfg();
    c.delack = Some(SimDuration::from_millis(200));
    let mut d = established(Driver::new(c));
    let (_, acts) = d.a.write(d.now, b"one segment");
    let seg = acts.segments.into_iter().next().unwrap();
    let t0 = d.now;
    let acts = d.b.on_segment(d.now, &seg.hdr, &seg.payload);
    assert!(
        acts.segments.is_empty(),
        "single segment: ACK delayed, not immediate"
    );
    let deadline = d.b.next_deadline().unwrap();
    assert_eq!(deadline.since(t0), SimDuration::from_millis(200));
    let acts = d.b.on_timer(deadline);
    assert_eq!(acts.segments.len(), 1);
    assert!(acts.segments[0].hdr.has(flags::ACK));
}

#[test]
fn every_second_segment_acked_immediately() {
    let mut d = established(Driver::new(cfg()));
    let (_, a1) = d.a.write(d.now, b"first");
    let s1 = a1.segments.into_iter().next().unwrap();
    let (_, a2) = d.a.write(d.now, b"second");
    let s2 = a2.segments.into_iter().next().unwrap();
    let acts = d.b.on_segment(d.now, &s1.hdr, &s1.payload);
    assert!(acts.segments.is_empty());
    let acts = d.b.on_segment(d.now, &s2.hdr, &s2.payload);
    assert_eq!(acts.segments.len(), 1, "second segment forces the ACK");
}

#[test]
fn listener_backlog_accounting() {
    let mut l = TcpListener::new(ep(2, 80), 2);
    assert!(l.can_accept_syn());
    l.on_syn_admitted();
    l.on_syn_admitted();
    assert!(!l.can_accept_syn());
    l.on_syn_dropped();
    assert_eq!(l.syn_drops, 1);
    l.on_child_established();
    assert_eq!(l.syn_queue, 1);
    assert_eq!(l.accept_queue, 1);
    assert!(!l.can_accept_syn(), "accept queue still counts");
    l.on_accept();
    assert!(l.can_accept_syn());
    l.on_child_failed();
    assert_eq!(l.syn_queue, 0);
}

#[test]
fn rtt_estimator_converges() {
    let mut d = established(Driver::new(cfg()));
    // Several round trips at ~200us RTT (100us per hop).
    for _ in 0..20 {
        let (_, acts) = d.a.write(d.now, b"x");
        d.absorb(0, acts);
        d.run(100);
        let _ = d.b.read(10);
    }
    // RTO should have collapsed to rto_min (RTT << rto_min).
    assert_eq!(d.a.recovery.rto, d.a.config().rto_min);
    assert!(d.a.recovery.srtt.is_some());
}

#[test]
fn duplicate_data_reacked_not_redelivered() {
    let mut d = established(Driver::new(cfg()));
    let (_, acts) = d.a.write(d.now, b"dup");
    let seg = acts.segments.into_iter().next().unwrap();
    let _ = d.b.on_segment(d.now, &seg.hdr, &seg.payload);
    assert_eq!(d.b.read(10).0, b"dup");
    // Redeliver the same segment: must not surface data again.
    let acts = d.b.on_segment(d.now, &seg.hdr, &seg.payload);
    assert!(!acts.events.contains(&ConnEvent::DataReady));
    assert!(!acts.segments.is_empty(), "old data is re-ACKed");
    assert_eq!(d.b.available(), 0);
}

#[test]
fn simultaneous_close_both_time_wait_or_closed() {
    let mut d = established(Driver::new(cfg()));
    let acts_a = d.a.close(d.now);
    let acts_b = d.b.close(d.now);
    d.absorb(0, acts_a);
    d.absorb(1, acts_b);
    while let Some((dir, seg)) = d.wire.pop_front() {
        d.now += SimDuration::from_micros(100);
        let acts = if dir == 0 {
            d.b.on_segment(d.now, &seg.hdr, &seg.payload)
        } else {
            d.a.on_segment(d.now, &seg.hdr, &seg.payload)
        };
        d.absorb(1 - dir, acts);
    }
    for (name, st) in [("a", d.a.state), ("b", d.b.state)] {
        assert!(
            matches!(st, TcpState::TimeWait | TcpState::Closed),
            "{name} ended in {st:?}"
        );
    }
}

#[test]
fn sequence_number_wraparound_transfer() {
    // ISS near u32::MAX: the sequence space wraps mid-transfer and the
    // modular arithmetic must hold throughout.
    let cfg_small = TcpConfig {
        mss: 1000,
        delack: None,
        ..TcpConfig::default()
    };
    let mut d = Driver::new(cfg_small);
    d.a = TcpConn::new(cfg_small, ep(1, 1000), ep(2, 2000), u32::MAX - 4_000);
    let acts = d.a.connect(d.now);
    let syn = acts.segments.into_iter().next().unwrap();
    let (b2, acts_b) = TcpConn::accept_syn(
        cfg_small,
        ep(2, 2000),
        ep(1, 1000),
        u32::MAX - 2_000,
        &syn.hdr,
        d.now,
    );
    d.b = b2;
    d.absorb(1, acts_b);
    d.run(200);
    assert_eq!(d.a.state, TcpState::Established);
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 247) as u8).collect();
    let mut sent = 0;
    let mut received = Vec::new();
    let mut guard = 0;
    while received.len() < payload.len() {
        guard += 1;
        assert!(guard < 10_000, "wraparound transfer stalled");
        if sent < payload.len() {
            let (n, acts) = d.a.write(d.now, &payload[sent..]);
            sent += n;
            d.absorb(0, acts);
        }
        d.run(50);
        let (chunk, acts) = d.b.read(usize::MAX);
        received.extend_from_slice(&chunk);
        d.absorb(1, acts);
    }
    assert_eq!(received, payload);
    assert_eq!(d.a.stats.retransmits, 0);
}

#[test]
fn half_close_receiver_still_gets_data() {
    // a closes its sending side (FIN); b keeps sending; a must still
    // receive and ack the data (FIN_WAIT_2 data path).
    let mut d = established(Driver::new(cfg()));
    let acts = d.a.close(d.now);
    d.absorb(0, acts);
    d.run(100);
    assert_eq!(d.a.state, TcpState::FinWait2);
    assert_eq!(d.b.state, TcpState::CloseWait);
    let (_, acts) = d.b.write(d.now, b"late data after peer close");
    d.absorb(1, acts);
    d.run(200);
    assert_eq!(d.a.read(100).0, b"late data after peer close");
}

#[test]
fn rst_kills_embryonic_connection() {
    // A SYN|ACK answered by RST must close the embryonic connection
    // (client refused us).
    let syn_hdr = TcpHeader {
        src_port: 5000,
        dst_port: 80,
        seq: 77,
        ack: 0,
        flags: flags::SYN,
        window: 4096,
        mss: None,
    };
    let (mut child, _acts) =
        TcpConn::accept_syn(cfg(), ep(2, 80), ep(1, 5000), 100, &syn_hdr, SimTime::ZERO);
    assert_eq!(child.state, TcpState::SynReceived);
    let rst = TcpHeader {
        src_port: 5000,
        dst_port: 80,
        seq: 78,
        ack: 101,
        flags: flags::RST | flags::ACK,
        window: 0,
        mss: None,
    };
    let acts = child.on_segment(SimTime::ZERO, &rst, &[]);
    assert_eq!(child.state, TcpState::Closed);
    assert!(acts.events.contains(&ConnEvent::Reset));
    assert!(acts.events.contains(&ConnEvent::Closed));
}

#[test]
fn time_wait_reacks_retransmitted_fin() {
    let mut d = established(Driver::new(cfg()));
    // Full close in both directions puts a in TIME_WAIT.
    let acts = d.a.close(d.now);
    d.absorb(0, acts);
    d.run(100);
    let acts = d.b.close(d.now);
    d.absorb(1, acts);
    while let Some((dir, seg)) = d.wire.pop_front() {
        let acts = if dir == 0 {
            d.b.on_segment(d.now, &seg.hdr, &seg.payload)
        } else {
            d.a.on_segment(d.now, &seg.hdr, &seg.payload)
        };
        d.absorb(1 - dir, acts);
    }
    assert_eq!(d.a.state, TcpState::TimeWait);
    let before = d.a.next_deadline().expect("2MSL armed");
    // Retransmitted FIN (the last ACK was "lost" from b's view).
    let fin = TcpHeader {
        src_port: 2000,
        dst_port: 1000,
        seq: 900_001,
        ack: 103,
        flags: flags::FIN | flags::ACK,
        window: 4096,
        mss: None,
    };
    let acts =
        d.a.on_segment(d.now + SimDuration::from_millis(50), &fin, &[]);
    assert!(
        acts.segments.iter().any(|s| s.hdr.has(flags::ACK)),
        "TIME_WAIT re-acks a retransmitted FIN"
    );
    let after = d.a.next_deadline().expect("2MSL rearmed");
    assert!(after > before, "the 2MSL timer restarts");
}

#[test]
fn data_while_fin_wait_1_is_accepted() {
    // We closed (FIN in flight) but the peer's data crossing it must still
    // be delivered.
    let mut d = established(Driver::new(cfg()));
    let acts_close = d.a.close(d.now);
    let (_, acts_data) = d.b.write(d.now, b"crossing");
    d.absorb(0, acts_close);
    d.absorb(1, acts_data);
    d.run(300);
    assert_eq!(d.a.read(100).0, b"crossing");
}

#[test]
fn connect_then_close_before_synack() {
    let mut a = TcpConn::new(cfg(), ep(1, 1000), ep(2, 2000), 100);
    let _ = a.connect(SimTime::ZERO);
    let acts = a.close(SimTime::ZERO);
    assert_eq!(a.state, TcpState::Closed);
    assert!(acts.events.contains(&ConnEvent::Closed));
}

// ---------------------------------------------------------------------------
// Retransmission boundary behaviour: lost FINs, RTO clamping, Karn's
// rule, and reordering vs fast retransmit.
// ---------------------------------------------------------------------------

#[test]
fn lost_fin_is_retransmitted() {
    let mut d = established(Driver::new(cfg()));
    let (_, acts) = d.a.write(d.now, b"last words");
    d.absorb(0, acts);
    d.run(200);
    assert_eq!(d.b.read(100).0, b"last words");
    // Drop a's next segment: the FIN.
    let target = d.sent_count[0];
    d.drop_fn = Box::new(move |dir, n, _| dir == 0 && n == target);
    let acts = d.a.close(d.now);
    d.absorb(0, acts);
    d.run(500);
    assert!(
        d.events_b.contains(&ConnEvent::PeerClosed),
        "the retransmitted FIN must reach the peer; a stats: {:?}",
        d.a.stats
    );
    assert!(d.a.stats.timeouts >= 1, "recovery went through the RTO");
    assert!(
        matches!(d.a.state, TcpState::FinWait2 | TcpState::TimeWait),
        "our FIN was acked: {:?}",
        d.a.state
    );
}

#[test]
fn lost_last_ack_fin_is_retransmitted() {
    // Same bug from the passive closer's side: b in LAST_ACK loses its
    // FIN and must resend it rather than burn retries sending nothing.
    let mut d = established(Driver::new(cfg()));
    let acts = d.a.close(d.now);
    d.absorb(0, acts);
    d.run(200);
    assert_eq!(d.b.state, TcpState::CloseWait);
    let target = d.sent_count[1];
    d.drop_fn = Box::new(move |dir, n, _| dir == 1 && n == target);
    let acts = d.b.close(d.now);
    d.absorb(1, acts);
    d.run(500);
    assert_eq!(d.b.state, TcpState::Closed, "b stats: {:?}", d.b.stats);
    assert!(d.b.stats.timeouts >= 1);
}

#[test]
fn rto_backoff_is_clamped_to_rto_max() {
    let mut d = established(Driver::new(cfg()));
    // Black-hole everything a sends; watch the timer gaps grow.
    d.drop_fn = Box::new(|dir, _, _| dir == 0);
    let (_, acts) = d.a.write(d.now, &[9u8; 2000]);
    d.absorb(0, acts);
    let rto_max = d.a.config().rto_max;
    let rto_min = d.a.config().rto_min;
    let mut gaps = Vec::new();
    let mut prev = d.now;
    while let Some(deadline) = d.a.next_deadline() {
        gaps.push(deadline.since(prev));
        prev = deadline;
        let acts = d.a.on_timer(deadline);
        if acts.events.contains(&ConnEvent::TimedOut) {
            break;
        }
    }
    assert!(gaps.len() > 3, "several backoff rounds before giving up");
    assert!(
        gaps.iter().all(|g| *g >= rto_min && *g <= rto_max),
        "every interval within [rto_min, rto_max]: {gaps:?}"
    );
    assert_eq!(
        *gaps.last().unwrap(),
        rto_max,
        "backoff saturates at rto_max"
    );
    assert!(
        gaps.windows(2).all(|w| w[1] >= w[0]),
        "monotone non-decreasing backoff: {gaps:?}"
    );
    assert_eq!(d.a.state, TcpState::Closed);
}

#[test]
fn karn_rule_discards_rtt_probe_on_timeout() {
    let mut d = established(Driver::new(cfg()));
    d.drop_fn = Box::new(|dir, _, _| dir == 0);
    let (_, acts) = d.a.write(d.now, b"timed segment");
    d.absorb(0, acts);
    assert!(
        d.a.recovery.rtt_probe.is_some(),
        "first transmission arms an RTT probe"
    );
    let deadline = d.a.next_deadline().unwrap();
    let _ = d.a.on_timer(deadline);
    assert!(
        d.a.recovery.rtt_probe.is_none(),
        "Karn: a retransmitted segment is never timed"
    );
    // The ack for the retransmission must not produce a sample either:
    // the probe stays dead until a fresh (untransmitted) segment goes out.
    let srtt_before = d.a.recovery.srtt;
    d.drop_fn = Box::new(|_, _, _| false);
    let acts = d.a.output(d.now, true);
    d.absorb(0, acts);
    d.run(200);
    assert_eq!(
        d.a.recovery.srtt, srtt_before,
        "no RTT sample from the retransmitted round trip"
    );
}

#[test]
fn reordered_segments_do_not_trigger_fast_retransmit() {
    let c = TcpConfig {
        mss: 1000,
        delack: None,
        ..TcpConfig::default()
    };
    let mut d = established(Driver::new(c));
    // Open the congestion window first: a fresh connection's cwnd is one
    // segment, which cannot put two in flight.
    let warm = vec![1u8; 10_000];
    let mut sent = 0;
    let mut got = 0;
    while got < warm.len() {
        if sent < warm.len() {
            let (n, acts) = d.a.write(d.now, &warm[sent..]);
            sent += n;
            d.absorb(0, acts);
        }
        d.run(50);
        let (chunk, acts) = d.b.read(usize::MAX);
        got += chunk.len();
        d.absorb(1, acts);
    }
    assert!(d.a.cwnd() >= 2000, "cwnd holds two segments");
    // Two full segments, delivered to b in reversed order.
    let (_, acts) = d.a.write(d.now, &vec![5u8; 2000]);
    assert_eq!(acts.segments.len(), 2, "two segments in flight");
    let mut segs = acts.segments;
    segs.reverse();
    for seg in segs {
        let acts_b = d.b.on_segment(d.now, &seg.hdr, &seg.payload);
        d.absorb(1, acts_b);
    }
    d.run(300);
    assert_eq!(d.b.read(4000).0.len(), 2000, "all data assembled in order");
    assert_eq!(
        d.a.stats.fast_retransmits, 0,
        "adjacent reordering yields one dup ack, not three"
    );
    assert!(d.a.stats.dup_acks <= 1, "stats: {:?}", d.a.stats);
    assert_eq!(d.a.stats.timeouts, 0, "no spurious RTO");
}

// ---- keepalive ----

/// Keepalive config on side `a` only, so the driver's idle loop is
/// driven by a single probing endpoint.
fn ka_cfg() -> TcpConfig {
    TcpConfig {
        mss: 1460,
        keepalive_idle: Some(SimDuration::from_secs(5)),
        keepalive_intvl: SimDuration::from_secs(1),
        keepalive_probes: 3,
        ..TcpConfig::default()
    }
}

/// An established pair where only `a` runs keepalives. The handshake is
/// driven by hand with no idle-time advance, so `d.now` is exactly the
/// instant `a` entered Established (and armed its idle timer).
fn ka_established() -> Driver {
    let mut d = Driver::new(cfg());
    d.a = TcpConn::new(ka_cfg(), ep(1, 1000), ep(2, 2000), 100);
    let acts = d.a.connect(d.now);
    let syn = acts.segments.into_iter().next().unwrap();
    let (b2, acts_b) = TcpConn::accept_syn(
        *d.b.config(),
        ep(2, 2000),
        ep(1, 1000),
        900_000,
        &syn.hdr,
        d.now,
    );
    d.b = b2;
    let synack = acts_b.segments.into_iter().next().unwrap();
    let acts_a = d.a.on_segment(d.now, &synack.hdr, &[]);
    for seg in &acts_a.segments {
        let r = d.b.on_segment(d.now, &seg.hdr, &seg.payload);
        d.absorb(1, r);
    }
    assert_eq!(d.a.state, TcpState::Established);
    assert_eq!(d.b.state, TcpState::Established);
    d
}

#[test]
fn keepalive_probe_timing_idle_then_interval() {
    let mut d = ka_established();
    let t0 = d.now;
    // The idle timer armed on entering Established.
    assert_eq!(
        d.a.next_deadline(),
        Some(t0 + SimDuration::from_secs(5)),
        "keepalive idle threshold armed at establishment"
    );
    // First fire: a one-garbage-byte probe below the window.
    let t1 = d.a.next_deadline().unwrap();
    let acts = d.a.on_timer(t1);
    assert_eq!(acts.segments.len(), 1);
    let probe = &acts.segments[0];
    assert_eq!(probe.payload.len(), 1, "probe carries one garbage byte");
    assert_eq!(probe.hdr.seq, d.a.snd_una.wrapping_sub(1));
    assert!(probe.hdr.has(flags::ACK));
    assert_eq!(d.a.keepalive_probes_sent, 1);
    // Subsequent probes fire at the (shorter) probe interval.
    assert_eq!(
        d.a.next_deadline(),
        Some(t1 + SimDuration::from_secs(1)),
        "after the first probe the interval timer takes over"
    );
}

#[test]
fn keepalive_dead_peer_aborts_after_n_probes() {
    let mut d = ka_established();
    // Peer death: never deliver anything to (or from) b again.
    let mut probes = 0;
    loop {
        let t = d.a.next_deadline().expect("keepalive keeps a timer armed");
        let acts = d.a.on_timer(t);
        if acts.events.contains(&ConnEvent::TimedOut) {
            // Abort: RST out, Closed surfaced, machine dead.
            assert!(acts.events.contains(&ConnEvent::Closed));
            assert!(acts.segments.iter().any(|s| s.hdr.has(flags::RST)));
            assert_eq!(d.a.state, TcpState::Closed);
            break;
        }
        probes += acts
            .segments
            .iter()
            .filter(|s| s.payload.len() == 1)
            .count();
        assert!(probes <= 3, "no more than keepalive_probes probes");
    }
    assert_eq!(probes, 3, "exactly keepalive_probes unanswered probes");
    assert_eq!(d.a.next_deadline(), None, "all timers cleared after abort");
}

#[test]
fn keepalive_answered_probe_resets_counter_and_idle_clock() {
    let mut d = ka_established();
    let t1 = d.a.next_deadline().unwrap();
    let acts = d.a.on_timer(t1);
    assert_eq!(d.a.keepalive_probes_sent, 1);
    // The live peer treats the old-sequence probe as unacceptable and
    // re-ACKs immediately.
    let probe = &acts.segments[0];
    d.now = t1;
    let reply = d.b.on_segment(d.now, &probe.hdr, &probe.payload);
    assert_eq!(reply.segments.len(), 1, "alive peer answers the probe");
    assert!(reply.events.is_empty(), "probe is invisible to b's app");
    let ack = &reply.segments[0];
    let acts_a = d.a.on_segment(d.now, &ack.hdr, &ack.payload);
    assert!(acts_a.events.is_empty());
    assert_eq!(
        d.a.keepalive_probes_sent, 0,
        "answer clears the probe count"
    );
    assert_eq!(
        d.a.next_deadline(),
        Some(t1 + SimDuration::from_secs(5)),
        "idle clock restarts from the answer"
    );
    assert_eq!(d.a.state, TcpState::Established);
}

#[test]
fn keepalive_probe_never_feeds_rtt_estimator() {
    // Karn interaction: probes are not timed and answers produce no RTT
    // sample — the estimator state is untouched by a probe round trip.
    let mut d = ka_established();
    let srtt_before = d.a.recovery.srtt;
    assert!(
        d.a.recovery.rtt_probe.is_none(),
        "idle connection times nothing"
    );
    let t1 = d.a.next_deadline().unwrap();
    let acts = d.a.on_timer(t1);
    assert!(
        d.a.recovery.rtt_probe.is_none(),
        "probe is not an RTT sample"
    );
    let probe = &acts.segments[0];
    d.now = t1 + SimDuration::from_millis(300);
    let reply = d.b.on_segment(d.now, &probe.hdr, &probe.payload);
    let ack = &reply.segments[0];
    let _ = d.a.on_segment(d.now, &ack.hdr, &ack.payload);
    assert_eq!(
        d.a.recovery.srtt, srtt_before,
        "no sample from the probe round trip"
    );
}

#[test]
fn keepalive_stale_timer_clears_after_close() {
    let mut d = ka_established();
    // Graceful close from both sides: the machine leaves the keepalive
    // states (FinWait2 alone still probes — it can hang forever).
    let acts = d.a.close(d.now);
    d.absorb(0, acts);
    d.run(50);
    let acts = d.b.close(d.now);
    d.absorb(1, acts);
    d.run(300);
    assert!(matches!(d.a.state, TcpState::TimeWait | TcpState::Closed));
    // Any still-armed keepalive deadline is discarded on fire, not probed.
    if let Some(t) = d.a.keepalive_deadline {
        let acts = d.a.on_timer(t.max(d.now));
        assert!(acts.segments.iter().all(|s| s.payload.is_empty()));
        assert_eq!(d.a.keepalive_deadline, None);
    }
}

#[test]
fn listener_half_open_tracking_fifo() {
    let mut l = TcpListener::new(ep(2, 80), 3);
    for i in 0..3 {
        l.on_syn_admitted();
        l.track_half_open(SockId(i));
    }
    assert!(!l.can_accept_syn());
    assert_eq!(l.oldest_half_open(), Some(SockId(0)));
    // Oldest-eviction order is admission order.
    l.untrack_half_open(SockId(0));
    l.on_child_failed();
    l.on_syn_cache_evict();
    assert_eq!(l.oldest_half_open(), Some(SockId(1)));
    assert_eq!(l.syn_cache_evictions, 1);
    assert!(l.can_accept_syn());
    // Establishment removes from the middle without disturbing order.
    l.untrack_half_open(SockId(2));
    l.on_child_established();
    assert_eq!(l.oldest_half_open(), Some(SockId(1)));
    assert_eq!(l.accept_queue, 1);
}

/// A segment and an event already in the list before an `*_into` call.
fn stale() -> Actions {
    let hdr = TcpHeader {
        src_port: 1,
        dst_port: 2,
        seq: 0,
        ack: 0,
        flags: flags::RST,
        window: 0,
        mss: None,
    };
    Actions {
        segments: vec![Segment {
            hdr,
            payload: PayloadBuf::from(&[0xEE][..]),
        }],
        events: vec![ConnEvent::Reset],
    }
}

/// One connection driven by the by-value calls and its twin driven by
/// the `*_into` ones.
struct Twins {
    v: TcpConn,
    i: TcpConn,
}

impl Twins {
    /// Runs the by-value call on `v` and the `*_into` call on `i` with a
    /// non-empty list; asserts the list kept its entry and gained exactly
    /// what the by-value call returned. Returns that.
    fn call<R: PartialEq + std::fmt::Debug>(
        &mut self,
        by_value: impl FnOnce(&mut TcpConn) -> (R, Actions),
        into: impl FnOnce(&mut TcpConn, &mut Actions) -> R,
    ) -> Actions {
        let (r, expect) = by_value(&mut self.v);
        let mut out = stale();
        assert_eq!(into(&mut self.i, &mut out), r);
        assert_eq!(out.events[0], ConnEvent::Reset, "entry already there kept");
        assert_eq!(out.events[1..], expect.events[..]);
        assert_eq!(out.segments.len(), 1 + expect.segments.len());
        assert_eq!(out.segments[0].payload, [0xEE]);
        for (got, want) in out.segments[1..].iter().zip(&expect.segments) {
            assert_eq!((got.hdr, &got.payload), (want.hdr, &want.payload));
        }
        expect
    }
}

/// Delivers `wire` (`true` = bound for `b`) and every reply to both
/// twin pairs in lock step, losing the deliveries numbered in `lose`.
fn twin_pump(
    a: &mut Twins,
    b: &mut Twins,
    now: SimTime,
    wire: impl IntoIterator<Item = (bool, Segment)>,
    lose: &[usize],
) {
    let mut wire: VecDeque<(bool, Segment)> = wire.into_iter().collect();
    let mut n = 0;
    while let Some((to_b, s)) = wire.pop_front() {
        n += 1;
        if lose.contains(&n) {
            continue;
        }
        let end = if to_b { &mut *b } else { &mut *a };
        let acts = end.call(
            |c| ((), c.on_segment(now, &s.hdr, &s.payload)),
            |c, out| c.on_segment_into(now, &s.hdr, &s.payload, out),
        );
        wire.extend(acts.segments.into_iter().map(|r| (!to_b, r)));
    }
}

fn toward(to_b: bool, acts: Actions) -> impl Iterator<Item = (bool, Segment)> {
    acts.segments.into_iter().map(move |s| (to_b, s))
}

/// Every `*_into` entry point appends to a list that already holds
/// something, and appends exactly what its by-value wrapper returns.
#[test]
fn into_forms_append_exactly_what_the_wrappers_return() {
    let mut now = SimTime::ZERO;
    let conn = || TcpConn::new(cfg(), ep(1, 1000), ep(2, 2000), 100);
    let mut a = Twins {
        v: conn(),
        i: conn(),
    };
    let syn = a.call(|c| ((), c.connect(now)), |c, out| c.connect_into(now, out));
    let syn = &syn.segments[0].hdr;
    let (l, r) = (ep(2, 2000), ep(1, 1000));
    let (v, synack) = TcpConn::accept_syn(cfg(), l, r, 900, syn, now);
    let mut out = stale();
    let i = TcpConn::accept_syn_into(cfg(), l, r, 900, syn, now, &mut out);
    let mut b = Twins { v, i };
    assert_eq!(out.segments.len(), 2);
    assert_eq!(out.segments[1].hdr, synack.segments[0].hdr);
    twin_pump(&mut a, &mut b, now, toward(false, synack), &[]);
    assert_eq!(a.v.state, TcpState::Established);
    assert_eq!(b.v.state, TcpState::Established);

    // A window of data with its second segment lost: output, duplicate
    // ACKs, then the timers until the loss is repaired.
    now += SimDuration::from_millis(1);
    let data = vec![0x5A; 8 * 1460];
    let acts = a.call(
        |c| c.write(now, &data),
        |c, out| c.write_into(now, &data, out),
    );
    twin_pump(&mut a, &mut b, now, toward(true, acts), &[2]);
    while let Some(t) =
        a.v.next_deadline()
            .filter(|&t| t < now + SimDuration::from_secs(5))
    {
        now = t;
        let from_a = a.call(
            |c| ((), c.on_timer(now)),
            |c, out| c.on_timer_into(now, out),
        );
        let from_b = b.call(
            |c| ((), c.on_timer(now)),
            |c, out| c.on_timer_into(now, out),
        );
        let wire = toward(true, from_a).chain(toward(false, from_b));
        twin_pump(&mut a, &mut b, now, wire, &[]);
    }
    assert!(a.v.stats.retransmits > 0, "the loss was repaired");
    assert_eq!(b.v.available(), data.len());

    // The peer acks one segment and closes its window with the rest in
    // flight: the retransmission timer's go-back-N output sends nothing,
    // so a one-byte probe goes out instead.
    let acts = a.call(
        |c| c.write(now, &data),
        |c, out| c.write_into(now, &data, out),
    );
    let first = &acts.segments[0];
    let zero_window = TcpHeader {
        src_port: 2000,
        dst_port: 1000,
        seq: a.v.rcv_nxt,
        ack: first.hdr.seq.wrapping_add(first.payload.len() as u32),
        flags: flags::ACK,
        window: 0,
        mss: None,
    };
    a.call(
        |c| ((), c.on_segment(now, &zero_window, &[])),
        |c, out| c.on_segment_into(now, &zero_window, &[], out),
    );
    now = a.v.next_deadline().expect("retransmission timer");
    let probe = a.call(
        |c| ((), c.on_timer(now)),
        |c, out| c.on_timer_into(now, out),
    );
    assert_eq!(probe.segments.len(), 1);
    assert_eq!(probe.segments[0].payload.len(), 1, "a one-byte probe");

    // A read (with any window update), a close, and an abort.
    b.call(
        |c| c.read(usize::MAX),
        |c, out| c.read_into(usize::MAX, out),
    );
    a.call(|c| ((), c.close(now)), |c, out| c.close_into(now, out));
    b.call(|c| ((), c.abort()), |c, out| c.abort_into(out));
}
