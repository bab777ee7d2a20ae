//! Per-layer host costs: the workload's own inputs replayed through each
//! layer's public functions in isolation.
//!
//! Nothing inside `World::run_until` or `Host` is instrumented, so a
//! layer's cost is measured from outside: the frames the traced rep
//! captured, the table sizes, process counts and segment sizes the run
//! ended with, pushed through `EventQueue`, `lrp-wire`, `DemuxTable`,
//! `Nic`, `Scheduler`, `TcpConn` and `LinkFaults` directly. Each replay
//! runs until it has done a million operations or 0.2 s, whichever comes
//! first.

use crate::trace::Tracer;
use crate::yardstick;
use lrp_demux::{ChannelId, DemuxTable};
use lrp_net::{FaultPlan, LinkFaults};
use lrp_nic::{DemuxMode, Nic};
use lrp_sched::{SchedConfig, Scheduler, WaitChannel, PSOCK};
use lrp_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use lrp_stack::tcp::{Segment, TcpConfig, TcpConn};
use lrp_wire::{ipv4, proto, tcp, udp, Endpoint, FlowKey, Frame, Ipv4Addr};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// What the replays need to know about the run.
pub struct ReplayInputs {
    /// Frames into the busiest receiver, over all legs.
    pub frames: Vec<Frame>,
    /// That receiver's address.
    pub local: Ipv4Addr,
    /// Demux-table population to replay at.
    pub demux_entries: usize,
    /// Processes per host to replay at.
    pub procs: usize,
    /// Events pending in the world's queue (hosts, CPUs and injectors
    /// each keep about one armed).
    pub queue_depth: usize,
    /// Mean simulated time between events.
    pub event_gap: SimDuration,
    /// The run used TCP.
    pub tcp: bool,
    /// The link fault plan, if the workload has one.
    pub fault_plan: Option<FaultPlan>,
}

/// Host nanoseconds per operation, per layer. `None` = the workload
/// bypasses the layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCosts {
    /// `EventQueue` schedule + pop.
    pub queue_ns_per_op: f64,
    /// `ipv4::parse` + transport parse.
    pub parse_ns_per_frame: f64,
    /// `udp`/`tcp::build_datagram`.
    pub build_ns_per_frame: f64,
    /// Transport checksum verification.
    pub checksum_ns_per_byte: f64,
    /// Mean length of the captured frames, bytes.
    pub mean_frame_len: f64,
    /// `DemuxTable::classify` at the run's table population.
    pub classify_ns_per_frame: f64,
    /// `DemuxTable::register` + `unregister`.
    pub update_ns_per_op: Option<f64>,
    /// `Nic::rx_frame_at` + ring drain (4.4BSD, SOFT-LRP, Early-Demux).
    pub nic_ring_ns_per_frame: f64,
    /// `Nic::rx_frame_at` with NI demux + channel dequeue (NI-LRP).
    pub nic_ni_ns_per_frame: f64,
    /// `Scheduler` wakeup / pick_next / sleep-or-requeue.
    pub sched_ns_per_switch: f64,
    /// Established-pair write → deliver → ack, per segment arrival.
    pub tcp_ns_per_segment: Option<f64>,
    /// connect / accept_syn / close cycle.
    pub tcp_handshake_ns: Option<f64>,
    /// `LinkFaults::apply`.
    pub fault_ns_per_frame: Option<f64>,
}

/// Repeats `batch` (which returns the operations it did) until a million
/// operations or 0.2 s, after one unmeasured warm-up batch; returns
/// nanoseconds per operation on the reference core, like every time
/// the replayed costs are set against.
fn time_ops(mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let clock = yardstick::step_ns();
    let (mut ops, t0) = (0u64, Instant::now());
    loop {
        ops += batch();
        let elapsed = t0.elapsed().as_secs_f64();
        if ops >= 1_000_000 || elapsed >= 0.2 {
            let elapsed = yardstick::scaled(elapsed, clock, yardstick::step_ns());
            return elapsed * 1e9 / ops.max(1) as f64;
        }
    }
}

/// Runs every replay the workload's layers call for, one span each.
pub fn replay(inp: &ReplayInputs, tracer: &mut Tracer) -> LayerCosts {
    assert!(!inp.frames.is_empty(), "the traced rep captured no frames");
    let mut spanned = |name: &str, f: &mut dyn FnMut() -> f64| {
        tracer.begin(format!("replay.{name}"));
        let ns = f();
        tracer.end(vec![]);
        ns
    };
    let bytes: usize = inp.frames.iter().map(Frame::len).sum();
    let tcp_segment = inp
        .tcp
        .then(|| inp.frames.iter().filter_map(tcp_payload_len).max())
        .flatten();
    LayerCosts {
        queue_ns_per_op: spanned("sim.queue", &mut || queue(inp.queue_depth, inp.event_gap)),
        parse_ns_per_frame: spanned("wire.parse", &mut || parse(&inp.frames)),
        build_ns_per_frame: spanned("wire.build", &mut || build(&inp.frames)),
        checksum_ns_per_byte: spanned("wire.checksum", &mut || {
            checksum(&inp.frames) * inp.frames.len() as f64 / bytes as f64
        }),
        mean_frame_len: bytes as f64 / inp.frames.len() as f64,
        classify_ns_per_frame: spanned("demux.classify", &mut || classify(inp)),
        update_ns_per_op: inp
            .tcp
            .then(|| spanned("demux.update", &mut || update(inp))),
        nic_ring_ns_per_frame: spanned("nic.rx.ring", &mut || nic_rx(inp, DemuxMode::Soft)),
        nic_ni_ns_per_frame: spanned("nic.rx.ni", &mut || nic_rx(inp, DemuxMode::Ni)),
        sched_ns_per_switch: spanned("sched.pick", &mut || sched(inp.procs)),
        tcp_ns_per_segment: tcp_segment
            .map(|len| spanned("stack.tcp.segment", &mut || tcp_segment_cost(len.max(1)))),
        tcp_handshake_ns: inp
            .tcp
            .then(|| spanned("stack.tcp.handshake", &mut tcp_handshake)),
        fault_ns_per_frame: inp
            .fault_plan
            .as_ref()
            .map(|plan| spanned("net.fault", &mut || fault(plan, &inp.frames))),
    }
}

/// The world's use of its queue: one schedule per pop, never a cancel
/// (stale CPU events are skipped by generation, kernel timers live in
/// the hosts), at the run's pending depth and event spacing.
fn queue(depth: usize, gap: SimDuration) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = SplitMix64::new(1);
    let horizon = (gap.as_nanos() * depth as u64 * 2).max(2);
    let mut now = SimTime::ZERO;
    for i in 0..depth as u64 {
        q.schedule(now + SimDuration::from_nanos(rng.next_below(horizon)), i);
    }
    time_ops(|| {
        for _ in 0..1024 {
            let (t, e) = q.pop().expect("depth is kept constant");
            now = t;
            q.schedule(
                now + SimDuration::from_nanos(rng.next_below(horizon)),
                black_box(e),
            );
        }
        1024
    })
}

fn parse(frames: &[Frame]) -> f64 {
    time_ops(|| {
        for f in frames {
            let (ih, payload) = ipv4::parse(f.bytes()).expect("rebuilt frames are well-formed");
            match ih.proto {
                proto::UDP => {
                    black_box(udp::parse(payload).expect("well-formed"));
                }
                _ => {
                    black_box(tcp::parse(payload).expect("well-formed"));
                }
            }
        }
        frames.len() as u64
    })
}

fn build(frames: &[Frame]) -> f64 {
    // Parse once, outside the timed loop; rebuilding is what is timed.
    enum Parts<'a> {
        Udp(ipv4::Ipv4Header, udp::UdpHeader, &'a [u8]),
        Tcp(ipv4::Ipv4Header, tcp::TcpHeader, &'a [u8]),
    }
    let parts: Vec<Parts<'_>> = frames
        .iter()
        .map(|f| {
            let (ih, payload) = ipv4::parse(f.bytes()).expect("well-formed");
            if ih.proto == proto::UDP {
                let (uh, body) = udp::parse(payload).expect("well-formed");
                Parts::Udp(ih, uh, body)
            } else {
                let (th, body) = tcp::parse(payload).expect("well-formed");
                Parts::Tcp(ih, th, body)
            }
        })
        .collect();
    time_ops(|| {
        for p in &parts {
            // `Frame::ipv4` moves the bytes into an arena-backed buffer
            // and the drop recycles it, as on the simulated link.
            black_box(Frame::ipv4(match p {
                Parts::Udp(ih, uh, body) => udp::build_datagram(
                    ih.src,
                    ih.dst,
                    uh.src_port,
                    uh.dst_port,
                    ih.ident,
                    body,
                    false,
                ),
                Parts::Tcp(ih, th, body) => tcp::build_datagram(ih.src, ih.dst, th, ih.ident, body),
            }));
        }
        parts.len() as u64
    })
}

/// Nanoseconds per *frame* to verify the transport checksum.
fn checksum(frames: &[Frame]) -> f64 {
    time_ops(|| {
        for f in frames {
            let (ih, payload) = ipv4::parse(f.bytes()).expect("well-formed");
            black_box(if ih.proto == proto::UDP {
                udp::verify_checksum(ih.src, ih.dst, payload)
            } else {
                tcp::verify_checksum(ih.src, ih.dst, payload)
            });
        }
        frames.len() as u64
    })
}

/// The key a receiving host registers for `frame`'s flow: exact for a
/// TCP connection, wildcard for UDP and for a TCP listener (SYNs).
fn flow_key(frame: &Frame) -> FlowKey {
    let (ih, payload) = ipv4::parse(frame.bytes()).expect("well-formed");
    if ih.proto == proto::UDP {
        let (uh, _) = udp::parse(payload).expect("well-formed");
        return FlowKey::listening(proto::UDP, Endpoint::new(ih.dst, uh.dst_port));
    }
    let (th, _) = tcp::parse(payload).expect("well-formed");
    let local = Endpoint::new(ih.dst, th.dst_port);
    if th.has(tcp::flags::SYN) && !th.has(tcp::flags::ACK) {
        FlowKey::listening(proto::TCP, local)
    } else {
        FlowKey::new(proto::TCP, local, Endpoint::new(ih.src, th.src_port))
    }
}

/// A key no workload uses, to pad a table to the run's population.
fn filler_key(local: Ipv4Addr, i: usize) -> FlowKey {
    FlowKey::new(
        proto::TCP,
        Endpoint::new(local, 1),
        Endpoint::new(
            Ipv4Addr::new(172, 16, (i >> 8) as u8, i as u8),
            1 + (i >> 16) as u16,
        ),
    )
}

/// The keys of the replayed table: the captured flows, then filler up
/// to the population the run ended with.
fn table_keys(inp: &ReplayInputs) -> Vec<FlowKey> {
    let captured: BTreeSet<FlowKey> = inp.frames.iter().map(flow_key).collect();
    let filler = inp.demux_entries.saturating_sub(captured.len());
    captured
        .into_iter()
        .chain((0..filler).map(|i| filler_key(inp.local, i)))
        .collect()
}

/// Room for the standing keys plus the churn `update` adds.
fn table_capacity(keys: &[FlowKey]) -> usize {
    keys.len() + CHURN_KEYS + 16
}

/// Keys registered and unregistered beside the standing population.
const CHURN_KEYS: usize = 1024;

fn filled_table(inp: &ReplayInputs) -> DemuxTable {
    let keys = table_keys(inp);
    let mut table = DemuxTable::new(table_capacity(&keys), inp.local);
    for key in keys {
        table
            .register(key, ChannelId(1))
            .expect("distinct keys within capacity");
    }
    table
}

fn classify(inp: &ReplayInputs) -> f64 {
    let mut table = filled_table(inp);
    time_ops(|| {
        for f in &inp.frames {
            black_box(table.classify(f));
        }
        inp.frames.len() as u64
    })
}

fn update(inp: &ReplayInputs) -> f64 {
    let mut table = filled_table(inp);
    // Connections come and go beside the standing population.
    let churn: Vec<FlowKey> = (0..CHURN_KEYS)
        .map(|i| filler_key(inp.local, 1 << 20 | i))
        .collect();
    time_ops(|| {
        for key in &churn {
            table
                .register(*key, ChannelId(2))
                .expect("capacity covers the churn keys");
            black_box(table.unregister(key));
        }
        churn.len() as u64
    })
}

fn nic_rx(inp: &ReplayInputs, mode: DemuxMode) -> f64 {
    let keys = table_keys(inp);
    let mut nic = Nic::new(mode, inp.local, table_capacity(&keys));
    let chan = nic.create_default_channel();
    for key in keys {
        nic.demux
            .register(key, chan)
            .expect("distinct keys within capacity");
    }
    let mut batch = Vec::with_capacity(16);
    let mut now_ns = 0;
    time_ops(|| {
        for f in &inp.frames {
            now_ns += 1_000;
            black_box(nic.rx_frame_at(now_ns, f.clone()));
            match nic.last_rx_channel() {
                // NI demux queued it on a channel: the receiver takes it.
                Some(c) => {
                    black_box(nic.channel_mut(c).dequeue());
                }
                // Ring: the driver drains per interrupt batch.
                None if nic.ring_depth() >= 16 => {
                    nic.ring_drain_into(0, 16, &mut batch);
                    batch.clear();
                }
                None => {}
            }
        }
        inp.frames.len() as u64
    })
}

fn sched(procs: usize) -> f64 {
    let mut s = Scheduler::new(SchedConfig::default());
    let pids: Vec<_> = (0..procs.max(1))
        .map(|i| s.spawn(&format!("p{i}"), 0, SimDuration::ZERO))
        .collect();
    // Everyone blocks in a receive; then one wakes per cycle.
    let chan = |pid: lrp_sched::Pid| WaitChannel(pid.0 as u64 + 1);
    while let Some(pid) = s.pick_next() {
        s.sleep(pid, chan(pid), PSOCK);
    }
    let mut i = 0usize;
    time_ops(|| {
        for _ in 0..256 {
            i += 1;
            let target = pids[i % pids.len()];
            s.wakeup(chan(target));
            let mut pid = s.pick_next().expect("just woken");
            if i.is_multiple_of(8) {
                // Quantum expiry: back of the queue, picked again.
                s.requeue(pid, false);
                pid = s.pick_next().expect("just requeued");
            }
            s.sleep(black_box(pid), chan(pid), PSOCK);
        }
        256
    })
}

const PEER_A: Endpoint = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1);
const PEER_B: Endpoint = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 2);

fn tcp_config() -> TcpConfig {
    // No delayed ACK: every data segment is answered, so a round trip
    // is a fixed number of segment arrivals.
    TcpConfig {
        delack: None,
        ..TcpConfig::default()
    }
}

/// Delivers segments back and forth until both ends fall silent;
/// returns the number of segment arrivals.
fn exchange(a: &mut TcpConn, b: &mut TcpConn, now: SimTime, mut to_b: Vec<Segment>) -> u64 {
    let mut arrivals = 0;
    let mut to_a = Vec::new();
    while !(to_a.is_empty() && to_b.is_empty()) {
        for s in to_b.drain(..) {
            arrivals += 1;
            to_a.extend(b.on_segment(now, &s.hdr, &s.payload).segments);
        }
        for s in to_a.drain(..) {
            arrivals += 1;
            to_b.extend(a.on_segment(now, &s.hdr, &s.payload).segments);
        }
    }
    arrivals
}

/// A connected pair.
fn tcp_pair(now: SimTime) -> (TcpConn, TcpConn) {
    let cfg = tcp_config();
    let mut a = TcpConn::new(cfg, PEER_A, PEER_B, 100);
    let syn = a.connect(now).segments;
    let (mut b, synack) = TcpConn::accept_syn(cfg, PEER_B, PEER_A, 900, &syn[0].hdr, now);
    // The SYN|ACK goes to `a`, whose ACK completes `b`.
    exchange(&mut b, &mut a, now, synack.segments);
    (a, b)
}

fn tcp_segment_cost(payload_len: usize) -> f64 {
    let mut now = SimTime::ZERO;
    let (mut a, mut b) = tcp_pair(now);
    let payload = vec![0xBB; payload_len];
    time_ops(|| {
        let mut arrivals = 0;
        for _ in 0..64 {
            // Time moves so rate-based controllers see real RTT samples.
            now += SimDuration::from_micros(100);
            let (_, acts) = a.write(now, &payload);
            arrivals += exchange(&mut a, &mut b, now, acts.segments);
            black_box(b.read(usize::MAX));
        }
        arrivals
    })
}

fn tcp_handshake() -> f64 {
    let mut now = SimTime::ZERO;
    time_ops(|| {
        for _ in 0..64 {
            now += SimDuration::from_micros(100);
            let (mut a, mut b) = tcp_pair(now);
            let fin = a.close(now).segments;
            exchange(&mut a, &mut b, now, fin);
            let fin = b.close(now).segments;
            // Same pump, roles swapped.
            black_box(exchange(&mut b, &mut a, now, fin));
        }
        64
    })
}

fn fault(plan: &FaultPlan, frames: &[Frame]) -> f64 {
    let mut stage = LinkFaults::new(plan.clone());
    let mut at = SimTime::ZERO;
    time_ops(|| {
        for f in frames {
            at += SimDuration::from_micros(10);
            black_box(stage.apply(at, f.clone()));
        }
        frames.len() as u64
    })
}

fn tcp_payload_len(frame: &Frame) -> Option<usize> {
    let (ih, payload) = ipv4::parse(frame.bytes()).ok()?;
    (ih.proto == proto::TCP).then(|| tcp::parse(payload).ok().map(|(_, body)| body.len()))?
}
