//! The span log end to end: a UDP blast into one sink, on each
//! architecture, checked against the host's other records (ledger,
//! latency histograms, the application's own count). The span log is the
//! host's one per-packet event record, so what it says about each frame
//! must agree with every counter that saw the same frame.

use std::collections::BTreeMap;

use lrp_apps::{BlastSink, Shared, SinkMetrics};
use lrp_core::telemetry::span_chunk_stats;
use lrp_core::{
    AppCtx, AppLogic, Architecture, Host, HostConfig, SockProto, SpanEvent, SyscallOp, SyscallRet,
    World,
};
use lrp_net::{Injector, Pattern};
use lrp_nic::NicFaultPlan;
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::SockId;
use lrp_wire::{udp, Frame, Ipv4Addr};

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// The stages a delivered, consumed datagram passes, in order.
const FULL_PATH: [&str; 6] = ["inject", "rx", "enq", "deq", "deliver", "recv"];

/// A sink on B fed by `pps` datagrams per second from 10 ms until
/// `stop_ms`.
fn blast(
    arch: Architecture,
    telemetry: bool,
    pps: f64,
    stop_ms: u64,
) -> (World, Shared<SinkMetrics>) {
    let metrics = lrp_apps::shared::<SinkMetrics>();
    let mut world = World::with_defaults();
    let mut cfg = HostConfig::new(arch);
    cfg.telemetry = telemetry;
    let mut host = Host::new(cfg, B);
    host.spawn_app(
        "sink",
        0,
        0,
        Box::new(BlastSink::new(9000, metrics.clone())),
    );
    let b = world.add_host(host);
    let inj = Injector::new(
        Pattern::FixedRate { pps },
        SimTime::from_millis(10),
        3,
        move |seq| {
            Frame::ipv4(udp::build_datagram(
                A,
                B,
                6000,
                9000,
                (seq & 0xFFFF) as u16,
                &[0u8; 14],
                false,
            ))
        },
    )
    .stop_at(SimTime::from_millis(stop_ms));
    world.add_injector(b, inj);
    (world, metrics)
}

/// Each span's stage names, in log order.
fn paths(log: &[SpanEvent]) -> BTreeMap<u64, Vec<&'static str>> {
    let mut by_span: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    for e in log {
        by_span.entry(e.span).or_default().push(e.stage);
    }
    by_span
}

/// How many events of `stage` the log holds.
fn count(log: &[SpanEvent], stage: &str) -> u64 {
    log.iter().filter(|e| e.stage == stage).count() as u64
}

/// Light load, injection stopped well before the end: every injected
/// datagram is consumed, and each one's span runs the full path once, in
/// time order, with the protocol stages on a CPU the host has.
fn light_load_spans_complete(arch: Architecture) {
    let (mut world, metrics) = blast(arch, true, 2_000.0, 210);
    world.run_until(SimTime::from_millis(400));
    let host = &world.hosts[0];
    let tele = host.telemetry();
    let log: Vec<SpanEvent> = tele.span_log().collect();
    let received = metrics.borrow().received;
    assert_eq!(received, 400, "{arch}: the sink consumed every datagram");
    let by_span = paths(&log);
    assert_eq!(
        by_span.len() as u64,
        received,
        "{arch}: one span per datagram"
    );
    for (span, stages) in &by_span {
        assert_eq!(stages, &FULL_PATH, "{arch}: span {span:#x}");
    }
    for e in &log {
        assert!(
            (e.cpu as usize) < host.cfg.ncpus,
            "{arch}: {e:?} on a CPU the host lacks"
        );
    }
    assert_eq!(tele.span_events_dropped, 0);
}

#[test]
fn light_load_spans_complete_on_bsd() {
    light_load_spans_complete(Architecture::Bsd);
}

#[test]
fn light_load_spans_complete_on_early_demux() {
    light_load_spans_complete(Architecture::EarlyDemux);
}

#[test]
fn light_load_spans_complete_on_soft_lrp() {
    light_load_spans_complete(Architecture::SoftLrp);
}

#[test]
fn light_load_spans_complete_on_ni_lrp() {
    light_load_spans_complete(Architecture::NiLrp);
}

/// With telemetry off the same run logs nothing: no span events, none
/// dropped, no latency samples — and the simulation itself is the same.
#[test]
fn spans_are_not_logged_without_telemetry() {
    let (mut on, on_metrics) = blast(Architecture::NiLrp, true, 2_000.0, 210);
    let (mut off, off_metrics) = blast(Architecture::NiLrp, false, 2_000.0, 210);
    on.run_until(SimTime::from_millis(400));
    off.run_until(SimTime::from_millis(400));
    let tele = off.hosts[0].telemetry();
    assert_eq!(tele.span_log().len(), 0);
    assert_eq!(tele.span_events_dropped, 0);
    assert_eq!(tele.arrival_to_deliver.count(), 0);
    assert_eq!(tele.channel_residency.count(), 0);
    assert_ne!(on.hosts[0].telemetry().span_log().len(), 0);
    assert_eq!(off_metrics.borrow().received, on_metrics.borrow().received);
    assert_eq!(
        off.hosts[0].stats.udp_delivered,
        on.hosts[0].stats.udp_delivered
    );
}

/// After an overload on every architecture has drained, the span log
/// agrees with the ledger and the application: one `rx` per frame the
/// NIC handed to the host (not shed on the card), one `deliver` per
/// datagram put in the socket buffer, one `recv` per datagram the sink
/// consumed. A span that was shed stops early, but always on a prefix of
/// the full path.
#[test]
fn overload_span_log_agrees_with_the_ledger() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (mut world, metrics) = blast(arch, true, 20_000.0, 300);
        world.run_until(SimTime::from_millis(600));
        let host = &world.hosts[0];
        let tele = host.telemetry();
        let log: Vec<SpanEvent> = tele.span_log().collect();
        let ledger = host.packet_ledger();
        assert!(ledger.conserved(), "{arch}: {ledger:?}");
        assert_eq!(ledger.in_flight, 0, "{arch}: the queues drained");
        assert_eq!(tele.span_events_dropped, 0);
        let nic_shed = ledger.nic_ring_drops + ledger.nic_early_discards + ledger.nic_stall_drops;
        assert_eq!(count(&log, "rx"), ledger.accepted - nic_shed, "{arch}: rx");
        assert_eq!(
            count(&log, "deliver"),
            ledger.delivered_udp,
            "{arch}: deliver"
        );
        assert_eq!(
            count(&log, "recv"),
            metrics.borrow().received,
            "{arch}: recv"
        );
        assert!(
            ledger.delivered_udp < count(&log, "inject"),
            "{arch}: the overload shed nothing"
        );
        for (span, stages) in paths(&log) {
            assert_eq!(
                stages,
                FULL_PATH[..stages.len()],
                "{arch}: span {span:#x} left the path"
            );
        }
    }
}

/// Under interrupt coalescing one interrupt drains a batch of frames, but
/// only the frame that raised it brought its span along: each span still
/// runs at most once through each queue, and always along the path.
#[test]
fn coalesced_batches_keep_one_span_per_frame() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
    ] {
        let (mut world, metrics) = blast(arch, true, 20_000.0, 300);
        world.hosts[0].nic.set_faults(NicFaultPlan {
            coalesce_ns: 200_000,
            ..NicFaultPlan::none()
        });
        world.run_until(SimTime::from_millis(600));
        let log: Vec<SpanEvent> = world.hosts[0].telemetry().span_log().collect();
        assert!(metrics.borrow().received > 0, "{arch}: nothing delivered");
        assert!(count(&log, "deliver") > 0, "{arch}: no span delivered");
        for (span, stages) in paths(&log) {
            for stage in ["enq", "deliver", "recv"] {
                let n = stages.iter().filter(|&&s| s == stage).count();
                assert!(n <= 1, "{arch}: span {span:#x} has {n} `{stage}`");
            }
            assert_eq!(
                stages,
                FULL_PATH[..stages.len()],
                "{arch}: span {span:#x} left the path"
            );
        }
    }
}

/// The log is appended as the simulation runs, so it is in time order,
/// and each latency histogram holds one sample per logged stage it times.
#[test]
fn span_log_is_time_ordered_and_matches_the_histograms() {
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let (mut world, _metrics) = blast(arch, true, 20_000.0, 300);
        world.run_until(SimTime::from_millis(300));
        let tele = world.hosts[0].telemetry();
        let log: Vec<SpanEvent> = tele.span_log().collect();
        assert!(
            log.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "{arch}: span log out of time order"
        );
        assert_eq!(
            tele.arrival_to_deliver.count(),
            count(&log, "deliver"),
            "{arch}"
        );
        let queue_wait = if arch == Architecture::Bsd {
            &tele.softirq_dispatch
        } else {
            &tele.channel_residency
        };
        assert_eq!(queue_wait.count(), count(&log, "deq"), "{arch}");
    }
}

/// Binds a UDP socket to port 9000 and computes while frames queue on
/// its channel, closes it with them still queued, then binds a fresh
/// socket to port 9001 and receives one datagram on it.
struct ReopenAndReceive {
    step: u32,
    sock: Option<SockId>,
}

impl AppLogic for ReopenAndReceive {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if let SyscallRet::Socket(s) = ret {
            self.sock = Some(s);
        }
        let sock = self.sock.expect("a socket first");
        self.step += 1;
        match self.step {
            1 => SyscallOp::Bind { sock, port: 9000 },
            2 => SyscallOp::Compute(SimDuration::from_millis(30)),
            3 => SyscallOp::Close { sock },
            4 => SyscallOp::Socket(SockProto::Udp),
            5 => SyscallOp::Bind { sock, port: 9001 },
            6 => SyscallOp::Recv { sock, max_len: 64 },
            _ => SyscallOp::Exit,
        }
    }
}

/// `count` datagrams to `port` on B, one a millisecond from `start_ms`.
fn datagrams(port: u16, start_ms: u64, count: u64) -> Injector {
    let frame = move |seq: u64| {
        Frame::ipv4(udp::build_datagram(
            A, B, 6000, port, seq as u16, &[0; 14], false,
        ))
    };
    Injector::new(
        Pattern::FixedRate { pps: 1_000.0 },
        SimTime::from_millis(start_ms),
        3,
        frame,
    )
    .stop_at(SimTime::from_millis(start_ms + count - 1) + SimDuration::from_micros(500))
}

/// A channel destroyed while it still holds frames leaves nothing behind
/// for the channel that reuses its id: the one frame through the new
/// channel is its one residency sample, and the sample is that frame's
/// own wait (dequeue minus enqueue in the span log).
#[test]
fn a_reused_channel_id_times_only_its_own_frames() {
    let mut cfg = HostConfig::new(Architecture::NiLrp);
    cfg.telemetry = true;
    let mut host = Host::new(cfg, B);
    let app = ReopenAndReceive {
        step: 0,
        sock: None,
    };
    host.spawn_app("reopen", 0, 0, Box::new(app));
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    world.add_injector(b, datagrams(9000, 5, 3));
    world.add_injector(b, datagrams(9001, 50, 1));
    world.run_until(SimTime::from_millis(20));
    let chans = world.hosts[b].nic.channel_ids();
    let held = *chans.last().expect("the socket's channel");
    assert_eq!(world.hosts[b].nic.channel(held).depth(), 3);
    world.run_until(SimTime::from_millis(100));
    let h = &world.hosts[b];
    assert_eq!(h.nic.channel_ids(), chans, "the new channel reuses the id");
    let ledger = h.packet_ledger();
    assert_eq!(ledger.flushed, 3, "the held frames died with their channel");
    assert_eq!(ledger.delivered_udp, 1);
    let tele = h.telemetry();
    let res = &tele.channel_residency;
    assert_eq!(res.count(), 1);
    let log: Vec<SpanEvent> = tele.span_log().collect();
    let inject = log.iter().rfind(|e| e.stage == "inject");
    let span = inject.expect("the frame to port 9001").span;
    let at = |stage| {
        log.iter()
            .find(|e| e.span == span && e.stage == stage)
            .unwrap_or_else(|| panic!("no {stage}"))
            .t_ns
    };
    assert_eq!(res.max(), at("deq") - at("enq"));
    assert!(res.max() > 0, "the frame waited for its receiver");
}

/// On a 2-CPU host, a flow that RSS steers to queue 1 interrupts CPU 1.
/// BSD's handler puts the frame on the IP queue there, so its `enq` is
/// logged on CPU 1; NI-LRP's firmware queues the frame on the NIC, a
/// NIC stage, logged on CPU 0.
#[test]
fn enq_is_logged_where_the_frame_was_queued() {
    for (arch, want) in [(Architecture::Bsd, 1), (Architecture::NiLrp, 0)] {
        let mut cfg = HostConfig::new(arch);
        cfg.telemetry = true;
        cfg.ncpus = 2;
        let mut host = Host::new(cfg, B);
        let to = |port| Frame::ipv4(udp::build_datagram(A, B, 6000, port, 0, &[0; 14], false));
        let port = (9000..)
            .find(|&p| host.nic.rx_queue_of(&to(p)) == 1)
            .expect("a port on queue 1");
        let metrics = lrp_apps::shared::<SinkMetrics>();
        let sink = BlastSink::new(port, metrics.clone());
        host.spawn_app("sink", 0, 0, Box::new(sink));
        let mut world = World::with_defaults();
        let b = world.add_host(host);
        world.add_injector(b, datagrams(port, 5, 20));
        world.run_until(SimTime::from_millis(50));
        assert_eq!(metrics.borrow().received, 20, "{arch}");
        let enq: Vec<u32> = world.hosts[b]
            .telemetry()
            .span_log()
            .filter(|e| e.stage == "enq")
            .map(|e| e.cpu)
            .collect();
        assert_eq!(enq, [want; 20], "{arch}");
    }
}

/// Span-log storage outlives its world: a second world run on the same
/// thread records its spans into the chunks the first one returned, and
/// makes none of its own.
#[test]
fn a_second_world_records_spans_into_the_first_ones_chunks() {
    std::thread::spawn(|| {
        let run = || {
            let (mut world, metrics) = blast(Architecture::NiLrp, true, 20_000.0, 300);
            world.run_until(SimTime::from_millis(300));
            assert!(metrics.borrow().received > 0);
            let events = world.hosts[0].telemetry().span_log().len();
            events
        };
        let events = run();
        let first = span_chunk_stats();
        assert!(events > 4096, "the log spans more than one chunk: {events}");
        assert_eq!(first.pooled as u64, first.made, "every chunk came back");
        assert_eq!(run(), events);
        assert_eq!(span_chunk_stats(), first, "the second world made no chunk");
    })
    .join()
    .expect("test thread");
}
