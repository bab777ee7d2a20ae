//! The span log end to end: a UDP blast into one sink, on each
//! architecture, checked against the host's other records (ledger,
//! latency histograms, the application's own count). The span log is the
//! host's one per-packet event record, so what it says about each frame
//! must agree with every counter that saw the same frame.

use std::collections::BTreeMap;

use lrp_apps::{BlastSink, Shared, SinkMetrics};
use lrp_core::{Architecture, Host, HostConfig, SpanEvent, World};
use lrp_net::{Injector, Pattern};
use lrp_sim::SimTime;
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
    let log = tele.span_log();
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
    assert!(tele.span_log().is_empty());
    assert_eq!(tele.span_events_dropped, 0);
    assert_eq!(tele.arrival_to_deliver.count(), 0);
    assert_eq!(tele.channel_residency.count(), 0);
    assert!(!on.hosts[0].telemetry().span_log().is_empty());
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
        let log = tele.span_log();
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

/// The log is appended as the simulation runs, so it is in time order,
/// and each latency histogram holds one sample per logged stage it times.
#[test]
fn span_log_is_time_ordered_and_matches_the_histograms() {
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let (mut world, _metrics) = blast(arch, true, 20_000.0, 300);
        world.run_until(SimTime::from_millis(300));
        let tele = world.hosts[0].telemetry();
        let log = tele.span_log();
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
