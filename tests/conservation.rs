//! Packet conservation (DESIGN.md §7), checked end-to-end through the
//! telemetry ledger: every frame the NIC accepts must be accounted for in
//! exactly one disposition bucket — delivered, dropped (at a named drop
//! point), absorbed by reassembly, forwarded, flushed with a destroyed
//! channel, or still in flight — under every architecture, at overload.
//!
//! Also pins the telemetry layer's zero-impact claim directly: the same
//! scenario with telemetry on and off produces bit-identical kernel
//! state.

use lrp::apps::{shared, BlastSink};
use lrp::core::{Architecture, Host, HostConfig, World};
use lrp::net::{Injector, Pattern};
use lrp::sim::SimTime;
use lrp::telemetry::{conservation_errors, histogram_json, ledger_json, report_and_check, Json};
use lrp::wire::{udp, Frame, Ipv4Addr};

const OVERLOAD_PPS: f64 = 20_000.0;
const DURATION: SimTime = SimTime::from_secs(1);

fn overloaded_world(arch: Architecture) -> World {
    let (mut world, _metrics) = lrp::experiments::fig3::build(arch, OVERLOAD_PPS, false);
    world.run_until(DURATION);
    world
}

#[test]
fn ledger_balances_under_overload_for_every_architecture() {
    for arch in lrp::experiments::all_architectures() {
        let world = overloaded_world(arch);
        let errs = conservation_errors(&world);
        assert!(errs.is_empty(), "{arch:?}: {errs:?}");

        let host = &world.hosts[0];
        let ledger = host.packet_ledger();
        // The partition, by construction and by value.
        assert_eq!(ledger.accepted, ledger.disposed(), "{arch:?}: {ledger:?}");
        // Spot-check buckets against independent counters.
        assert_eq!(ledger.accepted, host.nic.stats().rx_frames, "{arch:?}");
        assert_eq!(ledger.delivered_udp, host.stats.udp_delivered, "{arch:?}");
        assert!(
            ledger.delivered_udp > 0,
            "{arch:?}: overload run delivered nothing"
        );
        // At 20 000 pkts/s every architecture is saturated: something must
        // have been refused somewhere (ring, early discard, or drop point).
        assert!(
            ledger.nic_ring_drops + ledger.nic_early_discards + ledger.host_dropped() > 0,
            "{arch:?}: no losses at overload — not actually overloaded? {ledger:?}"
        );
    }
}

#[test]
fn report_and_check_exports_the_balanced_ledger() {
    let world = overloaded_world(Architecture::SoftLrp);
    let report = report_and_check(&world, "conservation-test");
    let host = report
        .as_arr()
        .expect("array of hosts")
        .first()
        .expect("one host");
    assert_eq!(host.get("conserved").and_then(Json::as_bool), Some(true));
    let exported = host.get("ledger").expect("ledger");
    // The JSON export is the same ledger, field for field.
    assert_eq!(
        exported.render(),
        ledger_json(&world.hosts[0].packet_ledger()).render()
    );
    let accepted = exported.get("accepted").and_then(Json::as_u64).unwrap();
    let disposed = exported.get("disposed").and_then(Json::as_u64).unwrap();
    assert_eq!(accepted, disposed);
}

/// The Figure-3 blast scenario, built directly (not via
/// `lrp_experiments::host_config`, which forces telemetry on) so the
/// telemetry flag can be varied.
fn blast_world(arch: Architecture, telemetry: bool) -> World {
    const BLAST_SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    let mut world = World::with_defaults();
    let mut cfg = HostConfig::new(arch);
    cfg.telemetry = telemetry;
    let mut server = Host::new(cfg, SERVER);
    server.spawn_app("blast-sink", 0, 0, Box::new(BlastSink::new(9000, shared())));
    let b = world.add_host(server);
    let inj = Injector::new(
        Pattern::Poisson { pps: OVERLOAD_PPS },
        SimTime::from_millis(50),
        7,
        move |seq| {
            let mut payload = [0u8; 14];
            payload[..8].copy_from_slice(&seq.to_be_bytes());
            Frame::ipv4(udp::build_datagram(
                BLAST_SRC,
                SERVER,
                6000,
                9000,
                (seq & 0xFFFF) as u16,
                &payload,
                false,
            ))
        },
    );
    world.add_injector(b, inj);
    world.run_until(DURATION);
    world
}

fn kernel_state(h: &lrp::core::Host) -> String {
    let s = &h.stats;
    let mut drops: Vec<String> = s.drops.iter().map(|(k, v)| format!("{k:?}={v}")).collect();
    drops.sort();
    format!(
        "{s_udp} {s_bytes} [{drops}] {hw} {soft} {ctx} {nic:?} {charged} {rxf}",
        s_udp = s.udp_delivered,
        s_bytes = s.udp_delivered_bytes,
        drops = drops.join(","),
        hw = s.hw_chunks,
        soft = s.soft_jobs,
        ctx = s.ctx_switches,
        nic = h.nic.stats(),
        charged = h.sched.total_charged(),
        rxf = h.rx_frames()
    )
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    for arch in lrp::experiments::all_architectures() {
        let on = blast_world(arch, true);
        let off = blast_world(arch, false);
        assert_eq!(
            kernel_state(&on.hosts[0]),
            kernel_state(&off.hosts[0]),
            "{arch:?}: telemetry perturbed the kernel state"
        );
        // And the instrumented run really did record — including the
        // observability layer (profiler, timeline), which must be busy on
        // the "on" side and empty on the "off" side while the kernel
        // state above stays bit-identical.
        assert!(on.hosts[0].telemetry().enabled());
        assert!(on.hosts[0].packet_ledger().conserved());
        assert!(on.hosts[0].telemetry().profiler().total() > 0);
        assert!(!on.hosts[0].telemetry().timeline().is_empty());
        assert!(!off.hosts[0].telemetry().enabled());
        // The ledger is host state: counted, and balanced, either way.
        assert!(off.hosts[0].packet_ledger().conserved());
        assert_eq!(
            off.hosts[0].packet_ledger(),
            on.hosts[0].packet_ledger(),
            "{arch:?}"
        );
        assert_eq!(off.hosts[0].telemetry().profiler().total(), 0);
        assert!(off.hosts[0].telemetry().timeline().is_empty());
    }
}

/// Same zero-impact claim over a request-reply workload, which exercises
/// the span-tracing paths (tx-minted spans, reply continuation) that the
/// one-way blast does not.
#[test]
fn telemetry_does_not_perturb_request_reply() {
    fn rtt_world(telemetry: bool) -> World {
        let mut cfg = HostConfig::new(Architecture::NiLrp);
        cfg.telemetry = telemetry;
        let (mut world, metrics) = lrp::experiments::table1::build_rtt(cfg, 100);
        world.run_until(SimTime::from_secs(2));
        assert!(metrics.borrow().done, "ping-pong did not finish");
        world
    }
    let on = rtt_world(true);
    let off = rtt_world(false);
    for i in 0..2 {
        assert_eq!(
            kernel_state(&on.hosts[i]),
            kernel_state(&off.hosts[i]),
            "host {i}: telemetry perturbed the kernel state"
        );
    }
    assert_ne!(on.hosts[0].telemetry().span_log().len(), 0);
    assert_eq!(off.hosts[0].telemetry().span_log().len(), 0);
}

/// The per-stage latency histograms are deterministic observers:
/// rerunning the same seeded blast produces bit-identical histograms, so
/// histograms from different hosts, CPUs or seeds merge reproducibly.
#[test]
fn latency_histograms_are_deterministic_observers() {
    let a = blast_world(Architecture::NiLrp, true);
    let b = blast_world(Architecture::NiLrp, true);
    let (ta, tb) = (a.hosts[0].telemetry(), b.hosts[0].telemetry());
    assert!(ta.arrival_to_deliver.count() > 0);
    assert!(ta.channel_residency.count() > 0);
    assert_eq!(ta.arrival_to_deliver, tb.arrival_to_deliver);
    assert_eq!(ta.channel_residency, tb.channel_residency);
    assert_eq!(ta.softirq_dispatch, tb.softirq_dispatch);
}

/// Every UDP datagram that reaches a socket buffer contributes exactly
/// one arrival-to-delivery sample, on every architecture.
#[test]
fn every_delivery_records_one_latency_sample() {
    for arch in lrp::experiments::all_architectures() {
        let world = blast_world(arch, true);
        let host = &world.hosts[0];
        let ledger = host.packet_ledger();
        assert!(ledger.delivered_udp > 0, "{arch:?}");
        assert_eq!(
            host.telemetry().arrival_to_deliver.count(),
            ledger.delivered_udp + ledger.delivered_icmp,
            "{arch:?}"
        );
    }
}

/// With telemetry off the hooks record nothing: every stage histogram
/// stays empty while the simulation runs as usual.
#[test]
fn disabled_telemetry_records_no_latency() {
    for arch in lrp::experiments::all_architectures() {
        let world = blast_world(arch, false);
        let host = &world.hosts[0];
        let t = host.telemetry();
        assert!(host.stats.udp_delivered > 0, "{arch:?}");
        for h in [
            &t.arrival_to_deliver,
            &t.channel_residency,
            &t.softirq_dispatch,
        ] {
            assert_eq!(h.count(), 0, "{arch:?}");
        }
    }
}

/// The host report quotes each stage's histogram as is: one summary per
/// stage and nothing beside it.
#[test]
fn host_report_quotes_the_stage_histograms() {
    let world = overloaded_world(Architecture::Bsd);
    let report = report_and_check(&world, "latency-report-test");
    let latency = report.as_arr().unwrap()[0].get("latency_ns").unwrap();
    let t = world.hosts[0].telemetry();
    let stages = [
        ("arrival_to_deliver", &t.arrival_to_deliver),
        ("channel_residency", &t.channel_residency),
        ("softirq_dispatch", &t.softirq_dispatch),
    ];
    assert_eq!(latency.as_obj().unwrap().len(), stages.len());
    for (name, h) in stages {
        let got = latency.get(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(got.render(), histogram_json(h).render(), "{name}");
    }
    assert!(
        t.softirq_dispatch.count() > 0,
        "BSD dispatches through the IP queue"
    );
}

/// Which stages record follows the architecture's receive path: 4.4BSD
/// queues frames for the softirq and has no NI channels, the LRP kernels
/// queue on channels and have no softirq, and Early-Demux does both.
#[test]
fn latency_stages_follow_the_receive_path() {
    for arch in lrp::experiments::all_architectures() {
        let world = blast_world(arch, true);
        let t = world.hosts[0].telemetry();
        let (chan, soft) = (
            t.channel_residency.count() > 0,
            t.softirq_dispatch.count() > 0,
        );
        let want = match arch {
            Architecture::Bsd => (false, true),
            Architecture::EarlyDemux => (true, true),
            Architecture::SoftLrp | Architecture::NiLrp => (true, false),
        };
        assert_eq!((chan, soft), want, "{arch:?}: (channel, softirq) samples");
    }
}

/// Ablation A4 (no APP thread, §3.4): TCP input then runs only lazily in
/// the blocked connect, accept, send and receive calls. A bulk transfer
/// and an HTTP run cover all four on both LRP architectures; the ledger
/// balances on both hosts and the outcomes are pinned. A blocked call
/// requests its channel's demand interrupt before it sleeps, so on both
/// architectures the bulk receiver gets all but the stream's tail and
/// then stops at §3.4's stall: the sender's application has exited, and
/// with it the only context that processed the sender's ACKs.
#[test]
fn lazy_tcp_without_app_thread_balances_and_is_pinned() {
    use lrp::apps::{TcpBulkMetrics, TcpBulkReceiver, TcpBulkSender};
    use lrp::experiments::{fig5, HOST_A, HOST_B};
    use lrp::wire::Endpoint;
    // (architecture, bulk bytes received, bulk done, HTTP transactions)
    let pinned = [
        (Architecture::SoftLrp, 4_188_956, false, 685),
        (Architecture::NiLrp, 4_188_956, false, 799),
    ];
    for (arch, bytes, done, http) in pinned {
        let mut cfg = lrp::experiments::host_config(arch);
        cfg.tcp_app_processing = false;

        let mut world = World::with_defaults();
        let metrics = shared::<TcpBulkMetrics>();
        let mut a = Host::new(cfg, HOST_A);
        let dst = Endpoint::new(HOST_B, 6400);
        a.spawn_app(
            "src",
            0,
            0,
            Box::new(TcpBulkSender::new(dst, 4 << 20, 16_384)),
        );
        let mut b = Host::new(cfg, HOST_B);
        b.spawn_app(
            "sink",
            0,
            0,
            Box::new(TcpBulkReceiver::new(6400, metrics.clone())),
        );
        world.add_host(a);
        world.add_host(b);
        world.run_until(SimTime::from_secs(2));
        let errs = conservation_errors(&world);
        assert!(errs.is_empty(), "{arch}: bulk: {errs:?}");
        let m = metrics.borrow();
        assert_eq!((m.bytes, m.done), (bytes, done), "{arch}: bulk");

        let (mut world, metrics) = fig5::build_with_config(cfg, 0.0);
        world.run_until(SimTime::from_secs(1));
        let errs = conservation_errors(&world);
        assert!(errs.is_empty(), "{arch}: http: {errs:?}");
        let transactions: u64 = metrics.iter().map(|m| m.borrow().transactions).sum();
        assert_eq!(transactions, http, "{arch}: http");
    }
}
