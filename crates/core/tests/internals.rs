//! Targeted tests of host-internal drop points and queue behaviours that
//! the architecture comparisons rest on.

use lrp_core::{Architecture, DropPoint, Host, HostConfig, World};
use lrp_net::{Injector, Pattern};
use lrp_sim::SimTime;
use lrp_wire::{udp, Frame, Ipv4Addr};

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn blast_world(arch: Architecture, pps: f64) -> (World, lrp_apps::Shared<lrp_apps::SinkMetrics>) {
    let metrics = lrp_apps::shared::<lrp_apps::SinkMetrics>();
    let mut world = World::with_defaults();
    let mut host = Host::new(HostConfig::new(arch), B);
    host.spawn_app(
        "sink",
        0,
        0,
        Box::new(lrp_apps::BlastSink::new(9000, metrics.clone())),
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
    );
    world.add_injector(b, inj);
    (world, metrics)
}

/// BSD's drop cascade under deepening overload: first the socket buffer
/// (after full protocol processing), then the shared IP queue (after
/// interrupt processing only) once the softirq itself saturates — the
/// §2.2 sequence.
#[test]
fn bsd_drop_cascade_orders_by_depth() {
    // Moderate overload: drops at the socket buffer only.
    let (mut w, _m) = blast_world(Architecture::Bsd, 10_000.0);
    w.run_until(SimTime::from_secs(2));
    let h = &w.hosts[0];
    assert!(
        h.stats.dropped(DropPoint::SockBuf) > 0,
        "sockbuf drops first"
    );
    assert_eq!(
        h.stats.dropped(DropPoint::IpQueue),
        0,
        "softirq still keeps up at 10k"
    );
    // Deep overload: the IP queue overflows too.
    let (mut w, _m) = blast_world(Architecture::Bsd, 22_000.0);
    w.run_until(SimTime::from_secs(2));
    let h = &w.hosts[0];
    assert!(
        h.stats.dropped(DropPoint::IpQueue) > 0,
        "IP queue overflows once softirq saturates"
    );
}

/// LRP's counterpart: everything sheds at the NI channel; the socket
/// buffer never overflows because packets are only processed on demand.
#[test]
fn lrp_sheds_at_the_channel_only() {
    let (mut w, _m) = blast_world(Architecture::NiLrp, 20_000.0);
    w.run_until(SimTime::from_secs(2));
    let h = &w.hosts[0];
    assert_eq!(h.stats.dropped(DropPoint::SockBuf), 0);
    assert_eq!(h.stats.dropped(DropPoint::IpQueue), 0);
    assert!(
        h.nic.stats().early_discards > 10_000,
        "the NIC shed the excess: {}",
        h.nic.stats().early_discards
    );
}

/// SOFT-LRP: drops happen at the channel (host-side), counted under the
/// Channel drop point, still before any protocol processing.
#[test]
fn soft_lrp_sheds_at_the_channel() {
    let (mut w, _m) = blast_world(Architecture::SoftLrp, 20_000.0);
    w.run_until(SimTime::from_secs(2));
    let h = &w.hosts[0];
    assert!(h.stats.dropped(DropPoint::Channel) > 10_000);
    assert_eq!(h.stats.dropped(DropPoint::SockBuf), 0);
}

/// Early-Demux at overload drops at demux time with socket-queue
/// feedback; protocol processing is only spent on admitted packets.
#[test]
fn early_demux_feedback_admits_bounded_work() {
    let (mut w, m) = blast_world(Architecture::EarlyDemux, 20_000.0);
    w.run_until(SimTime::from_secs(2));
    let h = &w.hosts[0];
    let admitted = h.stats.udp_delivered + h.stats.dropped(DropPoint::SockBuf);
    let channel_drops = h.stats.dropped(DropPoint::Channel);
    assert!(channel_drops > 10_000, "most of the flood dies at demux");
    // Work admitted roughly tracks what the app consumed: the feedback
    // binds.
    let consumed = m.borrow().received;
    assert!(
        admitted < consumed + consumed / 2 + 4_000,
        "admitted {admitted} vs consumed {consumed}: feedback too loose"
    );
}

/// Packet conservation at the NIC boundary: received = delivered + still
/// queued + dropped (each drop at exactly one point).
#[test]
fn packet_conservation_exact() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (mut w, m) = blast_world(arch, 15_000.0);
        w.run_until(SimTime::from_secs(1));
        let h = &w.hosts[0];
        let nic = h.nic.stats();
        let delivered = h.stats.udp_delivered;
        let dropped = h.stats.total_drops() + nic.early_discards + nic.ring_drops;
        // Frames still in flight inside the host at cutoff.
        let consumed = m.borrow().received;
        let in_host = delivered - consumed;
        assert!(
            delivered + dropped <= nic.rx_frames,
            "{arch}: overcounted ({delivered}+{dropped} > {})",
            nic.rx_frames
        );
        let unaccounted = nic.rx_frames - delivered - dropped;
        // Whatever is neither delivered nor dropped must still be sitting
        // in a bounded queue (channel ≤ 64, ipq ≤ 50, ring ≤ 256, rcvq).
        assert!(
            unaccounted <= 64 + 50 + 256 + 325,
            "{arch}: {unaccounted} frames unaccounted"
        );
        let _ = in_host;
        // The ledger, counted with telemetry off, places each one.
        let ledger = h.packet_ledger();
        assert!(ledger.conserved(), "{arch}: {ledger:?}");
        assert_eq!(ledger.delivered_udp, delivered, "{arch}");
    }
}

/// A drop point's name, the key of the ledger's `host_drops` and of the
/// reports, is its variant's name.
#[test]
fn drop_point_names_are_the_variant_names() {
    use DropPoint::*;
    let all = [
        RxRing,
        Channel,
        IpQueue,
        SockBuf,
        BadPacket,
        NoSocket,
        Backlog,
        Reasm,
        IfQueue,
        NicStall,
        PortUnreach,
    ];
    for p in all {
        assert_eq!(p.name(), format!("{p:?}"));
    }
}

/// Forwarding decrements TTL and drops expired packets instead of looping
/// them.
#[test]
fn forwarding_respects_ttl() {
    const D: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 9);
    let mut world = World::with_defaults();
    let mut gw = Host::new(HostConfig::new(Architecture::SoftLrp), B);
    gw.enable_forwarding(0);
    let metrics = lrp_apps::shared::<lrp_apps::SinkMetrics>();
    let mut hd = Host::new(HostConfig::new(Architecture::SoftLrp), D);
    hd.spawn_app(
        "sink",
        0,
        0,
        Box::new(lrp_apps::BlastSink::new(7000, metrics.clone())),
    );
    let g = world.add_host(gw);
    world.add_host(hd);
    world.add_route_via(D, g);
    // Inject one normal packet and one with TTL=1 (expires at the
    // gateway).
    let inj = Injector::new(
        Pattern::FixedRate { pps: 1_000.0 },
        SimTime::from_millis(5),
        12,
        move |seq| {
            let seg = lrp_wire::udp::build(A, D, 6000, 7000, &[0u8; 14], false);
            let mut h = lrp_wire::ipv4::Ipv4Header::new(
                A,
                D,
                lrp_wire::proto::UDP,
                (seq & 0xFFFF) as u16,
                seg.len(),
            );
            if seq % 2 == 1 {
                h.ttl = 1; // Will expire at the gateway.
            }
            Frame::ipv4(lrp_wire::ipv4::build_datagram(&h, &seg))
        },
    );
    let idx = world.add_injector(g, inj);
    world.run_until(SimTime::from_millis(100));
    let emitted = world.injector_emitted(idx);
    let delivered = metrics.borrow().received;
    let expired = world.hosts[g].stats.dropped(DropPoint::BadPacket);
    assert!(emitted >= 20);
    // Half the packets expire at the gateway; the rest arrive.
    assert!(
        (delivered as i64 - (emitted / 2) as i64).abs() <= 2,
        "delivered {delivered} of {emitted}"
    );
    assert!(
        (expired as i64 - (emitted / 2) as i64).abs() <= 2,
        "expired {expired} of {emitted}"
    );
}
