//! Robustness scenarios from the paper's §2.3/§3 discussion: corrupted
//! packet floods, shared sockets, and the idle protocol thread.

use lrp_core::{
    AppCtx, AppLogic, Architecture, CrashEvent, DropPoint, Host, HostConfig, HostFaultPlan, Pid,
    SockProto, SyscallOp, SyscallRet, World,
};
use lrp_net::{Injector, Pattern};
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::SockId;
use lrp_wire::{ipv4, tcp, udp, Endpoint, Frame, Ipv4Addr};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Counts datagrams received on a socket created by someone else (shared
/// socket reader).
struct SharedReader {
    sock: Rc<RefCell<Option<SockId>>>,
    got: Rc<RefCell<u64>>,
}

impl AppLogic for SharedReader {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Sleep(SimDuration::from_millis(1))
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if let SyscallRet::DataFrom(..) = ret {
            *self.got.borrow_mut() += 1;
        }
        match *self.sock.borrow() {
            Some(s) => SyscallOp::Recv {
                sock: s,
                max_len: 65_536,
            },
            None => SyscallOp::Sleep(SimDuration::from_millis(1)),
        }
    }
}

/// Creates the socket, publishes it, then reads like the others.
struct SharedOwner {
    port: u16,
    sock: Rc<RefCell<Option<SockId>>>,
    got: Rc<RefCell<u64>>,
    state: u8,
}

impl AppLogic for SharedOwner {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Socket(s)) => {
                *self.sock.borrow_mut() = Some(s);
                self.state = 1;
                SyscallOp::Bind {
                    sock: s,
                    port: self.port,
                }
            }
            (_, SyscallRet::DataFrom(..)) => {
                *self.got.borrow_mut() += 1;
                SyscallOp::Recv {
                    sock: self.sock.borrow().expect("published"),
                    max_len: 65_536,
                }
            }
            _ => SyscallOp::Recv {
                sock: self.sock.borrow().expect("published"),
                max_len: 65_536,
            },
        }
    }
}

/// §3.1/note 8: multiple processes may read from one UDP socket, sharing
/// its NI channel; "the process with the highest priority performs the
/// protocol processing". With the owner reniced into the background, the
/// favored reader does (nearly all of) the work, and nothing is lost.
#[test]
fn shared_udp_socket_higher_priority_reader_wins() {
    for arch in [
        Architecture::Bsd,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let sock = Rc::new(RefCell::new(None));
        let got_owner = Rc::new(RefCell::new(0u64));
        let got_reader = Rc::new(RefCell::new(0u64));
        let mut world = World::with_defaults();
        let mut host = Host::new(HostConfig::new(arch), B);
        // The owner creates the socket but runs at nice +20.
        host.spawn_app(
            "owner",
            20,
            0,
            Box::new(SharedOwner {
                port: 9000,
                sock: sock.clone(),
                got: got_owner.clone(),
                state: 0,
            }),
        );
        // The sharing reader runs at normal priority.
        host.spawn_app(
            "reader",
            0,
            0,
            Box::new(SharedReader {
                sock: sock.clone(),
                got: got_reader.clone(),
            }),
        );
        let b = world.add_host(host);
        let inj = Injector::new(
            Pattern::FixedRate { pps: 2_000.0 },
            SimTime::from_millis(10),
            5,
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
        world.run_until(SimTime::from_secs(1));
        let o = *got_owner.borrow();
        let r = *got_reader.borrow();
        let total = o + r;
        assert!(
            (1_900..=2_000).contains(&total),
            "{arch}: {o}+{r} of ~1980 delivered"
        );
        assert!(
            r >= 9 * o.max(1) || o == 0,
            "{arch}: the high-priority reader should dominate: owner={o} reader={r}"
        );
    }
}

/// §3: "a flood of ... corrupted data packets can still cause livelock"
/// under early-demux-only designs. Under NI-LRP, malformed packets die on
/// the NIC with zero host cost, so a victim application keeps its full
/// throughput; under BSD the host pays interrupt + protocol work for every
/// corrupted packet.
#[test]
fn corrupted_packet_flood() {
    let good_rate = 4_000.0;
    let bad_rate = 18_000.0;
    let mut results = std::collections::HashMap::new();
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
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
        let good = Injector::new(
            Pattern::FixedRate { pps: good_rate },
            SimTime::from_millis(10),
            6,
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
        let bad = Injector::new(
            Pattern::FixedRate { pps: bad_rate },
            SimTime::from_millis(12),
            7,
            move |seq| {
                // Corrupt the IP header checksum.
                let mut d =
                    udp::build_datagram(A, B, 6000, 9000, (seq & 0xFFFF) as u16, &[0u8; 14], false);
                d[10] ^= 0xFF;
                Frame::ipv4(d)
            },
        );
        world.add_injector(b, good);
        world.add_injector(b, bad);
        world.run_until(SimTime::from_secs(2));
        results.insert(arch, metrics.borrow().series.steady_rate(5));
        if arch == Architecture::NiLrp {
            // The NIC discarded the garbage; the host never saw it.
            let h = &world.hosts[b];
            assert!(
                h.nic.stats().early_discards >= (bad_rate * 1.5) as u64,
                "NI discards malformed"
            );
            assert_eq!(h.stats.dropped(DropPoint::BadPacket), 0);
        }
    }
    let bsd = results[&Architecture::Bsd];
    let ni = results[&Architecture::NiLrp];
    assert!(
        ni > 0.95 * good_rate,
        "NI-LRP unaffected by the corrupt flood: {ni}"
    );
    assert!(
        bsd < 0.75 * good_rate,
        "BSD must lose throughput to corrupted packets: {bsd}"
    );
}

/// §3.3: with an otherwise idle CPU, the minimal-priority protocol thread
/// pre-processes queued UDP packets so a later `recv` finds them ready.
#[test]
fn idle_thread_preprocesses_when_idle() {
    let cfg = HostConfig::new(Architecture::NiLrp);
    let sock = Rc::new(RefCell::new(None));
    let got = Rc::new(RefCell::new(0u64));
    let mut world = World::with_defaults();
    let mut host = Host::new(cfg, B);
    // The owner binds but then sleeps a long time before reading.
    struct LazyReader {
        sock: Rc<RefCell<Option<SockId>>>,
        got: Rc<RefCell<u64>>,
        state: u8,
    }
    impl AppLogic for LazyReader {
        fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
            SyscallOp::Socket(SockProto::Udp)
        }
        fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
            match (self.state, ret) {
                (0, SyscallRet::Socket(s)) => {
                    *self.sock.borrow_mut() = Some(s);
                    self.state = 1;
                    SyscallOp::Bind {
                        sock: s,
                        port: 9000,
                    }
                }
                (1, SyscallRet::Ok) => {
                    self.state = 2;
                    // Sleep while packets arrive: the idle thread should
                    // process them meanwhile.
                    SyscallOp::Sleep(SimDuration::from_millis(100))
                }
                (_, SyscallRet::DataFrom(..)) => {
                    *self.got.borrow_mut() += 1;
                    SyscallOp::Recv {
                        sock: self.sock.borrow().expect("bound"),
                        max_len: 65_536,
                    }
                }
                _ => SyscallOp::Recv {
                    sock: self.sock.borrow().expect("bound"),
                    max_len: 65_536,
                },
            }
        }
    }
    host.spawn_app(
        "lazy-reader",
        0,
        0,
        Box::new(LazyReader {
            sock: sock.clone(),
            got: got.clone(),
            state: 0,
        }),
    );
    let b = world.add_host(host);
    // 20 packets arrive during the reader's sleep.
    let mut inj = Injector::new(
        Pattern::FixedRate { pps: 1_000.0 },
        SimTime::from_millis(20),
        8,
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
    inj.until = SimTime::from_millis(40);
    world.add_injector(b, inj);
    world.run_until(SimTime::from_millis(80));
    // Reader is still asleep, but the idle thread has drained the channel
    // into the socket's ready queue.
    let h = &world.hosts[b];
    let chan_depths: usize = (0..0).sum::<usize>();
    let _ = chan_depths;
    assert_eq!(*got.borrow(), 0, "reader has not run yet");
    assert!(
        h.stats.udp_delivered >= 15,
        "idle thread pre-processed packets: {} ready",
        h.stats.udp_delivered
    );
    world.run_until(SimTime::from_secs(1));
    assert_eq!(*got.borrow(), 20, "all packets eventually read");
}

/// The paper's central accounting claim (§2.2 vs §3): under BSD,
/// interrupt-context network processing is charged to whatever process
/// happens to be running — here a compute hog that never touches the
/// network; under LRP it is charged to the receiving process as system
/// time.
#[test]
fn interrupt_time_charging_policy() {
    for arch in [
        Architecture::Bsd,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let metrics = lrp_apps::shared::<lrp_apps::SinkMetrics>();
        let mut world = World::with_defaults();
        let mut host = Host::new(HostConfig::new(arch), B);
        host.spawn_app(
            "sink",
            0,
            0,
            Box::new(lrp_apps::BlastSink::new(9000, metrics.clone())),
        );
        host.spawn_app("hog", 0, 0, Box::new(lrp_apps::ComputeHog));
        let b = world.add_host(host);
        let inj = Injector::new(
            Pattern::FixedRate { pps: 3_000.0 },
            SimTime::from_millis(10),
            9,
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
        world.run_until(SimTime::from_secs(2));
        let procs = world.hosts[b].sched.procs();
        let hog = procs.iter().find(|p| p.name == "hog").unwrap();
        let sink = procs.iter().find(|p| p.name == "sink").unwrap();
        let hog_intr = hog.acct.interrupt.as_secs_f64();
        let sink_sys = sink.acct.system.as_secs_f64();
        match arch {
            Architecture::Bsd => {
                // 3k pkts/s x ~70us of intr+softirq ≈ 0.21 s/s, landing
                // mostly on the hog (it holds the CPU).
                assert!(
                    hog_intr > 0.30,
                    "BSD: hog must be mis-charged for protocol work, got {hog_intr:.3}s"
                );
            }
            Architecture::SoftLrp => {
                // The hog still pays the hardware interrupt + demux
                // (~25-35us/pkt: SOFT-LRP's documented overhead) but not
                // the protocol processing.
                assert!(
                    (0.08..0.28).contains(&hog_intr),
                    "SOFT-LRP: hog pays demux only, got {hog_intr:.3}s"
                );
                assert!(
                    sink_sys > 0.15,
                    "SOFT-LRP: the receiver pays for its own traffic, got {sink_sys:.3}s"
                );
            }
            _ => {
                // NI-LRP: demux is on the NIC; the hog pays (almost)
                // nothing.
                assert!(
                    hog_intr < 0.05,
                    "NI-LRP: hog should pay ~nothing, got {hog_intr:.3}s"
                );
                assert!(
                    sink_sys > 0.15,
                    "NI-LRP: the receiver pays for its own traffic, got {sink_sys:.3}s"
                );
            }
        }
        assert!(metrics.borrow().received > 5_000, "{arch}: traffic flowed");
    }
}

/// The capture tap records delivered frames as summaries.
#[test]
fn capture_tap_records_traffic() {
    let metrics = lrp_apps::shared::<lrp_apps::SinkMetrics>();
    let mut world = World::with_defaults();
    world.enable_capture(16);
    let mut host = Host::new(HostConfig::new(Architecture::SoftLrp), B);
    host.spawn_app(
        "sink",
        0,
        0,
        Box::new(lrp_apps::BlastSink::new(9000, metrics.clone())),
    );
    let b = world.add_host(host);
    let mut inj = Injector::new(
        Pattern::FixedRate { pps: 1_000.0 },
        SimTime::from_millis(5),
        10,
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
    inj.until = SimTime::from_millis(40);
    world.add_injector(b, inj);
    world.run_until(SimTime::from_millis(100));
    let cap = world.capture();
    assert!(!cap.is_empty() && cap.len() <= 16, "bounded capture");
    assert!(
        cap.iter().all(|(_, h, s)| *h == b && s.contains("UDP")),
        "summaries describe the traffic: {:?}",
        cap.first()
    );
}

/// Sending far beyond the link rate backs up in the interface queue and
/// overflows it: drops are counted at the IfQueue point, and the sender
/// sees ENOBUFS-style errors rather than silent loss.
#[test]
fn interface_queue_backpressure() {
    struct Flooder {
        sock: Option<SockId>,
        sent: u32,
        errors: Rc<RefCell<u32>>,
    }
    impl AppLogic for Flooder {
        fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
            SyscallOp::Socket(SockProto::Udp)
        }
        fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
            match ret {
                SyscallRet::Socket(s) => {
                    self.sock = Some(s);
                    SyscallOp::Bind {
                        sock: s,
                        port: 5000,
                    }
                }
                SyscallRet::Err(lrp_core::Errno::NoBufs) => {
                    *self.errors.borrow_mut() += 1;
                    self.next()
                }
                _ => self.next(),
            }
        }
    }
    impl Flooder {
        fn next(&mut self) -> SyscallOp {
            if self.sent >= 2_000 {
                return SyscallOp::Exit;
            }
            self.sent += 1;
            SyscallOp::SendTo {
                sock: self.sock.expect("socket"),
                dst: Endpoint::new(B, 9000),
                // 8 KB datagrams: the wire needs ~0.45 ms each, far slower
                // than the send syscall path produces them.
                data: lrp_wire::buf::filled(8_000, 0),
            }
        }
    }
    let errors = Rc::new(RefCell::new(0u32));
    let mut world = World::with_defaults();
    let mut host = Host::new(HostConfig::new(Architecture::Bsd), A);
    host.spawn_app(
        "flooder",
        0,
        0,
        Box::new(Flooder {
            sock: None,
            sent: 0,
            errors: errors.clone(),
        }),
    );
    let a = world.add_host(host);
    world.run_until(SimTime::from_secs(2));
    let drops = world.hosts[a].stats.dropped(DropPoint::IfQueue);
    assert!(drops > 0, "overdriven link must overflow the ifq");
    assert_eq!(
        *errors.borrow() as u64,
        drops,
        "every ifq drop surfaced to the sender"
    );
}

// ---------------------------------------------------------------------------
// Deterministic fault injection: link faults, NIC faults, and the ledger.
// ---------------------------------------------------------------------------

/// A telemetry-enabled receiver host with a `BlastSink` bound to `port`.
fn sink_host(arch: Architecture, port: u16) -> (Host, Rc<RefCell<lrp_apps::SinkMetrics>>) {
    let metrics = lrp_apps::shared::<lrp_apps::SinkMetrics>();
    let mut cfg = HostConfig::new(arch);
    cfg.telemetry = true;
    let mut host = Host::new(cfg, B);
    host.spawn_app(
        "sink",
        0,
        0,
        Box::new(lrp_apps::BlastSink::new(port, metrics.clone())),
    );
    (host, metrics)
}

fn udp_injector(pps: f64, seed: u64, checksum: bool) -> Injector {
    Injector::new(
        Pattern::FixedRate { pps },
        SimTime::from_millis(10),
        seed,
        move |seq| {
            Frame::ipv4(udp::build_datagram(
                A,
                B,
                6000,
                9000,
                (seq & 0xFFFF) as u16,
                &[0u8; 64],
                checksum,
            ))
        },
    )
}

/// Link loss happens before the NIC: the destination accepts exactly the
/// frames the fault stage delivered, and its ledger still balances.
#[test]
fn bernoulli_link_loss_is_attributed_and_conserved() {
    let (host, metrics) = sink_host(Architecture::Bsd, 9000);
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    let mut inj = udp_injector(5_000.0, 6, false);
    inj.until = SimTime::from_millis(1800);
    world.add_injector(b, inj);
    world.set_link_faults(b, lrp_net::FaultPlan::bernoulli(5, 0.25));
    // Injection stops at 1.8s; the extra 200ms drains in-flight frames so
    // the NIC-side counters can be compared exactly.
    world.run_until(SimTime::from_secs(2));
    let fs = *world.link_fault_stats(b).expect("plan installed");
    assert!(fs.dropped > 0, "loss must fire: {fs:?}");
    assert_eq!(fs.offered, fs.delivered + fs.dropped);
    assert_eq!(
        world.hosts[b].rx_frames(),
        fs.delivered,
        "NIC accepts exactly what the link delivered"
    );
    let rate = fs.dropped as f64 / fs.offered as f64;
    assert!((rate - 0.25).abs() < 0.05, "loss rate {rate}");
    assert!(world.hosts[b].packet_ledger().conserved());
    assert!(metrics.borrow().received > 0);
}

/// A flipped bit anywhere in a checksummed UDP frame is caught by the
/// IP-header or UDP checksum verify and dies at `BadPacket` — never
/// delivered as corrupt data.
#[test]
fn corruption_is_caught_by_checksum_verify() {
    let (host, metrics) = sink_host(Architecture::Bsd, 9000);
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    let mut inj = udp_injector(5_000.0, 6, true);
    inj.until = SimTime::from_millis(1800);
    world.add_injector(b, inj);
    let mut plan = lrp_net::FaultPlan::none();
    plan.seed = 17;
    plan.corrupt_p = 0.3;
    world.set_link_faults(b, plan);
    world.run_until(SimTime::from_secs(2));
    let fs = *world.link_fault_stats(b).expect("plan installed");
    let h = &world.hosts[b];
    let bad = h.stats.dropped(DropPoint::BadPacket);
    assert!(fs.corrupted > 0);
    assert_eq!(
        bad, fs.corrupted,
        "every corrupted frame dies at checksum verification"
    );
    assert!(h.packet_ledger().conserved());
    let expect = fs.delivered - fs.corrupted;
    assert_eq!(metrics.borrow().received, expect, "clean frames delivered");
}

/// The TCP analogue: a bulk transfer through a link that corrupts and
/// duplicates frames. A frame the TCP framer summed is trusted at the
/// receiver only while nothing has written to it, so every corrupted
/// data segment still dies at a checksum (IP header or TCP), on every
/// architecture, and the transfer completes from retransmissions.
#[test]
fn tcp_corruption_is_caught_by_checksum_verify() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let metrics = lrp_apps::shared::<lrp_apps::TcpBulkMetrics>();
        let mut cfg = HostConfig::new(arch);
        cfg.telemetry = true;
        let mut a = Host::new(cfg, A);
        a.spawn_app(
            "tcp-src",
            0,
            0,
            Box::new(lrp_apps::TcpBulkSender::new(
                Endpoint::new(B, 7000),
                4 << 20,
                16_384,
            )),
        );
        let mut b = Host::new(cfg, B);
        b.spawn_app(
            "tcp-sink",
            0,
            0,
            Box::new(lrp_apps::TcpBulkReceiver::new(7000, metrics.clone())),
        );
        let mut world = World::with_defaults();
        world.add_host(a);
        let bi = world.add_host(b);
        let mut plan = lrp_net::FaultPlan::none();
        plan.seed = 29;
        plan.corrupt_p = 0.05;
        plan.duplicate_p = 0.05;
        world.set_link_faults(bi, plan);
        world.run_until(SimTime::from_secs(30));
        let fs = *world.link_fault_stats(bi).expect("plan installed");
        let bad = world.hosts[bi].stats.dropped(DropPoint::BadPacket);
        assert!(fs.corrupted > 0 && fs.duplicated > 0, "{arch:?}: {fs:?}");
        assert!(bad > 0, "{arch:?}: corrupted frames reach a checksum");
        assert!(
            bad <= fs.corrupted + fs.duplicated,
            "{arch:?}: only faults are bad"
        );
        if arch == Architecture::Bsd {
            // 4.4BSD demultiplexes nothing before IP input, so every
            // corrupted frame reaches a checksum. (One the stage also
            // duplicated would arrive, and die, twice; this seed's 4.4BSD
            // run has none, so the count is exact.)
            assert_eq!(
                bad, fs.corrupted,
                "every corrupted frame dies at a checksum"
            );
        }
        assert!(metrics.borrow().done, "{arch:?}: transfer completes");
        for h in &world.hosts {
            assert!(h.packet_ledger().conserved(), "{arch:?}");
        }
    }
}

/// Duplicated frames arrive as real traffic: the NIC accepts both copies
/// and UDP (no sequence numbers) delivers both.
#[test]
fn duplicates_are_delivered_twice() {
    let (host, metrics) = sink_host(Architecture::Bsd, 9000);
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    let mut inj = udp_injector(2_000.0, 6, false);
    inj.until = SimTime::from_millis(800);
    world.add_injector(b, inj);
    let mut plan = lrp_net::FaultPlan::none();
    plan.seed = 23;
    plan.duplicate_p = 1.0;
    world.set_link_faults(b, plan);
    world.run_until(SimTime::from_secs(1));
    let fs = *world.link_fault_stats(b).expect("plan installed");
    assert_eq!(fs.delivered, 2 * fs.offered);
    assert_eq!(world.hosts[b].rx_frames(), fs.delivered);
    assert_eq!(metrics.borrow().received, fs.delivered);
    assert!(world.hosts[b].packet_ledger().conserved());
}

/// An injected NIC ring stall drops frames on the device; the ledger
/// attributes them to the stall bucket and still balances.
#[test]
fn nic_stall_window_is_ledger_attributed() {
    for arch in [
        Architecture::Bsd,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (host, _metrics) = sink_host(arch, 9000);
        let mut world = World::with_defaults();
        let b = world.add_host(host);
        world.add_injector(b, udp_injector(4_000.0, 6, false));
        world.hosts[b].nic.set_faults(lrp_nic::NicFaultPlan {
            stall_ns: vec![(500_000_000, 700_000_000)],
            coalesce_ns: 0,
        });
        world.run_until(SimTime::from_secs(2));
        let h = &world.hosts[b];
        let stalled = h.nic.stats().stall_drops;
        // ~200 ms of a 4 kpps stream.
        assert!(stalled > 600, "{arch:?}: stall_drops {stalled}");
        assert_eq!(h.stats.dropped(DropPoint::NicStall), stalled);
        let l = h.packet_ledger();
        assert_eq!(l.nic_stall_drops, stalled);
        assert!(l.conserved(), "{arch:?}: {l:?}");
    }
}

/// Interrupt coalescing suppresses some per-frame interrupts; held frames
/// ride the ring to the next interrupt and the ledger stays balanced.
#[test]
fn interrupt_coalescing_is_conserved() {
    let (host, metrics) = sink_host(Architecture::Bsd, 9000);
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    world.add_injector(b, udp_injector(8_000.0, 6, false));
    world.hosts[b].nic.set_faults(lrp_nic::NicFaultPlan {
        stall_ns: Vec::new(),
        coalesce_ns: 200_000, // 200 µs — above the 125 µs inter-arrival gap.
    });
    world.run_until(SimTime::from_secs(2));
    let h = &world.hosts[b];
    let nic = h.nic.stats();
    assert!(nic.coalesced_intrs > 0, "coalescing must fire");
    assert!(
        nic.interrupts < nic.rx_frames,
        "fewer interrupts than frames: {} vs {}",
        nic.interrupts,
        nic.rx_frames
    );
    assert!(h.packet_ledger().conserved());
    assert!(metrics.borrow().received > 0, "traffic still flows");
}

/// The demultiplexing interrupt handler (SOFT-LRP, Early-Demux) drains
/// coalesced batches through its own path; it too loses no frame.
#[test]
fn interrupt_coalescing_is_conserved_through_soft_demux() {
    for arch in [Architecture::SoftLrp, Architecture::EarlyDemux] {
        let (host, metrics) = sink_host(arch, 9000);
        let mut world = World::with_defaults();
        let b = world.add_host(host);
        world.add_injector(b, udp_injector(8_000.0, 6, false));
        world.hosts[b].nic.set_faults(lrp_nic::NicFaultPlan {
            stall_ns: Vec::new(),
            coalesce_ns: 200_000,
        });
        world.run_until(SimTime::from_secs(2));
        let h = &world.hosts[b];
        let nic = h.nic.stats();
        assert!(nic.coalesced_intrs > 0, "{arch:?}: coalescing must fire");
        assert!(nic.interrupts < nic.rx_frames, "{arch:?}: {nic:?}");
        let l = h.packet_ledger();
        assert!(l.conserved(), "{arch:?}: {l:?}");
        assert!(
            metrics.borrow().received > 0,
            "{arch:?}: traffic still flows"
        );
    }
}

/// UDP to a closed port answers with ICMP port unreachable (type 3 code
/// 3), and the dropped datagram gets its own ledger disposition.
#[test]
fn udp_closed_port_emits_port_unreachable() {
    let mut cfg = HostConfig::new(Architecture::Bsd);
    cfg.telemetry = true;
    let mut world = World::with_defaults();
    world.enable_capture(512);
    let a = world.add_host(Host::new(cfg, A)); // Reply target.
    let b = world.add_host(Host::new(cfg, B)); // No socket bound.
    world.add_injector(
        b,
        Injector::new(
            Pattern::FixedRate { pps: 100.0 },
            SimTime::from_millis(10),
            6,
            |seq| {
                Frame::ipv4(udp::build_datagram(
                    A,
                    B,
                    6000,
                    9, // Nothing listens here.
                    (seq & 0xFFFF) as u16,
                    &[0u8; 32],
                    true,
                ))
            },
        ),
    );
    world.run_until(SimTime::from_secs(1));
    let h = &world.hosts[b];
    let unreach = h.stats.dropped(DropPoint::PortUnreach);
    assert!(unreach > 50, "closed-port drops: {unreach}");
    assert_eq!(h.stats.icmp_unreach_sent, unreach, "one reply per drop");
    assert!(h.packet_ledger().conserved());
    // The replies crossed the wire back to A as ICMP.
    let icmp_back = world
        .capture()
        .iter()
        .filter(|(_, host, what)| *host == a && what.starts_with("ICMP"))
        .count() as u64;
    assert_eq!(icmp_back, unreach, "every reply reached the sender");
    assert!(world.hosts[a].packet_ledger().conserved());
}

/// Under NI-LRP the same closed-port traffic dies on the NIC (demux
/// no-match): no host processing, hence no ICMP — the LRP discipline.
#[test]
fn ni_lrp_closed_port_is_silent() {
    let mut cfg = HostConfig::new(Architecture::NiLrp);
    cfg.telemetry = true;
    let mut world = World::with_defaults();
    let b = world.add_host(Host::new(cfg, B));
    world.add_injector(
        b,
        Injector::new(
            Pattern::FixedRate { pps: 100.0 },
            SimTime::from_millis(10),
            6,
            |seq| {
                Frame::ipv4(udp::build_datagram(
                    A,
                    B,
                    6000,
                    9,
                    (seq & 0xFFFF) as u16,
                    &[0u8; 32],
                    true,
                ))
            },
        ),
    );
    world.run_until(SimTime::from_secs(1));
    let h = &world.hosts[b];
    assert!(h.nic.stats().early_discards > 50, "NIC discards no-match");
    assert_eq!(h.stats.icmp_unreach_sent, 0, "no host work, no ICMP");
    assert!(h.packet_ledger().conserved());
}

/// Fragment loss mid-datagram leaves incomplete reassembly flows; when
/// they expire, their absorbed fragments move to the `reasm_expired`
/// ledger bucket and conservation still holds.
#[test]
fn expired_reassembly_flows_stay_in_the_ledger() {
    let (host, metrics) = sink_host(Architecture::Bsd, 9000);
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    // 2.5 KB datagrams fragment into two frames at a 1500-byte MTU.
    world.add_injector(
        b,
        Injector::new(
            Pattern::FixedRate { pps: 400.0 },
            SimTime::from_millis(10),
            6,
            |seq| {
                let dgram = seq / 2;
                let seg = udp::build(A, B, 6000, 9000, &[7u8; 2500], false);
                let frags = ipv4::fragment(
                    A,
                    B,
                    lrp_wire::proto::UDP,
                    (dgram & 0xFFFF) as u16,
                    &seg,
                    1500,
                );
                Frame::ipv4(frags[(seq % 2) as usize].clone())
            },
        )
        .stop_at(SimTime::from_secs(2)),
    );
    // Injector stops at 2 s; flows expire at 30 s TTL.
    world.set_link_faults(b, lrp_net::FaultPlan::bernoulli(5, 0.2));
    world.run_until(SimTime::from_secs(40));
    let h = &world.hosts[b];
    let l = h.packet_ledger();
    assert!(metrics.borrow().received > 0, "some datagrams completed");
    assert!(
        l.reasm_expired > 0,
        "lossy fragments must strand flows: {l:?}"
    );
    // DropPoint::Reasm counts expired fragments plus fragments refused
    // because the 16-flow table was full; the latter show up in the
    // ledger's host_drops partition.
    let table_full = l
        .host_drops
        .iter()
        .find(|(n, _)| *n == "Reasm")
        .map_or(0, |(_, c)| *c);
    assert_eq!(
        h.stats.dropped(DropPoint::Reasm),
        l.reasm_expired + table_full,
        "host stats count the same discarded fragments"
    );
    assert!(l.conserved(), "{l:?}");
}

/// A timed link pause defers in-window arrivals to the window end; the
/// burst at resume is absorbed and accounted.
#[test]
fn link_pause_delivers_burst_at_window_end() {
    let (host, metrics) = sink_host(Architecture::NiLrp, 9000);
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    world.add_injector(b, udp_injector(2_000.0, 6, false));
    let mut plan = lrp_net::FaultPlan::none();
    plan.pauses = vec![(SimTime::from_millis(300), SimTime::from_millis(600))];
    world.set_link_faults(b, plan);
    world.run_until(SimTime::from_secs(2));
    let fs = *world.link_fault_stats(b).expect("plan installed");
    // ~300 ms of a 2 kpps stream was deferred.
    assert!(fs.paused > 400, "paused {}", fs.paused);
    assert_eq!(fs.offered, fs.delivered, "pause defers, never drops");
    assert!(world.hosts[b].packet_ledger().conserved());
    assert!(metrics.borrow().received > 0);
}

// ---------------------------------------------------------------------------
// Process tables and the frame arena.
// ---------------------------------------------------------------------------

/// Sleeps in 1 ms steps forever.
struct Sleeper;

impl AppLogic for Sleeper {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Sleep(SimDuration::from_millis(1))
    }
    fn resume(&mut self, _ctx: AppCtx, _ret: SyscallRet) -> SyscallOp {
        SyscallOp::Sleep(SimDuration::from_millis(1))
    }
}

/// A reboot after a restart kills the applications and respawns the
/// restartable ones in ascending pid order, over pids that are no longer
/// contiguous.
#[test]
fn reboot_walks_restarted_pids_in_order() {
    let sleeper = || Box::new(Sleeper) as Box<dyn AppLogic>;
    let mut host = Host::new(HostConfig::new(Architecture::Bsd), B);
    let r0 = host.spawn_app_restartable("r0", 0, 0, Box::new(sleeper));
    let plain = host.spawn_app("plain", 0, 0, sleeper());
    let r2 = host.spawn_app_restartable("r2", 0, 0, Box::new(sleeper));
    assert_eq!([r0, plain, r2], [Pid(0), Pid(1), Pid(2)]);
    let ms = SimTime::from_millis;
    host.set_fault_plan(&HostFaultPlan {
        seed: 1,
        crashes: vec![
            // r0 comes back as pid 3: the live applications are 1, 2, 3.
            CrashEvent::crash_restart(r0, ms(20), SimDuration::from_millis(5)),
            CrashEvent::reboot(ms(50), SimDuration::from_millis(10)),
        ],
    });
    let mut world = World::with_defaults();
    let b = world.add_host(host);
    world.run_until(ms(100));
    let h = &world.hosts[b];
    assert_eq!(
        h.crashes(),
        [
            (ms(20), Pid(0)),
            (ms(50), Pid(1)),
            (ms(50), Pid(2)),
            (ms(50), Pid(3)),
        ]
    );
    assert_eq!(
        h.restarts(),
        [
            (ms(25), Pid(0), Pid(3)),
            (ms(60), Pid(2), Pid(4)),
            (ms(60), Pid(3), Pid(5)),
        ]
    );
    assert_eq!(h.live_incarnation(r0), Pid(5));
    assert_eq!(h.live_incarnation(plain), plain, "never restarted");
}

/// A UDP send builds its segment in arena scratch, which the fragments
/// copy: once the arena is warm, steady sends take no fresh storage.
#[test]
fn steady_udp_sends_take_no_fresh_arena_storage() {
    struct Sender {
        sock: Option<SockId>,
        sent: Rc<RefCell<u64>>,
    }
    impl AppLogic for Sender {
        fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
            SyscallOp::Socket(SockProto::Udp)
        }
        fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
            match ret {
                SyscallRet::Socket(s) => self.sock = Some(s),
                SyscallRet::Sent(_) => {
                    *self.sent.borrow_mut() += 1;
                    return SyscallOp::Sleep(SimDuration::from_micros(500));
                }
                _ => {}
            }
            SyscallOp::SendTo {
                sock: self.sock.expect("socket"),
                // Unrouted: each frame is dropped once it leaves the link.
                dst: Endpoint::new(B, 9000),
                data: lrp_wire::buf::filled(64, 0),
            }
        }
    }
    let sent = Rc::new(RefCell::new(0u64));
    let mut world = World::with_defaults();
    let mut host = Host::new(HostConfig::new(Architecture::Bsd), A);
    host.spawn_app(
        "sender",
        0,
        0,
        Box::new(Sender {
            sock: None,
            sent: sent.clone(),
        }),
    );
    world.add_host(host);
    world.run_until(SimTime::from_millis(100));
    let (warm_allocs, warm_sent) = (lrp_wire::frame_arena_stats().storage_allocs, *sent.borrow());
    world.run_until(SimTime::from_secs(1));
    let steady = *sent.borrow() - warm_sent;
    assert!(steady > 1_000, "the sender kept sending: {steady}");
    assert_eq!(
        lrp_wire::frame_arena_stats().storage_allocs,
        warm_allocs,
        "{steady} sends after warm-up"
    );
}

/// Issues `script(n, ret)` as its `n`th system call, `ret` being what the
/// one before returned.
struct Scripted<F>(u32, F);

impl<F: FnMut(u32, SyscallRet) -> SyscallOp> AppLogic for Scripted<F> {
    fn start(&mut self, ctx: AppCtx) -> SyscallOp {
        self.resume(ctx, SyscallRet::Ok)
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        self.0 += 1;
        (self.1)(self.0, ret)
    }
}

/// Listening again on a listening socket only sets its backlog, as BSD's
/// `solisten` does: a child half-open across the second `listen` keeps
/// its place and its count, completes its handshake and is accepted.
///
/// 4.4BSD server: it listens, sleeps 5 ms and listens again; the client
/// connects at 1 ms, and a pause on the link into the server holds the
/// client's handshake ACK from 1.5 ms (before it arrives) until 10 ms.
#[test]
fn listening_again_keeps_a_half_open_child() {
    let ms = SimDuration::from_millis;
    let forever = || SyscallOp::Sleep(SimDuration::from_secs(10));
    let lsock = Rc::new(Cell::new(None));
    let accepted = Rc::new(Cell::new(false));
    let mut server = Host::new(HostConfig::new(Architecture::Bsd), B);
    let (published, got) = (lsock.clone(), accepted.clone());
    server.spawn_app(
        "server",
        0,
        0,
        Box::new(Scripted(0, move |n, ret| {
            let listen = |backlog| SyscallOp::Listen {
                sock: published.get().expect("bound"),
                backlog,
            };
            match (n, ret) {
                (1, _) => SyscallOp::Socket(SockProto::Tcp),
                (2, SyscallRet::Socket(s)) => {
                    published.set(Some(s));
                    SyscallOp::Bind { sock: s, port: 80 }
                }
                (3, SyscallRet::Ok) => listen(5),
                (4, SyscallRet::Ok) => SyscallOp::Sleep(ms(5)),
                (5, SyscallRet::Ok) => listen(8),
                (6, SyscallRet::Ok) => SyscallOp::Accept {
                    sock: published.get().expect("listening"),
                },
                (7, SyscallRet::Accepted(_)) => {
                    got.set(true);
                    forever()
                }
                (_, SyscallRet::Ok) => forever(),
                (n, ret) => panic!("server call {n} got {ret:?}"),
            }
        })),
    );
    let mut client = Host::new(HostConfig::new(Architecture::Bsd), A);
    client.spawn_app(
        "client",
        0,
        0,
        Box::new(Scripted(0, move |n, ret| match (n, ret) {
            (1, _) => SyscallOp::Sleep(ms(1)),
            (2, SyscallRet::Ok) => SyscallOp::Socket(SockProto::Tcp),
            (3, SyscallRet::Socket(s)) => SyscallOp::Connect {
                sock: s,
                dst: Endpoint::new(B, 80),
            },
            (_, SyscallRet::Ok) => forever(),
            (n, ret) => panic!("client call {n} got {ret:?}"),
        })),
    );
    let mut world = World::with_defaults();
    world.add_host(client);
    let b = world.add_host(server);
    let mut plan = lrp_net::FaultPlan::none();
    plan.pauses = vec![(SimTime::from_micros(1_500), SimTime::from_millis(10))];
    world.set_link_faults(b, plan);
    let listen_stats = |world: &World| {
        let sock = lsock.get().expect("listening");
        let s = world.hosts[b].host_netstat();
        s.iter().find(|s| s.sock == sock).and_then(|s| s.listen)
    };

    world.run_until(SimTime::from_millis(4));
    let before = listen_stats(&world).expect("a listener");
    assert_eq!(
        (before.backlog, before.syn_queue, before.half_open),
        (5, 1, 1)
    );
    world.run_until(SimTime::from_millis(8));
    let after = listen_stats(&world).expect("still a listener");
    assert_eq!(
        (after.backlog, after.syn_queue, after.half_open),
        (8, 1, 1),
        "the second listen set the backlog and kept the half-open child"
    );
    world.run_until(SimTime::from_millis(20));
    assert!(accepted.get(), "the child was accepted");
    let done = listen_stats(&world).expect("still a listener");
    assert_eq!(
        (done.syn_queue, done.accept_queue, done.half_open),
        (0, 0, 0)
    );
    if let Err(e) = world.hosts[b].check_invariants() {
        panic!("{e}");
    }
}

/// `accept` hands a child socket to the accepting process while frames
/// still wait on the child's channel: the child's pending TCP work moves
/// with it, so the APP thread, pinned to the best priority among owners
/// with pending work (§3.4), takes on the acceptor's priority.
///
/// SOFT-LRP server: the listener runs at nice +10, the acceptor at nice
/// −10, and a hog at nice 0 computes in short slices from just after the
/// handshake, so the APP thread — at the listener's priority while the
/// listener owns the child — cannot drain the client's data before the
/// acceptor wakes from its sleep and accepts.
#[test]
fn accept_moves_the_childs_pending_work_to_the_acceptor() {
    let ms = SimDuration::from_millis;
    let forever = || SyscallOp::Sleep(SimDuration::from_secs(10));
    let lsock = Rc::new(Cell::new(None));

    let mut server = Host::new(HostConfig::new(Architecture::SoftLrp), B);
    let published = lsock.clone();
    server.spawn_app(
        "listener",
        10,
        0,
        Box::new(Scripted(0, move |n, ret| match (n, ret) {
            (1, _) => SyscallOp::Socket(SockProto::Tcp),
            (2, SyscallRet::Socket(s)) => {
                published.set(Some(s));
                SyscallOp::Bind { sock: s, port: 80 }
            }
            (3, SyscallRet::Ok) => SyscallOp::Listen {
                sock: published.get().expect("bound"),
                backlog: 5,
            },
            (_, SyscallRet::Ok) => forever(),
            (n, ret) => panic!("listener call {n} got {ret:?}"),
        })),
    );
    let listening = lsock.clone();
    let acceptor = server.spawn_app(
        "acceptor",
        -10,
        0,
        Box::new(Scripted(0, move |n, ret| match (n, ret) {
            (1, _) => SyscallOp::Sleep(ms(20)),
            (2, SyscallRet::Ok) => SyscallOp::Accept {
                sock: listening.get().expect("listening"),
            },
            (_, SyscallRet::Accepted(_) | SyscallRet::Ok) => forever(),
            (n, ret) => panic!("acceptor call {n} got {ret:?}"),
        })),
    );
    server.spawn_app(
        "hog",
        0,
        0,
        Box::new(Scripted(0, move |n, _| match n {
            1 => SyscallOp::Sleep(ms(5)),
            _ => SyscallOp::Compute(SimDuration::from_micros(500)),
        })),
    );
    let mut client = Host::new(HostConfig::new(Architecture::SoftLrp), A);
    let csock = Rc::new(Cell::new(None));
    client.spawn_app(
        "client",
        0,
        0,
        Box::new(Scripted(0, move |n, ret| match (n, ret) {
            (1, _) => SyscallOp::Socket(SockProto::Tcp),
            (2, SyscallRet::Socket(s)) => {
                csock.set(Some(s));
                SyscallOp::Connect {
                    sock: s,
                    dst: Endpoint::new(B, 80),
                }
            }
            (3, SyscallRet::Ok) => SyscallOp::Sleep(ms(10)),
            (4, SyscallRet::Ok) => SyscallOp::Send {
                sock: csock.get().expect("socket"),
                data: lrp_wire::buf::filled(20_000, 7),
            },
            (_, SyscallRet::Sent(_)) => SyscallOp::Recv {
                sock: csock.get().expect("socket"),
                max_len: 65_536,
            },
            (n, ret) => panic!("client call {n} got {ret:?}"),
        })),
    );
    let mut world = World::with_defaults();
    world.add_host(client);
    let b = world.add_host(server);

    // Step finely until the acceptor owns the child, checking the indexes
    // (the owner counts among them) at every step.
    let mut now = SimTime::from_millis(15);
    let child = loop {
        now += SimDuration::from_micros(10);
        assert!(
            now < SimTime::from_millis(60),
            "the acceptor never accepted"
        );
        world.run_until(now);
        let host = &world.hosts[b];
        if let Err(e) = host.check_invariants() {
            panic!("at {now:?}: {e}");
        }
        let accepted = host
            .host_netstat()
            .into_iter()
            .find(|s| s.remote.is_some() && host.socket_owner(s.sock) == Some(acceptor));
        if let Some(s) = accepted {
            break s;
        }
    };
    assert!(
        child.chan_depth > 0,
        "the child's frames were drained before accept"
    );

    // A SYN at the listener wakes the APP thread, which re-pins its
    // priority. Owners with pending work are now the listener (the SYN)
    // and the acceptor (the child's frames): neither socket has timers
    // that could add another.
    let syn = tcp::TcpHeader {
        src_port: 7000,
        dst_port: 80,
        seq: 1,
        ack: 0,
        flags: tcp::flags::SYN,
        window: 65_535,
        mss: None,
    };
    let host = &mut world.hosts[b];
    host.on_frame_span(
        now,
        Frame::ipv4(tcp::build_datagram(A, B, &syn, 1, &[])),
        None,
    );
    if let Err(e) = host.check_invariants() {
        panic!("after the SYN: {e}");
    }
    let best = host
        .host_netstat()
        .iter()
        .filter(|s| s.proto == SockProto::Tcp && s.chan_depth > 0)
        .map(|s| {
            let owner = host.socket_owner(s.sock).expect("live socket");
            host.sched.proc_ref(owner).user_pri
        })
        .min();
    assert_eq!(best, Some(host.sched.proc_ref(acceptor).user_pri));
    let app_thread = host
        .sched
        .procs()
        .iter()
        .find(|p| p.name == "app-thread")
        .expect("SOFT-LRP runs an APP thread");
    assert_eq!(app_thread.fixed_pri, best, "APP thread priority");
}
