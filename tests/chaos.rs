//! Chaos soak: randomized fault schedules over every architecture.
//!
//! Each generated schedule combines link faults (Bernoulli or
//! Gilbert–Elliott loss, corruption, duplication, bounded reordering, a
//! timed link pause) with NIC faults (a ring stall window, interrupt
//! coalescing), then drives the Figure-3 UDP blast scenario under it.
//! Three invariants must survive arbitrary schedules:
//!
//! 1. **No panic** — malformed arrival orders, duplicate floods and
//!    device stalls never crash the kernel model.
//! 2. **Conservation** — every accepted frame is attributed to exactly
//!    one disposition bucket, faults included.
//! 3. **Determinism** — the same seed reproduces the exact same final
//!    host state, bit for bit, on every architecture.
//!
//! The proptest shim generates cases deterministically per test name, so
//! CI runs a fixed seed set.

use lrp::apps::{shared, Shared, TcpBulkMetrics, TcpBulkReceiver};
use lrp::core::{
    AppCtx, AppLogic, Architecture, CrashEvent, DropPoint, Errno, Host, HostFaultPlan, SockProto,
    SyscallOp, SyscallRet, World,
};
use lrp::experiments::{crash_recovery, fault_sweep, fig3, host_config, HOST_A, HOST_B};
use lrp::net::FaultPlan;
use lrp::nic::NicFaultPlan;
use lrp::sched::Pid;
use lrp::sim::{SimDuration, SimTime};
use lrp::stack::SockId;
use lrp::wire::Endpoint;
use proptest::prelude::*;

/// Runs to `t` (events at `t` included), then checks every host's
/// invariants: its indexes recomputed by brute force, its packet ledger
/// balanced. `run_until` samples the same check in debug
/// builds; calling it here pins it to the instant a teardown finished —
/// crash, reboot, listener close — and keeps it in the release soak.
fn run_checked(world: &mut World, t: SimTime) {
    world.run_until(t);
    for (h, host) in world.hosts.iter().enumerate() {
        if let Err(e) = host.check_invariants() {
            panic!("host {h} out of step at {t:?}: {e}");
        }
    }
}

/// One randomly drawn fault schedule.
#[derive(Clone, Debug)]
struct Schedule {
    seed: u64,
    pps: f64,
    bursty: bool,
    loss: f64,
    corrupt_p: f64,
    duplicate_p: f64,
    reorder_p: f64,
    reorder_delay_us: u64,
    pause: Option<(u64, u64)>,
    nic_stall: Option<(u64, u64)>,
    coalesce_us: u64,
}

impl Schedule {
    fn link_plan(&self) -> FaultPlan {
        let mut plan = if self.loss == 0.0 {
            FaultPlan::none()
        } else if self.bursty {
            // Mean burst of 12 frames, 70% in-burst loss.
            let p_bg = 1.0 / 12.0;
            let pi_bad = (self.loss / 0.7).min(0.9);
            FaultPlan::gilbert_elliott(self.seed, p_bg * pi_bad / (1.0 - pi_bad), p_bg, 0.0, 0.7)
        } else {
            FaultPlan::bernoulli(self.seed, self.loss)
        };
        plan.seed = self.seed;
        plan.corrupt_p = self.corrupt_p;
        plan.duplicate_p = self.duplicate_p;
        plan.reorder_p = self.reorder_p;
        plan.reorder_max_delay = SimDuration::from_micros(self.reorder_delay_us);
        if let Some((start_ms, dur_ms)) = self.pause {
            plan.pauses = vec![(
                SimTime::from_millis(start_ms),
                SimTime::from_millis(start_ms + dur_ms),
            )];
        }
        plan
    }

    fn nic_plan(&self) -> NicFaultPlan {
        let mut plan = NicFaultPlan::none();
        if let Some((start_ms, dur_ms)) = self.nic_stall {
            let start = start_ms * 1_000_000;
            plan.stall_ns = vec![(start, start + dur_ms * 1_000_000)];
        }
        plan.coalesce_ns = self.coalesce_us * 1_000;
        plan
    }
}

/// Runs the blast under `sched` on `arch`; asserts conservation and
/// fault-stage attribution; returns a digest of the final host state.
fn run_digest(arch: Architecture, sched: &Schedule) -> String {
    let (mut world, metrics) = fig3::build_seeded(arch, sched.pps, true, sched.seed);
    world.hosts[0].nic.set_faults(sched.nic_plan());
    world.set_link_faults(0, sched.link_plan());
    world.run_until(SimTime::from_secs(1));

    let errs = lrp::telemetry::conservation_errors(&world);
    assert!(
        errs.is_empty(),
        "conservation violated on {} under {sched:?}:\n{}",
        arch.name(),
        errs.join("\n")
    );
    let fs = world
        .link_fault_stats(0)
        .copied()
        .expect("fault plan installed");
    assert_eq!(
        fs.delivered,
        fs.offered - fs.dropped + fs.duplicated,
        "fault stage accounts for every frame on {}: {fs:?}",
        arch.name()
    );
    let h = &world.hosts[0];
    // Drop counts sorted by name, as the other digests render them.
    let mut drops: Vec<String> = h
        .stats
        .drops
        .iter()
        .map(|(k, v)| format!("{k:?}={v}"))
        .collect();
    drops.sort();
    format!(
        "udp={} udpB={} drops=[{}] hw={} soft={} ctx={}|{:?}|{:?}|{:?}|{}|{}",
        h.stats.udp_delivered,
        h.stats.udp_delivered_bytes,
        drops.join(","),
        h.stats.hw_chunks,
        h.stats.soft_jobs,
        h.stats.ctx_switches,
        h.nic.stats(),
        h.packet_ledger(),
        fs,
        h.sched.total_charged(),
        metrics.borrow().received
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chaos_soak(
        seed in any::<u32>(),
        pps in 2_000.0f64..8_000.0,
        bursty in any::<bool>(),
        loss in 0.0f64..0.3,
        corrupt_p in 0.0f64..0.05,
        duplicate_p in 0.0f64..0.05,
        reorder_p in 0.0f64..0.12,
        reorder_delay_us in 50u64..800,
        pause_on in any::<bool>(),
        pause_start_ms in 200u64..500,
        pause_dur_ms in 50u64..250,
        stall_on in any::<bool>(),
        stall_start_ms in 100u64..600,
        stall_dur_ms in 20u64..150,
        coalesce_us in 0u64..250,
    ) {
        let sched = Schedule {
            seed: seed as u64,
            pps,
            bursty,
            loss,
            corrupt_p,
            duplicate_p,
            reorder_p,
            reorder_delay_us,
            pause: pause_on.then_some((pause_start_ms, pause_dur_ms)),
            nic_stall: stall_on.then_some((stall_start_ms, stall_dur_ms)),
            coalesce_us,
        };
        for arch in [
            Architecture::Bsd,
            Architecture::EarlyDemux,
            Architecture::SoftLrp,
            Architecture::NiLrp,
        ] {
            let first = run_digest(arch, &sched);
            let second = run_digest(arch, &sched);
            prop_assert_eq!(
                &first,
                &second,
                "same seed must be bit-identical on {}",
                arch.name()
            );
        }
    }
}

/// One randomly drawn end-host crash schedule for the resilient-RPC
/// world: crash the server (optionally restarting it with jitter), and
/// optionally kill the client outright partway through.
#[derive(Clone, Debug)]
struct CrashSchedule {
    seed: u64,
    server_crash_ms: u64,
    restart: Option<(u64, u64)>,
    kill_client_ms: Option<u64>,
}

/// Looks a process up by name on a host (panics if absent).
fn pid_by_name(host: &lrp::core::Host, name: &str) -> Pid {
    host.sched
        .procs()
        .iter()
        .find(|p| p.name == name)
        .map(|p| p.pid)
        .unwrap_or_else(|| panic!("no process named {name}"))
}

/// Runs the crash-recovery world under `sched` on `arch`; asserts
/// conservation (the `owner_dead` and backlog buckets included — the
/// ledger's `disposed()` sums them) and that crash/restart logs match the
/// schedule; returns a digest of the final state.
fn run_crash_digest(arch: Architecture, sched: &CrashSchedule) -> String {
    let (mut world, cstats, sstats) = crash_recovery::build_recovery(arch);
    let server_pid = pid_by_name(&world.hosts[1], "rpc-server");
    let mut crashes = vec![match sched.restart {
        Some((after_ms, jitter_ms)) => CrashEvent {
            kind: lrp::core::FaultKind::Process,
            pid: server_pid,
            at: SimTime::from_millis(sched.server_crash_ms),
            restart_after: Some(SimDuration::from_millis(after_ms)),
            restart_jitter: SimDuration::from_millis(jitter_ms),
        },
        None => CrashEvent::kill(server_pid, SimTime::from_millis(sched.server_crash_ms)),
    }];
    // A second crash addressed to the *original* pid must follow the
    // reincarnation chain to the live incarnation.
    if sched.restart.is_some() {
        crashes.push(CrashEvent::crash_restart(
            server_pid,
            SimTime::from_millis(sched.server_crash_ms + 400),
            SimDuration::from_millis(50),
        ));
    }
    world.hosts[1].set_fault_plan(&HostFaultPlan {
        seed: sched.seed,
        crashes,
    });
    if let Some(kill_ms) = sched.kill_client_ms {
        let client_pid = pid_by_name(&world.hosts[0], "resilient-client");
        world.hosts[0].set_fault_plan(&HostFaultPlan {
            seed: sched.seed ^ 1,
            crashes: vec![CrashEvent::kill(client_pid, SimTime::from_millis(kill_ms))],
        });
    }
    // Stop right after each teardown the schedule can contain.
    let mut stops = vec![sched.server_crash_ms, sched.server_crash_ms + 400];
    stops.extend(sched.kill_client_ms);
    stops.sort_unstable();
    for ms in stops {
        run_checked(&mut world, SimTime::from_millis(ms));
    }
    run_checked(&mut world, SimTime::from_secs(1));

    let errs = lrp::telemetry::conservation_errors(&world);
    assert!(
        errs.is_empty(),
        "conservation violated on {} under {sched:?}:\n{}",
        arch.name(),
        errs.join("\n")
    );
    let server = &world.hosts[1];
    assert_eq!(
        server.crashes().len(),
        if sched.restart.is_some() { 2 } else { 1 },
        "every scheduled server crash executes on {}",
        arch.name()
    );
    assert_eq!(
        server.restarts().len(),
        server.crashes().len() - usize::from(sched.restart.is_none()),
        "every crash with a restart half respawns on {}",
        arch.name()
    );
    let c = cstats.borrow();
    let s = sstats.borrow();
    format!(
        "crashes={:?} restarts={:?} ledger={:?} client=[ok={} retries={} timeouts={} giveups={}] server=[served={} shed={}]",
        server.crashes(),
        server.restarts(),
        server.packet_ledger(),
        c.completions.len(),
        c.retries,
        c.timeouts,
        c.giveups,
        s.served,
        s.shed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn crash_chaos(
        seed in any::<u32>(),
        server_crash_ms in 100u64..400,
        restart_on in any::<bool>(),
        restart_after_ms in 50u64..250,
        jitter_ms in 0u64..80,
        kill_client in any::<bool>(),
        kill_client_ms in 300u64..700,
    ) {
        let sched = CrashSchedule {
            seed: seed as u64,
            server_crash_ms,
            restart: restart_on.then_some((restart_after_ms, jitter_ms)),
            kill_client_ms: kill_client.then_some(kill_client_ms),
        };
        for arch in [
            Architecture::Bsd,
            Architecture::EarlyDemux,
            Architecture::SoftLrp,
            Architecture::NiLrp,
        ] {
            let first = run_crash_digest(arch, &sched);
            let second = run_crash_digest(arch, &sched);
            prop_assert_eq!(
                &first,
                &second,
                "same crash schedule must be bit-identical on {}",
                arch.name()
            );
        }
    }
}

/// An inert [`HostFaultPlan`] must be byte-identical to no plan at all:
/// `set_fault_plan` detaches on the empty plan and draws no randomness.
#[test]
fn inert_host_fault_plan_matches_no_plan() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let digest = |attach_inert: bool| {
            let (mut world, cstats, _sstats) = crash_recovery::build_recovery(arch);
            // Replace the builder's crash plan. The inert plan detaches
            // entirely; the alternative stays attached but schedules its
            // only crash far past the run window (zero jitter) — an
            // armed-but-unfired plan must perturb nothing either.
            if attach_inert {
                world.hosts[1].set_fault_plan(&HostFaultPlan::none());
            } else {
                let pid = pid_by_name(&world.hosts[1], "rpc-server");
                world.hosts[1].set_fault_plan(&HostFaultPlan {
                    seed: 99,
                    crashes: vec![CrashEvent::kill(pid, SimTime::from_secs(100))],
                });
            }
            world.run_until(SimTime::from_millis(600));
            assert!(world.hosts[1].crashes().is_empty());
            format!(
                "{:?}|{:?}|{}",
                world.hosts[1].stats,
                world.hosts[1].packet_ledger(),
                cstats.borrow().completions.len()
            )
        };
        assert_eq!(
            digest(true),
            digest(false),
            "inert host fault plan must not perturb {}",
            arch.name()
        );
    }
}

// ---- client-side SYN_SENT crash coverage ----

/// What a [`ConnectProbe`] observed, recorded for the test to inspect
/// after the world ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ProbeLog {
    /// Outcome of the `connect` syscall.
    connect: Option<Result<(), Errno>>,
    /// Outcome of the blocking `recv` issued after a successful connect.
    io: Option<Result<usize, Errno>>,
}

/// Minimal TCP client: sleeps 5 ms, connects, records the connect
/// errno; on success blocks in `recv` and records that errno too. Lets
/// the tests pin exactly which error the kernel surfaces when the peer
/// never answers or dies.
struct ConnectProbe {
    dst: Endpoint,
    log: Shared<ProbeLog>,
    sock: Option<SockId>,
}

impl ConnectProbe {
    fn new(dst: Endpoint, log: Shared<ProbeLog>) -> Self {
        ConnectProbe {
            dst,
            log,
            sock: None,
        }
    }
}

impl AppLogic for ConnectProbe {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Sleep(SimDuration::from_millis(5))
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            // Sleep finished: create the socket.
            SyscallRet::Ok if self.sock.is_none() => SyscallOp::Socket(SockProto::Tcp),
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Connect {
                    sock: s,
                    dst: self.dst,
                }
            }
            // Connect succeeded: block waiting for data that never comes.
            SyscallRet::Ok => {
                self.log.borrow_mut().connect = Some(Ok(()));
                SyscallOp::Recv {
                    sock: self.sock.expect("connected socket"),
                    max_len: 4096,
                }
            }
            SyscallRet::Data(d) => {
                self.log.borrow_mut().io = Some(Ok(d.len()));
                SyscallOp::Exit
            }
            SyscallRet::Err(e) => {
                let mut log = self.log.borrow_mut();
                if log.connect.is_none() {
                    log.connect = Some(Err(e));
                } else {
                    log.io = Some(Err(e));
                }
                SyscallOp::Exit
            }
            _ => SyscallOp::Exit,
        }
    }
}

/// TCP port the probe worlds use.
const PROBE_PORT: u16 = 6400;

/// Two-host world: a [`ConnectProbe`] on A dialing B. `listen` spawns a
/// bulk receiver on B; without it the SYN hits a listener-less host.
/// `max_retries` shortens the retransmission death spiral for the tests.
fn probe_world(arch: Architecture, listen: bool, max_retries: u32) -> (World, Shared<ProbeLog>) {
    let mut world = World::with_defaults();
    let log = shared::<ProbeLog>();
    let mut cfg = host_config(arch);
    cfg.tcp.max_retries = max_retries;
    let mut a = Host::new(cfg, HOST_A);
    a.spawn_app(
        "probe",
        0,
        0,
        Box::new(ConnectProbe::new(
            Endpoint::new(HOST_B, PROBE_PORT),
            log.clone(),
        )),
    );
    let mut b = Host::new(cfg, HOST_B);
    if listen {
        b.spawn_app(
            "tcp-sink",
            0,
            0,
            Box::new(TcpBulkReceiver::new(PROBE_PORT, shared::<TcpBulkMetrics>())),
        );
    }
    world.add_host(a);
    world.add_host(b);
    (world, log)
}

/// A SYN into a host with no listener is silently dropped (no RST — the
/// kernel only charges the lookup cost), so the client retransmits from
/// SYN_SENT until retries are exhausted and `connect` must surface
/// `Err(TimedOut)`. Conservation holds on both hosts throughout.
#[test]
fn connect_to_listenerless_host_times_out() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (mut world, log) = probe_world(arch, false, 2);
        world.run_until(SimTime::from_secs(20));
        assert_eq!(
            log.borrow().connect,
            Some(Err(Errno::TimedOut)),
            "SYN blackhole must surface TimedOut from connect on {}",
            arch.name()
        );
        // Where the SYN dies depends on the architecture: protocol-time
        // socket lookup on BSD, host demux on Early-Demux/SOFT-LRP, or
        // on-NIC demux (an early discard) on NI-LRP. Either way it is a
        // counted drop, never an RST.
        let b = &world.hosts[1];
        assert!(
            b.stats.dropped(DropPoint::NoSocket)
                + b.stats.dropped(DropPoint::Channel)
                + b.nic.stats().early_discards
                > 0,
            "the listener-less host drops the SYN at lookup or demux on {}",
            arch.name()
        );
        let errs = lrp::telemetry::conservation_errors(&world);
        assert!(
            errs.is_empty(),
            "conservation violated on {}:\n{}",
            arch.name(),
            errs.join("\n")
        );
    }
}

/// Mid-handshake introspection: freeze the listener-less probe while the
/// client's SYN is still unanswered and the `SockStats` surface must
/// report the half-open socket — TCP, `SYN_SENT`, the dialed remote —
/// then crash the client out of that state and keep conserving.
#[test]
fn netstat_reports_syn_sent_before_client_crash() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (mut world, log) = probe_world(arch, false, 12);
        let probe = pid_by_name(&world.hosts[0], "probe");
        world.hosts[0].set_fault_plan(&HostFaultPlan {
            seed: 3,
            crashes: vec![CrashEvent::kill(probe, SimTime::from_millis(40))],
        });
        // Connect fires at 5 ms; by 10 ms the SYN is in the blackhole and
        // the socket sits half-open in SYN_SENT.
        world.run_until(SimTime::from_millis(10));
        let netstat = world.hosts[0].host_netstat();
        let half_open = netstat
            .iter()
            .find(|s| s.proto == SockProto::Tcp)
            .unwrap_or_else(|| panic!("no TCP socket in netstat on {}", arch.name()));
        let tcp = half_open
            .tcp
            .as_ref()
            .unwrap_or_else(|| panic!("no TCP detail on {}", arch.name()));
        assert_eq!(
            tcp.state.name(),
            "SYN_SENT",
            "unanswered connect must sit half-open on {}",
            arch.name()
        );
        assert_eq!(
            half_open.remote,
            Some(Endpoint::new(HOST_B, PROBE_PORT)),
            "the half-open socket remembers whom it dialed on {}",
            arch.name()
        );
        assert_eq!(half_open.recv_q, 0);
        // The crash at 40 ms lands mid-SYN_SENT: connect never returns,
        // the world survives, conservation holds on both hosts.
        world.run_until(SimTime::from_secs(5));
        assert_eq!(world.hosts[0].crashes().len(), 1);
        assert_eq!(
            *log.borrow(),
            ProbeLog::default(),
            "a process crashed in SYN_SENT never observes its connect on {}",
            arch.name()
        );
        assert!(
            world.hosts[0].host_netstat().is_empty(),
            "the crashed client's socket must be reaped on {}",
            arch.name()
        );
        let errs = lrp::telemetry::conservation_errors(&world);
        assert!(
            errs.is_empty(),
            "conservation violated on {}:\n{}",
            arch.name(),
            errs.join("\n")
        );
    }
}

/// Killing the server after the handshake aborts its sockets with an RST
/// per RFC 793; the client blocked in `recv` must be woken with
/// `Err(ConnReset)`. Conservation holds with the `owner_dead` bucket
/// absorbing the dead process's queued frames.
#[test]
fn server_crash_surfaces_conn_reset() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (mut world, log) = probe_world(arch, true, 12);
        let sink = pid_by_name(&world.hosts[1], "tcp-sink");
        world.hosts[1].set_fault_plan(&HostFaultPlan {
            seed: 7,
            crashes: vec![CrashEvent::kill(sink, SimTime::from_millis(50))],
        });
        world.run_until(SimTime::from_secs(5));
        let l = *log.borrow();
        assert_eq!(
            l.connect,
            Some(Ok(())),
            "handshake completes before the crash on {}",
            arch.name()
        );
        assert_eq!(
            l.io,
            Some(Err(Errno::ConnReset)),
            "the crash RST must surface ConnReset from the blocked recv on {}",
            arch.name()
        );
        assert_eq!(world.hosts[1].crashes().len(), 1);
        let errs = lrp::telemetry::conservation_errors(&world);
        assert!(
            errs.is_empty(),
            "conservation violated on {}:\n{}",
            arch.name(),
            errs.join("\n")
        );
    }
}

/// Runs the bulk-transfer world with the *client* killed at `kill_us`
/// microseconds — bracketing its connect at 5 ms, so the crash lands
/// before the socket exists, mid-SYN_SENT, or just after establishment —
/// and returns a digest of the final state. Panics and conservation are
/// checked inside.
fn run_connect_crash_digest(arch: Architecture, kill_us: u64, seed: u64) -> String {
    let (mut world, metrics) = fault_sweep::build(arch, FaultPlan::none(), 128 * 1024);
    let src = pid_by_name(&world.hosts[0], "tcp-src");
    world.hosts[0].set_fault_plan(&HostFaultPlan {
        seed,
        crashes: vec![CrashEvent::kill(src, SimTime::from_micros(kill_us))],
    });
    run_checked(&mut world, SimTime::from_micros(kill_us));
    run_checked(&mut world, SimTime::from_secs(2));
    let errs = lrp::telemetry::conservation_errors(&world);
    assert!(
        errs.is_empty(),
        "conservation violated on {} with client killed at {kill_us} us:\n{}",
        arch.name(),
        errs.join("\n")
    );
    assert_eq!(
        world.hosts[0].crashes().len(),
        1,
        "the scheduled client crash executes on {}",
        arch.name()
    );
    let m = metrics.borrow();
    format!(
        "{:?}|{:?}|bytes={} done={} aborted={}",
        world.hosts[0].packet_ledger(),
        world.hosts[1].packet_ledger(),
        m.bytes,
        m.done,
        m.aborted
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash the client while its connect is in (or about to be in)
    /// flight: no panic, ledgers conserved (`owner_dead` absorbing
    /// whatever the dead process had queued), and the same kill time is
    /// bit-identical on every architecture.
    #[test]
    fn syn_sent_crash_chaos(
        kill_us in 3_000u64..9_000,
        seed in any::<u32>(),
    ) {
        for arch in [
            Architecture::Bsd,
            Architecture::EarlyDemux,
            Architecture::SoftLrp,
            Architecture::NiLrp,
        ] {
            let first = run_connect_crash_digest(arch, kill_us, seed as u64);
            let second = run_connect_crash_digest(arch, kill_us, seed as u64);
            prop_assert_eq!(
                &first,
                &second,
                "same client-crash schedule must be bit-identical on {}",
                arch.name()
            );
        }
    }
}

// ---- listener close under flood ----

/// Listens on [`PROBE_PORT`], never accepts, closes the listener at
/// 300 ms and exits.
struct ClosingListener {
    sock: Option<SockId>,
    step: u8,
}

impl AppLogic for ClosingListener {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if let SyscallRet::Socket(s) = ret {
            self.sock = Some(s);
        }
        let sock = self.sock.expect("socket() succeeded");
        self.step += 1;
        match self.step {
            1 => SyscallOp::Bind {
                sock,
                port: PROBE_PORT,
            },
            2 => SyscallOp::Listen { sock, backlog: 8 },
            3 => SyscallOp::Sleep(SimDuration::from_millis(300)),
            4 => SyscallOp::Close { sock },
            _ => SyscallOp::Exit,
        }
    }
}

/// A listener closed mid-flood reaps every child: the half-open ones the
/// spoofed SYNs left (silently) and the established ones nobody accepted
/// (RST — their peers see `ConnReset`). Afterwards the server holds no
/// socket, every index is exact, and both ledgers balance, on all four
/// architectures.
#[test]
fn listener_close_under_flood_reaps_children_and_keeps_indexes_exact() {
    use lrp::net::{Injector, Pattern};
    use lrp::wire::{tcp, Frame, Ipv4Addr};
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let cfg = host_config(arch);
        let mut world = World::with_defaults();
        let mut a = Host::new(cfg, HOST_A);
        let logs: Vec<Shared<ProbeLog>> = (0..3).map(|_| shared::<ProbeLog>()).collect();
        for (i, log) in logs.iter().enumerate() {
            a.spawn_app(
                &format!("probe-{i}"),
                0,
                0,
                Box::new(ConnectProbe::new(
                    Endpoint::new(HOST_B, PROBE_PORT),
                    log.clone(),
                )),
            );
        }
        let mut b = Host::new(cfg, HOST_B);
        b.spawn_app(
            "closing-listener",
            0,
            0,
            Box::new(ClosingListener {
                sock: None,
                step: 0,
            }),
        );
        world.add_host(a);
        let server = world.add_host(b);
        // Spoofed SYNs from addresses no host owns, 2 000/s from 100 ms.
        world.add_injector(
            server,
            Injector::new(
                Pattern::FixedRate { pps: 2_000.0 },
                SimTime::from_millis(100),
                31,
                |seq| {
                    let h = tcp::TcpHeader {
                        src_port: 1024 + (seq % 60_000) as u16,
                        dst_port: PROBE_PORT,
                        seq: seq as u32,
                        ack: 0,
                        flags: tcp::flags::SYN,
                        window: 8_192,
                        mss: Some(1_460),
                    };
                    let src = Ipv4Addr::new(10, 0, 1, seq as u8);
                    Frame::ipv4(tcp::build_datagram(src, HOST_B, &h, seq as u16, &[]))
                },
            ),
        );
        // Just before the close: the probes' connections wait unaccepted
        // beside the flood's half-open children.
        run_checked(&mut world, SimTime::from_millis(290));
        assert!(
            world.hosts[server].host_netstat().len() > 4,
            "{}: listener plus established and half-open children",
            arch.name()
        );
        run_checked(&mut world, SimTime::from_millis(320));
        assert_eq!(
            world.hosts[server].host_netstat().len(),
            0,
            "{}: the close must reap every child socket",
            arch.name()
        );
        run_checked(&mut world, SimTime::from_millis(600));
        for log in &logs {
            assert_eq!(
                *log.borrow(),
                ProbeLog {
                    connect: Some(Ok(())),
                    io: Some(Err(Errno::ConnReset)),
                },
                "{}: an unaccepted connection is reset by the close",
                arch.name()
            );
        }
        let errs = lrp::telemetry::conservation_errors(&world);
        assert!(errs.is_empty(), "{}: {}", arch.name(), errs.join("\n"));
    }
}

// ---- whole-host reboot coverage ----

/// Runs the adversarial SYN-flood world (stateless cookies engaged) with
/// the victim power-cycled mid-flood; asserts no panic, conservation
/// with the `reboot_flushed` bucket folded in, and that exactly the
/// scheduled reboot executed. Returns a digest of the final state.
fn run_reboot_flood_digest(
    arch: Architecture,
    syn_pps: f64,
    reboot_ms: u64,
    boot_delay_ms: u64,
) -> String {
    use lrp::experiments::syn_flood::{self, Defense};
    let (mut world, metrics) = syn_flood::build(
        syn_flood::config(arch, Defense::Cookies),
        syn_pps,
        Some((
            SimTime::from_millis(reboot_ms),
            SimDuration::from_millis(boot_delay_ms),
        )),
    );
    // Powered down, just booted, settled.
    run_checked(&mut world, SimTime::from_millis(reboot_ms));
    run_checked(&mut world, SimTime::from_millis(reboot_ms + boot_delay_ms));
    run_checked(&mut world, SimTime::from_millis(1_200));

    let errs = lrp::telemetry::conservation_errors(&world);
    assert!(
        errs.is_empty(),
        "conservation violated on {} (reboot at {reboot_ms} ms under {syn_pps} SYN/s):\n{}",
        arch.name(),
        errs.join("\n")
    );
    let server = &world.hosts[1];
    assert_eq!(
        server.reboots(),
        &[SimTime::from_millis(reboot_ms)],
        "exactly the scheduled reboot executes on {}",
        arch.name()
    );
    assert!(
        !server.is_down(),
        "the host must be back up after the boot delay on {}",
        arch.name()
    );
    let (tx, fails): (u64, u64) = metrics
        .iter()
        .map(|m| {
            let m = m.borrow();
            (m.transactions, m.failures)
        })
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    let ledger = server.packet_ledger();
    format!(
        "reboots={:?} flushed={} stalled={} ledger={:?}|{:?}|tx={} fails={}",
        server.reboots(),
        ledger.reboot_flushed,
        ledger.nic_stall_drops,
        ledger,
        world.hosts[0].packet_ledger(),
        tx,
        fails
    )
}

proptest! {
    // Four cases: each runs 8 flooded worlds (4 architectures, twice
    // for bit-identity), which is the most expensive soak in this file.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Power-cycle the flooded victim at an arbitrary point: no panic,
    /// both ledgers conserved (`reboot_flushed` and `nic_stall_drops`
    /// absorbing the teardown and the dead-NIC window), and the same
    /// schedule is bit-identical on every architecture.
    #[test]
    fn reboot_during_flood_chaos(
        syn_pps in 500.0f64..2_500.0,
        reboot_ms in 200u64..800,
        boot_delay_ms in 20u64..200,
    ) {
        for arch in [
            Architecture::Bsd,
            Architecture::EarlyDemux,
            Architecture::SoftLrp,
            Architecture::NiLrp,
        ] {
            let first = run_reboot_flood_digest(arch, syn_pps, reboot_ms, boot_delay_ms);
            let second = run_reboot_flood_digest(arch, syn_pps, reboot_ms, boot_delay_ms);
            prop_assert_eq!(
                &first,
                &second,
                "same reboot schedule must be bit-identical on {}",
                arch.name()
            );
        }
    }
}

/// An armed reboot plan whose event lies beyond the end of the run must
/// be byte-identical to no plan at all: arming draws no randomness and
/// the pending event perturbs neither timers nor traffic.
#[test]
fn armed_unfired_reboot_plan_matches_no_plan() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let digest = |arm: bool| {
            let (mut world, cstats, _sstats) = crash_recovery::build_recovery(arch);
            // Replace the builder's crash plan either way (mirrors
            // `inert_host_fault_plan_matches_no_plan`).
            if arm {
                world.hosts[1].set_fault_plan(&HostFaultPlan {
                    seed: 0xB007,
                    crashes: vec![CrashEvent::reboot(
                        SimTime::from_secs(100),
                        SimDuration::from_millis(80),
                    )],
                });
            } else {
                world.hosts[1].set_fault_plan(&HostFaultPlan::none());
            }
            world.run_until(SimTime::from_millis(600));
            assert!(world.hosts[1].reboots().is_empty());
            assert!(world.hosts[1].crashes().is_empty());
            format!(
                "{:?}|{:?}|{}",
                world.hosts[1].stats,
                world.hosts[1].packet_ledger(),
                cstats.borrow().completions.len()
            )
        };
        assert_eq!(
            digest(false),
            digest(true),
            "an armed-but-unfired reboot plan must not perturb {}",
            arch.name()
        );
    }
}

/// A fault-free plan through the fault stage must be byte-identical to no
/// plan at all: the inert path draws no randomness and perturbs nothing.
#[test]
fn inert_plan_matches_no_plan() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let bare = {
            let (mut world, m) = fig3::build_seeded(arch, 6_000.0, true, 11);
            world.run_until(SimTime::from_secs(1));
            format!("{:?}|{}", world.hosts[0].stats, m.borrow().received)
        };
        let inert = {
            let (mut world, m) = fig3::build_seeded(arch, 6_000.0, true, 11);
            world.set_link_faults(0, FaultPlan::none());
            world.hosts[0].nic.set_faults(NicFaultPlan::none());
            world.run_until(SimTime::from_secs(1));
            format!("{:?}|{}", world.hosts[0].stats, m.borrow().received)
        };
        assert_eq!(bare, inert, "inert faults must not perturb {}", arch.name());
    }
}
