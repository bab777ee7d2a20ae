//! End-host failure and recovery invariants.
//!
//! Pins the PR-5 robustness claims end to end:
//!
//! * **Retransmit give-up** — when a peer goes silent, the sender's TCP
//!   exhausts its retry budget, tears the connection down, and the
//!   *application* observes `TimedOut` from its blocked `recv` (no
//!   wedged-forever sockets, no leaked PCBs).
//! * **Crash ⇒ RST** — crashing a process with an established connection
//!   sends an RST per RFC 793; the remote application observes
//!   `ConnReset`.
//! * **Crash teardown conserves** — frames queued in a dead process's NI
//!   channel land in the `owner_dead` ledger bucket, keeping the ledger
//!   balanced.
//! * **Bounded recovery** — a retrying client recovers within a bounded
//!   window after a server crash/restart, on every architecture.
//! * **SYN-flood resilience** — under a flood, SOFT-LRP's legitimate
//!   goodput beats 4.4BSD's (ratio > 1).

use lrp::apps::{shared, PacedRpcClient, RpcServer, Shared, TcpBulkMetrics, TcpBulkReceiver};
use lrp::core::{
    AppCtx, AppLogic, Architecture, CrashEvent, Host, HostFaultPlan, SockProto, SyscallOp,
    SyscallRet, World,
};
use lrp::experiments::{crash_recovery, host_config, HOST_A, HOST_B};
use lrp::net::FaultPlan;
use lrp::sim::{SimDuration, SimTime};
use lrp::stack::SockId;
use lrp::wire::Endpoint;

const PORT: u16 = 6400;

/// A TCP client that connects, sends once after a delay, then blocks in
/// `recv` and records whatever comes back — made to observe error
/// surfacing, not data.
struct TcpProbe {
    dst: Endpoint,
    send_after: SimDuration,
    log: Shared<Vec<String>>,
    sock_cell: Shared<Option<SockId>>,
    sock: Option<SockId>,
    state: u8,
}

impl TcpProbe {
    fn new(
        dst: Endpoint,
        send_after: SimDuration,
        log: Shared<Vec<String>>,
        sock_cell: Shared<Option<SockId>>,
    ) -> Self {
        TcpProbe {
            dst,
            send_after,
            log,
            sock_cell,
            sock: None,
            state: 0,
        }
    }
}

impl AppLogic for TcpProbe {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                *self.sock_cell.borrow_mut() = Some(s);
                self.state = 1;
                SyscallOp::Connect {
                    sock: s,
                    dst: self.dst,
                }
            }
            (1, SyscallRet::Ok) => {
                self.log.borrow_mut().push("connected".into());
                self.state = 2;
                SyscallOp::Sleep(self.send_after)
            }
            (2, SyscallRet::Ok) => {
                self.state = 3;
                SyscallOp::Send {
                    sock: self.sock.expect("socket"),
                    data: lrp::wire::buf::filled(1024, 0xAB),
                }
            }
            (3, SyscallRet::Sent(_)) => {
                self.state = 4;
                SyscallOp::Recv {
                    sock: self.sock.expect("socket"),
                    max_len: 65_536,
                }
            }
            (4, SyscallRet::Data(d)) => {
                self.log.borrow_mut().push(format!("data:{}", d.len()));
                SyscallOp::Recv {
                    sock: self.sock.expect("socket"),
                    max_len: 65_536,
                }
            }
            (s, SyscallRet::Err(e)) => {
                self.log.borrow_mut().push(format!("err@{s}:{e:?}"));
                self.state = 5;
                SyscallOp::Close {
                    sock: self.sock.expect("socket"),
                }
            }
            (5, SyscallRet::Ok) => {
                self.log.borrow_mut().push("closed".into());
                SyscallOp::Exit
            }
            (s, r) => panic!("probe state {s}: {r:?}"),
        }
    }
}

/// Builds probe-vs-bulk-receiver TCP worlds: host 0 runs the probe (A),
/// host 1 the accepting receiver (B). Returns the world plus the probe's
/// log, its socket cell, and the server's pid.
fn build_probe_world(
    arch: Architecture,
    max_retries: u32,
) -> (
    World,
    Shared<Vec<String>>,
    Shared<Option<SockId>>,
    lrp::sched::Pid,
) {
    let mut cfg = host_config(arch);
    cfg.tcp.max_retries = max_retries;
    cfg.tcp.rto_max = SimDuration::from_secs(1);
    let mut world = World::with_defaults();
    let log = shared::<Vec<String>>();
    let sock_cell = shared::<Option<SockId>>();
    let mut a = Host::new(cfg, HOST_A);
    a.spawn_app(
        "probe",
        0,
        0,
        Box::new(TcpProbe::new(
            Endpoint::new(HOST_B, PORT),
            SimDuration::from_millis(100),
            log.clone(),
            sock_cell.clone(),
        )),
    );
    let mut b = Host::new(cfg, HOST_B);
    let server_pid = b.spawn_app(
        "tcp-sink",
        0,
        0,
        Box::new(TcpBulkReceiver::new(PORT, shared::<TcpBulkMetrics>())),
    );
    world.add_host(a);
    world.add_host(b);
    (world, log, sock_cell, server_pid)
}

/// When the peer's link dies, the sender retransmits, gives up, and the
/// blocked `recv` returns `TimedOut`; closing then frees the socket slot.
#[test]
fn retransmit_give_up_surfaces_timed_out() {
    for arch in [Architecture::Bsd, Architecture::SoftLrp] {
        let (mut world, log, sock_cell, _) = build_probe_world(arch, 2);
        // Sever everything toward the server from 50 ms on: the
        // handshake completes, the 100 ms send is never delivered.
        let mut plan = FaultPlan::none();
        plan.pauses = vec![(SimTime::from_millis(50), SimTime::from_secs(1_000))];
        world.set_link_faults(1, plan);
        world.run_until(SimTime::from_secs(10));

        let log = log.borrow();
        assert_eq!(
            log.as_slice(),
            ["connected", "err@4:TimedOut", "closed"],
            "{}: app must observe the give-up as TimedOut",
            arch.name()
        );
        let tcp = world.hosts[0].tcp_totals();
        assert!(
            tcp.retransmits >= 2,
            "{}: give-up only after the retry budget ({tcp:?})",
            arch.name()
        );
        assert!(tcp.timeouts >= 3, "{}: RTO fired repeatedly", arch.name());
        // Close after teardown released the slot: the socket is gone.
        let sock = sock_cell.borrow().expect("probe created a socket");
        assert_eq!(
            world.hosts[0].socket_owner(sock),
            None,
            "{}: socket slot freed after error + close",
            arch.name()
        );
        let errs = lrp::telemetry::conservation_errors(&world);
        assert!(errs.is_empty(), "{}: {}", arch.name(), errs.join("\n"));
    }
}

/// Crashing the server process aborts its established connection with an
/// RST; the remote client's blocked `recv` returns `ConnReset`.
#[test]
fn crash_sends_rst_peer_observes_conn_reset() {
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let (mut world, log, _cell, server_pid) = build_probe_world(arch, 12);
        world.hosts[1].set_fault_plan(&HostFaultPlan {
            seed: 7,
            crashes: vec![CrashEvent::kill(server_pid, SimTime::from_millis(200))],
        });
        world.run_until(SimTime::from_secs(1));

        let log = log.borrow();
        assert_eq!(
            log.as_slice(),
            ["connected", "err@4:ConnReset", "closed"],
            "{}: crash must surface as ConnReset on the peer",
            arch.name()
        );
        assert_eq!(world.hosts[1].crashes().len(), 1);
        let errs = lrp::telemetry::conservation_errors(&world);
        assert!(errs.is_empty(), "{}: {}", arch.name(), errs.join("\n"));
    }
}

/// Crashing an overloaded NI-LRP server with frames queued in its NI
/// channel re-attributes those frames to the `owner_dead` bucket — and
/// the ledger still balances.
#[test]
fn crash_unmaps_channels_into_owner_dead() {
    let mut world = World::with_defaults();
    let mut a = Host::new(host_config(Architecture::NiLrp), HOST_A);
    a.spawn_app(
        "paced",
        0,
        0,
        Box::new(PacedRpcClient::new(
            Endpoint::new(HOST_B, PORT),
            5000,
            SimDuration::from_micros(200),
        )),
    );
    let mut b = Host::new(host_config(Architecture::NiLrp), HOST_B);
    // 1 ms of work per request vs one request per 200 µs: the channel
    // backs up fast.
    let server_pid = b.spawn_app(
        "slow-server",
        0,
        0,
        Box::new(RpcServer::new(PORT, SimDuration::from_millis(1))),
    );
    b.set_fault_plan(&HostFaultPlan {
        seed: 3,
        crashes: vec![CrashEvent::kill(server_pid, SimTime::from_millis(100))],
    });
    world.add_host(a);
    world.add_host(b);
    world.run_until(SimTime::from_millis(250));

    let ledger = world.hosts[1].packet_ledger();
    assert!(
        ledger.owner_dead > 0,
        "queued channel frames must be re-attributed: {ledger:?}"
    );
    let errs = lrp::telemetry::conservation_errors(&world);
    assert!(errs.is_empty(), "{}", errs.join("\n"));
}

/// After the crash/restart, the retrying client recovers within a
/// bounded window on every architecture.
#[test]
fn recovery_is_bounded_on_every_architecture() {
    for arch in lrp::experiments::all_architectures() {
        let p = crash_recovery::measure_recovery(arch, SimTime::from_secs(1));
        let recovery = p
            .recovery_ms
            .unwrap_or_else(|| panic!("{}: client never recovered: {p:?}", arch.name()));
        assert!(
            recovery < 200.0,
            "{}: recovery within one retry/backoff cycle, got {recovery:.2} ms ({p:?})",
            arch.name()
        );
        assert!(p.retries > 0, "{}: outage forced retries", arch.name());
        assert!(p.timeouts > 0, "{}: deadlines fired", arch.name());
        assert!(p.conserved, "{}: ledgers balance: {p:?}", arch.name());
    }
}

/// Under the SYN flood (SYN cache on), SOFT-LRP keeps serving legitimate
/// HTTP clients while 4.4BSD starves: the goodput ratio exceeds 1.
#[test]
fn syn_flood_goodput_ratio_lrp_over_bsd() {
    let d = SimTime::from_millis(1_500);
    let bsd = crash_recovery::measure_flood(Architecture::Bsd, crash_recovery::FLOOD_PPS, d);
    let lrp = crash_recovery::measure_flood(Architecture::SoftLrp, crash_recovery::FLOOD_PPS, d);
    assert!(
        bsd.conserved && lrp.conserved,
        "ledgers balance under flood"
    );
    assert!(
        bsd.syn_cache_evictions > 0,
        "BSD's overflowing backlog exercises the SYN cache: {bsd:?}"
    );
    assert!(
        lrp.http_tps > bsd.http_tps,
        "SOFT-LRP goodput must beat 4.4BSD under flood: {lrp:?} vs {bsd:?}"
    );
}

/// Connection churn past the ephemeral-port wrap: the unflooded HTTP
/// scenario opens one connection per request, so its demux keys cycle
/// through the whole 40 000–65 000 range by ~29 simulated seconds. A
/// demux table that only marks deleted slots has by then no empty slot
/// left and probes forever; with backward-shift deletion every client is
/// still completing requests at 40 s. One test per architecture, so the
/// four 40-second runs share the test threads.
fn http_churn_runs_past_the_port_wrap(arch: Architecture) {
    use lrp::experiments::syn_flood::{self, Defense};
    let (mut world, metrics) = syn_flood::build(syn_flood::config(arch, Defense::None), 0.0, None);
    world.run_until(SimTime::from_secs(40));
    for (i, m) in metrics.iter().enumerate() {
        let m = m.borrow();
        assert!(
            m.last.is_some_and(|t| t >= SimTime::from_secs(35)),
            "{}: client {i} stopped completing requests (last at {:?}, {} done, {} failed)",
            arch.name(),
            m.last,
            m.transactions,
            m.failures
        );
    }
    let errs = lrp::telemetry::conservation_errors(&world);
    assert!(errs.is_empty(), "{}: {}", arch.name(), errs.join("\n"));
}

#[test]
fn http_churn_runs_past_the_port_wrap_bsd() {
    http_churn_runs_past_the_port_wrap(Architecture::Bsd);
}

#[test]
fn http_churn_runs_past_the_port_wrap_early_demux() {
    http_churn_runs_past_the_port_wrap(Architecture::EarlyDemux);
}

#[test]
fn http_churn_runs_past_the_port_wrap_soft_lrp() {
    http_churn_runs_past_the_port_wrap(Architecture::SoftLrp);
}

#[test]
fn http_churn_runs_past_the_port_wrap_ni_lrp() {
    http_churn_runs_past_the_port_wrap(Architecture::NiLrp);
}
