//! Cross-crate integration tests: behaviours that only emerge when the
//! demux table, NIC, scheduler, stack and host cooperate.

use lrp::core::{
    AppCtx, AppLogic, Architecture, Host, HostConfig, SockProto, SyscallOp, SyscallRet, World,
};
use lrp::sim::{SimDuration, SimTime};
use lrp::stack::SockId;
use lrp::wire::{Endpoint, Ipv4Addr};
use std::cell::RefCell;
use std::rc::Rc;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A client that performs sequential TCP request/response transactions.
struct SerialClient {
    dst: Endpoint,
    remaining: u32,
    sock: Option<SockId>,
    state: u8,
    done: Rc<RefCell<u32>>,
}

impl AppLogic for SerialClient {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Sleep(SimDuration::from_millis(5))
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, _) => {
                self.state = 1;
                SyscallOp::Socket(SockProto::Tcp)
            }
            (1, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                self.state = 2;
                SyscallOp::Connect {
                    sock: s,
                    dst: self.dst,
                }
            }
            (2, SyscallRet::Ok) => {
                self.state = 3;
                SyscallOp::Send {
                    sock: self.sock.unwrap(),
                    data: b"req"[..].into(),
                }
            }
            (3, SyscallRet::Sent(_)) => {
                self.state = 4;
                SyscallOp::Recv {
                    sock: self.sock.unwrap(),
                    max_len: 65_536,
                }
            }
            (4, SyscallRet::Data(_)) => {
                self.state = 5;
                SyscallOp::Close {
                    sock: self.sock.take().unwrap(),
                }
            }
            (5, _) => {
                *self.done.borrow_mut() += 1;
                self.remaining -= 1;
                if self.remaining == 0 {
                    SyscallOp::Exit
                } else {
                    self.state = 0;
                    SyscallOp::Sleep(SimDuration::from_millis(1))
                }
            }
            (s, r) => panic!("serial client state {s}: {r:?}"),
        }
    }
}

/// Accept-respond-close server.
struct OneShotServer {
    port: u16,
    lsock: Option<SockId>,
    conn: Option<SockId>,
    state: u8,
}

impl AppLogic for OneShotServer {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }
    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Socket(s)) => {
                self.lsock = Some(s);
                self.state = 1;
                SyscallOp::Bind {
                    sock: s,
                    port: self.port,
                }
            }
            (1, SyscallRet::Ok) => {
                self.state = 2;
                SyscallOp::Listen {
                    sock: self.lsock.unwrap(),
                    backlog: 8,
                }
            }
            (2, SyscallRet::Ok) => {
                self.state = 3;
                SyscallOp::Accept {
                    sock: self.lsock.unwrap(),
                }
            }
            (3, SyscallRet::Accepted(c)) => {
                self.conn = Some(c);
                self.state = 4;
                SyscallOp::Recv {
                    sock: c,
                    max_len: 65_536,
                }
            }
            (4, SyscallRet::Data(_)) => {
                self.state = 5;
                SyscallOp::Send {
                    sock: self.conn.unwrap(),
                    data: lrp::wire::buf::filled(500, 0x5A),
                }
            }
            (5, SyscallRet::Sent(_)) => {
                self.state = 6;
                SyscallOp::Close {
                    sock: self.conn.take().unwrap(),
                }
            }
            (6, _) => {
                self.state = 3;
                SyscallOp::Accept {
                    sock: self.lsock.unwrap(),
                }
            }
            (s, r) => panic!("server state {s}: {r:?}"),
        }
    }
}

/// NI-LRP reclaims connection channels in TIME_WAIT (§4.2): after a burst
/// of sequential connections, the NIC's channel count returns to the
/// baseline instead of accumulating one channel per past connection.
#[test]
fn ni_lrp_time_wait_channel_reclamation() {
    let mut cfg = HostConfig::new(Architecture::NiLrp);
    cfg.tcp.time_wait = SimDuration::from_secs(30); // Long TIME_WAIT.
    cfg.time_wait_channel_reclaim = true;
    let done = Rc::new(RefCell::new(0u32));
    let mut world = World::with_defaults();
    let mut ha = Host::new(cfg, A);
    ha.spawn_app(
        "client",
        0,
        0,
        Box::new(SerialClient {
            dst: Endpoint::new(B, 80),
            remaining: 10,
            sock: None,
            state: 0,
            done: done.clone(),
        }),
    );
    let mut hb = Host::new(cfg, B);
    hb.spawn_app(
        "server",
        0,
        0,
        Box::new(OneShotServer {
            port: 80,
            lsock: None,
            conn: None,
            state: 0,
        }),
    );
    world.add_host(ha);
    world.add_host(hb);
    world.run_until(SimTime::from_secs(10));
    assert_eq!(*done.borrow(), 10, "all transactions completed");
    // Server channels: fragment + listener + (children either closed or in
    // TIME_WAIT with their channel reclaimed). Allow a little slack for a
    // connection mid-teardown at the cutoff.
    let chans = world.hosts[1].nic.channel_count();
    assert!(
        chans <= 4,
        "TIME_WAIT channels must be reclaimed on NI-LRP: {chans} live"
    );
}

/// Without reclamation the same workload pins one NI channel per
/// TIME_WAIT connection.
#[test]
fn ni_lrp_without_reclamation_channels_accumulate() {
    let mut cfg = HostConfig::new(Architecture::NiLrp);
    cfg.tcp.time_wait = SimDuration::from_secs(30);
    cfg.time_wait_channel_reclaim = false;
    let done = Rc::new(RefCell::new(0u32));
    let mut world = World::with_defaults();
    let mut ha = Host::new(cfg, A);
    ha.spawn_app(
        "client",
        0,
        0,
        Box::new(SerialClient {
            dst: Endpoint::new(B, 80),
            remaining: 10,
            sock: None,
            state: 0,
            done: done.clone(),
        }),
    );
    let mut hb = Host::new(cfg, B);
    hb.spawn_app(
        "server",
        0,
        0,
        Box::new(OneShotServer {
            port: 80,
            lsock: None,
            conn: None,
            state: 0,
        }),
    );
    world.add_host(ha);
    world.add_host(hb);
    world.run_until(SimTime::from_secs(10));
    assert_eq!(*done.borrow(), 10);
    let chans = world.hosts[1].nic.channel_count();
    assert!(
        chans >= 10,
        "without reclamation, TIME_WAIT pins channels: only {chans} live"
    );
}

/// The demux table shrinks back after connection churn: no leaked filters.
#[test]
fn demux_table_no_filter_leak() {
    let cfg = HostConfig::new(Architecture::SoftLrp);
    let done = Rc::new(RefCell::new(0u32));
    let mut world = World::with_defaults();
    let mut ha = Host::new(cfg, A);
    ha.spawn_app(
        "client",
        0,
        0,
        Box::new(SerialClient {
            dst: Endpoint::new(B, 80),
            remaining: 20,
            sock: None,
            state: 0,
            done: done.clone(),
        }),
    );
    let mut hb = Host::new(cfg, B);
    hb.spawn_app(
        "server",
        0,
        0,
        Box::new(OneShotServer {
            port: 80,
            lsock: None,
            conn: None,
            state: 0,
        }),
    );
    world.add_host(ha);
    world.add_host(hb);
    // Run long enough for every TIME_WAIT (30 s default) to expire.
    world.run_until(SimTime::from_secs(45));
    assert_eq!(*done.borrow(), 20);
    // Server: only the listener's wildcard filter remains.
    assert!(
        world.hosts[1].nic.demux.len() <= 2,
        "server leaked demux filters: {}",
        world.hosts[1].nic.demux.len()
    );
    // Client: every per-connection filter (wildcard from the implicit
    // bind plus the exact 5-tuple) must be gone too.
    assert!(
        world.hosts[0].nic.demux.len() <= 2,
        "client leaked demux filters: {}",
        world.hosts[0].nic.demux.len()
    );
}

/// CPU-time conservation: everything charged to processes equals what the
/// scheduler handed out; no charge is lost or double-counted across the
/// interrupt/softirq/process contexts.
#[test]
fn cpu_charge_conservation_under_load() {
    let (mut world, _m) = lrp::experiments::fig3::build(Architecture::Bsd, 9_000.0, false);
    world.run_until(SimTime::from_secs(2));
    let host = &world.hosts[0];
    let total = host.sched.total_charged();
    let sum: lrp::sim::SimDuration = host
        .sched
        .procs()
        .iter()
        .map(|p| p.acct.total())
        .fold(lrp::sim::SimDuration::ZERO, |a, b| a + b);
    assert_eq!(sum, total, "charges must balance");
    // Sanity: the host was busy most of the time at 9k pkts/s.
    assert!(
        total.as_secs_f64() > 1.0,
        "expected a busy host, charged only {total}"
    );
}
