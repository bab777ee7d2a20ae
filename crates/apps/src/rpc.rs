//! The synthetic RPC server workload of Table 2.
//!
//! Three server processes run on the server machine: a *worker* whose RPC
//! takes ~11.5 s of CPU with a large cache working set, and two RPC
//! servers with short per-request computations ("Fast", "Medium", "Slow"
//! variants). Clients on another machine keep requests outstanding at all
//! times so the servers never block on the network — making the CPU
//! scheduler, not the network, the contended resource.

use crate::Shared;
use lrp_core::{AppCtx, AppLogic, SockProto, SyscallOp, SyscallRet};
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::SockId;
use lrp_wire::Endpoint;

/// Metrics for one RPC flow (client side).
#[derive(Debug, Default)]
pub struct RpcMetrics {
    /// Completed RPCs.
    pub completed: u64,
    /// Completion time of the first RPC.
    pub first: Option<SimTime>,
    /// Completion time of the most recent RPC.
    pub last: Option<SimTime>,
    /// For the worker flow: elapsed wall time of the single RPC.
    pub elapsed: Option<SimDuration>,
}

impl RpcMetrics {
    /// Completed RPCs per second over the active interval.
    pub fn rate(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a && self.completed > 1 => {
                (self.completed - 1) as f64 / b.since(a).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

/// A UDP RPC server: receives a request, computes for `work`, replies.
///
/// Optionally records completions into server-side metrics (used when the
/// clients are open-loop and discard replies).
pub struct RpcServer {
    port: u16,
    work: SimDuration,
    sock: Option<SockId>,
    reply_to: Option<Endpoint>,
    metrics: Option<Shared<RpcMetrics>>,
}

impl RpcServer {
    /// Creates a server computing `work` per request on `port`.
    pub fn new(port: u16, work: SimDuration) -> Self {
        RpcServer {
            port,
            work,
            sock: None,
            reply_to: None,
            metrics: None,
        }
    }

    /// Attaches server-side completion metrics.
    pub fn with_metrics(mut self, metrics: Shared<RpcMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

impl AppLogic for RpcServer {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Bind {
                    sock: s,
                    port: self.port,
                }
            }
            SyscallRet::DataFrom(from, _req) => {
                self.reply_to = Some(from);
                SyscallOp::Compute(self.work)
            }
            SyscallRet::Ok if self.reply_to.is_some() => {
                // Computation finished: reply.
                let to = self.reply_to.take().expect("checked");
                if let Some(m) = &self.metrics {
                    let mut m = m.borrow_mut();
                    m.completed += 1;
                    if m.first.is_none() {
                        m.first = Some(ctx.now);
                    }
                    m.last = Some(ctx.now);
                }
                SyscallOp::SendTo {
                    sock: self.sock.expect("socket"),
                    dst: to,
                    data: lrp_wire::buf::filled(32, 0xAC),
                }
            }
            _ => SyscallOp::Recv {
                sock: self.sock.expect("socket"),
                max_len: 65_536,
            },
        }
    }
}

/// An open-loop RPC request source: sends requests at a fixed pace and
/// never reads replies — the paper's condition that "requests are
/// distributed near uniformly in time", decorrelating arrivals from the
/// server machine's scheduling. Replies accumulate (and overflow) in the
/// client's socket buffer, which is harmless.
pub struct PacedRpcClient {
    server: Endpoint,
    local_port: u16,
    gap: SimDuration,
    sock: Option<SockId>,
    state: u8,
}

impl PacedRpcClient {
    /// Creates a paced source sending one request per `gap`.
    pub fn new(server: Endpoint, local_port: u16, gap: SimDuration) -> Self {
        assert!(!gap.is_zero());
        PacedRpcClient {
            server,
            local_port,
            gap,
            sock: None,
            state: 0,
        }
    }
}

impl AppLogic for PacedRpcClient {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Sleep(SimDuration::from_millis(10))
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, _) => {
                self.state = 1;
                SyscallOp::Socket(SockProto::Udp)
            }
            (1, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                self.state = 2;
                SyscallOp::Bind {
                    sock: s,
                    port: self.local_port,
                }
            }
            (2, SyscallRet::Ok) => {
                self.state = 3;
                SyscallOp::SendTo {
                    sock: self.sock.expect("socket"),
                    dst: self.server,
                    data: lrp_wire::buf::filled(32, 0x3F),
                }
            }
            (3, _) => {
                self.state = 2;
                SyscallOp::Sleep(self.gap)
            }
            (s, r) => panic!("paced rpc client state {s}: {r:?}"),
        }
    }
}

/// A UDP RPC client: keeps `outstanding` requests in flight to one server
/// until `limit` complete (or forever when `limit` is `None`).
pub struct RpcClient {
    server: Endpoint,
    local_port: u16,
    outstanding: u32,
    limit: Option<u64>,
    metrics: Shared<RpcMetrics>,
    sock: Option<SockId>,
    in_flight: u32,
    sent_first_at: Option<SimTime>,
    state: u8,
}

impl RpcClient {
    /// Creates a client bound to `local_port` driving `server`.
    pub fn new(
        server: Endpoint,
        local_port: u16,
        outstanding: u32,
        limit: Option<u64>,
        metrics: Shared<RpcMetrics>,
    ) -> Self {
        assert!(outstanding > 0);
        RpcClient {
            server,
            local_port,
            outstanding,
            limit,
            metrics,
            sock: None,
            in_flight: 0,
            sent_first_at: None,
            state: 0,
        }
    }

    fn pump(&mut self, now: SimTime) -> SyscallOp {
        if self.in_flight < self.outstanding {
            self.in_flight += 1;
            if self.sent_first_at.is_none() {
                self.sent_first_at = Some(now);
            }
            SyscallOp::SendTo {
                sock: self.sock.expect("socket"),
                dst: self.server,
                data: lrp_wire::buf::filled(32, 0x3F),
            }
        } else {
            SyscallOp::Recv {
                sock: self.sock.expect("socket"),
                max_len: 65_536,
            }
        }
    }
}

impl AppLogic for RpcClient {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        // Give the servers time to bind before the first (unretried)
        // request goes out.
        SyscallOp::Sleep(SimDuration::from_millis(10))
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Ok) => {
                self.state = 10;
                SyscallOp::Socket(SockProto::Udp)
            }
            (10, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                self.state = 1;
                SyscallOp::Bind {
                    sock: s,
                    port: self.local_port,
                }
            }
            (1, SyscallRet::Ok) => {
                self.state = 2;
                self.pump(ctx.now)
            }
            (2, SyscallRet::Sent(_)) => self.pump(ctx.now),
            (2, SyscallRet::DataFrom(..)) => {
                self.in_flight -= 1;
                let mut m = self.metrics.borrow_mut();
                m.completed += 1;
                if m.first.is_none() {
                    m.first = Some(ctx.now);
                }
                m.last = Some(ctx.now);
                if let Some(limit) = self.limit {
                    if m.completed >= limit {
                        m.elapsed = Some(ctx.now.since(self.sent_first_at.expect("sent")));
                        return SyscallOp::Exit;
                    }
                }
                drop(m);
                self.pump(ctx.now)
            }
            (2, SyscallRet::Err(_)) => self.pump(ctx.now),
            (s, r) => panic!("rpc client state {s}: {r:?}"),
        }
    }
}
