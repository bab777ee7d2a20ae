//! UDP ping-pong: the paper's round-trip latency measurement (Table 1)
//! and the latency-under-load client (Figure 4).

use crate::Shared;
use lrp_core::{AppCtx, AppLogic, SockProto, SyscallOp, SyscallRet};
use lrp_sim::{Histogram, SimTime};
use lrp_stack::SockId;
use lrp_wire::Endpoint;

/// Metrics recorded by a [`PingPongClient`].
#[derive(Debug, Default)]
pub struct PingPongMetrics {
    /// Completed round trips.
    pub count: u64,
    /// Round-trip latency histogram (nanoseconds).
    pub rtt: Histogram,
    /// Finished the configured number of round trips.
    pub done: bool,
}

impl PingPongMetrics {
    /// Mean RTT in microseconds.
    pub fn mean_rtt_us(&self) -> f64 {
        self.rtt.mean() / 1_000.0
    }
}

/// Bounces a small message off a [`PingPongServer`] `count` times.
pub struct PingPongClient {
    server: Endpoint,
    payload: usize,
    count: u64,
    metrics: Shared<PingPongMetrics>,
    sock: Option<SockId>,
    sent_at: Option<SimTime>,
    done_count: u64,
}

impl PingPongClient {
    /// Creates a client that will perform `count` round trips of
    /// `payload`-byte messages.
    pub fn new(
        server: Endpoint,
        payload: usize,
        count: u64,
        metrics: Shared<PingPongMetrics>,
    ) -> Self {
        PingPongClient {
            server,
            payload,
            count,
            metrics,
            sock: None,
            sent_at: None,
            done_count: 0,
        }
    }

    fn ping(&mut self, now: SimTime) -> SyscallOp {
        self.sent_at = Some(now);
        SyscallOp::SendTo {
            sock: self.sock.expect("socket"),
            dst: self.server,
            data: lrp_wire::buf::filled(self.payload, 0x50),
        }
    }
}

impl AppLogic for PingPongClient {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Bind {
                    sock: s,
                    port: 6100,
                }
            }
            SyscallRet::Ok => self.ping(ctx.now),
            SyscallRet::Sent(_) => SyscallOp::Recv {
                sock: self.sock.expect("socket"),
                max_len: 65_536,
            },
            SyscallRet::DataFrom(..) => {
                let rtt = ctx.now.since(self.sent_at.expect("ping outstanding"));
                let mut m = self.metrics.borrow_mut();
                m.count += 1;
                m.rtt.record_duration(rtt);
                self.done_count += 1;
                if self.done_count >= self.count {
                    m.done = true;
                    drop(m);
                    return SyscallOp::Exit;
                }
                drop(m);
                self.ping(ctx.now)
            }
            other => panic!("ping-pong client: unexpected {other:?}"),
        }
    }
}

/// Echoes datagrams back to their sender.
pub struct PingPongServer {
    port: u16,
    sock: Option<SockId>,
}

impl PingPongServer {
    /// Creates a server on `port`.
    pub fn new(port: u16) -> Self {
        PingPongServer { port, sock: None }
    }
}

impl AppLogic for PingPongServer {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Bind {
                    sock: s,
                    port: self.port,
                }
            }
            SyscallRet::DataFrom(from, data) => SyscallOp::SendTo {
                sock: self.sock.expect("socket"),
                dst: from,
                data,
            },
            _ => SyscallOp::Recv {
                sock: self.sock.expect("socket"),
                max_len: 65_536,
            },
        }
    }
}
