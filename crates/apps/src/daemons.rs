//! Proxy daemon processes (§3.5 of the paper): network processing that
//! cannot be attributed to an application process is performed by daemons
//! with their own NI channels, so its CPU time is charged to them and
//! their scheduling priority bounds the resources it consumes.

use crate::Shared;
use lrp_core::{AppCtx, AppLogic, SockProto, SyscallOp, SyscallRet};
use lrp_sim::SimDuration;
use lrp_stack::SockId;
use lrp_wire::icmp::{self, IcmpMessage, IcmpType};

/// Metrics for the ICMP echo daemon.
#[derive(Debug, Default)]
pub struct IcmpMetrics {
    /// Echo requests answered.
    pub replies: u64,
    /// Messages received that were not echo requests.
    pub other: u64,
}

/// The ICMP proxy daemon: answers echo requests; its `nice` value (set at
/// spawn) bounds how much CPU ping-style traffic can consume.
pub struct IcmpEchoDaemon {
    /// Extra CPU burned per request (payload inspection etc.).
    work: SimDuration,
    metrics: Shared<IcmpMetrics>,
    sock: Option<SockId>,
    pending_reply: Option<(lrp_wire::Endpoint, Vec<u8>)>,
}

impl IcmpEchoDaemon {
    /// Creates the daemon.
    pub fn new(work: SimDuration, metrics: Shared<IcmpMetrics>) -> Self {
        IcmpEchoDaemon {
            work,
            metrics,
            sock: None,
            pending_reply: None,
        }
    }

    fn recv(&self) -> SyscallOp {
        SyscallOp::Recv {
            sock: self.sock.expect("socket"),
            max_len: 65_536,
        }
    }
}

impl AppLogic for IcmpEchoDaemon {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Icmp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Bind { sock: s, port: 0 }
            }
            SyscallRet::DataFrom(from, bytes) => match icmp::parse(&bytes) {
                Ok(IcmpMessage {
                    kind: IcmpType::EchoRequest,
                    ident,
                    seq,
                    payload,
                }) => {
                    let reply = icmp::build(&IcmpMessage {
                        kind: IcmpType::EchoReply,
                        ident,
                        seq,
                        payload,
                    });
                    self.pending_reply = Some((from, reply));
                    SyscallOp::Compute(self.work)
                }
                _ => {
                    self.metrics.borrow_mut().other += 1;
                    self.recv()
                }
            },
            SyscallRet::Ok if self.pending_reply.is_some() => {
                let (to, reply) = self.pending_reply.take().expect("checked");
                self.metrics.borrow_mut().replies += 1;
                SyscallOp::SendTo {
                    sock: self.sock.expect("socket"),
                    dst: to,
                    data: reply.into(),
                }
            }
            _ => self.recv(),
        }
    }
}

/// A ping client over the raw ICMP socket: sends echo requests, collects
/// replies.
#[derive(Debug, Default)]
pub struct PingMetrics {
    /// Replies received.
    pub replies: u64,
    /// Requests sent.
    pub sent: u64,
}

/// Sends `count` echo requests to `dst`, waiting for each reply.
pub struct PingClient {
    dst: lrp_wire::Endpoint,
    count: u64,
    metrics: Shared<PingMetrics>,
    sock: Option<SockId>,
}

impl PingClient {
    /// Creates a ping client.
    pub fn new(dst: lrp_wire::Endpoint, count: u64, metrics: Shared<PingMetrics>) -> Self {
        PingClient {
            dst,
            count,
            metrics,
            sock: None,
        }
    }

    fn ping(&mut self) -> SyscallOp {
        let mut m = self.metrics.borrow_mut();
        if m.sent >= self.count {
            return SyscallOp::Exit;
        }
        m.sent += 1;
        let req = icmp::build(&IcmpMessage {
            kind: IcmpType::EchoRequest,
            ident: 7,
            seq: m.sent as u16,
            payload: vec![0x50; 32],
        });
        SyscallOp::SendTo {
            sock: self.sock.expect("socket"),
            dst: self.dst,
            data: req.into(),
        }
    }
}

impl AppLogic for PingClient {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Sleep(SimDuration::from_millis(5))
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Ok if self.sock.is_none() => SyscallOp::Socket(SockProto::Icmp),
            SyscallRet::Socket(s) => {
                self.sock = Some(s);
                SyscallOp::Bind { sock: s, port: 0 }
            }
            SyscallRet::Ok => self.ping(),
            SyscallRet::Sent(_) => SyscallOp::Recv {
                sock: self.sock.expect("socket"),
                max_len: 65_536,
            },
            SyscallRet::DataFrom(_, bytes) => {
                if matches!(
                    icmp::parse(&bytes),
                    Ok(IcmpMessage {
                        kind: IcmpType::EchoReply,
                        ..
                    })
                ) {
                    self.metrics.borrow_mut().replies += 1;
                }
                self.ping()
            }
            other => panic!("ping client: {other:?}"),
        }
    }
}
