//! Bulk TCP transfer (Table 1's "TCP throughput": 24 MB with 32 KB socket
//! buffers).

use crate::Shared;
use lrp_core::{AppCtx, AppLogic, SockProto, SyscallOp, SyscallRet};
use lrp_sim::SimTime;
use lrp_stack::SockId;
use lrp_wire::{Endpoint, FrameBuf};

/// Metrics recorded by the receiver.
#[derive(Debug, Default)]
pub struct TcpBulkMetrics {
    /// Bytes received.
    pub bytes: u64,
    /// First byte time.
    pub first: Option<SimTime>,
    /// Last byte time.
    pub last: Option<SimTime>,
    /// Transfer complete.
    pub done: bool,
    /// The connection died (reset or retry exhaustion) before completing.
    pub aborted: bool,
}

impl TcpBulkMetrics {
    /// Goodput in Mbit/s.
    pub fn mbps(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a => (self.bytes * 8) as f64 / b.since(a).as_secs_f64() / 1e6,
            _ => 0.0,
        }
    }
}

/// Connects and streams `total` bytes in `chunk`-byte writes.
///
/// Every full write sends the same arena buffer: the kernel queues it by
/// reference, so a write costs a reference count, not a fill. Only a
/// short final chunk gets its own buffer.
///
/// Starts after a short delay so the receiver's `listen` is in place (a
/// lost first SYN costs a full RTO and would distort short measurements).
pub struct TcpBulkSender {
    dst: Endpoint,
    total: usize,
    chunk: FrameBuf,
    sock: Option<SockId>,
    sent: usize,
    state: u8,
}

impl TcpBulkSender {
    /// Creates a sender for `total` bytes.
    pub fn new(dst: Endpoint, total: usize, chunk: usize) -> Self {
        assert!(chunk > 0);
        TcpBulkSender {
            dst,
            total,
            chunk: lrp_wire::buf::filled(chunk, 0xBB),
            sock: None,
            sent: 0,
            state: 255,
        }
    }

    fn send_next(&mut self) -> SyscallOp {
        let n = self.chunk.len().min(self.total - self.sent);
        if n == 0 {
            return SyscallOp::Close {
                sock: self.sock.expect("socket"),
            };
        }
        self.sent += n;
        let data = if n == self.chunk.len() {
            self.chunk.clone()
        } else {
            lrp_wire::buf::filled(n, 0xBB)
        };
        SyscallOp::Send {
            sock: self.sock.expect("socket"),
            data,
        }
    }
}

impl AppLogic for TcpBulkSender {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Sleep(lrp_sim::SimDuration::from_millis(5))
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (255, _) => {
                self.state = 0;
                SyscallOp::Socket(SockProto::Tcp)
            }
            (0, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                self.state = 1;
                SyscallOp::Connect {
                    sock: s,
                    dst: self.dst,
                }
            }
            (1, SyscallRet::Ok) => {
                self.state = 2;
                self.send_next()
            }
            (2, SyscallRet::Sent(_)) => self.send_next(),
            (2, SyscallRet::Ok) => SyscallOp::Exit, // Close completed.
            // Connection setup or transfer failed (reset, retry
            // exhaustion under heavy loss): give up gracefully.
            (1 | 2, SyscallRet::Err(_)) => SyscallOp::Exit,
            (s, r) => panic!("tcp bulk sender state {s}: {r:?}"),
        }
    }
}

/// Accepts one connection and drains it until end-of-stream.
pub struct TcpBulkReceiver {
    port: u16,
    metrics: Shared<TcpBulkMetrics>,
    lsock: Option<SockId>,
    conn: Option<SockId>,
    state: u8,
}

impl TcpBulkReceiver {
    /// Creates a receiver on `port`.
    pub fn new(port: u16, metrics: Shared<TcpBulkMetrics>) -> Self {
        TcpBulkReceiver {
            port,
            metrics,
            lsock: None,
            conn: None,
            state: 0,
        }
    }
}

impl AppLogic for TcpBulkReceiver {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
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
                    sock: self.lsock.expect("socket"),
                    backlog: 5,
                }
            }
            (2, SyscallRet::Ok) => {
                self.state = 3;
                SyscallOp::Accept {
                    sock: self.lsock.expect("socket"),
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
            (4, SyscallRet::Data(d)) => {
                let mut m = self.metrics.borrow_mut();
                if d.is_empty() {
                    m.done = true;
                    drop(m);
                    self.state = 5;
                    return SyscallOp::Close {
                        sock: self.conn.take().expect("conn"),
                    };
                }
                m.bytes += d.len() as u64;
                if m.first.is_none() {
                    m.first = Some(ctx.now);
                }
                m.last = Some(ctx.now);
                drop(m);
                SyscallOp::Recv {
                    sock: self.conn.expect("conn"),
                    max_len: 65_536,
                }
            }
            (5, _) => SyscallOp::Exit,
            // The connection died mid-transfer: record the abort so the
            // experiment can tell a truncated run from a finished one.
            (3 | 4, SyscallRet::Err(_)) => {
                self.metrics.borrow_mut().aborted = true;
                SyscallOp::Exit
            }
            (s, r) => panic!("tcp bulk receiver state {s}: {r:?}"),
        }
    }
}
