//! Sliding-window UDP throughput (Table 1's "UDP throughput" row).
//!
//! The paper measured UDP throughput "using a simple sliding-window
//! protocol" with checksumming disabled. The source keeps `window`
//! datagrams outstanding; the sink acknowledges each datagram with a small
//! reply carrying its sequence number.

use crate::Shared;
use lrp_core::{AppCtx, AppLogic, SockProto, SyscallOp, SyscallRet};
use lrp_sim::SimTime;
use lrp_stack::SockId;
use lrp_wire::Endpoint;

/// Metrics recorded by the sink.
#[derive(Debug, Default)]
pub struct UdpWindowMetrics {
    /// Payload bytes received.
    pub bytes: u64,
    /// Datagrams received.
    pub count: u64,
    /// First delivery.
    pub first: Option<SimTime>,
    /// Last delivery.
    pub last: Option<SimTime>,
    /// Transfer complete.
    pub done: bool,
}

impl UdpWindowMetrics {
    /// Goodput in Mbit/s between first and last delivery.
    pub fn mbps(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a => (self.bytes * 8) as f64 / b.since(a).as_secs_f64() / 1e6,
            _ => 0.0,
        }
    }
}

/// The sending side: keeps `window` datagrams outstanding.
pub struct UdpWindowSource {
    dst: Endpoint,
    payload: usize,
    total: u64,
    window: u64,
    sock: Option<SockId>,
    sent: u64,
    acked: u64,
    state: u8,
}

impl UdpWindowSource {
    /// Creates a source that sends `total` datagrams of `payload` bytes
    /// with `window` outstanding.
    pub fn new(dst: Endpoint, payload: usize, total: u64, window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        UdpWindowSource {
            dst,
            payload,
            total,
            window,
            sock: None,
            sent: 0,
            acked: 0,
            state: 0,
        }
    }

    fn next_op(&mut self) -> SyscallOp {
        let sock = self.sock.expect("socket");
        if self.sent < self.total && self.sent - self.acked < self.window {
            let seq = self.sent;
            self.sent += 1;
            let len = self.payload.max(8);
            let mut data = lrp_wire::buf::storage(len);
            data.extend_from_slice(&seq.to_be_bytes());
            data.resize(len, 0xDA);
            SyscallOp::SendTo {
                sock,
                dst: self.dst,
                data: data.into(),
            }
        } else if self.acked < self.total {
            SyscallOp::Recv { sock, max_len: 64 }
        } else {
            SyscallOp::Exit
        }
    }
}

impl AppLogic for UdpWindowSource {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Udp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                self.state = 1;
                SyscallOp::Bind {
                    sock: s,
                    port: 6200,
                }
            }
            (1, SyscallRet::Ok) => {
                self.state = 2;
                self.next_op()
            }
            (2, SyscallRet::Sent(_)) => self.next_op(),
            (2, SyscallRet::DataFrom(..)) => {
                self.acked += 1;
                self.next_op()
            }
            (2, SyscallRet::Err(_)) => {
                // Interface queue overflow: treat like a lost window slot
                // and keep going (the ack side will stall the window).
                self.next_op()
            }
            (s, r) => panic!("udp window source state {s}: {r:?}"),
        }
    }
}

/// The receiving side: consumes datagrams and acks each one.
pub struct UdpWindowSink {
    port: u16,
    expected: u64,
    metrics: Shared<UdpWindowMetrics>,
    sock: Option<SockId>,
}

impl UdpWindowSink {
    /// Creates a sink expecting `expected` datagrams on `port`.
    pub fn new(port: u16, expected: u64, metrics: Shared<UdpWindowMetrics>) -> Self {
        UdpWindowSink {
            port,
            expected,
            metrics,
            sock: None,
        }
    }
}

impl AppLogic for UdpWindowSink {
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
            SyscallRet::DataFrom(from, data) => {
                {
                    let mut m = self.metrics.borrow_mut();
                    m.bytes += data.len() as u64;
                    m.count += 1;
                    if m.first.is_none() {
                        m.first = Some(ctx.now);
                    }
                    m.last = Some(ctx.now);
                    if m.count >= self.expected {
                        m.done = true;
                    }
                }
                // Ack with the sequence number (first 8 bytes).
                SyscallOp::SendTo {
                    sock: self.sock.expect("socket"),
                    dst: from,
                    data: data[..8.min(data.len())].into(),
                }
            }
            _ => SyscallOp::Recv {
                sock: self.sock.expect("socket"),
                max_len: 65_536,
            },
        }
    }
}
