//! The HTTP server workload of Figure 5: a pool of worker processes
//! serving a ~1300-byte document over per-request TCP connections, eight
//! closed-loop clients, and a dummy listener absorbing the SYN flood.
//!
//! The paper ran NCSA httpd 1.5.1 (process per connection); we model a
//! pre-forked worker pool — the same socket usage and per-request process
//! structure without dynamic fork, which the simulation does not need to
//! reproduce the starvation mechanism.

use crate::Shared;
use lrp_core::{AppCtx, AppLogic, SockProto, SyscallOp, SyscallRet};
use lrp_sim::{RateSeries, SimDuration, SimTime};
use lrp_stack::SockId;
use lrp_wire::Endpoint;
use std::cell::RefCell;
use std::rc::Rc;

/// The listening socket shared by the pre-forked worker pool.
pub type SharedListener = Rc<RefCell<Option<SockId>>>;

/// Metrics for the client side.
#[derive(Debug)]
pub struct HttpMetrics {
    /// Completed request/response transactions.
    pub transactions: u64,
    /// Failed connects (refused / timed out / reset).
    pub failures: u64,
    /// Transactions over time (1 s buckets).
    pub series: RateSeries,
    /// First and last completion.
    pub first: Option<SimTime>,
    /// Last completion.
    pub last: Option<SimTime>,
    /// Per-successful-connect handshake latency (Connect issued →
    /// established), nanoseconds, in completion order.
    pub connect_ns: Vec<u64>,
    /// Timestamp of every completed transaction, in order (the
    /// `syn_flood` reboot scenario windows goodput around the outage).
    pub completions: Vec<SimTime>,
}

impl Default for HttpMetrics {
    fn default() -> Self {
        HttpMetrics {
            transactions: 0,
            failures: 0,
            series: RateSeries::new(SimTime::ZERO, SimDuration::from_secs(1)),
            first: None,
            last: None,
            connect_ns: Vec::new(),
            completions: Vec::new(),
        }
    }
}

impl HttpMetrics {
    /// Transactions per second over the active interval.
    pub fn rate(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a && self.transactions > 1 => {
                (self.transactions - 1) as f64 / b.since(a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// First completed transaction at or after `t`, if any.
    pub fn first_completion_since(&self, t: SimTime) -> Option<SimTime> {
        self.completions.iter().copied().find(|&c| c >= t)
    }

    /// Completed transactions in the half-open window `[a, b)`.
    pub fn completions_in(&self, a: SimTime, b: SimTime) -> u64 {
        self.completions
            .iter()
            .filter(|&&c| c >= a && c < b)
            .count() as u64
    }
}

/// One worker of the pre-forked HTTP server pool.
///
/// The first worker (`master == true`) creates/binds/listens the shared
/// socket; the rest pick it up from the [`SharedListener`] cell.
pub struct HttpWorker {
    port: u16,
    backlog: usize,
    document_len: usize,
    /// Per-request CPU besides the network work (file lookup, headers).
    request_work: SimDuration,
    master: bool,
    listener: SharedListener,
    lsock: Option<SockId>,
    conn: Option<SockId>,
    state: u8,
}

impl HttpWorker {
    /// Creates a worker. Exactly one per pool must have `master == true`.
    pub fn new(
        port: u16,
        backlog: usize,
        document_len: usize,
        request_work: SimDuration,
        master: bool,
        listener: SharedListener,
    ) -> Self {
        HttpWorker {
            port,
            backlog,
            document_len,
            request_work,
            master,
            listener,
            lsock: None,
            conn: None,
            state: 0,
        }
    }

    fn accept(&mut self) -> SyscallOp {
        self.state = 3;
        SyscallOp::Accept {
            sock: self.lsock.expect("listener"),
        }
    }
}

impl AppLogic for HttpWorker {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        if self.master {
            SyscallOp::Socket(SockProto::Tcp)
        } else {
            // Wait for the master to publish the listener.
            SyscallOp::Sleep(SimDuration::from_millis(1))
        }
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if !self.master && self.lsock.is_none() {
            let published = *self.listener.borrow();
            if let Some(l) = published {
                self.lsock = Some(l);
                return self.accept();
            }
            return SyscallOp::Sleep(SimDuration::from_millis(1));
        }
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
                    sock: self.lsock.expect("listener"),
                    backlog: self.backlog,
                }
            }
            (2, SyscallRet::Ok) => {
                *self.listener.borrow_mut() = Some(self.lsock.expect("listener"));
                self.accept()
            }
            (3, SyscallRet::Accepted(c)) => {
                self.conn = Some(c);
                self.state = 4;
                SyscallOp::Recv {
                    sock: c,
                    max_len: 8_192,
                }
            }
            (4, SyscallRet::Data(d)) => {
                if d.is_empty() {
                    // Client vanished before sending a request.
                    self.state = 6;
                    return SyscallOp::Close {
                        sock: self.conn.take().expect("conn"),
                    };
                }
                self.state = 5;
                SyscallOp::Compute(self.request_work)
            }
            (5, SyscallRet::Ok) => {
                self.state = 6;
                SyscallOp::Send {
                    sock: self.conn.expect("conn"),
                    data: lrp_wire::buf::filled(self.document_len, 0x48),
                }
            }
            (6, SyscallRet::Sent(_)) => SyscallOp::Close {
                sock: self.conn.take().expect("conn"),
            },
            (6, SyscallRet::Ok) | (6, SyscallRet::Err(_)) => self.accept(),
            (5, SyscallRet::Err(_)) | (4, SyscallRet::Err(_)) => {
                // Connection died: clean up and accept the next one.
                if let Some(c) = self.conn.take() {
                    self.state = 6;
                    return SyscallOp::Close { sock: c };
                }
                self.accept()
            }
            (s, r) => panic!("http worker state {s}: {r:?}"),
        }
    }
}

/// A closed-loop HTTP client: connect, request, read response, close,
/// repeat.
pub struct HttpClient {
    server: Endpoint,
    request_len: usize,
    document_len: usize,
    metrics: Shared<HttpMetrics>,
    sock: Option<SockId>,
    got: usize,
    state: u8,
    connect_started: Option<SimTime>,
}

impl HttpClient {
    /// Creates a client hammering `server`.
    pub fn new(
        server: Endpoint,
        request_len: usize,
        document_len: usize,
        metrics: Shared<HttpMetrics>,
    ) -> Self {
        HttpClient {
            server,
            request_len,
            document_len,
            metrics,
            sock: None,
            got: 0,
            state: 0,
            connect_started: None,
        }
    }

    fn fresh_connection(&mut self) -> SyscallOp {
        self.state = 0;
        self.got = 0;
        self.sock = None;
        SyscallOp::Socket(SockProto::Tcp)
    }

    fn fail(&mut self, ctx: AppCtx) -> SyscallOp {
        self.connect_started = None;
        let mut m = self.metrics.borrow_mut();
        m.failures += 1;
        drop(m);
        let _ = ctx;
        // Close the dead socket and start over.
        if let Some(s) = self.sock.take() {
            self.state = 9;
            return SyscallOp::Close { sock: s };
        }
        self.fresh_connection()
    }
}

impl AppLogic for HttpClient {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                self.state = 1;
                self.connect_started = Some(ctx.now);
                SyscallOp::Connect {
                    sock: s,
                    dst: self.server,
                }
            }
            (1, SyscallRet::Ok) => {
                if let Some(t0) = self.connect_started.take() {
                    self.metrics
                        .borrow_mut()
                        .connect_ns
                        .push(ctx.now.since(t0).as_nanos());
                }
                self.state = 2;
                SyscallOp::Send {
                    sock: self.sock.expect("socket"),
                    data: lrp_wire::buf::filled(self.request_len, 0x47),
                }
            }
            (1, SyscallRet::Err(_)) => {
                // Refused, timed out, reset — or out of channel/port
                // resources (the A6 ablation exhausts NI channels on
                // purpose). All are a failed transaction; retry.
                self.fail(ctx)
            }
            (2, SyscallRet::Sent(_)) => {
                self.state = 3;
                SyscallOp::Recv {
                    sock: self.sock.expect("socket"),
                    max_len: 65_536,
                }
            }
            (2, SyscallRet::Err(_)) => self.fail(ctx),
            (3, SyscallRet::Data(d)) => {
                self.got += d.len();
                if d.is_empty() || self.got >= self.document_len {
                    let mut m = self.metrics.borrow_mut();
                    m.transactions += 1;
                    m.series.record(ctx.now, 1);
                    if m.first.is_none() {
                        m.first = Some(ctx.now);
                    }
                    m.last = Some(ctx.now);
                    m.completions.push(ctx.now);
                    drop(m);
                    self.state = 9;
                    return SyscallOp::Close {
                        sock: self.sock.take().expect("socket"),
                    };
                }
                SyscallOp::Recv {
                    sock: self.sock.expect("socket"),
                    max_len: 65_536,
                }
            }
            (3, SyscallRet::Err(_)) => self.fail(ctx),
            (9, _) => self.fresh_connection(),
            (s, r) => panic!("http client state {s}: {r:?}"),
        }
    }
}

/// The dummy server of Figure 5: listens with a small backlog and never
/// accepts, so SYNs beyond the backlog are discarded — in softirq context
/// (BSD) or at the NI channel (LRP).
pub struct DummyListener {
    port: u16,
    backlog: usize,
    sock: Option<SockId>,
    state: u8,
}

impl DummyListener {
    /// Creates the dummy listener.
    pub fn new(port: u16, backlog: usize) -> Self {
        DummyListener {
            port,
            backlog,
            sock: None,
            state: 0,
        }
    }
}

impl AppLogic for DummyListener {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Socket(s)) => {
                self.sock = Some(s);
                self.state = 1;
                SyscallOp::Bind {
                    sock: s,
                    port: self.port,
                }
            }
            (1, SyscallRet::Ok) => {
                self.state = 2;
                SyscallOp::Listen {
                    sock: self.sock.expect("socket"),
                    backlog: self.backlog,
                }
            }
            // Sleep forever; never accept.
            _ => SyscallOp::Sleep(SimDuration::from_secs(3600)),
        }
    }
}
