//! The TCP state machine: RFC 793 connection management with pluggable
//! congestion control, ACK strategy, and loss recovery.
//!
//! The machine is *pure*: it consumes parsed segments and produces
//! [`Actions`] — segments to transmit and events for the socket layer. It
//! never performs I/O, takes no locks, and reads time only from arguments,
//! so the identical code runs under all four simulated architectures (the
//! paper's "all kernels execute the same networking code"), with the host
//! choosing the execution context and CPU charging policy.
//!
//! The module tree (see DESIGN.md §12 for the full contracts):
//!
//! - this file — the PCB core: connection management, sequence-space
//!   bookkeeping, buffers, timers, and the output engine. [`TcpConn`]
//!   owns every sequence number; the seams below never touch one.
//! - [`cc`] — [`cc::CongestionControl`]: `cwnd`/`ssthresh` ownership
//!   behind on-ack/on-loss/on-RTO/on-idle-restart hooks, an enum of three
//!   controllers ([`cc::NewReno`] default, [`cc::Cubic`],
//!   [`cc::BbrLite`]) selected by [`TcpConfig::cc`] and held inline.
//! - [`ack`] — [`ack::AckEveryOther`]: BSD's ack-every-other delayed-ACK
//!   policy.
//! - [`recovery`] — [`recovery::RenoRecovery`]: Karn/Jacobson RTT
//!   sampling, RTO clamping, exponential backoff, retry budget, and
//!   dup-ACK counting.
//!
//! All three are held inline in the connection, so the storage a
//! connection owns is itself, its socket buffers' chains and its
//! out-of-order stash; [`TcpConn::release`] and [`TcpConn::renew`] reuse
//! all three, and [`pool::PooledConn`] keeps the boxes they live in in a
//! thread-local pool.
//!
//! Under the default modules the machine is bit-identical to the
//! pre-refactor monolithic `tcp.rs` — pinned by `tests/determinism.rs`,
//! `tests/chaos.rs`, and the cross-refactor goldens in
//! `tests/cc_golden.rs`.
//!
//! Implemented: 3-way handshake (active and passive), listen backlog
//! accounting, sliding-window data transfer, slow start + congestion
//! avoidance, fast retransmit on three duplicate ACKs, RTO with Karn's
//! rule and exponential backoff, delayed ACKs, zero-window probing,
//! FIN teardown in all orders, TIME_WAIT with a configurable duration
//! (the paper's Figure 5 sets 500 ms), and RST handling.
//!
//! Not implemented (irrelevant to the paper's experiments, documented for
//! honesty): urgent data, window scaling, SACK, timestamps/PAWS, Nagle.

use crate::sockbuf::ByteBuffer;
use lrp_sim::{SimDuration, SimTime};
use lrp_wire::tcp::{flags, seq_ge, seq_gt, seq_le, seq_lt, PayloadBuf, TcpHeader};
use lrp_wire::{Endpoint, FrameSlice};

pub mod ack;
pub mod cc;
pub mod cookie;
pub mod pool;
pub mod recovery;

pub use ack::{AckDecision, AckEveryOther};
pub use cc::{CcAlgo, CongestionControl};
pub use pool::{conn_pool_stats, PooledConn};
pub use recovery::RenoRecovery;

/// TCP connection states (RFC 793).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open (represented by [`TcpListener`], never by a conn).
    Listen,
    /// Active open: SYN sent.
    SynSent,
    /// Passive open: SYN received, SYN|ACK sent.
    SynReceived,
    /// Data transfer.
    Established,
    /// Our close sent, awaiting its ACK and the peer's FIN.
    FinWait1,
    /// Our FIN acked; awaiting peer's FIN.
    FinWait2,
    /// Peer closed; we may still send.
    CloseWait,
    /// Simultaneous close.
    Closing,
    /// Our FIN sent after CloseWait; awaiting its ACK.
    LastAck,
    /// Connection done; draining old duplicates.
    TimeWait,
}

impl TcpState {
    /// Stable netstat-style name used in reports (`SYN_SENT`, ...).
    pub fn name(self) -> &'static str {
        match self {
            TcpState::Closed => "CLOSED",
            TcpState::Listen => "LISTEN",
            TcpState::SynSent => "SYN_SENT",
            TcpState::SynReceived => "SYN_RCVD",
            TcpState::Established => "ESTABLISHED",
            TcpState::FinWait1 => "FIN_WAIT_1",
            TcpState::FinWait2 => "FIN_WAIT_2",
            TcpState::CloseWait => "CLOSE_WAIT",
            TcpState::Closing => "CLOSING",
            TcpState::LastAck => "LAST_ACK",
            TcpState::TimeWait => "TIME_WAIT",
        }
    }
}

/// A netstat-style snapshot of one TCP connection, all-integer so it can
/// ride a syscall return value and serialize without float drift. Times
/// are nanoseconds; `srtt_ns`/`rttvar_ns` are 0 until the first RTT
/// sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpSockStats {
    /// Connection state.
    pub state: TcpState,
    /// Smoothed RTT estimate, ns (0 before the first sample).
    pub srtt_ns: u64,
    /// RTT variance estimate, ns.
    pub rttvar_ns: u64,
    /// Current retransmission timeout, ns.
    pub rto_ns: u64,
    /// Consecutive retransmissions of the oldest outstanding segment.
    pub retries: u32,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Slow-start threshold, bytes.
    pub ssthresh: u64,
    /// Unacked + unsent bytes queued in the send buffer.
    pub snd_q: u64,
    /// In-order bytes awaiting the application.
    pub rcv_q: u64,
    /// Retransmitted segments (lifetime).
    pub retransmits: u64,
    /// Fast retransmits triggered (lifetime).
    pub fast_retransmits: u64,
    /// RTO timer fires (lifetime).
    pub timeouts: u64,
    /// Duplicate ACKs received (lifetime).
    pub dup_acks: u64,
}

/// Events surfaced to the socket layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// The connection reached `Established`.
    Established,
    /// New in-order data is available to read.
    DataReady,
    /// Send-buffer space opened up (acked data released).
    SendSpace,
    /// The peer sent FIN: end of its data stream.
    PeerClosed,
    /// The connection was reset by the peer.
    Reset,
    /// The connection fully closed (left the state machine).
    Closed,
    /// Retransmission limit exceeded.
    TimedOut,
}

/// A segment to transmit: header fields plus payload. Ports are filled in;
/// the host adds IP framing.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The TCP header.
    pub hdr: TcpHeader,
    /// Segment payload, copied from the send buffer into storage with
    /// header room in front, so the host frames it in place.
    pub payload: PayloadBuf,
}

/// The result of feeding the machine: segments to send and events to
/// deliver.
///
/// Every entry point has an `*_into` form that appends to a caller-owned
/// `Actions`, so a host that drains and reuses one list allocates nothing
/// per call; the by-value forms wrap them for tests and one-off callers.
#[derive(Debug, Default)]
pub struct Actions {
    /// Segments to transmit, in order.
    pub segments: Vec<Segment>,
    /// Events for the socket layer.
    pub events: Vec<ConnEvent>,
}

impl Actions {
    /// Runs `f` on an empty list: its result and what it appended.
    fn collect<R>(f: impl FnOnce(&mut Actions) -> R) -> (R, Actions) {
        let mut out = Actions::default();
        let r = f(&mut out);
        (r, out)
    }
}

/// TCP tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size we advertise and default to (ATM LAN: 9140).
    pub mss: u16,
    /// Send buffer size in bytes.
    pub snd_buf: usize,
    /// Receive buffer size in bytes.
    pub rcv_buf: usize,
    /// Initial retransmission timeout.
    pub rto_init: SimDuration,
    /// Minimum RTO.
    pub rto_min: SimDuration,
    /// Maximum RTO.
    pub rto_max: SimDuration,
    /// Give up after this many consecutive retransmissions.
    pub max_retries: u32,
    /// TIME_WAIT duration (2·MSL; the paper's HTTP test uses 500 ms).
    pub time_wait: SimDuration,
    /// Delayed-ACK timer; `None` acks every segment immediately.
    pub delack: Option<SimDuration>,
    /// Idle threshold before keepalive probing starts; `None` (the
    /// default) disables keepalives entirely — no timer is armed, so the
    /// machine is bit-identical to the pre-keepalive code.
    pub keepalive_idle: Option<SimDuration>,
    /// Interval between successive unanswered keepalive probes.
    pub keepalive_intvl: SimDuration,
    /// Unanswered probes after which the peer is declared dead and the
    /// connection aborted (surfaced as `TimedOut`, then RST + `Closed`).
    pub keepalive_probes: u32,
    /// Congestion controller new connections run ([`CcAlgo::NewReno`] by
    /// default — bit-identical to the pre-refactor machine).
    pub cc: CcAlgo,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 9140,
            snd_buf: 32 * 1024,
            rcv_buf: 32 * 1024,
            rto_init: SimDuration::from_millis(1000),
            rto_min: SimDuration::from_millis(500),
            rto_max: SimDuration::from_secs(64),
            max_retries: 12,
            time_wait: SimDuration::from_secs(30),
            delack: Some(SimDuration::from_millis(200)),
            keepalive_idle: None,
            keepalive_intvl: SimDuration::from_secs(1),
            keepalive_probes: 3,
            cc: CcAlgo::NewReno,
        }
    }
}

/// Per-connection statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpStats {
    /// Segments received.
    pub segs_in: u64,
    /// Segments sent.
    pub segs_out: u64,
    /// Payload bytes received in order.
    pub bytes_in: u64,
    /// Payload bytes sent (first transmission).
    pub bytes_out: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// RTO timer fires.
    pub timeouts: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
}

impl TcpStats {
    /// Accumulates another connection's counters into this one (used to
    /// fold per-connection statistics into host totals when a socket is
    /// freed).
    pub fn absorb(&mut self, other: &TcpStats) {
        self.segs_in += other.segs_in;
        self.segs_out += other.segs_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.retransmits += other.retransmits;
        self.fast_retransmits += other.fast_retransmits;
        self.timeouts += other.timeouts;
        self.dup_acks += other.dup_acks;
    }
}

/// Out-of-order segments a connection stashes; past this, it drops them.
const OOO_MAX: usize = 64;

/// A TCP connection: the PCB core. Owns connection management and
/// sequence-space bookkeeping; delegates window management to [`cc`],
/// ACK policy to [`ack`], and timing/backoff to [`recovery`].
#[derive(Debug)]
pub struct TcpConn {
    cfg: TcpConfig,
    /// Current state.
    pub state: TcpState,
    /// Local endpoint.
    pub local: Endpoint,
    /// Remote endpoint.
    pub remote: Endpoint,
    /// Statistics.
    pub stats: TcpStats,

    // Send sequence space.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Highest sequence ever sent (for distinguishing retransmits).
    snd_max: u32,
    snd_wnd: u32,
    snd_buf: ByteBuffer,
    /// Sequence number of the first byte in `snd_buf`.
    snd_base: u32,
    mss_effective: u16,
    fin_requested: bool,
    /// Sequence number our FIN occupies, once sent.
    fin_seq: Option<u32>,

    // Receive sequence space.
    irs: u32,
    rcv_nxt: u32,
    rcv_buf: ByteBuffer,
    /// Out-of-order segments, at most [`OOO_MAX`], sorted by how far
    /// ahead of `rcv_nxt` they start (so a window that straddles 2³²
    /// keeps its order) and held by reference into the frames they
    /// arrived in.
    ooo: Vec<(u32, FrameSlice)>,
    /// Last window we advertised (for update decisions).
    last_adv_wnd: u32,

    /// Congestion control: owns `cwnd` and `ssthresh`.
    cc: CongestionControl,
    /// Delayed-ACK policy.
    ack_policy: AckEveryOther,
    /// Loss recovery: RTT estimation, backoff, dup-ACK counting.
    pub(crate) recovery: RenoRecovery,

    // Timers (absolute deadlines).
    rexmt_deadline: Option<SimTime>,
    delack_deadline: Option<SimTime>,
    timewait_deadline: Option<SimTime>,
    /// Keepalive: fires after `keepalive_idle` of silence, then every
    /// `keepalive_intvl` until answered or `keepalive_probes` exhausted.
    keepalive_deadline: Option<SimTime>,
    /// Unanswered keepalive probes sent so far.
    keepalive_probes_sent: u32,
    /// Set while a zero peer window forces probing.
    persist_mode: bool,
}

impl TcpConn {
    /// Creates a closed connection bound to the given endpoints with the
    /// given initial send sequence number.
    pub fn new(cfg: TcpConfig, local: Endpoint, remote: Endpoint, iss: u32) -> Self {
        let mss = cfg.mss;
        TcpConn {
            cfg,
            state: TcpState::Closed,
            local,
            remote,
            stats: TcpStats::default(),
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            snd_buf: ByteBuffer::new(cfg.snd_buf),
            snd_base: iss.wrapping_add(1),
            mss_effective: mss,
            fin_requested: false,
            fin_seq: None,
            irs: 0,
            rcv_nxt: 0,
            rcv_buf: ByteBuffer::new(cfg.rcv_buf),
            ooo: Vec::new(),
            last_adv_wnd: cfg.rcv_buf as u32,
            cc: cfg.cc.build(mss as usize, cfg.snd_buf * 2),
            ack_policy: AckEveryOther::new(cfg.delack),
            recovery: RenoRecovery::new(cfg.rto_init),
            rexmt_deadline: None,
            delack_deadline: None,
            timewait_deadline: None,
            keepalive_deadline: None,
            keepalive_probes_sent: 0,
            persist_mode: false,
        }
    }

    /// Drops everything this finished connection still holds (buffered
    /// bytes, out-of-order segments), keeping the socket buffers' chain
    /// storage for [`renew`](Self::renew).
    pub fn release(&mut self) {
        self.snd_buf.discard(self.snd_buf.len());
        self.rcv_buf.discard(self.rcv_buf.len());
        self.ooo.clear();
    }

    /// Becomes `fresh`, a connection just built by one of the
    /// constructors, in this spent connection's storage: the result
    /// equals `fresh` field for field, and its socket buffers and
    /// out-of-order stash keep the capacity this one grew, so their first
    /// appends do not allocate. Whatever content they still held is
    /// dropped.
    pub fn renew(&mut self, fresh: TcpConn) {
        let spent = std::mem::replace(self, fresh);
        self.snd_buf.reuse(spent.snd_buf);
        self.rcv_buf.reuse(spent.rcv_buf);
        self.ooo = spent.ooo;
        self.ooo.clear();
        // A pool keeps capacity, never content: nothing of the spent
        // connection may reach the fresh one.
        debug_assert!(
            self.snd_buf.holds_nothing() && self.rcv_buf.holds_nothing() && self.ooo.is_empty(),
            "a renewed connection kept its spent one's content"
        );
    }

    /// The effective maximum segment size after MSS negotiation.
    pub fn mss(&self) -> u16 {
        self.mss_effective
    }

    /// The configuration this connection runs with.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cc.cwnd()
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> usize {
        self.cc.ssthresh()
    }

    /// The controller's advisory pacing gain, ×1024 (see
    /// [`CongestionControl::pacing_gain_x1024`]).
    pub fn pacing_gain_x1024(&self) -> u32 {
        self.cc.pacing_gain_x1024()
    }

    /// Bytes of in-order data available to read.
    pub fn available(&self) -> usize {
        self.rcv_buf.len()
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.snd_buf.space()
    }

    /// A netstat-style snapshot of this connection's live state (see
    /// [`TcpSockStats`]).
    pub fn sock_stats(&self) -> TcpSockStats {
        TcpSockStats {
            state: self.state,
            srtt_ns: self.recovery.srtt.map_or(0, |s| (s * 1e9) as u64),
            rttvar_ns: (self.recovery.rttvar * 1e9) as u64,
            rto_ns: self.recovery.rto.as_nanos(),
            retries: self.recovery.retries,
            cwnd: self.cc.cwnd() as u64,
            ssthresh: self.cc.ssthresh() as u64,
            snd_q: self.snd_buf.len() as u64,
            rcv_q: self.rcv_buf.len() as u64,
            retransmits: self.stats.retransmits,
            fast_retransmits: self.stats.fast_retransmits,
            timeouts: self.stats.timeouts,
            dup_acks: self.stats.dup_acks,
        }
    }

    /// True once the connection has left the state machine entirely.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// True if in TIME_WAIT (NI-LRP reclaims the NI channel here, §4.2).
    pub fn in_time_wait(&self) -> bool {
        self.state == TcpState::TimeWait
    }

    fn adv_wnd(&self) -> u16 {
        self.rcv_buf.space().min(65_535) as u16
    }

    /// A segment from us carrying `payload`; a SYN carries the MSS
    /// option.
    fn make_seg(&mut self, fl: u8, seq: u32, payload: PayloadBuf) -> Segment {
        self.stats.segs_out += 1;
        let wnd = self.adv_wnd();
        self.last_adv_wnd = wnd as u32;
        Segment {
            hdr: TcpHeader {
                src_port: self.local.port,
                dst_port: self.remote.port,
                seq,
                ack: if fl & flags::ACK != 0 {
                    self.rcv_nxt
                } else {
                    0
                },
                flags: fl,
                window: wnd,
                mss: (fl & flags::SYN != 0).then_some(self.cfg.mss),
            },
            payload,
        }
    }

    /// A segment without data.
    fn make_ctl(&mut self, fl: u8, seq: u32) -> Segment {
        self.make_seg(fl, seq, PayloadBuf::with_capacity(0))
    }

    /// Send-buffer bytes `[off, off + n)` copied into a segment payload:
    /// the one copy on the send side.
    fn send_payload(&self, off: usize, n: usize) -> PayloadBuf {
        let mut p = PayloadBuf::with_capacity(n);
        self.snd_buf.peek_into(off, n, &mut p);
        p
    }

    fn make_ack(&mut self) -> Segment {
        self.delack_deadline = None;
        self.make_ctl(flags::ACK, self.snd_nxt)
    }

    /// Begins an active open. Must be called in `Closed`.
    ///
    /// # Panics
    ///
    /// Panics if the connection is not in `Closed`.
    pub fn connect(&mut self, now: SimTime) -> Actions {
        Actions::collect(|out| self.connect_into(now, out)).1
    }

    /// [`connect`](Self::connect), appending to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the connection is not in `Closed`.
    pub fn connect_into(&mut self, now: SimTime, out: &mut Actions) {
        assert_eq!(self.state, TcpState::Closed, "connect on open connection");
        self.state = TcpState::SynSent;
        self.snd_nxt = self.iss.wrapping_add(1);
        self.snd_max = self.snd_nxt;
        let syn = self.make_ctl(flags::SYN, self.iss);
        self.arm_rexmt(now);
        out.segments.push(syn);
    }

    /// Creates a connection in `SynReceived` in response to a SYN received
    /// by a listener, emitting the SYN|ACK.
    pub fn accept_syn(
        cfg: TcpConfig,
        local: Endpoint,
        remote: Endpoint,
        iss: u32,
        syn: &TcpHeader,
        now: SimTime,
    ) -> (TcpConn, Actions) {
        Actions::collect(|out| TcpConn::accept_syn_into(cfg, local, remote, iss, syn, now, out))
    }

    /// [`accept_syn`](Self::accept_syn), appending the SYN|ACK to `out`.
    pub fn accept_syn_into(
        cfg: TcpConfig,
        local: Endpoint,
        remote: Endpoint,
        iss: u32,
        syn: &TcpHeader,
        now: SimTime,
        out: &mut Actions,
    ) -> TcpConn {
        let mut c = TcpConn::new(cfg, local, remote, iss);
        c.state = TcpState::SynReceived;
        c.irs = syn.seq;
        c.rcv_nxt = syn.seq.wrapping_add(1);
        if let Some(m) = syn.mss {
            c.mss_effective = c.cfg.mss.min(m);
            c.cc.on_mss_negotiated(c.mss_effective as usize);
        }
        c.snd_wnd = syn.window as u32;
        c.snd_nxt = iss.wrapping_add(1);
        c.snd_max = c.snd_nxt;
        let synack = c.make_ctl(flags::SYN | flags::ACK, c.iss);
        c.arm_rexmt(now);
        out.segments.push(synack);
        c
    }

    /// Creates a connection directly in `Established` from a validated
    /// SYN-cookie ACK (see [`cookie`]). The SYN|ACK was stateless, so the
    /// whole handshake is reconstructed from the ACK: `iss = ack - 1`
    /// (the cookie we minted), `irs = seq - 1`, and the MSS comes out of
    /// the cookie itself (quantized by [`cookie::MSS_TABLE`]). No
    /// segments are emitted — the caller feeds the ACK through
    /// [`on_segment`](Self::on_segment) for window/payload handling.
    pub fn cookie_established(
        cfg: TcpConfig,
        local: Endpoint,
        remote: Endpoint,
        ack: &TcpHeader,
        cookie_mss: u16,
        now: SimTime,
    ) -> TcpConn {
        let iss = ack.ack.wrapping_sub(1);
        let mut c = TcpConn::new(cfg, local, remote, iss);
        c.state = TcpState::Established;
        c.snd_una = iss.wrapping_add(1);
        c.snd_nxt = c.snd_una;
        c.snd_max = c.snd_una;
        c.irs = ack.seq.wrapping_sub(1);
        c.rcv_nxt = ack.seq;
        c.mss_effective = c.cfg.mss.min(cookie_mss);
        c.cc.on_mss_negotiated(c.mss_effective as usize);
        c.snd_wnd = ack.window as u32;
        c.arm_keepalive(now);
        c
    }

    // ---- timers ----

    fn arm_rexmt(&mut self, now: SimTime) {
        self.rexmt_deadline = Some(now + self.recovery.rexmt_timeout(&self.cfg));
    }

    /// (Re)arms the keepalive idle timer and clears the probe count. A
    /// no-op (deadline stays `None`) when keepalives are not configured.
    fn arm_keepalive(&mut self, now: SimTime) {
        self.keepalive_probes_sent = 0;
        self.keepalive_deadline = self.cfg.keepalive_idle.map(|idle| now + idle);
    }

    /// States in which keepalive probing is meaningful: the connection is
    /// synchronized and could otherwise sit silent forever.
    fn keepalive_applies(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait2
        )
    }

    /// The earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.rexmt_deadline,
            self.delack_deadline,
            self.timewait_deadline,
            self.keepalive_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Fires any timers whose deadline has passed.
    pub fn on_timer(&mut self, now: SimTime) -> Actions {
        Actions::collect(|out| self.on_timer_into(now, out)).1
    }

    /// [`on_timer`](Self::on_timer), appending to `out`.
    pub fn on_timer_into(&mut self, now: SimTime, out: &mut Actions) {
        if let Some(d) = self.timewait_deadline {
            if now >= d {
                self.timewait_deadline = None;
                self.state = TcpState::Closed;
                out.events.push(ConnEvent::Closed);
                return;
            }
        }
        if let Some(d) = self.delack_deadline {
            if now >= d {
                let ack = self.make_ack();
                out.segments.push(ack);
            }
        }
        if let Some(d) = self.rexmt_deadline {
            if now >= d {
                self.rexmt_deadline = None;
                self.on_rexmt_timeout(now, out);
            }
        }
        if let Some(d) = self.keepalive_deadline {
            if now >= d {
                if !self.keepalive_applies() {
                    // The connection moved on (closing handshake, abort):
                    // the idle timer is stale — drop it.
                    self.keepalive_deadline = None;
                } else if self.keepalive_probes_sent >= self.cfg.keepalive_probes {
                    // Peer is dead: every probe went unanswered. Surface
                    // TimedOut to the app, then abort (RST + Closed) as
                    // BSD's tcp_drop does on keepalive expiry.
                    out.events.push(ConnEvent::TimedOut);
                    self.abort_into(out);
                } else {
                    // Probe with one garbage byte below the window
                    // (RFC 1122 §4.2.3.6): an alive peer must re-ACK.
                    self.keepalive_probes_sent += 1;
                    let seq = self.snd_una.wrapping_sub(1);
                    let seg = self.make_seg(flags::ACK, seq, PayloadBuf::from(&[0][..]));
                    out.segments.push(seg);
                    self.keepalive_deadline = Some(now + self.cfg.keepalive_intvl);
                }
            }
        }
    }

    fn on_rexmt_timeout(&mut self, now: SimTime, out: &mut Actions) {
        self.stats.timeouts += 1;
        // A zero-window probe cycle is BSD's persist timer: the peer is
        // alive and acking, so it must not consume the retry budget or the
        // connection would die while the receiver is merely slow.
        let persisting =
            self.snd_wnd == 0 && !self.snd_buf.is_empty() && self.snd_nxt == self.snd_una;
        if persisting {
            self.recovery.on_persist_timeout();
            self.send_probe(out);
            self.arm_rexmt(now);
            return;
        }
        if self.recovery.on_rto_fired(self.cfg.max_retries) {
            self.state = TcpState::Closed;
            out.events.push(ConnEvent::TimedOut);
            out.events.push(ConnEvent::Closed);
            return;
        }
        match self.state {
            TcpState::SynSent => {
                let syn = self.make_ctl(flags::SYN, self.iss);
                self.stats.retransmits += 1;
                out.segments.push(syn);
                self.arm_rexmt(now);
            }
            TcpState::SynReceived => {
                let synack = self.make_ctl(flags::SYN | flags::ACK, self.iss);
                self.stats.retransmits += 1;
                out.segments.push(synack);
                self.arm_rexmt(now);
            }
            TcpState::Established
            | TcpState::FinWait1
            | TcpState::Closing
            | TcpState::CloseWait
            | TcpState::LastAck => {
                // Collapse the window: classic timeout response.
                let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
                self.cc.on_rto(flight);
                self.recovery.reset_dup_acks();
                // Go-back-N: rewind and retransmit from snd_una.
                self.snd_nxt = self.snd_una;
                // A lost FIN must be resent too: forget it was ever sent
                // so output() re-appends it after the rewound data.
                if self.fin_seq.is_some_and(|fs| !seq_gt(self.snd_una, fs)) {
                    self.fin_seq = None;
                }
                let before = out.segments.len();
                self.output_into(now, true, out);
                if out.segments.len() == before {
                    // Nothing to send (e.g. zero window probe case) — probe
                    // with one byte if data is pending.
                    self.send_probe(out);
                }
                self.arm_rexmt(now);
            }
            _ => {}
        }
    }

    fn send_probe(&mut self, out: &mut Actions) {
        let data_end = self.snd_base.wrapping_add(self.snd_buf.len() as u32);
        if seq_lt(self.snd_nxt, data_end) {
            let off = self.snd_nxt.wrapping_sub(self.snd_base) as usize;
            let payload = self.send_payload(off, 1);
            let seq = self.snd_nxt;
            let seg = self.make_seg(flags::ACK | flags::PSH, seq, payload);
            self.stats.retransmits += 1;
            out.segments.push(seg);
        }
    }

    // ---- app interface ----

    /// Writes application data into the send buffer; returns how many bytes
    /// were accepted and any segments that can be sent immediately.
    pub fn write(&mut self, now: SimTime, data: &[u8]) -> (usize, Actions) {
        Actions::collect(|out| self.write_into(now, data, out))
    }

    /// [`write`](Self::write), appending to `out`; returns the bytes
    /// accepted. What fits is first copied into arena storage.
    pub fn write_into(&mut self, now: SimTime, data: &[u8], out: &mut Actions) -> usize {
        let n = data.len().min(self.snd_buf.space());
        self.write_slice_into(now, FrameSlice::from(&data[..n]), out)
    }

    /// [`write_into`](Self::write_into) of bytes the send buffer holds by
    /// reference (4.4BSD's `sosend` queueing the user's mbufs).
    pub fn write_slice_into(&mut self, now: SimTime, data: FrameSlice, out: &mut Actions) -> usize {
        match self.state {
            TcpState::Established | TcpState::CloseWait => {}
            _ => return 0,
        }
        // Idle restart: nothing in flight and nothing buffered means the
        // connection sat quiet — let rate-model controllers resync.
        // NewReno's hook is a no-op, preserving bit-identity.
        if self.snd_buf.is_empty() && self.snd_nxt == self.snd_una {
            self.cc.on_idle_restart();
        }
        let n = self.snd_buf.adopt(data);
        self.output_into(now, false, out);
        n
    }

    /// Reads up to `n` bytes of in-order data (into frame-arena storage,
    /// so the host can hand it to the application as a `FrameBuf` without
    /// another copy); may emit a window update if the advertised window
    /// grows substantially (BSD policy).
    pub fn read(&mut self, n: usize) -> (Vec<u8>, Actions) {
        Actions::collect(|out| self.read_into(n, out))
    }

    /// [`read`](Self::read), appending any window update to `out`.
    pub fn read_into(&mut self, n: usize, out: &mut Actions) -> Vec<u8> {
        let data = self.rcv_buf.read(n);
        if !data.is_empty() {
            let new_wnd = self.adv_wnd() as u32;
            // Window-update policy: announce if the window grew by two
            // segments or half the buffer since last advertised.
            if matches!(
                self.state,
                TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
            ) && new_wnd >= self.last_adv_wnd + 2 * self.mss_effective as u32
                || new_wnd >= self.last_adv_wnd + (self.cfg.rcv_buf as u32) / 2
            {
                let ack = self.make_ack();
                out.segments.push(ack);
            }
        }
        data
    }

    /// Initiates a close: sends FIN once all buffered data is out.
    pub fn close(&mut self, now: SimTime) -> Actions {
        Actions::collect(|out| self.close_into(now, out)).1
    }

    /// [`close`](Self::close), appending to `out`.
    pub fn close_into(&mut self, now: SimTime, out: &mut Actions) {
        match self.state {
            TcpState::Established | TcpState::SynReceived => {
                self.fin_requested = true;
                self.state = TcpState::FinWait1;
                self.output_into(now, false, out);
            }
            TcpState::CloseWait => {
                self.fin_requested = true;
                self.state = TcpState::LastAck;
                self.output_into(now, false, out);
            }
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                out.events.push(ConnEvent::Closed);
            }
            _ => {}
        }
    }

    /// Aborts the connection with a RST.
    pub fn abort(&mut self) -> Actions {
        Actions::collect(|out| self.abort_into(out)).1
    }

    /// [`abort`](Self::abort), appending to `out`.
    pub fn abort_into(&mut self, out: &mut Actions) {
        if !matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            let seg = self.make_ctl(flags::RST | flags::ACK, self.snd_nxt);
            out.segments.push(seg);
        }
        self.state = TcpState::Closed;
        self.keepalive_deadline = None;
        self.rexmt_deadline = None;
        self.delack_deadline = None;
        out.events.push(ConnEvent::Closed);
    }

    // ---- output engine ----

    /// Attempts to transmit: respects the send window, congestion window
    /// and MSS; appends the FIN when requested and all data is out.
    ///
    /// `rexmit` forces sending from `snd_nxt` even if already sent
    /// (retransmission after go-back-N rewind).
    pub fn output(&mut self, now: SimTime, rexmit: bool) -> Actions {
        Actions::collect(|out| self.output_into(now, rexmit, out)).1
    }

    fn output_into(&mut self, now: SimTime, rexmit: bool, out: &mut Actions) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        let data_end = self.snd_base.wrapping_add(self.snd_buf.len() as u32);
        loop {
            let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
            let wnd = (self.snd_wnd as usize).min(self.cc.cwnd());
            let usable = wnd.saturating_sub(flight);
            // snd_nxt can sit past data_end once the FIN has been sent;
            // plain wrapping subtraction would then be bogus-huge.
            let avail = if seq_lt(self.snd_nxt, data_end) {
                data_end.wrapping_sub(self.snd_nxt) as usize
            } else {
                0
            };
            let chunk = usable.min(avail).min(self.mss_effective as usize);
            if chunk > 0 {
                let off = self.snd_nxt.wrapping_sub(self.snd_base) as usize;
                let payload = self.send_payload(off, chunk);
                let seq = self.snd_nxt;
                let is_rexmit = seq_lt(seq, self.snd_max);
                let push = off + chunk == self.snd_buf.len();
                let fl = if push {
                    flags::ACK | flags::PSH
                } else {
                    flags::ACK
                };
                let seg = self.make_seg(fl, seq, payload);
                out.segments.push(seg);
                self.snd_nxt = self.snd_nxt.wrapping_add(chunk as u32);
                if is_rexmit {
                    self.stats.retransmits += 1;
                } else {
                    self.stats.bytes_out += chunk as u64;
                    self.snd_max = self.snd_nxt;
                    // Time one segment per window (Karn).
                    if self.recovery.rtt_probe.is_none() {
                        self.recovery.rtt_probe = Some((seq, now));
                    }
                }
                if self.rexmt_deadline.is_none() {
                    self.arm_rexmt(now);
                }
                continue;
            }
            break;
        }
        // FIN when requested, all data sent, and FIN not yet sent.
        if self.fin_requested && self.fin_seq.is_none() && self.snd_nxt == data_end {
            let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
            let wnd = (self.snd_wnd as usize).min(self.cc.cwnd()).max(1);
            if flight < wnd || rexmit {
                let seq = self.snd_nxt;
                self.fin_seq = Some(seq);
                let seg = self.make_ctl(flags::FIN | flags::ACK, seq);
                out.segments.push(seg);
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.snd_max = self.snd_max.max(self.snd_nxt);
                if self.rexmt_deadline.is_none() {
                    self.arm_rexmt(now);
                }
            }
        }
        // Zero-window: keep the rexmt timer alive as a persist probe.
        if self.snd_wnd == 0 && !self.snd_buf.is_empty() && self.rexmt_deadline.is_none() {
            self.persist_mode = true;
            self.arm_rexmt(now);
        }
    }

    // ---- input engine ----

    /// Processes one arriving segment.
    pub fn on_segment(&mut self, now: SimTime, th: &TcpHeader, payload: &[u8]) -> Actions {
        Actions::collect(|out| self.on_segment_into(now, th, payload, out)).1
    }

    /// [`on_segment`](Self::on_segment), appending to `out`. A payload is
    /// first copied into arena storage.
    pub fn on_segment_into(
        &mut self,
        now: SimTime,
        th: &TcpHeader,
        payload: &[u8],
        out: &mut Actions,
    ) {
        self.on_segment_slice_into(now, th, FrameSlice::from(payload), out);
    }

    /// [`on_segment_into`](Self::on_segment_into) of a payload held in
    /// the frame it arrived in: in-order and out-of-order data are queued
    /// by reference.
    pub fn on_segment_slice_into(
        &mut self,
        now: SimTime,
        th: &TcpHeader,
        payload: FrameSlice,
        out: &mut Actions,
    ) {
        self.stats.segs_in += 1;
        match self.state {
            TcpState::Closed => {
                // RFC 793: respond to anything but a RST with a RST.
                if !th.has(flags::RST) {
                    let seg = if th.has(flags::ACK) {
                        self.make_ctl(flags::RST, th.ack)
                    } else {
                        self.rcv_nxt = th.seq.wrapping_add(payload.len() as u32 + 1);
                        self.make_ctl(flags::RST | flags::ACK, 0)
                    };
                    out.segments.push(seg);
                }
            }
            TcpState::SynSent => self.on_segment_syn_sent(now, th, out),
            TcpState::TimeWait => {
                // Re-ACK retransmitted FINs; restart the 2MSL timer.
                if th.has(flags::FIN) {
                    let ack = self.make_ack();
                    out.segments.push(ack);
                    self.timewait_deadline = Some(now + self.cfg.time_wait);
                }
            }
            _ => self.on_segment_synchronized(now, th, payload, out),
        }
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, th: &TcpHeader, out: &mut Actions) {
        if th.has(flags::ACK) && (seq_le(th.ack, self.iss) || seq_gt(th.ack, self.snd_nxt)) {
            if !th.has(flags::RST) {
                let seg = self.make_ctl(flags::RST, th.ack);
                out.segments.push(seg);
            }
            return;
        }
        if th.has(flags::RST) {
            if th.has(flags::ACK) {
                self.state = TcpState::Closed;
                out.events.push(ConnEvent::Reset);
                out.events.push(ConnEvent::Closed);
            }
            return;
        }
        if th.has(flags::SYN) {
            self.irs = th.seq;
            self.rcv_nxt = th.seq.wrapping_add(1);
            self.snd_wnd = th.window as u32;
            if let Some(m) = th.mss {
                self.mss_effective = self.cfg.mss.min(m);
                self.cc.on_mss_negotiated(self.mss_effective as usize);
            }
            if th.has(flags::ACK) {
                self.snd_una = th.ack;
                if let Some((_, t0)) = self.recovery.rtt_probe.take() {
                    self.recovery
                        .on_rtt_sample(now.since(t0).as_secs_f64(), &self.cfg);
                }
            }
            if seq_gt(self.snd_una, self.iss) {
                self.state = TcpState::Established;
                self.recovery.on_new_ack();
                self.rexmt_deadline = None;
                self.arm_keepalive(now);
                out.events.push(ConnEvent::Established);
                let ack = self.make_ack();
                out.segments.push(ack);
                self.output_into(now, false, out);
            } else {
                // Simultaneous open.
                self.state = TcpState::SynReceived;
                let synack = self.make_ctl(flags::SYN | flags::ACK, self.iss);
                out.segments.push(synack);
                self.arm_rexmt(now);
            }
        }
    }

    fn seq_acceptable(&self, th: &TcpHeader, len: usize) -> bool {
        // RFC 793 acceptability test, simplified for a non-zero window.
        let wnd = self.cfg.rcv_buf as u32;
        let seq_end = th.seq.wrapping_add(len as u32);
        // Accept if any part of [seq, seq_end) overlaps [rcv_nxt,
        // rcv_nxt+wnd), or it is a bare re-ACK at the left edge.
        if len == 0 {
            return seq_ge(th.seq, self.rcv_nxt.wrapping_sub(wnd))
                && seq_le(th.seq, self.rcv_nxt.wrapping_add(wnd));
        }
        seq_gt(seq_end, self.rcv_nxt) && seq_lt(th.seq, self.rcv_nxt.wrapping_add(wnd))
    }

    fn on_segment_synchronized(
        &mut self,
        now: SimTime,
        th: &TcpHeader,
        payload: FrameSlice,
        out: &mut Actions,
    ) {
        let len = payload.len();
        // Any segment from the peer proves it is alive: restart the
        // keepalive idle clock and forget pending probes.
        self.arm_keepalive(now);
        // RST: kill the connection if plausibly in-window.
        if th.has(flags::RST) {
            if self.seq_acceptable(th, len.max(1)) || th.seq == self.rcv_nxt {
                self.state = TcpState::Closed;
                out.events.push(ConnEvent::Reset);
                out.events.push(ConnEvent::Closed);
            }
            return;
        }
        // Duplicate SYN in SynReceived: retransmit the SYN|ACK.
        if th.has(flags::SYN) && self.state == TcpState::SynReceived && th.seq == self.irs {
            let synack = self.make_ctl(flags::SYN | flags::ACK, self.iss);
            self.stats.retransmits += 1;
            out.segments.push(synack);
            return;
        }
        // Sequence acceptability; unacceptable segments get a bare ACK.
        if !self.seq_acceptable(th, len) {
            let ack = self.make_ack();
            out.segments.push(ack);
            return;
        }
        // ACK processing.
        if th.has(flags::ACK) {
            self.process_ack(now, th, out);
            if self.state == TcpState::Closed {
                return;
            }
        }
        // Data.
        if len > 0 {
            self.process_data(now, th, payload, out);
        }
        // FIN.
        if th.has(flags::FIN) {
            let fin_seq = th.seq.wrapping_add(len as u32);
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                out.events.push(ConnEvent::PeerClosed);
                match self.state {
                    TcpState::SynReceived | TcpState::Established => {
                        self.state = TcpState::CloseWait;
                    }
                    TcpState::FinWait1 => {
                        // Did they also ack our FIN? process_ack may have
                        // already moved us to FinWait2.
                        self.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        self.timewait_deadline = Some(now + self.cfg.time_wait);
                        self.rexmt_deadline = None;
                    }
                    _ => {}
                }
                let ack = self.make_ack();
                out.segments.push(ack);
            }
        }
        // Try to push more data out (window may have opened).
        self.output_into(now, false, out);
    }

    fn process_ack(&mut self, now: SimTime, th: &TcpHeader, out: &mut Actions) {
        let ack = th.ack;
        if seq_gt(ack, self.snd_max) {
            // Acks something never sent.
            let seg = self.make_ack();
            out.segments.push(seg);
            return;
        }
        if seq_le(ack, self.snd_una) {
            // Duplicate ACK.
            if th.seq == self.rcv_nxt
                && ack == self.snd_una
                && self.snd_nxt != self.snd_una
                && th.window as u32 == self.snd_wnd
            {
                self.stats.dup_acks += 1;
                if self.recovery.on_dup_ack() {
                    self.fast_retransmit(now, out);
                }
            }
            self.snd_wnd = th.window as u32;
            return;
        }
        // New data acknowledged.
        let had_zero_window = self.snd_wnd == 0;
        self.snd_wnd = th.window as u32;
        self.recovery.on_new_ack();
        let mut rtt_s = None;
        if let Some((seq, t0)) = self.recovery.rtt_probe {
            if seq_lt(seq, ack) {
                let sample = now.since(t0).as_secs_f64();
                self.recovery.on_rtt_sample(sample, &self.cfg);
                self.recovery.rtt_probe = None;
                rtt_s = Some(sample);
            }
        }
        // Congestion window update (growth under the default NewReno).
        let acked = ack.wrapping_sub(self.snd_una) as usize;
        self.cc.on_ack(now, acked, rtt_s);
        // Release acked bytes from the send buffer.
        let data_end = self.snd_base.wrapping_add(self.snd_buf.len() as u32);
        let acked_data_end = if seq_lt(ack, data_end) { ack } else { data_end };
        if seq_gt(acked_data_end, self.snd_base) {
            let n = acked_data_end.wrapping_sub(self.snd_base) as usize;
            self.snd_buf.discard(n);
            self.snd_base = acked_data_end;
            out.events.push(ConnEvent::SendSpace);
        }
        self.snd_una = ack;
        // After a go-back-N rewind, the ACK of an original (pre-rewind)
        // transmission can overtake snd_nxt; pull it forward as BSD does.
        if seq_lt(self.snd_nxt, self.snd_una) {
            self.snd_nxt = self.snd_una;
        }
        if seq_gt(self.snd_nxt, self.snd_una) || had_zero_window && self.snd_wnd == 0 {
            self.arm_rexmt(now);
        } else {
            self.rexmt_deadline = None;
            self.persist_mode = false;
        }
        // FIN-related transitions.
        let fin_acked = self.fin_seq.is_some_and(|fs| seq_gt(ack, fs));
        match self.state {
            TcpState::SynReceived if seq_gt(ack, self.iss) => {
                self.state = TcpState::Established;
                self.arm_keepalive(now);
                out.events.push(ConnEvent::Established);
            }
            TcpState::FinWait1 if fin_acked => {
                self.state = TcpState::FinWait2;
                self.rexmt_deadline = None;
            }
            TcpState::Closing if fin_acked => {
                self.state = TcpState::TimeWait;
                self.timewait_deadline = Some(now + self.cfg.time_wait);
                self.rexmt_deadline = None;
            }
            TcpState::LastAck if fin_acked => {
                self.state = TcpState::Closed;
                self.rexmt_deadline = None;
                out.events.push(ConnEvent::Closed);
            }
            _ => {}
        }
    }

    fn fast_retransmit(&mut self, now: SimTime, out: &mut Actions) {
        self.stats.fast_retransmits += 1;
        let flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
        self.cc.on_loss(flight);
        // Karn: the retransmission must not be timed.
        self.recovery.on_retransmit();
        // Retransmit the lost segment.
        let data_end = self.snd_base.wrapping_add(self.snd_buf.len() as u32);
        if seq_lt(self.snd_una, data_end) {
            let off = self.snd_una.wrapping_sub(self.snd_base) as usize;
            let n = (self.mss_effective as usize).min(self.snd_buf.len() - off);
            let payload = self.send_payload(off, n);
            let seq = self.snd_una;
            let seg = self.make_seg(flags::ACK, seq, payload);
            self.stats.retransmits += 1;
            out.segments.push(seg);
        } else if let Some(fs) = self.fin_seq {
            if self.snd_una == fs {
                let seg = self.make_ctl(flags::FIN | flags::ACK, fs);
                self.stats.retransmits += 1;
                out.segments.push(seg);
            }
        }
        self.arm_rexmt(now);
    }

    fn process_data(
        &mut self,
        now: SimTime,
        th: &TcpHeader,
        mut data: FrameSlice,
        out: &mut Actions,
    ) {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        ) {
            return;
        }
        let mut seq = th.seq;
        // Trim old data.
        if seq_lt(seq, self.rcv_nxt) {
            let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
            if skip >= data.len() {
                // Entirely old: re-ACK immediately (protocol-mandated,
                // not ACK policy).
                let ack = self.make_ack();
                out.segments.push(ack);
                return;
            }
            data.advance(skip);
            seq = self.rcv_nxt;
        }
        if seq == self.rcv_nxt {
            let n = self.rcv_buf.adopt(data);
            // Data beyond buffer space is dropped (sender exceeded our
            // advertised window).
            self.rcv_nxt = self.rcv_nxt.wrapping_add(n as u32);
            self.stats.bytes_in += n as u64;
            if n > 0 {
                out.events.push(ConnEvent::DataReady);
            }
            // Drain contiguous out-of-order segments.
            while let Some(&(oseq, _)) = self.ooo.first() {
                if seq_gt(oseq, self.rcv_nxt) {
                    break;
                }
                let (_, mut od) = self.ooo.remove(0);
                let skip = self.rcv_nxt.wrapping_sub(oseq) as usize;
                if skip < od.len() {
                    od.advance(skip);
                    let m = self.rcv_buf.adopt(od);
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(m as u32);
                    self.stats.bytes_in += m as u64;
                }
            }
            // ACK policy: an immediate ACK or the delayed-ACK timer (BSD
            // acks every other segment).
            match self.ack_policy.on_in_order_data(now, self.delack_deadline) {
                AckDecision::Now => {
                    let ack = self.make_ack();
                    out.segments.push(ack);
                }
                AckDecision::Delay(deadline) => self.delack_deadline = Some(deadline),
            }
        } else {
            // Out of order: stash, and send the duplicate ACK now (the
            // sender's fast retransmit depends on it).
            if self.ooo.len() < OOO_MAX {
                let ahead = |s: u32| s.wrapping_sub(self.rcv_nxt);
                if let Err(i) = self
                    .ooo
                    .binary_search_by_key(&ahead(seq), |&(s, _)| ahead(s))
                {
                    self.ooo.insert(i, (seq, data));
                }
            }
            let ack = self.make_ack();
            out.segments.push(ack);
        }
        let _ = th;
    }
}

/// A listening socket: backlog accounting for SYN handling.
///
/// The listener does not own child connections (the host's socket table
/// does); it tracks how many embryonic + accepted-but-unclaimed
/// connections exist so the kernel can enforce the backlog — and, in LRP,
/// disable protocol processing when the backlog is exceeded so the NI
/// discards further SYNs at the channel queue (§3.4).
#[derive(Debug)]
pub struct TcpListener {
    /// The local endpoint.
    pub local: Endpoint,
    /// Maximum embryonic + completed-unaccepted connections.
    pub backlog: usize,
    /// Current embryonic (SynReceived) children.
    pub syn_queue: usize,
    /// Completed connections awaiting `accept`.
    pub accept_queue: usize,
    /// SYNs dropped due to a full backlog.
    pub syn_drops: u64,
    /// Half-open entries evicted by the SYN-cache to admit new SYNs.
    pub syn_cache_evictions: u64,
    /// Stateless SYN|ACKs minted with a cookie ISN (see [`cookie`]).
    pub cookies_sent: u64,
    /// Handshake ACKs whose cookie validated (connection established).
    pub cookies_validated: u64,
    /// Handshake ACKs whose cookie failed validation (stale or forged).
    pub cookies_rejected: u64,
}

impl TcpListener {
    /// Creates a listener.
    pub fn new(local: Endpoint, backlog: usize) -> Self {
        TcpListener {
            local,
            backlog,
            syn_queue: 0,
            accept_queue: 0,
            syn_drops: 0,
            syn_cache_evictions: 0,
            cookies_sent: 0,
            cookies_validated: 0,
            cookies_rejected: 0,
        }
    }

    /// True if another SYN can be admitted (BSD: `sonewconn` checks
    /// `q0len + qlen < 3 * backlog / 2`; we use the plain backlog).
    pub fn can_accept_syn(&self) -> bool {
        self.syn_queue + self.accept_queue < self.backlog
    }

    /// Records admission of a SYN (a child enters SynReceived).
    pub fn on_syn_admitted(&mut self) {
        self.syn_queue += 1;
    }

    /// Records rejection of a SYN.
    pub fn on_syn_dropped(&mut self) {
        self.syn_drops += 1;
    }

    /// A child completed the handshake: moves from SYN to accept queue.
    pub fn on_child_established(&mut self) {
        debug_assert!(self.syn_queue > 0);
        self.syn_queue -= 1;
        self.accept_queue += 1;
    }

    /// A cookie-validated child entered the accept queue directly: it was
    /// never in the SYN queue (the SYN|ACK was stateless), so only the
    /// accept side moves.
    pub fn on_cookie_child_established(&mut self) {
        self.cookies_validated += 1;
        self.accept_queue += 1;
    }

    /// Records minting a stateless cookie SYN|ACK.
    pub fn on_cookie_sent(&mut self) {
        self.cookies_sent += 1;
    }

    /// Records a handshake ACK whose cookie failed validation.
    pub fn on_cookie_rejected(&mut self) {
        self.cookies_rejected += 1;
    }

    /// A child died before the handshake completed.
    pub fn on_child_failed(&mut self) {
        debug_assert!(self.syn_queue > 0);
        self.syn_queue = self.syn_queue.saturating_sub(1);
    }

    /// The application accepted a completed connection.
    pub fn on_accept(&mut self) {
        debug_assert!(self.accept_queue > 0);
        self.accept_queue -= 1;
    }

    /// Records a SYN-cache eviction.
    pub fn on_syn_cache_evict(&mut self) {
        self.syn_cache_evictions += 1;
    }
}

#[cfg(test)]
mod tests;
