//! Failure-aware RPC applications for the crash-recovery experiments.
//!
//! The plain RPC workloads of Table 2 assume an always-up server; these
//! variants implement the end-to-end story: the client stamps every
//! request with an id, arms a receive deadline, and retries with capped
//! exponential backoff plus full jitter when the reply does not arrive —
//! so it rides out a server crash/restart. The server sheds load above a
//! socket-depth watermark by answering `Busy` instead of computing,
//! keeping its queue short under overload (e.g. while absorbing the
//! post-restart retry burst).
//!
//! Wire format: requests are 32 bytes starting with the request id as 8
//! little-endian bytes; replies are `[id:8][status:1]` with status 0 = OK
//! and 1 = Busy.

use crate::Shared;
use lrp_core::{AppCtx, AppLogic, Errno, SockProto, SyscallOp, SyscallRet};
use lrp_sim::{FastHashMap, SimDuration, SimTime, SplitMix64};
use lrp_stack::SockId;
use lrp_wire::{Endpoint, FrameBuf};
use std::collections::VecDeque;

/// Reply status byte: request served.
pub const STATUS_OK: u8 = 0;
/// Reply status byte: server shed the request under load.
pub const STATUS_BUSY: u8 = 1;

/// Retry/backoff parameters for a [`ResilientRpcClient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Per-attempt receive deadline.
    pub req_timeout: SimDuration,
    /// Retries after the first attempt before giving a request up.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the (pre-jitter) backoff.
    pub backoff_cap: SimDuration,
    /// Seed for the client's private jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy suited to riding out a few-hundred-millisecond server
    /// outage: 50 ms deadline, 8 retries, 10 ms base doubling to a
    /// 160 ms cap.
    pub fn patient(jitter_seed: u64) -> Self {
        RetryPolicy {
            req_timeout: SimDuration::from_millis(50),
            max_retries: 8,
            backoff_base: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(160),
            jitter_seed,
        }
    }

    /// The backoff before retry number `attempt` (1-based): full jitter
    /// over an exponentially growing, capped window. Deterministic in
    /// the caller's RNG stream.
    pub fn backoff(&self, rng: &mut SplitMix64, attempt: u32) -> SimDuration {
        let exp = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let window = exp.min(self.backoff_cap.as_nanos());
        if window == 0 {
            return SimDuration::ZERO;
        }
        // "Full jitter": uniform in [1, window].
        SimDuration::from_nanos(1 + rng.next_below(window))
    }
}

/// Client-side counters for one resilient RPC flow.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Request transmissions (first attempts and retries).
    pub sent: u64,
    /// Retransmissions after a timeout or Busy reply.
    pub retries: u64,
    /// Receive deadlines that fired with no reply.
    pub timeouts: u64,
    /// `Busy` replies from a load-shedding server.
    pub busy_replies: u64,
    /// Replies whose id did not match the outstanding request.
    pub stale_replies: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub giveups: u64,
    /// Completion time of every successfully answered request.
    pub completions: Vec<SimTime>,
}

impl ClientStats {
    /// The first completion at or after `t`.
    pub fn first_completion_since(&self, t: SimTime) -> Option<SimTime> {
        self.completions.iter().copied().find(|&c| c >= t)
    }
}

/// A UDP RPC client with per-request deadlines, bounded retries with
/// backoff + jitter, and id-based dedup of stale replies.
pub struct ResilientRpcClient {
    server: Endpoint,
    local_port: u16,
    policy: RetryPolicy,
    gap: SimDuration,
    limit: Option<u64>,
    stats: Shared<ClientStats>,
    rng: SplitMix64,
    sock: Option<SockId>,
    cur_id: u64,
    next_id: u64,
    attempt: u32,
    state: u8,
}

impl ResilientRpcClient {
    /// Creates a client bound to `local_port`, pausing `gap` between
    /// successful requests, stopping after `limit` completions (never,
    /// when `None`).
    pub fn new(
        server: Endpoint,
        local_port: u16,
        policy: RetryPolicy,
        gap: SimDuration,
        limit: Option<u64>,
        stats: Shared<ClientStats>,
    ) -> Self {
        let rng = SplitMix64::new(policy.jitter_seed);
        ResilientRpcClient {
            server,
            local_port,
            policy,
            gap,
            limit,
            stats,
            rng,
            sock: None,
            cur_id: 0,
            next_id: 1,
            attempt: 0,
            state: 0,
        }
    }

    fn request_bytes(&self) -> FrameBuf {
        let mut data = lrp_wire::buf::storage(32);
        data.extend_from_slice(&self.cur_id.to_le_bytes());
        data.resize(32, 0x3F);
        data.into()
    }

    fn send_cur(&mut self) -> SyscallOp {
        self.stats.borrow_mut().sent += 1;
        self.state = 3;
        SyscallOp::SendTo {
            sock: self.sock.expect("socket"),
            dst: self.server,
            data: self.request_bytes(),
        }
    }

    fn start_new_request(&mut self) -> SyscallOp {
        self.cur_id = self.next_id;
        self.next_id += 1;
        self.attempt = 0;
        self.send_cur()
    }

    /// A reply attempt failed (deadline or Busy): back off and resend,
    /// or abandon the request once the retry budget is spent.
    fn retry_or_give_up(&mut self) -> SyscallOp {
        if self.attempt >= self.policy.max_retries {
            self.stats.borrow_mut().giveups += 1;
            self.state = 5;
            return SyscallOp::Sleep(self.gap.max(self.policy.backoff_base));
        }
        self.attempt += 1;
        self.stats.borrow_mut().retries += 1;
        let pause = self.policy.backoff(&mut self.rng, self.attempt);
        self.state = 6;
        SyscallOp::Sleep(pause)
    }

    fn arm_recv(&mut self) -> SyscallOp {
        self.state = 4;
        SyscallOp::RecvTimeout {
            sock: self.sock.expect("socket"),
            max_len: 65_536,
            timeout: self.policy.req_timeout,
        }
    }
}

impl AppLogic for ResilientRpcClient {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        // Give servers time to bind.
        SyscallOp::Sleep(SimDuration::from_millis(10))
    }

    fn resume(&mut self, ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match (self.state, ret) {
            (0, SyscallRet::Ok) => {
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
            (2, SyscallRet::Ok) => self.start_new_request(),
            (3, SyscallRet::Sent(_)) => self.arm_recv(),
            // Sends can fail transiently (e.g. out of channel buffers
            // right after a restart): treat like a lost request.
            (3, SyscallRet::Err(_)) => self.retry_or_give_up(),
            (4, SyscallRet::DataFrom(_, data)) => {
                if data.len() < 9 || data[..8] != self.cur_id.to_le_bytes() {
                    self.stats.borrow_mut().stale_replies += 1;
                    return self.arm_recv();
                }
                if data[8] == STATUS_BUSY {
                    self.stats.borrow_mut().busy_replies += 1;
                    return self.retry_or_give_up();
                }
                let done = {
                    let mut st = self.stats.borrow_mut();
                    st.completions.push(ctx.now);
                    self.limit.is_some_and(|l| st.completions.len() as u64 >= l)
                };
                if done {
                    return SyscallOp::Exit;
                }
                self.state = 5;
                SyscallOp::Sleep(self.gap)
            }
            (4, SyscallRet::Err(Errno::TimedOut)) => {
                self.stats.borrow_mut().timeouts += 1;
                self.retry_or_give_up()
            }
            (4, SyscallRet::Err(_)) => self.retry_or_give_up(),
            (5, SyscallRet::Ok) => self.start_new_request(),
            (6, SyscallRet::Ok) => self.send_cur(),
            (s, r) => panic!("resilient rpc client state {s}: {r:?}"),
        }
    }
}

/// Server-side counters for a [`ResilientRpcServer`].
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests computed and answered OK.
    pub served: u64,
    /// Requests answered `Busy` above the watermark.
    pub shed: u64,
    /// Duplicate requests answered from the at-most-once reply cache
    /// (the work was *not* recomputed).
    pub replayed: u64,
}

/// How many executed replies a [`ResilientRpcServer`] remembers for
/// duplicate suppression (FIFO-evicted).
pub const REPLY_CACHE_CAP: usize = 1024;

/// A UDP RPC server that answers `Busy` instead of computing whenever its
/// receive-side queue depth exceeds `watermark` — bounding queueing delay
/// under overload so clients back off instead of piling on.
///
/// Execution is **at most once**: the server remembers the last
/// [`REPLY_CACHE_CAP`] `(client, id)` pairs it executed and answers a
/// duplicate (a retry whose original reply was lost, or crossed its
/// retransmission in flight) by replaying the cached reply instead of
/// computing again. `Busy` replies are *not* cached — the request was
/// never executed, so a retry deserves a fresh admission decision.
pub struct ResilientRpcServer {
    port: u16,
    work: SimDuration,
    watermark: usize,
    stats: Shared<ServerStats>,
    sock: Option<SockId>,
    reply_to: Option<Endpoint>,
    cur_id: u64,
    state: u8,
    /// Executed-request cache: `(client, id)` → status byte replied.
    replies: FastHashMap<(Endpoint, u64), u8>,
    /// FIFO eviction order for `replies`.
    reply_order: VecDeque<(Endpoint, u64)>,
}

impl ResilientRpcServer {
    /// Creates a server on `port` computing `work` per request, shedding
    /// above `watermark` queued requests.
    pub fn new(port: u16, work: SimDuration, watermark: usize, stats: Shared<ServerStats>) -> Self {
        ResilientRpcServer {
            port,
            work,
            watermark,
            stats,
            sock: None,
            reply_to: None,
            cur_id: 0,
            state: 0,
            replies: FastHashMap::default(),
            reply_order: VecDeque::new(),
        }
    }

    /// Records an executed reply for duplicate suppression.
    fn cache_reply(&mut self, key: (Endpoint, u64), status: u8) {
        if self.replies.insert(key, status).is_none() {
            self.reply_order.push_back(key);
            if self.reply_order.len() > REPLY_CACHE_CAP {
                if let Some(old) = self.reply_order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }

    fn recv(&mut self) -> SyscallOp {
        self.state = 2;
        SyscallOp::Recv {
            sock: self.sock.expect("socket"),
            max_len: 65_536,
        }
    }

    fn reply(&mut self, status: u8) -> SyscallOp {
        let mut data = lrp_wire::buf::storage(9);
        data.extend_from_slice(&self.cur_id.to_le_bytes());
        data.push(status);
        self.state = 5;
        SyscallOp::SendTo {
            sock: self.sock.expect("socket"),
            dst: self.reply_to.take().expect("reply endpoint"),
            data: data.into(),
        }
    }
}

impl AppLogic for ResilientRpcServer {
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
                    port: self.port,
                }
            }
            (1, SyscallRet::Ok) => self.recv(),
            (2, SyscallRet::DataFrom(from, req)) => {
                if req.len() < 8 {
                    return self.recv();
                }
                self.reply_to = Some(from);
                self.cur_id = u64::from_le_bytes(req[..8].try_into().expect("checked"));
                // At-most-once: a request we already executed is answered
                // from the cache, skipping both admission and compute.
                if let Some(&status) = self.replies.get(&(from, self.cur_id)) {
                    self.stats.borrow_mut().replayed += 1;
                    return self.reply(status);
                }
                self.state = 3;
                SyscallOp::SockDepth {
                    sock: self.sock.expect("socket"),
                }
            }
            (3, SyscallRet::Depth(d)) => {
                if d > self.watermark {
                    self.stats.borrow_mut().shed += 1;
                    self.reply(STATUS_BUSY)
                } else {
                    self.state = 4;
                    SyscallOp::Compute(self.work)
                }
            }
            (4, SyscallRet::Ok) => {
                self.stats.borrow_mut().served += 1;
                let key = (self.reply_to.expect("reply endpoint"), self.cur_id);
                self.cache_reply(key, STATUS_OK);
                self.reply(STATUS_OK)
            }
            (5, SyscallRet::Sent(_)) | (5, SyscallRet::Err(_)) => self.recv(),
            (2, SyscallRet::Err(_)) => self.recv(),
            (s, r) => panic!("resilient rpc server state {s}: {r:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(seed: u64) -> Vec<u64> {
        let policy = RetryPolicy::patient(seed);
        let mut rng = SplitMix64::new(policy.jitter_seed);
        (1..=8)
            .map(|a| policy.backoff(&mut rng, a).as_nanos())
            .collect()
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn backoff_is_positive_and_capped() {
        let policy = RetryPolicy::patient(42);
        let mut rng = SplitMix64::new(policy.jitter_seed);
        for attempt in 1..=32 {
            let b = policy.backoff(&mut rng, attempt);
            assert!(!b.is_zero());
            assert!(b.as_nanos() <= policy.backoff_cap.as_nanos());
        }
    }

    #[test]
    fn duplicate_request_is_replayed_not_recomputed() {
        let stats: Shared<ServerStats> = Shared::default();
        let mut srv =
            ResilientRpcServer::new(9000, SimDuration::from_micros(100), 4, stats.clone());
        let ctx = AppCtx {
            now: SimTime::ZERO,
            pid: lrp_sched::Pid(1),
        };
        let client = Endpoint::new("10.0.0.9".parse().unwrap(), 7000);
        let mut req = vec![0x3F; 32];
        req[..8].copy_from_slice(&1u64.to_le_bytes());
        // Boot: socket, bind, first recv.
        assert!(matches!(srv.start(ctx), SyscallOp::Socket(_)));
        assert!(matches!(
            srv.resume(ctx, SyscallRet::Socket(SockId(5))),
            SyscallOp::Bind { .. }
        ));
        assert!(matches!(
            srv.resume(ctx, SyscallRet::Ok),
            SyscallOp::Recv { .. }
        ));
        // First copy of request 1: full admission + compute + OK reply.
        assert!(matches!(
            srv.resume(ctx, SyscallRet::DataFrom(client, req.clone().into())),
            SyscallOp::SockDepth { .. }
        ));
        assert!(matches!(
            srv.resume(ctx, SyscallRet::Depth(0)),
            SyscallOp::Compute(_)
        ));
        let reply = srv.resume(ctx, SyscallRet::Ok);
        match &reply {
            SyscallOp::SendTo { data, .. } => assert_eq!(data[8], STATUS_OK),
            other => panic!("expected OK reply, got {other:?}"),
        }
        assert!(matches!(
            srv.resume(ctx, SyscallRet::Sent(9)),
            SyscallOp::Recv { .. }
        ));
        // Duplicate of request 1: replied straight from the cache — no
        // SockDepth, no Compute.
        let replay = srv.resume(ctx, SyscallRet::DataFrom(client, req.into()));
        match &replay {
            SyscallOp::SendTo { data, .. } => assert_eq!(data[8], STATUS_OK),
            other => panic!("expected replayed reply, got {other:?}"),
        }
        let st = stats.borrow();
        assert_eq!(st.served, 1, "compute ran once");
        assert_eq!(st.replayed, 1, "duplicate suppressed");
    }

    #[test]
    fn reply_cache_is_bounded() {
        let stats: Shared<ServerStats> = Shared::default();
        let mut srv = ResilientRpcServer::new(9000, SimDuration::ZERO, 4, stats);
        let client = Endpoint::new("10.0.0.9".parse().unwrap(), 7000);
        for id in 0..(REPLY_CACHE_CAP as u64 + 100) {
            srv.cache_reply((client, id), STATUS_OK);
        }
        assert_eq!(srv.replies.len(), REPLY_CACHE_CAP);
        assert_eq!(srv.reply_order.len(), REPLY_CACHE_CAP);
        // Oldest entries evicted, newest retained.
        assert!(!srv.replies.contains_key(&(client, 0)));
        assert!(srv
            .replies
            .contains_key(&(client, REPLY_CACHE_CAP as u64 + 99)));
    }

    #[test]
    fn backoff_window_grows_exponentially_until_cap() {
        // The windows (upper bounds) double: sample many draws and check
        // the max observed for attempt 1 stays under the base.
        let policy = RetryPolicy::patient(3);
        let mut rng = SplitMix64::new(policy.jitter_seed);
        for _ in 0..100 {
            let b = policy.backoff(&mut rng, 1);
            assert!(b.as_nanos() <= policy.backoff_base.as_nanos());
        }
    }
}
