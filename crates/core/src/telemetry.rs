//! Host telemetry: causal request spans, per-stage latency histograms,
//! the cycle profiler, the metrics timeline and the anomaly watchdog.
//!
//! Everything in this module is *pure observation*. Hooks are called from
//! the host's packet path at logic time; they record into side structures
//! (the span log, [`Histogram`]s and the timeline) and never touch the
//! cost model, the scheduler, queue contents or any RNG —
//! so a run with telemetry enabled is bit-identical, in simulated time and
//! in every statistic, to the same run with it disabled. The determinism
//! goldens in `tests/determinism.rs` enforce this: the experiment builders
//! enable telemetry unconditionally.
//!
//! The frame-disposition ledger ([`PacketLedger`](crate::PacketLedger))
//! is not telemetry's: it is host state, counted whether telemetry
//! records or not, and the timeline and the watchdog read its counters.

use crate::host::Host;
use crate::watchdog::{AnomalyEvent, Watchdog, WatchdogSample};
use lrp_demux::ChannelId;
use lrp_nic::Stamp;
use lrp_sched::{Pid, ProcState};
use lrp_sim::{varint, CycleAccount, CycleKey, Histogram, MetricsTimeline, SimTime, Tally};
use lrp_wire::Frame;
use spanlog::SpanLog;
use std::collections::BTreeMap;
use std::num::NonZeroU64;

mod spanlog;

pub use spanlog::span_chunk_stats;

/// Maximum stored span events per host; further events are counted in
/// [`Telemetry::span_events_dropped`] and discarded.
pub const SPAN_LOG_CAP: usize = 1 << 20;

/// A causal request span identifier. Minted by the world at the traffic
/// injector (`(injector + 1) << 48 | seq`) or by a sending host
/// (`1 << 63 | addr-octet << 48 | seq`), so never 0, and carried beside —
/// never inside — the frame: in the event that brings it, in each queue
/// entry that holds it ([`Stamp`]), in the datagram it delivers, and on
/// the reply.
pub type SpanId = u64;

/// One recorded point on a request span's path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The span this event belongs to.
    pub span: SpanId,
    /// Simulated time, nanoseconds.
    pub t_ns: u64,
    /// Path stage: `inject`, `rx`, `enq`, `deq`, `deliver`, `recv`, `tx`.
    pub stage: &'static str,
    /// CPU the stage ran on (0 for NIC/link stages).
    pub cpu: u32,
}

/// Span path stage names, indexed by the stage codes below.
const SPAN_STAGES: [&str; 7] = ["inject", "rx", "enq", "deq", "deliver", "recv", "tx"];
const SP_INJECT: u8 = 0;
const SP_RX: u8 = 1;
const SP_ENQ: u8 = 2;
const SP_DEQ: u8 = 3;
const SP_DELIVER: u8 = 4;
const SP_RECV: u8 = 5;
const SP_TX: u8 = 6;

/// Column names of the per-host metrics timeline, in recording order.
/// Counter columns are cumulative; `*_depth` and `runq` are gauges.
pub const TIMELINE_COLUMNS: &[&str] = &[
    "delivered_udp",
    "delivered_icmp",
    "tcp_frames",
    "host_dropped",
    "nic_ring_drops",
    "nic_early_discards",
    "ipq_depth",
    "chan_depth",
    "chan_depth_max",
    "runq",
    "charged_ns",
    "tcp_cwnd",
    "tcp_ssthresh",
    "anomalies",
];

/// Per-host telemetry state (see the module docs).
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// NIC arrival → socket-buffer delivery latency (UDP/ICMP), ns.
    pub arrival_to_deliver: Histogram,
    /// Time frames spend queued on NI channels, ns.
    pub channel_residency: Histogram,
    /// Enqueue (IP queue / ED channel) → softirq dispatch delay, ns.
    pub softirq_dispatch: Histogram,
    /// The anomaly watchdog, fed one sample per statclock tick.
    watchdog: Watchdog,
    /// Per process, indexed by raw pid: the span of the last datagram it
    /// received, consumed by its next send — a reply continues the
    /// request's span.
    last_recv_span: Vec<Option<NonZeroU64>>,
    /// Tag prefix for spans minted at this host's send path.
    span_tag: NonZeroU64,
    /// Sequence counter for host-minted spans.
    local_span_seq: u64,
    /// Recorded span events, in time order, coded into chunks from the
    /// thread's pool.
    span_log: SpanLog,
    /// Span events discarded past [`SPAN_LOG_CAP`], or past the log's
    /// time or CPU limit.
    pub span_events_dropped: u64,
    /// The simulated-cycle profiler: every charged chunk attributed to a
    /// `(cpu, context, stage, billed process, account)` key.
    profiler: CycleAccount,
    /// Protocol cycles by `(billed process, rightful receiver)` — the
    /// charge-attribution ledger behind the paper's accounting claim.
    /// Hashed, since the pairs grow with the host's processes; sorted on
    /// export.
    proto_attr: Tally<(Option<u32>, u32)>,
    /// Rightful owner (raw pid) of the protocol work most recently
    /// performed at job-creation time; consumed when its chunk starts.
    pending_proto_owner: Option<u32>,
    /// Interval-sampled metrics timeline (columns: [`TIMELINE_COLUMNS`]).
    timeline: MetricsTimeline,
    /// The per-process CPU series as a change log of varints. Per
    /// timeline row: how many processes existed (the row's width); one
    /// entry for each process charged since the previous row, in pid
    /// order; then a 0. An entry is its pid's step past the previous
    /// entry's (from −1 at the row's start), then the [`varint::put_delta`]
    /// of the pid's total and user charge from its previous entry's.
    /// [`Self::timeline_proc_cpu`] rebuilds the full rows.
    proc_cpu_log: Vec<u8>,
    /// Per pid, the `(total_ns, user_ns)` its last entry logged, as the
    /// reader rebuilds them: what the next entry is coded against.
    proc_cpu_last: Vec<(u64, u64)>,
    /// Statclock-sample scratch, capacity kept across ticks: the pids
    /// charged since the last tick, then the runnable ones.
    tick_pids: Vec<Pid>,
    /// Statclock-sample scratch: the watchdog sample's process list.
    tick_procs: Vec<(u32, bool, u64)>,
}

impl Telemetry {
    /// Creates telemetry state; when `enabled` is false every hook is a
    /// no-op.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            enabled,
            arrival_to_deliver: Histogram::new(),
            channel_residency: Histogram::new(),
            softirq_dispatch: Histogram::new(),
            watchdog: Watchdog::new(),
            last_recv_span: Vec::new(),
            span_tag: NonZeroU64::new(1 << 63).expect("non-zero"),
            local_span_seq: 0,
            span_log: SpanLog::default(),
            span_events_dropped: 0,
            profiler: CycleAccount::new(),
            proto_attr: Tally::default(),
            pending_proto_owner: None,
            timeline: MetricsTimeline::new(TIMELINE_COLUMNS.to_vec()),
            proc_cpu_log: Vec::new(),
            proc_cpu_last: Vec::new(),
            tick_pids: Vec::new(),
            tick_procs: Vec::new(),
        }
    }

    /// True when hooks record.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one span event, bounded by [`SPAN_LOG_CAP`] and by the
    /// time and CPU the log takes.
    fn span_ev(&mut self, now: SimTime, stage: u8, span: Option<NonZeroU64>, cpu: usize) {
        let Some(span) = span else { return };
        if !self.span_log.push(span.get(), now.as_nanos(), cpu, stage) {
            self.span_events_dropped += 1;
        }
    }

    /// A traffic injector minted `span` for a frame bound for this host.
    pub(crate) fn on_span_inject(&mut self, now: SimTime, span: NonZeroU64) {
        if self.enabled {
            self.span_ev(now, SP_INJECT, Some(span), 0);
        }
    }

    /// A frame arrived at the NIC (rx-DMA); `span` is the causal span
    /// riding with the frame.
    pub(crate) fn on_rx(&mut self, now: SimTime, span: Option<NonZeroU64>) {
        if self.enabled {
            self.span_ev(now, SP_RX, span, 0);
        }
    }

    /// A frame entered the BSD shared IP queue or an NI channel (by the
    /// host handler or by NI firmware).
    pub(crate) fn on_enqueue(&mut self, now: SimTime, cpu: usize, span: Option<NonZeroU64>) {
        if self.enabled {
            self.span_ev(now, SP_ENQ, span, cpu);
        }
    }

    /// The softirq took a frame stamped `stamp` off the IP queue:
    /// dispatch-delay sample.
    pub(crate) fn on_ipq_dequeue(&mut self, now: SimTime, cpu: usize, stamp: Stamp) {
        if self.enabled {
            self.softirq_dispatch.record_duration(now - stamp.at);
            self.span_ev(now, SP_DEQ, stamp.span, cpu);
        }
    }

    /// A frame stamped `stamp` left an NI channel for protocol
    /// processing: residency sample.
    pub(crate) fn on_chan_dequeue(&mut self, now: SimTime, cpu: usize, stamp: Stamp) {
        if self.enabled {
            self.channel_residency.record_duration(now - stamp.at);
            self.span_ev(now, SP_DEQ, stamp.span, cpu);
        }
    }

    /// An eager softirq (Early-Demux) dispatched a frame just dequeued
    /// from its channel: the channel residency *is* the dispatch delay.
    pub(crate) fn note_softirq_dispatch(&mut self, now: SimTime, stamp: Stamp) {
        if self.enabled {
            self.softirq_dispatch.record_duration(now - stamp.at);
        }
    }

    /// A datagram (UDP) or message (ICMP) landed in a socket receive
    /// buffer, delivered by a frame stamped `stamp` (`None` when the frame
    /// that completed it is not known).
    pub(crate) fn on_delivered(&mut self, now: SimTime, cpu: usize, stamp: Option<Stamp>) {
        if let Some(stamp) = stamp.filter(|_| self.enabled) {
            self.arrival_to_deliver.record_duration(now - stamp.at);
            self.span_ev(now, SP_DELIVER, stamp.span, cpu);
        }
    }

    /// Whole-host reboot: every process dies, so no later send continues
    /// a span received before it. Unconditional — the table is empty
    /// when telemetry is off.
    pub(crate) fn on_reboot(&mut self) {
        self.last_recv_span.fill(None);
    }

    /// A receive call returned a datagram that `span` delivered to the
    /// application. `pid` is the receiving process; a subsequent send by
    /// it continues this span — unless this host minted the span itself,
    /// in which case the request has come back to its originator, the
    /// round trip is complete, and the next send starts a fresh span
    /// (otherwise a ping-pong session would chain every round into one
    /// giant span).
    pub(crate) fn on_recv(&mut self, now: SimTime, cpu: usize, span: Option<NonZeroU64>, pid: u32) {
        if self.enabled {
            self.span_ev(now, SP_RECV, span, cpu);
            if let Some(s) = span.filter(|s| s.get() >> 48 != self.span_tag.get() >> 48) {
                let pid = pid as usize;
                if pid >= self.last_recv_span.len() {
                    self.last_recv_span.resize(pid + 1, None);
                }
                self.last_recv_span[pid] = Some(s);
            }
        }
    }

    /// Sets the prefix for host-minted spans (from the host address).
    pub(crate) fn set_span_tag(&mut self, tag: NonZeroU64) {
        self.span_tag = tag;
    }

    /// A process is sending a datagram: returns the span to ride on the
    /// outgoing frame. A reply (the process received earlier) continues
    /// the request's span; an originating send mints a fresh one.
    pub(crate) fn on_tx(&mut self, now: SimTime, cpu: usize, pid: u32) -> Option<NonZeroU64> {
        if !self.enabled {
            return None;
        }
        let span = match self
            .last_recv_span
            .get_mut(pid as usize)
            .and_then(Option::take)
        {
            Some(s) => s,
            None => {
                self.local_span_seq += 1;
                self.span_tag | self.local_span_seq
            }
        };
        self.span_ev(now, SP_TX, Some(span), cpu);
        Some(span)
    }

    /// Recorded span events, in time order, decoded as they are read.
    pub fn span_log(&self) -> impl ExactSizeIterator<Item = SpanEvent> + '_ {
        self.span_log.iter()
    }

    /// Protocol work for the socket owned by `owner` was just performed
    /// at job-creation time; the chunk about to start carries this
    /// attribution (consumed by [`Self::take_proto_owner`]).
    pub(crate) fn note_proto_owner(&mut self, owner: u32) {
        if self.enabled {
            self.pending_proto_owner = Some(owner);
        }
    }

    /// Consumes the pending rightful owner for the chunk about to start.
    pub(crate) fn take_proto_owner(&mut self) -> Option<u32> {
        self.pending_proto_owner.take()
    }

    /// The CPU engine settled `ns` nanoseconds of a chunk: feed the
    /// profiler and, when the chunk carried protocol work for a known
    /// receiver, the charge-attribution ledger.
    pub(crate) fn on_cycles(
        &mut self,
        cpu: usize,
        context: &'static str,
        stage: &'static str,
        billed: Option<(u32, &'static str)>,
        owner: Option<u32>,
        ns: u64,
    ) {
        if !self.enabled || ns == 0 {
            return;
        }
        self.profiler.add(
            CycleKey {
                cpu: cpu as u32,
                context,
                stage,
                billed: billed.map(|(pid, _)| pid),
                account: billed.map(|(_, a)| a),
            },
            ns,
        );
        if let Some(owner) = owner {
            self.proto_attr.add((billed.map(|(pid, _)| pid), owner), ns);
        }
    }

    /// The simulated-cycle profiler's accumulated attribution.
    pub fn profiler(&self) -> &CycleAccount {
        &self.profiler
    }

    /// Protocol cycles by `(billed process, rightful receiver)`, in
    /// deterministic key order. `None` billing means the cycles ran with
    /// no process context (charged to nobody — e.g. interrupts taken
    /// while idle).
    pub fn proto_attribution(&self) -> BTreeMap<(Option<u32>, u32), u64> {
        self.proto_attr.iter().collect()
    }

    /// Records one timeline row (values aligned with
    /// [`TIMELINE_COLUMNS`]) plus the per-process CPU changes since the
    /// previous row: `nprocs` processes exist, and `changed` yields
    /// `(pid, total_ns, user_ns)` for each one charged since, in pid
    /// order. A row past the timeline's cap is dropped with its changes.
    pub(crate) fn timeline_push(
        &mut self,
        now: SimTime,
        values: &[u64],
        nprocs: usize,
        changed: impl Iterator<Item = (u32, u64, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        let row = self.timeline.len();
        self.timeline.push(now.as_nanos(), values);
        if self.timeline.len() == row {
            return;
        }
        let log = &mut self.proc_cpu_log;
        varint::put(log, nprocs as u64);
        self.proc_cpu_last.resize(nprocs, (0, 0));
        let mut next = 0;
        for (pid, total_ns, user_ns) in changed {
            varint::put(log, u64::from(pid - next) + 1);
            next = pid + 1;
            let last = &mut self.proc_cpu_last[pid as usize];
            varint::put_delta(log, last.0, total_ns);
            varint::put_delta(log, last.1, user_ns);
            *last = (total_ns, user_ns);
        }
        varint::put(log, 0);
    }

    /// The interval-sampled metrics timeline.
    pub fn timeline(&self) -> &MetricsTimeline {
        &self.timeline
    }

    /// Feeds the anomaly watchdog one statclock-tick sample (no-op when
    /// telemetry is disabled — the watchdog is pure observation).
    pub(crate) fn watchdog_feed(&mut self, now: SimTime, tick_ns: u64, sample: &WatchdogSample) {
        if self.enabled {
            self.watchdog.feed(now.as_nanos(), tick_ns, sample);
        }
    }

    /// Anomalies detected by the watchdog, in detection order.
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        self.watchdog.events()
    }

    /// Total anomaly detections (stored + discarded past the log cap).
    pub fn anomaly_total(&self) -> u64 {
        self.watchdog.total()
    }

    /// Per timeline row: per-process `(total_charged_ns, user_ns)`,
    /// indexed by pid (rows align with [`Self::timeline`]). Rebuilt from
    /// the change log on every call, so an exporter calls it once.
    pub fn timeline_proc_cpu(&self) -> Vec<Vec<(u64, u64)>> {
        let log = &self.proc_cpu_log;
        let mut cur: Vec<(u64, u64)> = Vec::new();
        let mut rows = Vec::with_capacity(self.timeline.len());
        let mut at = 0;
        while at < log.len() {
            cur.resize(varint::get(log, &mut at) as usize, (0, 0));
            let mut next = 0;
            loop {
                let step = varint::get(log, &mut at);
                if step == 0 {
                    break;
                }
                let pid = next + step as usize - 1;
                next = pid + 1;
                let (total, user) = &mut cur[pid];
                *total = varint::get_delta(log, &mut at, *total);
                *user = varint::get_delta(log, &mut at, *user);
            }
            rows.push(cur.clone());
        }
        rows
    }
}

impl Host {
    /// Read access to the telemetry state.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Dequeues a frame and its stamp from an NI channel for protocol
    /// processing, recording channel residency.
    pub(crate) fn chan_dequeue(&mut self, now: SimTime, chan: ChannelId) -> Option<(Frame, Stamp)> {
        let mut ch = self.nic.channel_mut(chan);
        let (frame, stamp) = ch.dequeue()?;
        if ch.is_empty() {
            self.note_chan_empty(chan);
        }
        self.tele.on_chan_dequeue(now, self.cur_cpu, stamp);
        Some((frame, stamp))
    }

    /// Records one metrics-timeline sample (driven from the statclock
    /// tick, after [`Host::refresh_cwnd_gauge`]): cumulative ledger
    /// counters, queue-depth gauges, run-queue length and the processes
    /// charged since the last tick. Pure observation; costs the processes
    /// runnable or charged, not the process count.
    pub(crate) fn sample_timeline(&mut self, now: SimTime) {
        if !self.tele.enabled() {
            return;
        }
        let nic = self.nic.stats();
        let host_dropped = self.ledger_dropped();
        let (chan_depth, chan_depth_max) = self.nic.channel_depths();
        // `pids` holds the charged processes in pid order, then the
        // runnable ones; the watchdog sees both, the change log the first.
        let mut pids = std::mem::take(&mut self.tele.tick_pids);
        self.sched.take_charged(&mut pids);
        pids.sort_unstable();
        let charged = pids.len();
        self.sched.runnable_into(&mut pids);
        let mut procs = std::mem::take(&mut self.tele.tick_procs);
        procs.clear();
        procs.extend(pids.iter().map(|&pid| {
            let p = self.sched.proc_ref(pid);
            let runnable = matches!(p.state, ProcState::Runnable | ProcState::Running);
            (pid.0, runnable, p.acct.total().as_nanos())
        }));
        // A pid on both lists yields two equal tuples.
        procs.sort_unstable();
        procs.dedup();
        // Feed the watchdog before recording the row so the row's
        // cumulative `anomalies` column includes this tick's detections.
        let sample = WatchdogSample {
            delivered: self.stats.udp_delivered
                + self.ledger.delivered_icmp
                + self.ledger.tcp_frames,
            dropped: host_dropped + nic.ring_drops + nic.early_discards + nic.stall_drops,
            charged_ns: self.sched.total_charged().as_nanos(),
            user_ns: self.sched.total_user().as_nanos(),
            ipq_depth: self.ip_queue.len() as u64,
            ipq_limit: crate::host::IP_QUEUE_LIMIT as u64,
            chan_depth_max: chan_depth_max as u64,
            chan_limit: self.cfg.channel_limit as u64,
            procs,
        };
        self.tele
            .watchdog_feed(now, crate::config::TICK.as_nanos(), &sample);
        // Congestion-window gauges: the widest live connection's view
        // (cc_sweep plots per-controller cwnd evolution from these).
        let (tcp_cwnd, tcp_ssthresh) = self.cwnd_max;
        let values = [
            self.stats.udp_delivered,
            self.ledger.delivered_icmp,
            self.ledger.tcp_frames,
            host_dropped,
            nic.ring_drops,
            nic.early_discards,
            self.ip_queue.len() as u64,
            chan_depth as u64,
            chan_depth_max as u64,
            self.sched.runnable_count() as u64,
            self.sched.total_charged().as_nanos(),
            tcp_cwnd,
            tcp_ssthresh,
            self.tele.anomaly_total(),
        ];
        let sched = &self.sched;
        let changed = pids[..charged].iter().map(|&pid| {
            let acct = sched.accounting(pid);
            (pid.0, acct.total().as_nanos(), acct.user.as_nanos())
        });
        self.tele
            .timeline_push(now, &values, sched.procs().len(), changed);
        self.tele.tick_pids = pids;
        self.tele.tick_procs = sample.procs;
    }

    /// The world minted `span` for an injected frame bound for this host.
    pub(crate) fn note_injected_span(&mut self, now: SimTime, span: NonZeroU64) {
        self.tele.on_span_inject(now, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_sim::SplitMix64;

    /// The span log, the host's one per-packet record, keeps the first
    /// `SPAN_LOG_CAP` events and counts every one it turns away.
    #[test]
    fn span_log_is_bounded() {
        let mut tele = Telemetry::new(true);
        for i in 1..=SPAN_LOG_CAP as u64 + 3 {
            tele.on_span_inject(SimTime::from_nanos(i), NonZeroU64::new(i).unwrap());
        }
        let log = tele.span_log();
        assert_eq!(log.len(), SPAN_LOG_CAP);
        assert_eq!(tele.span_events_dropped, 3);
        assert_eq!(log.last().unwrap().span, SPAN_LOG_CAP as u64);
    }

    /// The log's limits: the last time and CPU it takes come back
    /// exactly, and an event past either is counted, not stored.
    #[test]
    fn span_events_round_trip_at_the_packing_limits() {
        use spanlog::{CPU_LIMIT, T_LIMIT};
        let mut tele = Telemetry::new(true);
        let last = SimTime::from_nanos(T_LIMIT - 1);
        tele.span_ev(last, SP_TX, NonZeroU64::new(u64::MAX), CPU_LIMIT - 1);
        tele.span_ev(SimTime::from_nanos(T_LIMIT), SP_TX, NonZeroU64::new(1), 0);
        tele.span_ev(SimTime::ZERO, SP_TX, NonZeroU64::new(2), CPU_LIMIT);
        let want = SpanEvent {
            span: u64::MAX,
            t_ns: (1 << 55) - 1,
            stage: "tx",
            cpu: 63,
        };
        assert!(tele.span_log().eq([want]));
        assert_eq!(tele.span_events_dropped, 2);
    }

    /// Synthetic ticks through the change log, against a model that
    /// stores every process in every row, as the series once was kept:
    /// processes spawn mid-run, some ticks charge nobody, and the rows
    /// past a small cap are dropped.
    #[test]
    fn proc_cpu_change_log_rebuilds_full_rows() {
        const CAP: usize = 40;
        let mut tele = Telemetry::new(true);
        tele.timeline = MetricsTimeline::with_cap(TIMELINE_COLUMNS.to_vec(), CAP);
        let mut rng = SplitMix64::new(5);
        let mut acct: Vec<(u64, u64)> = vec![(0, 0); 2];
        let mut model = Vec::new();
        for tick in 0..60u64 {
            if tick % 7 == 3 {
                acct.push((0, 0));
            }
            let mut changed = Vec::new();
            if !(10..15).contains(&tick) {
                for (pid, a) in acct.iter_mut().enumerate() {
                    if rng.next_bool(0.3) {
                        // Zero-length charges included.
                        let (user, other) = (rng.next_below(3) * 50, rng.next_below(100));
                        *a = (a.0 + user + other, a.1 + user);
                        changed.push((pid as u32, a.0, a.1));
                    }
                }
            }
            let values = vec![tick; TIMELINE_COLUMNS.len()];
            let now = SimTime::from_millis(10 * tick);
            tele.timeline_push(now, &values, acct.len(), changed.into_iter());
            if model.len() < CAP {
                model.push(acct.clone());
            }
        }
        assert_eq!(tele.timeline().len(), CAP);
        assert_eq!(tele.timeline().dropped(), 20);
        assert_eq!(tele.timeline_proc_cpu(), model);
    }
}
