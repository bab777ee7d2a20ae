//! Host telemetry: causal request spans, per-stage latency histograms,
//! and a frame-disposition ledger for the packet-conservation self-check.
//!
//! Everything in this module is *pure observation*. Hooks are called from
//! the host's packet path at logic time; they record into side structures
//! (the span log, [`Histogram`]s, counters and timestamp sidecars) and
//! never touch the cost model, the scheduler, queue contents or any RNG —
//! so a run with telemetry enabled is bit-identical, in simulated time and
//! in every statistic, to the same run with it disabled. The determinism
//! goldens in `tests/determinism.rs` enforce this: the experiment builders
//! enable telemetry unconditionally.
//!
//! # The disposition ledger
//!
//! Every frame the NIC accepts from the link ends in exactly one bucket:
//!
//! * dropped on the NIC (ring overrun or early discard — NIC statistics);
//! * still queued (RX ring, an NI channel, or the shared IP queue);
//! * delivered (UDP datagram or ICMP message into a socket buffer);
//! * consumed by TCP input processing (segments are not 1:1 with
//!   user-visible deliveries, so TCP is accounted at frame granularity);
//! * handed to IP forwarding, counted-and-ignored ARP, absorbed by the
//!   fragment reassembler, or flushed when a channel was destroyed;
//! * dropped in the host ([`DropPoint`] granularity).
//!
//! [`Host::packet_ledger`] assembles the buckets;
//! [`PacketLedger::conserved`] checks that they sum back to the accepted
//! count. Experiments run this self-check at the end of every run.

use crate::host::{DropPoint, Host};
use crate::watchdog::{AnomalyEvent, Watchdog, WatchdogSample};
use lrp_demux::ChannelId;
use lrp_sched::{Pid, ProcState};
use lrp_sim::{CycleAccount, CycleKey, FastHashMap, Histogram, MetricsTimeline, SimTime};
use lrp_wire::Frame;
use std::collections::{BTreeMap, VecDeque};

/// Maximum stored span events per host; further events are counted in
/// [`Telemetry::span_events_dropped`] and discarded.
pub const SPAN_LOG_CAP: usize = 1 << 20;

/// A causal request span identifier. Minted by the world at the traffic
/// injector (`(injector + 1) << 48 | seq`) or by a sending host
/// (`1 << 63 | addr-octet << 48 | seq`), and carried alongside — never
/// inside — the frame through NIC, queues, sockets and replies.
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

/// Span path stage names, indexed by the packed stage byte.
const SPAN_STAGES: [&str; 7] = ["inject", "rx", "enq", "deq", "deliver", "recv", "tx"];
const SP_INJECT: u8 = 0;
const SP_RX: u8 = 1;
const SP_ENQ: u8 = 2;
const SP_DEQ: u8 = 3;
const SP_DELIVER: u8 = 4;
const SP_RECV: u8 = 5;
const SP_TX: u8 = 6;

/// In-memory form of one span event: 24 bytes instead of [`SpanEvent`]'s
/// 32. The span log takes several entries per packet on the hot path, so
/// the packing is a measurable slice of the telemetry overhead budget;
/// [`Telemetry::span_log`] unpacks on export.
#[derive(Clone, Copy, Debug)]
struct PackedSpanEvent {
    span: SpanId,
    t_ns: u64,
    cpu: u16,
    stage: u8,
}

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

/// One entry of the per-process CPU change log: `pid`'s cumulative
/// charges as of timeline row `row`.
#[derive(Clone, Copy, Debug)]
struct ProcCpuChange {
    row: u32,
    pid: u32,
    total_ns: u64,
    user_ns: u64,
}

/// The slot for dense id `i` in a sidecar indexed by id, grown to reach
/// it.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

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
    /// Enqueue timestamps + spans paralleling the BSD IP queue (FIFO,
    /// tail-drop before enqueue — mirrors the frame queue exactly).
    ipq_ts: VecDeque<(SimTime, Option<SpanId>)>,
    /// Enqueue timestamps + spans paralleling each NI channel's frame
    /// queue, indexed by `ChannelId` (the NIC reuses the lowest free id,
    /// so a destroyed channel's slot is emptied, not freed).
    chan_ts: Vec<VecDeque<(SimTime, Option<SpanId>)>>,
    /// NIC arrival time of the frame most recently dequeued for protocol
    /// processing (consumed by the delivery hook).
    cur_arrival: Option<SimTime>,
    /// Span of the frame most recently dequeued for protocol processing.
    cur_span: Option<SpanId>,
    /// Spans paralleling each socket's receive queue, indexed by raw
    /// sock id (pushed at delivery, popped at recv).
    sock_spans: Vec<VecDeque<Option<SpanId>>>,
    /// Spans paralleling the NIC interface (transmit) queue.
    ifq_spans: VecDeque<Option<SpanId>>,
    /// Per process, indexed by raw pid: the span of the last datagram it
    /// received, consumed by its next send — a reply continues the
    /// request's span.
    last_recv_span: Vec<Option<SpanId>>,
    /// Tag prefix for spans minted at this host's send path.
    span_tag: SpanId,
    /// Sequence counter for host-minted spans.
    local_span_seq: u64,
    /// Recorded span events, in time order (packed; unpacked on export).
    span_log: Vec<PackedSpanEvent>,
    /// Span events discarded past [`SPAN_LOG_CAP`].
    pub span_events_dropped: u64,
    /// The simulated-cycle profiler: every charged chunk attributed to a
    /// `(cpu, context, stage, billed process, account)` key.
    profiler: CycleAccount,
    /// Protocol cycles by `(billed process, rightful receiver)` — the
    /// charge-attribution ledger behind the paper's accounting claim.
    /// Hashed, since the pairs grow with the host's processes; sorted on
    /// export.
    proto_attr: FastHashMap<(Option<u32>, u32), u64>,
    /// Rightful owner (raw pid) of the protocol work most recently
    /// performed at job-creation time; consumed when its chunk starts.
    pending_proto_owner: Option<u32>,
    /// Interval-sampled metrics timeline (columns: [`TIMELINE_COLUMNS`]).
    timeline: MetricsTimeline,
    /// The per-process CPU series as a change log: per timeline row, one
    /// entry for each process charged since the previous row, in pid
    /// order. [`Self::timeline_proc_cpu`] rebuilds the full rows.
    proc_cpu_log: Vec<ProcCpuChange>,
    /// Per timeline row: how many processes existed (the row's width).
    proc_cpu_width: Vec<u32>,
    /// Statclock-sample scratch, capacity kept across ticks: the pids
    /// charged since the last tick, then the runnable ones.
    tick_pids: Vec<Pid>,
    /// Statclock-sample scratch: the watchdog sample's process list.
    tick_procs: Vec<(u32, bool, u64)>,
    /// UDP datagrams delivered into socket buffers (frames).
    pub delivered_udp: u64,
    /// ICMP messages delivered to the proxy daemon's raw socket.
    pub delivered_icmp: u64,
    /// Frames consumed by TCP input processing.
    pub tcp_frames: u64,
    /// Frames handed to IP forwarding (transmitted or dropped there).
    pub forwarded: u64,
    /// ARP frames counted and ignored.
    pub arp_frames: u64,
    /// Fragment frames absorbed by the reassembler without (yet)
    /// completing a datagram, plus non-reassemblable channel drainage.
    pub reasm_absorbed: u64,
    /// Fragment frames discarded when their reassembly flow expired
    /// (moved out of `reasm_absorbed` at expiry time).
    pub reasm_expired: u64,
    /// Frames discarded because their channel was destroyed.
    pub flushed: u64,
    /// Frames discarded because their owning process crashed while they
    /// were queued on its NI channel (distinct from `flushed`: an orderly
    /// close vs. a dead receiver).
    pub owner_dead: u64,
    /// Frames lost to a whole-host reboot while queued in the NIC
    /// receive rings, NI channels or the shared IP queue (distinct from
    /// `owner_dead`: the entire kernel died, not one receiver).
    pub reboot_flushed: u64,
    /// Handshake ACKs whose SYN cookie validated (moved out of
    /// `tcp_frames` — the frame's terminal disposition is the stateless
    /// connection establishment it performed).
    pub cookie_validated: u64,
    /// Handshake ACKs whose SYN cookie failed validation (stale or
    /// forged; moved out of `tcp_frames`).
    pub cookie_rejected: u64,
    /// Host-side frame drops by location.
    pub host_drops: FastHashMap<DropPoint, u64>,
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
            ipq_ts: VecDeque::new(),
            chan_ts: Vec::new(),
            cur_arrival: None,
            cur_span: None,
            sock_spans: Vec::new(),
            ifq_spans: VecDeque::new(),
            last_recv_span: Vec::new(),
            span_tag: 1 << 63,
            local_span_seq: 0,
            span_log: Vec::new(),
            span_events_dropped: 0,
            profiler: CycleAccount::new(),
            proto_attr: FastHashMap::default(),
            pending_proto_owner: None,
            timeline: MetricsTimeline::new(TIMELINE_COLUMNS.to_vec()),
            proc_cpu_log: Vec::new(),
            proc_cpu_width: Vec::new(),
            tick_pids: Vec::new(),
            tick_procs: Vec::new(),
            delivered_udp: 0,
            delivered_icmp: 0,
            tcp_frames: 0,
            forwarded: 0,
            arp_frames: 0,
            reasm_absorbed: 0,
            reasm_expired: 0,
            flushed: 0,
            owner_dead: 0,
            reboot_flushed: 0,
            cookie_validated: 0,
            cookie_rejected: 0,
            host_drops: FastHashMap::default(),
        }
    }

    /// True when hooks record.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one span event, bounded by [`SPAN_LOG_CAP`].
    fn span_ev(&mut self, now: SimTime, stage: u8, span: Option<SpanId>, cpu: usize) {
        let Some(span) = span else { return };
        if self.span_log.len() >= SPAN_LOG_CAP {
            self.span_events_dropped += 1;
            return;
        }
        self.span_log.push(PackedSpanEvent {
            span,
            t_ns: now.as_nanos(),
            cpu: cpu as u16,
            stage,
        });
    }

    /// A traffic injector minted `span` for a frame bound for this host.
    pub(crate) fn on_span_inject(&mut self, now: SimTime, span: SpanId) {
        if self.enabled {
            self.span_ev(now, SP_INJECT, Some(span), 0);
        }
    }

    /// A frame arrived at the NIC (rx-DMA); `span` is the causal span
    /// riding with the frame.
    pub(crate) fn on_rx(&mut self, now: SimTime, span: Option<SpanId>) {
        if self.enabled {
            self.span_ev(now, SP_RX, span, 0);
        }
    }

    /// A host-side frame drop, counted in the ledger.
    pub(crate) fn on_drop(&mut self, p: DropPoint) {
        if self.enabled {
            *self.host_drops.entry(p).or_insert(0) += 1;
        }
    }

    /// A frame entered the BSD shared IP queue.
    pub(crate) fn on_ipq_enqueue(&mut self, now: SimTime, span: Option<SpanId>) {
        if self.enabled {
            self.ipq_ts.push_back((now, span));
            self.span_ev(now, SP_ENQ, span, 0);
        }
    }

    /// The softirq took a frame off the IP queue: dispatch-delay sample
    /// and arrival bookkeeping.
    pub(crate) fn on_ipq_dequeue(&mut self, now: SimTime, cpu: usize) {
        if self.enabled {
            if let Some((t, span)) = self.ipq_ts.pop_front() {
                self.softirq_dispatch.record_duration(now - t);
                self.cur_arrival = Some(t);
                self.cur_span = span;
                self.span_ev(now, SP_DEQ, span, cpu);
            }
        }
    }

    /// A frame was enqueued on an NI channel (by the host handler or by
    /// NI firmware).
    pub(crate) fn on_chan_enqueue(
        &mut self,
        now: SimTime,
        cpu: usize,
        chan: ChannelId,
        span: Option<SpanId>,
    ) {
        if self.enabled {
            slot(&mut self.chan_ts, chan.0 as usize).push_back((now, span));
            self.span_ev(now, SP_ENQ, span, cpu);
        }
    }

    /// A frame left an NI channel for protocol processing: residency
    /// sample and arrival bookkeeping.
    pub(crate) fn on_chan_dequeue(&mut self, now: SimTime, cpu: usize, chan: ChannelId) {
        if self.enabled {
            let ts = self.chan_ts.get_mut(chan.0 as usize);
            if let Some((t, span)) = ts.and_then(|q| q.pop_front()) {
                self.channel_residency.record_duration(now - t);
                self.cur_arrival = Some(t);
                self.cur_span = span;
                self.span_ev(now, SP_DEQ, span, cpu);
            }
        }
    }

    /// An eager softirq (Early-Demux) dispatched the just-dequeued frame:
    /// the channel residency *is* the dispatch delay.
    pub(crate) fn note_softirq_dispatch(&mut self, now: SimTime) {
        if self.enabled {
            if let Some(arr) = self.cur_arrival {
                self.softirq_dispatch.record_duration(now - arr);
            }
        }
    }

    /// A UDP datagram landed in a socket receive buffer.
    pub(crate) fn on_udp_delivered(&mut self, now: SimTime, cpu: usize, sock: u64) {
        if self.enabled {
            self.delivered_udp += 1;
            if let Some(arr) = self.cur_arrival.take() {
                self.arrival_to_deliver.record_duration(now - arr);
            }
            let span = self.cur_span.take();
            slot(&mut self.sock_spans, sock as usize).push_back(span);
            self.span_ev(now, SP_DELIVER, span, cpu);
        }
    }

    /// An ICMP message landed in the proxy daemon's raw socket.
    pub(crate) fn on_icmp_delivered(&mut self, now: SimTime, cpu: usize) {
        if self.enabled {
            self.delivered_icmp += 1;
            if let Some(arr) = self.cur_arrival.take() {
                self.arrival_to_deliver.record_duration(now - arr);
            }
            let span = self.cur_span.take();
            self.span_ev(now, SP_DELIVER, span, cpu);
        }
    }

    /// A frame entered TCP input processing.
    pub(crate) fn on_tcp_frame(&mut self) {
        if self.enabled {
            self.tcp_frames += 1;
            self.cur_arrival = None;
            self.cur_span = None;
        }
    }

    /// A frame was handed to IP forwarding.
    pub(crate) fn on_forwarded(&mut self) {
        if self.enabled {
            self.forwarded += 1;
            self.cur_arrival = None;
            self.cur_span = None;
        }
    }

    /// An ARP frame was counted and ignored.
    pub(crate) fn on_arp(&mut self) {
        if self.enabled {
            self.arp_frames += 1;
            self.cur_arrival = None;
            self.cur_span = None;
        }
    }

    /// A fragment was absorbed by the reassembler (or unparseable channel
    /// drainage was discarded).
    pub(crate) fn on_reasm_absorbed(&mut self) {
        if self.enabled {
            self.reasm_absorbed += 1;
            self.cur_arrival = None;
            self.cur_span = None;
        }
    }

    /// A reassembly flow expired holding `frames` absorbed fragments:
    /// re-attribute them from the absorbed bucket to the expired bucket.
    pub(crate) fn on_reasm_expired(&mut self, frames: u64) {
        if self.enabled && frames > 0 {
            debug_assert!(
                self.reasm_absorbed >= frames,
                "expired more fragments than were absorbed"
            );
            self.reasm_absorbed = self.reasm_absorbed.saturating_sub(frames);
            self.reasm_expired += frames;
        }
    }

    /// A channel was destroyed with `n` frames still queued.
    pub(crate) fn on_chan_flush(&mut self, chan: ChannelId, n: usize) {
        if self.enabled {
            self.flushed += n as u64;
            self.clear_chan_ts(chan);
        }
    }

    /// A crashed process's channel was unmapped with `n` frames still
    /// queued: they died with their owner.
    pub(crate) fn on_chan_owner_dead(&mut self, chan: ChannelId, n: usize) {
        if self.enabled {
            self.owner_dead += n as u64;
            self.clear_chan_ts(chan);
        }
    }

    fn clear_chan_ts(&mut self, chan: ChannelId) {
        if let Some(q) = self.chan_ts.get_mut(chan.0 as usize) {
            q.clear();
        }
    }

    /// A SYN was dropped at a full listen backlog *after* entering TCP
    /// input: re-attribute its frame from the TCP bucket to the
    /// backlog-overflow drop bucket (mirrors the reassembly-expiry
    /// re-attribution — the ledger stays conserved).
    pub(crate) fn on_backlog_drop(&mut self) {
        if self.enabled {
            debug_assert!(self.tcp_frames > 0, "backlog drop outside TCP input");
            self.tcp_frames = self.tcp_frames.saturating_sub(1);
            *self.host_drops.entry(DropPoint::Backlog).or_insert(0) += 1;
        }
    }

    /// A handshake ACK's SYN cookie validated and established a
    /// connection statelessly: re-attribute the frame from the TCP
    /// bucket to its own disposition (same pattern as
    /// [`Self::on_backlog_drop`]).
    pub(crate) fn on_cookie_validated(&mut self) {
        if self.enabled {
            debug_assert!(self.tcp_frames > 0, "cookie ACK outside TCP input");
            self.tcp_frames = self.tcp_frames.saturating_sub(1);
            self.cookie_validated += 1;
        }
    }

    /// A handshake ACK's SYN cookie failed validation (stale, forged, or
    /// a bare ACK sprayed at the listener): re-attribute the frame from
    /// the TCP bucket to the rejected-cookie disposition.
    pub(crate) fn on_cookie_rejected(&mut self) {
        if self.enabled {
            debug_assert!(self.tcp_frames > 0, "cookie ACK outside TCP input");
            self.tcp_frames = self.tcp_frames.saturating_sub(1);
            self.cookie_rejected += 1;
        }
    }

    /// Whole-host reboot: `n` frames that were sitting in NIC receive
    /// rings, an NI channel, or the shared IP queue die with the kernel.
    pub(crate) fn on_reboot_flush(&mut self, n: u64) {
        if self.enabled {
            self.reboot_flushed += n;
        }
    }

    /// Whole-host reboot: drop every queue sidecar in lockstep with the
    /// queues themselves (rings, channels, IP queue, transmit queue,
    /// reply-span associations). Socket sidecars are cleared socket by
    /// socket through [`Self::on_sock_close`]. Unconditional — the
    /// sidecars are empty when telemetry is off, so this is a no-op then.
    pub(crate) fn on_reboot_clear_sidecars(&mut self) {
        self.ipq_ts.clear();
        self.chan_ts.iter_mut().for_each(VecDeque::clear);
        self.ifq_spans.clear();
        self.last_recv_span.fill(None);
        self.cur_arrival = None;
        self.cur_span = None;
    }

    /// A receive call returned data to the application. `pid` is the
    /// receiving process; a subsequent send by it continues this span —
    /// unless this host minted the span itself, in which case the
    /// request has come back to its originator, the round trip is
    /// complete, and the next send starts a fresh span (otherwise a
    /// ping-pong session would chain every round into one giant span).
    pub(crate) fn on_recv(&mut self, now: SimTime, cpu: usize, sock: u64, pid: u32) {
        if self.enabled {
            let spans = self.sock_spans.get_mut(sock as usize);
            if let Some(span) = spans.and_then(|q| q.pop_front()) {
                self.span_ev(now, SP_RECV, span, cpu);
                if let Some(s) = span {
                    if s >> 48 != self.span_tag >> 48 {
                        *slot(&mut self.last_recv_span, pid as usize) = Some(s);
                    }
                }
            }
        }
    }

    /// A socket is being freed: drop its span sidecar (any still-queued
    /// datagrams' spans end here). Socket ids are never reused, so the
    /// slot's storage goes too.
    pub(crate) fn on_sock_close(&mut self, sock: u64) {
        if let Some(q) = self.sock_spans.get_mut(sock as usize) {
            *q = VecDeque::new();
        }
    }

    /// Sets the prefix for host-minted spans (from the host address).
    pub(crate) fn set_span_tag(&mut self, tag: SpanId) {
        self.span_tag = tag;
    }

    /// A process is sending a datagram: returns the span to ride on the
    /// outgoing frame. A reply (the process received earlier) continues
    /// the request's span; an originating send mints a fresh one.
    pub(crate) fn on_tx(&mut self, now: SimTime, cpu: usize, pid: u32) -> Option<SpanId> {
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

    /// A frame entered the NIC interface (transmit) queue: keep the span
    /// sidecar aligned. Call only on successful enqueue.
    pub(crate) fn on_ifq_enqueue(&mut self, span: Option<SpanId>) {
        if self.enabled {
            self.ifq_spans.push_back(span);
        }
    }

    /// The world took a frame off the interface queue for transmission:
    /// pop the riding span.
    pub(crate) fn ifq_pop_span(&mut self) -> Option<SpanId> {
        self.ifq_spans.pop_front().flatten()
    }

    /// Recorded span events, in time order (unpacked from the compact
    /// in-memory form).
    pub fn span_log(&self) -> Vec<SpanEvent> {
        self.span_log
            .iter()
            .map(|p| SpanEvent {
                span: p.span,
                t_ns: p.t_ns,
                stage: SPAN_STAGES[p.stage as usize],
                cpu: p.cpu as u32,
            })
            .collect()
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
            let key = (billed.map(|(pid, _)| pid), owner);
            *self.proto_attr.entry(key).or_insert(0) += ns;
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
        self.proto_attr.iter().map(|(&k, &v)| (k, v)).collect()
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
        if self.timeline.len() > row {
            self.proc_cpu_width.push(nprocs as u32);
            let row = row as u32;
            self.proc_cpu_log
                .extend(changed.map(|(pid, total_ns, user_ns)| ProcCpuChange {
                    row,
                    pid,
                    total_ns,
                    user_ns,
                }));
        }
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
        let mut cur = Vec::new();
        let mut log = self.proc_cpu_log.iter().peekable();
        let mut rows = Vec::with_capacity(self.proc_cpu_width.len());
        for (row, &width) in self.proc_cpu_width.iter().enumerate() {
            cur.resize(width as usize, (0, 0));
            while let Some(c) = log.next_if(|c| c.row as usize == row) {
                cur[c.pid as usize] = (c.total_ns, c.user_ns);
            }
            rows.push(cur.clone());
        }
        rows
    }

    /// Host-side drop count at a point.
    pub fn host_dropped(&self, p: DropPoint) -> u64 {
        self.host_drops.get(&p).copied().unwrap_or(0)
    }
}

/// The frame-disposition ledger: where every accepted frame ended up.
///
/// Produced by [`Host::packet_ledger`]; meaningful only when the host ran
/// with [`HostConfig::telemetry`](crate::HostConfig) enabled.
#[derive(Clone, Debug)]
pub struct PacketLedger {
    /// Frames the NIC accepted from the link.
    pub accepted: u64,
    /// Dropped at the NIC receive ring.
    pub nic_ring_drops: u64,
    /// Discarded early by NI-demux firmware.
    pub nic_early_discards: u64,
    /// Dropped by an injected NIC receive stall (device fault).
    pub nic_stall_drops: u64,
    /// Still queued (RX rings + NI channels + IP queue).
    pub in_flight: u64,
    /// UDP datagrams delivered into socket buffers.
    pub delivered_udp: u64,
    /// ICMP messages delivered.
    pub delivered_icmp: u64,
    /// Frames consumed by TCP input processing.
    pub tcp_frames: u64,
    /// Frames handed to IP forwarding.
    pub forwarded: u64,
    /// ARP frames counted and ignored.
    pub arp_frames: u64,
    /// Fragments absorbed by reassembly.
    pub reasm_absorbed: u64,
    /// Fragment frames discarded by reassembly-flow expiry.
    pub reasm_expired: u64,
    /// Frames flushed at channel destruction.
    pub flushed: u64,
    /// Frames that died with their crashed owner (channel unmapped at
    /// process-crash teardown).
    pub owner_dead: u64,
    /// Frames lost in queues (rings/channels/IP queue) to a whole-host
    /// reboot.
    pub reboot_flushed: u64,
    /// Handshake ACKs consumed by successful SYN-cookie validation.
    pub cookie_validated: u64,
    /// Handshake ACKs rejected by SYN-cookie validation.
    pub cookie_rejected: u64,
    /// Host-side drops, sorted by drop-point name.
    pub host_drops: Vec<(&'static str, u64)>,
}

impl PacketLedger {
    /// Total host-side drops.
    pub fn host_dropped(&self) -> u64 {
        self.host_drops.iter().map(|(_, n)| n).sum()
    }

    /// Sum of all disposition buckets.
    pub fn disposed(&self) -> u64 {
        self.nic_ring_drops
            + self.nic_early_discards
            + self.nic_stall_drops
            + self.in_flight
            + self.delivered_udp
            + self.delivered_icmp
            + self.tcp_frames
            + self.forwarded
            + self.arp_frames
            + self.reasm_absorbed
            + self.reasm_expired
            + self.flushed
            + self.owner_dead
            + self.reboot_flushed
            + self.cookie_validated
            + self.cookie_rejected
            + self.host_dropped()
    }

    /// The DESIGN §7 packet-conservation invariant: every accepted frame
    /// is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.accepted == self.disposed()
    }
}

impl Host {
    /// Read access to the telemetry state.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Assembles the frame-disposition ledger (see [`PacketLedger`]).
    pub fn packet_ledger(&self) -> PacketLedger {
        let nic = self.nic.stats();
        let in_flight = (self.nic.ring_depth() + self.nic.channel_depth_total()) as u64
            + self.ip_queue.len() as u64;
        let mut host_drops: Vec<(&'static str, u64)> = self
            .tele
            .host_drops
            .iter()
            .map(|(p, n)| (p.name(), *n))
            .collect();
        host_drops.sort_unstable();
        PacketLedger {
            accepted: nic.rx_frames,
            nic_ring_drops: nic.ring_drops,
            nic_early_discards: nic.early_discards,
            nic_stall_drops: nic.stall_drops,
            in_flight,
            delivered_udp: self.tele.delivered_udp,
            delivered_icmp: self.tele.delivered_icmp,
            tcp_frames: self.tele.tcp_frames,
            forwarded: self.tele.forwarded,
            arp_frames: self.tele.arp_frames,
            reasm_absorbed: self.tele.reasm_absorbed,
            reasm_expired: self.tele.reasm_expired,
            flushed: self.tele.flushed,
            owner_dead: self.tele.owner_dead,
            reboot_flushed: self.tele.reboot_flushed,
            cookie_validated: self.tele.cookie_validated,
            cookie_rejected: self.tele.cookie_rejected,
            host_drops,
        }
    }

    /// Dequeues a frame from an NI channel, recording channel residency.
    /// The single choke point for channel dequeues keeps the telemetry
    /// timestamp sidecars aligned with the frame queues.
    pub(crate) fn chan_dequeue(&mut self, now: SimTime, chan: ChannelId) -> Option<Frame> {
        let ch = self.nic.channel_mut(chan);
        let f = ch.dequeue();
        if f.is_some() {
            if ch.is_empty() {
                self.note_chan_empty(chan);
            }
            let cpu = self.cur_cpu;
            self.tele.on_chan_dequeue(now, cpu, chan);
        }
        f
    }

    /// Destroys an NI channel, accounting any still-queued frames as
    /// flushed.
    pub(crate) fn destroy_channel_flushed(&mut self, chan: ChannelId) {
        let n = self.nic.channel(chan).depth();
        self.tele.on_chan_flush(chan, n);
        self.note_chan_empty(chan);
        self.nic.destroy_channel(chan);
    }

    /// Destroys a crashed process's NI channel, accounting any
    /// still-queued frames to the `owner_dead` bucket.
    pub(crate) fn destroy_channel_owner_dead(&mut self, chan: ChannelId) {
        let n = self.nic.channel(chan).depth();
        self.tele.on_chan_owner_dead(chan, n);
        self.note_chan_empty(chan);
        self.nic.destroy_channel(chan);
    }

    /// Whole-host reboot: drains one NI channel's still-queued frames
    /// into the `reboot_flushed` bucket without destroying the channel
    /// (per-socket channels are destroyed by the socket teardown that
    /// follows; the fragment and proxy channels are permanent and merely
    /// emptied). Returns the number of frames flushed.
    pub(crate) fn reboot_flush_channel(&mut self, chan: ChannelId) -> u64 {
        let mut n = 0u64;
        while self.nic.channel_mut(chan).dequeue().is_some() {
            n += 1;
        }
        self.note_chan_empty(chan);
        self.tele.on_reboot_flush(n);
        n
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
        let host_dropped = self.tele.host_drops.values().sum::<u64>();
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
            delivered: self.tele.delivered_udp + self.tele.delivered_icmp + self.tele.tcp_frames,
            dropped: host_dropped + nic.ring_drops + nic.early_discards + nic.stall_drops,
            charged_ns: self.sched.total_charged().as_nanos(),
            user_ns: self.sched.total_user().as_nanos(),
            ipq_depth: self.ip_queue.len() as u64,
            ipq_limit: self.cfg.ip_queue_limit as u64,
            chan_depth_max: chan_depth_max as u64,
            chan_limit: self.cfg.channel_limit as u64,
            procs,
        };
        self.tele
            .watchdog_feed(now, self.cfg.tick.as_nanos(), &sample);
        // Congestion-window gauges: the widest live connection's view
        // (cc_sweep plots per-controller cwnd evolution from these).
        let (tcp_cwnd, tcp_ssthresh) = self.cwnd_max;
        let values = [
            self.tele.delivered_udp,
            self.tele.delivered_icmp,
            self.tele.tcp_frames,
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
    pub(crate) fn note_injected_span(&mut self, now: SimTime, span: SpanId) {
        self.tele.on_span_inject(now, span);
    }

    /// Enqueues an outgoing frame on the NIC interface queue, keeping the
    /// telemetry span sidecar aligned. The single choke point for
    /// transmit enqueues. Returns false when the queue was full (the
    /// frame is dropped; the caller accounts it).
    pub(crate) fn ifq_enqueue_spanned(&mut self, frame: Frame, span: Option<SpanId>) -> bool {
        let ok = self.nic.ifq_enqueue(frame);
        if ok {
            self.tele.on_ifq_enqueue(span);
        }
        ok
    }

    /// Dequeues the next outgoing frame plus its riding span (called by
    /// the world's link pump).
    pub fn ifq_dequeue_spanned(&mut self) -> Option<(Frame, Option<SpanId>)> {
        let f = self.nic.ifq_dequeue()?;
        let span = self.tele.ifq_pop_span();
        Some((f, span))
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
        for i in 0..SPAN_LOG_CAP as u64 + 3 {
            tele.on_span_inject(SimTime::from_nanos(i), i);
        }
        let log = tele.span_log();
        assert_eq!(log.len(), SPAN_LOG_CAP);
        assert_eq!(tele.span_events_dropped, 3);
        assert_eq!(log.last().unwrap().span, SPAN_LOG_CAP as u64 - 1);
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
