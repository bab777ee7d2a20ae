//! The anomaly watchdog: turns the paper's pathologies into *detected,
//! timestamped events* instead of numbers a human must dig out of a
//! timeline after the fact.
//!
//! The watchdog is fed one sample per statclock tick from
//! [`Host::sample_timeline`](crate::Host) — the same cumulative counters
//! and gauges the metrics timeline records — and derives per-tick deltas.
//! It lives inside the telemetry layer and is therefore *pure
//! observation*: it never touches the cost model, the scheduler, queues
//! or any RNG, and a run with it enabled is bit-identical to the same run
//! with telemetry off.
//!
//! Three signals, with thresholds pinned as constants (DESIGN.md §14):
//!
//! * **Receiver-livelock onset** — the paper's headline pathology: the
//!   CPU is pegged ([`LIVELOCK_PEGGED_PCT`]) and most of it is *non-user*
//!   (protocol/interrupt) work ([`LIVELOCK_PROTO_PCT`]), yet deliveries
//!   have stopped entirely while arriving frames keep dying, sustained
//!   for [`LIVELOCK_STREAK_TICKS`] consecutive ticks. The non-user
//!   condition is what separates true livelock (4.4BSD under the
//!   Figure-3 blast: all cycles to interrupts, none to the application)
//!   from a healthy LRP host whose *application* is consuming every
//!   cycle while NI-demux sheds excess load at the channel for free.
//! * **Starvation** — a runnable process whose charged CPU time has not
//!   advanced for [`STARVATION_TICKS`] consecutive ticks: it wants the
//!   CPU and never gets it (under BSD overload the blast sink starves
//!   behind interrupt processing).
//! * **Queue-saturation onset** — the shared IP queue or the fullest NI
//!   channel crossing [`QUEUE_SATURATION_PCT`] of its limit: the onset of
//!   tail-drop, recorded when it happens rather than inferred from drop
//!   totals later. Re-arms when the queue drains below half its limit.
//!
//! Each detection emits one [`AnomalyEvent`] per episode (edge-triggered,
//! not level-triggered), timestamped in simulated time.
//!
//! A sample lists only the processes that could have changed starvation
//! state since the previous one (see [`WatchdogSample::procs`]), so a
//! feed costs the host's activity, not its population.

/// Consecutive qualifying ticks before livelock onset is declared.
pub const LIVELOCK_STREAK_TICKS: u32 = 3;

/// Percent of a tick the CPU must have charged for it to count as pegged.
pub const LIVELOCK_PEGGED_PCT: u64 = 90;

/// Percent of a tick that must be non-user (protocol/interrupt/system)
/// work for a pegged tick to count toward livelock.
pub const LIVELOCK_PROTO_PCT: u64 = 75;

/// Consecutive no-progress ticks before a runnable process is declared
/// starved (25 ticks of [`TICK`](crate::config::TICK): 250 ms).
pub const STARVATION_TICKS: u32 = 25;

/// Percent of a queue's limit at which saturation onset fires.
pub const QUEUE_SATURATION_PCT: u64 = 90;

/// Stored-event cap; further detections are counted in
/// [`Watchdog::events_dropped`] and discarded.
pub const ANOMALY_LOG_CAP: usize = 4096;

/// What the watchdog detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Receiver-livelock onset: protocol cycles pegged, deliveries dead.
    LivelockOnset,
    /// A runnable process starved of the CPU.
    Starvation,
    /// A bounded queue crossed the saturation threshold.
    QueueSaturation,
}

impl AnomalyKind {
    /// Stable name used in results JSON.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::LivelockOnset => "livelock_onset",
            AnomalyKind::Starvation => "starvation",
            AnomalyKind::QueueSaturation => "queue_saturation",
        }
    }
}

/// One detected anomaly. `value`/`limit` carry the signal that tripped:
/// non-user ns in the last tick vs. the pegged threshold (livelock),
/// stalled ns vs. the starvation window (starvation), or queue depth vs.
/// queue limit (saturation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnomalyEvent {
    /// Simulated time of detection, nanoseconds.
    pub t_ns: u64,
    /// Which detector fired.
    pub kind: AnomalyKind,
    /// The starved process (starvation only).
    pub pid: Option<u32>,
    /// Which queue saturated (`"ip_queue"` / `"ni_channel"`), or the
    /// livelock/starvation signal tag.
    pub detail: &'static str,
    /// The observed signal value (see struct docs).
    pub value: u64,
    /// The threshold it was measured against.
    pub limit: u64,
}

/// One per-tick sample handed to [`Watchdog::feed`]. Counters are
/// cumulative since boot; depths are instantaneous gauges.
#[derive(Clone, Debug)]
pub struct WatchdogSample {
    /// Frames delivered (UDP + ICMP sockets, TCP input).
    pub delivered: u64,
    /// Frames dropped anywhere (host drop points + NIC ring/early/stall).
    pub dropped: u64,
    /// Total CPU time charged, ns.
    pub charged_ns: u64,
    /// User-mode CPU time charged, ns.
    pub user_ns: u64,
    /// Shared IP queue depth / limit.
    pub ipq_depth: u64,
    /// IP queue limit (0 = unbounded, saturation check skipped).
    pub ipq_limit: u64,
    /// Deepest NI channel depth / per-channel limit.
    pub chan_depth_max: u64,
    /// NI channel frame limit (0 = unbounded, check skipped).
    pub chan_limit: u64,
    /// `(pid, runnable, total_charged_ns)`, in ascending pid order, for
    /// every process that is runnable now or was charged (even zero
    /// time) since the previous sample. Runnable means on a run queue or
    /// on the CPU — not sleeping, not exited. Any process not listed is
    /// taken as not runnable, with its total unchanged.
    pub procs: Vec<(u32, bool, u64)>,
}

/// Per-process starvation tracking state.
#[derive(Clone, Copy, Debug, Default)]
struct StarveState {
    last_total_ns: u64,
    stalled_ticks: u32,
    flagged: bool,
}

/// The anomaly detector (one per host, inside
/// [`Telemetry`](crate::telemetry::Telemetry)).
#[derive(Debug, Default)]
pub struct Watchdog {
    prev: Option<(u64, u64, u64, u64)>, // delivered, dropped, charged, user
    livelock_streak: u32,
    livelock_active: bool,
    /// Per process (indexed by pid): starvation tracking.
    starve: Vec<StarveState>,
    /// The pids whose `stalled_ticks` is non-zero, ascending: the only
    /// unlisted processes a feed has to reset.
    stalled: Vec<u32>,
    /// The next feed's `stalled`, built beside it (capacity reused).
    stalled_next: Vec<u32>,
    ipq_sat_active: bool,
    chan_sat_active: bool,
    events: Vec<AnomalyEvent>,
    /// Detections discarded past [`ANOMALY_LOG_CAP`].
    pub events_dropped: u64,
}

impl Watchdog {
    /// Creates an idle watchdog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detected anomalies, in detection order.
    pub fn events(&self) -> &[AnomalyEvent] {
        &self.events
    }

    /// Total detections (stored + discarded); the timeline's cumulative
    /// `anomalies` column.
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.events_dropped
    }

    /// Edge-triggered saturation check with re-arm below half the limit.
    /// Returns true when an onset event should fire.
    fn queue_check(active: &mut bool, depth: u64, limit: u64) -> bool {
        if limit == 0 {
            return false;
        }
        if depth * 100 >= limit * QUEUE_SATURATION_PCT {
            if !*active {
                *active = true;
                return true;
            }
        } else if depth * 2 < limit {
            *active = false;
        }
        false
    }

    fn emit(&mut self, ev: AnomalyEvent) {
        if self.events.len() >= ANOMALY_LOG_CAP {
            self.events_dropped += 1;
        } else {
            self.events.push(ev);
        }
    }

    fn emit_starvation(&mut self, t_ns: u64, tick_ns: u64, pid: u32, ticks: u32) {
        self.emit(AnomalyEvent {
            t_ns,
            kind: AnomalyKind::Starvation,
            pid: Some(pid),
            detail: "runnable_no_progress",
            value: ticks as u64 * tick_ns,
            limit: STARVATION_TICKS as u64 * tick_ns,
        });
    }

    /// Feeds one statclock-tick sample. `tick_ns` is the sampling period.
    pub fn feed(&mut self, t_ns: u64, tick_ns: u64, s: &WatchdogSample) {
        self.feed_starvation(t_ns, tick_ns, &s.procs);
        self.feed_queues_and_livelock(t_ns, tick_ns, s);
    }

    /// Starvation: a runnable process making no progress. Listed
    /// processes are visited in pid order (so are their events); a
    /// stalled process missing from the list is no longer runnable, so
    /// its streak ends, and every other unlisted process already has no
    /// streak and a current total.
    fn feed_starvation(&mut self, t_ns: u64, tick_ns: u64, procs: &[(u32, bool, u64)]) {
        let prev = std::mem::take(&mut self.stalled);
        let mut next = std::mem::take(&mut self.stalled_next);
        let mut unlisted = prev.iter().copied().peekable();
        for &(pid, runnable, total_ns) in procs {
            while let Some(p) = unlisted.next_if(|&p| p < pid) {
                self.end_streak(p);
            }
            unlisted.next_if_eq(&pid);
            let i = pid as usize;
            if i >= self.starve.len() {
                self.starve.resize_with(i + 1, StarveState::default);
            }
            let st = &mut self.starve[i];
            if runnable && st.last_total_ns == total_ns {
                st.stalled_ticks += 1;
                next.push(pid);
                if st.stalled_ticks >= STARVATION_TICKS && !st.flagged {
                    st.flagged = true;
                    let ticks = st.stalled_ticks;
                    self.emit_starvation(t_ns, tick_ns, pid, ticks);
                }
            } else {
                *st = StarveState {
                    last_total_ns: total_ns,
                    ..StarveState::default()
                };
            }
        }
        for p in unlisted {
            self.end_streak(p);
        }
        self.stalled = next;
        self.stalled_next = prev;
        self.stalled_next.clear();
    }

    fn end_streak(&mut self, pid: u32) {
        let st = &mut self.starve[pid as usize];
        st.stalled_ticks = 0;
        st.flagged = false;
    }

    /// Queue-saturation onset, then receiver-livelock onset.
    fn feed_queues_and_livelock(&mut self, t_ns: u64, tick_ns: u64, s: &WatchdogSample) {
        // --- queue saturation onset ----------------------------------
        if Self::queue_check(&mut self.ipq_sat_active, s.ipq_depth, s.ipq_limit) {
            self.emit(AnomalyEvent {
                t_ns,
                kind: AnomalyKind::QueueSaturation,
                pid: None,
                detail: "ip_queue",
                value: s.ipq_depth,
                limit: s.ipq_limit,
            });
        }
        if Self::queue_check(&mut self.chan_sat_active, s.chan_depth_max, s.chan_limit) {
            self.emit(AnomalyEvent {
                t_ns,
                kind: AnomalyKind::QueueSaturation,
                pid: None,
                detail: "ni_channel",
                value: s.chan_depth_max,
                limit: s.chan_limit,
            });
        }

        // --- receiver-livelock onset ---------------------------------
        let cur = (s.delivered, s.dropped, s.charged_ns, s.user_ns);
        if let Some((p_del, p_drop, p_chg, p_usr)) = self.prev {
            let d_delivered = cur.0.saturating_sub(p_del);
            let d_dropped = cur.1.saturating_sub(p_drop);
            let d_charged = cur.2.saturating_sub(p_chg);
            let d_user = cur.3.saturating_sub(p_usr);
            let d_nonuser = d_charged.saturating_sub(d_user);
            let pegged = d_charged * 100 >= tick_ns * LIVELOCK_PEGGED_PCT;
            let proto_pegged = d_nonuser * 100 >= tick_ns * LIVELOCK_PROTO_PCT;
            let livelocked = pegged && proto_pegged && d_delivered == 0 && d_dropped > 0;
            if livelocked {
                self.livelock_streak += 1;
                if self.livelock_streak >= LIVELOCK_STREAK_TICKS && !self.livelock_active {
                    self.livelock_active = true;
                    self.emit(AnomalyEvent {
                        t_ns,
                        kind: AnomalyKind::LivelockOnset,
                        pid: None,
                        detail: "protocol_pegged_delivery_stalled",
                        value: d_nonuser,
                        limit: tick_ns * LIVELOCK_PROTO_PCT / 100,
                    });
                }
            } else {
                self.livelock_streak = 0;
                self.livelock_active = false;
            }
        }
        self.prev = Some(cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: u64 = 10_000_000; // 10 ms

    fn sample(delivered: u64, dropped: u64, charged: u64, user: u64) -> WatchdogSample {
        WatchdogSample {
            delivered,
            dropped,
            charged_ns: charged,
            user_ns: user,
            ipq_depth: 0,
            ipq_limit: 50,
            chan_depth_max: 0,
            chan_limit: 64,
            procs: Vec::new(),
        }
    }

    #[test]
    fn livelock_fires_once_after_streak() {
        let mut w = Watchdog::new();
        let mut charged = 0;
        let mut dropped = 0;
        // Healthy warmup tick, then pegged non-user ticks with zero
        // delivery and ongoing drops.
        w.feed(0, TICK, &sample(10, 0, charged, 0));
        for i in 1..=6u64 {
            charged += TICK;
            dropped += 100;
            w.feed(i * TICK, TICK, &sample(10, dropped, charged, 0));
        }
        let lv: Vec<_> = w
            .events()
            .iter()
            .filter(|e| e.kind == AnomalyKind::LivelockOnset)
            .collect();
        assert_eq!(
            lv.len(),
            1,
            "exactly one onset per episode: {:?}",
            w.events()
        );
        assert_eq!(lv[0].t_ns, 3 * TICK, "fires on the third qualifying tick");
    }

    #[test]
    fn user_bound_cpu_is_not_livelock() {
        // CPU pegged but in *user* mode (an application consuming every
        // cycle while the NIC sheds load) must not trip the detector.
        let mut w = Watchdog::new();
        let mut charged = 0;
        let mut dropped = 0;
        w.feed(0, TICK, &sample(10, 0, charged, 0));
        for i in 1..=6u64 {
            charged += TICK;
            dropped += 100;
            w.feed(i * TICK, TICK, &sample(10, dropped, charged, charged));
        }
        assert!(w.events().is_empty(), "{:?}", w.events());
    }

    #[test]
    fn idle_host_is_not_livelock() {
        let mut w = Watchdog::new();
        for i in 0..10u64 {
            w.feed(i * TICK, TICK, &sample(0, 0, 0, 0));
        }
        assert!(w.events().is_empty());
    }

    #[test]
    fn starvation_fires_for_stalled_runnable_process() {
        let mut w = Watchdog::new();
        let mut s = sample(0, 0, 0, 0);
        s.procs = vec![(1, true, 500), (2, true, 500)];
        for i in 0..STARVATION_TICKS as u64 + 2 {
            // Pid 2 keeps progressing; pid 1 is stuck.
            s.procs[1].2 += TICK / 2;
            w.feed(i * TICK, TICK, &s);
        }
        let st: Vec<_> = w
            .events()
            .iter()
            .filter(|e| e.kind == AnomalyKind::Starvation)
            .collect();
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].pid, Some(1));
    }

    #[test]
    fn sleeping_process_is_not_starved() {
        let mut w = Watchdog::new();
        let mut s = sample(0, 0, 0, 0);
        s.procs = vec![(1, false, 500)];
        for i in 0..STARVATION_TICKS as u64 + 10 {
            w.feed(i * TICK, TICK, &s);
        }
        assert!(w.events().is_empty());
    }

    #[test]
    fn queue_saturation_is_edge_triggered_with_rearm() {
        let mut w = Watchdog::new();
        let mut s = sample(0, 0, 0, 0);
        s.ipq_depth = 48; // 96% of 50
        w.feed(0, TICK, &s);
        w.feed(TICK, TICK, &s); // still saturated: no second event
        s.ipq_depth = 30; // below 90% but not below half: stays armed-off
        w.feed(2 * TICK, TICK, &s);
        s.ipq_depth = 49;
        w.feed(3 * TICK, TICK, &s); // no re-fire without draining below half
        s.ipq_depth = 10;
        w.feed(4 * TICK, TICK, &s); // drains: re-arms
        s.ipq_depth = 50;
        w.feed(5 * TICK, TICK, &s); // second onset
        let qs: Vec<_> = w
            .events()
            .iter()
            .filter(|e| e.kind == AnomalyKind::QueueSaturation)
            .collect();
        assert_eq!(qs.len(), 2, "{:?}", w.events());
        assert_eq!(qs[0].detail, "ip_queue");
    }

    /// The watchdog as it was before samples went sparse: every process
    /// in every sample, starvation state in a map. Queue and livelock
    /// checks are shared — only the starvation walk differs.
    #[derive(Default)]
    struct FullListWatchdog {
        starve: std::collections::BTreeMap<u32, StarveState>,
        rest: Watchdog,
    }

    impl FullListWatchdog {
        fn feed(&mut self, t_ns: u64, tick_ns: u64, s: &WatchdogSample) {
            for &(pid, runnable, total_ns) in &s.procs {
                let st = self.starve.entry(pid).or_default();
                if runnable && st.last_total_ns == total_ns {
                    st.stalled_ticks += 1;
                    if st.stalled_ticks >= STARVATION_TICKS && !st.flagged {
                        st.flagged = true;
                        let ticks = st.stalled_ticks;
                        self.rest.emit_starvation(t_ns, tick_ns, pid, ticks);
                    }
                } else {
                    st.stalled_ticks = 0;
                    st.flagged = false;
                    st.last_total_ns = total_ns;
                }
            }
            self.rest.feed_queues_and_livelock(t_ns, tick_ns, s);
        }
    }

    /// Random histories fed twice: every process to the full-list
    /// reference, only the runnable or charged ones to the watchdog. The
    /// detections — order included — must never differ.
    #[test]
    fn sparse_samples_match_full_list_reference() {
        const PIDS: usize = 8;
        const TICKS: u64 = 300;
        let mut starvations = 0;
        for seed in 1..=24u64 {
            let mut rng = lrp_sim::SplitMix64::new(seed);
            // Per pid: the tick it is spawned at (some mid-run), its
            // total, and its mode — 0 sleeps, 1 runs and makes progress,
            // 2 is runnable but starved. Modes last tens of ticks, so
            // stalls outlast `STARVATION_TICKS`.
            let born: Vec<u64> = (0..PIDS)
                .map(|_| {
                    if rng.next_bool(0.5) {
                        0
                    } else {
                        rng.next_below(TICKS / 2)
                    }
                })
                .collect();
            let mut total = [0u64; PIDS];
            let mut mode = [0u8; PIDS];
            let (mut full, mut sparse) = (FullListWatchdog::default(), Watchdog::new());
            for tick in 0..TICKS {
                let mut s = sample(0, 0, 0, 0);
                let mut listed = sample(0, 0, 0, 0);
                for pid in (0..PIDS).filter(|&p| born[p] <= tick) {
                    if rng.next_bool(1.0 / 30.0) {
                        mode[pid] = rng.next_below(3) as u8;
                    }
                    let runnable = match mode[pid] {
                        0 => false,
                        1 => rng.next_bool(0.7),
                        _ => true,
                    };
                    // Charges land in every mode (an interrupt billed to
                    // a sleeper, say); a third of them are zero-length,
                    // and a starved process only ever gets those.
                    let charged = rng.next_bool(if mode[pid] == 1 { 0.6 } else { 0.1 });
                    if charged && mode[pid] == 1 && rng.next_below(3) > 0 {
                        total[pid] += 1 + rng.next_below(TICK);
                    }
                    s.procs.push((pid as u32, runnable, total[pid]));
                    if runnable || charged {
                        listed.procs.push((pid as u32, runnable, total[pid]));
                    }
                }
                full.feed(tick * TICK, TICK, &s);
                sparse.feed(tick * TICK, TICK, &listed);
                assert_eq!(
                    sparse.events(),
                    full.rest.events(),
                    "seed {seed}, tick {tick}"
                );
                assert_eq!(sparse.total(), full.rest.total(), "seed {seed}");
            }
            starvations += sparse.events().len();
        }
        assert!(starvations > 0, "no history ever starved a process");
    }
}
