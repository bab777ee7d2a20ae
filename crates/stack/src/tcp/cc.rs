//! The congestion-control seam: window management behind one enum.
//!
//! [`CongestionControl`] owns the congestion window and slow-start
//! threshold; the PCB core owns everything else (sequence space, buffers,
//! timers) and consults the controller only for `cwnd()` when sizing
//! transmissions. The hooks are the classic loss-signal set — new-data
//! ACK, triple-dup-ACK loss, RTO, idle restart — plus an MSS-negotiation
//! reset, and every hook reads time exclusively from its arguments so any
//! controller is as deterministic as the simulation itself.
//!
//! Three controllers ship behind the seam, one variant each, held inline
//! in the connection (no box per connection):
//!
//! - [`NewReno`] — the 4.4BSD slow start / congestion avoidance / fast
//!   recovery arithmetic extracted verbatim from the pre-refactor
//!   monolith. The default, and pinned bit-identical to it by the
//!   determinism goldens.
//! - [`Cubic`] — cubic window growth anchored at the last loss, with
//!   fast convergence and a TCP-friendly additive-increase floor.
//! - [`BbrLite`] — a model-based controller: max-filtered delivery rate ×
//!   min-filtered RTT gives the BDP, the window is a fixed gain over it,
//!   and a deterministic eight-phase pacing-gain cycle stands in for
//!   BBR's ProbeBW. No wall clock, no randomness.

use lrp_sim::SimTime;

/// Selects the congestion controller a connection is created with
/// (a host sets it for all its connections as `HostConfig::tcp.cc`, its
/// [`super::TcpConfig::cc`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CcAlgo {
    /// 4.4BSD NewReno: slow start, congestion avoidance, fast recovery.
    #[default]
    NewReno,
    /// Cubic-style growth (concave/convex around the last-loss window).
    Cubic,
    /// Delivery-rate + min-RTT model with deterministic pacing gains.
    BbrLite,
}

impl CcAlgo {
    /// Short lowercase name used in experiment tables and result JSON.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgo::NewReno => "newreno",
            CcAlgo::Cubic => "cubic",
            CcAlgo::BbrLite => "bbr-lite",
        }
    }

    /// Every selectable controller, in presentation order.
    pub fn all() -> [CcAlgo; 3] {
        [CcAlgo::NewReno, CcAlgo::Cubic, CcAlgo::BbrLite]
    }

    /// Parses a [`name`](Self::name) back to the algorithm.
    pub fn from_name(s: &str) -> Option<CcAlgo> {
        CcAlgo::all().into_iter().find(|a| a.name() == s)
    }

    /// Builds the controller. `mss` seeds the initial window; `cap` is
    /// the hard window ceiling (twice the send buffer, matching the
    /// pre-refactor clamp).
    pub fn build(self, mss: usize, cap: usize) -> CongestionControl {
        match self {
            CcAlgo::NewReno => CongestionControl::NewReno(NewReno::new(mss, cap)),
            CcAlgo::Cubic => CongestionControl::Cubic(Cubic::new(mss, cap)),
            CcAlgo::BbrLite => CongestionControl::BbrLite(BbrLite::new(mss, cap)),
        }
    }
}

impl std::fmt::Display for CcAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A connection's congestion controller.
///
/// State ownership: the controller owns `cwnd` and `ssthresh` and nothing
/// else; it must not assume it sees every segment, only the loss-signal
/// hooks below. The PCB core calls the hooks at exactly the points the
/// monolithic implementation mutated its inline window fields, so a
/// controller reproducing that arithmetic is bit-identical to it.
#[derive(Debug)]
pub enum CongestionControl {
    /// See [`NewReno`].
    NewReno(NewReno),
    /// See [`Cubic`].
    Cubic(Cubic),
    /// See [`BbrLite`].
    BbrLite(BbrLite),
}

/// Evaluates `$e` with `$c` bound to whichever controller `$cc` holds.
macro_rules! each {
    ($cc:expr, $c:ident => $e:expr) => {
        match $cc {
            CongestionControl::NewReno($c) => $e,
            CongestionControl::Cubic($c) => $e,
            CongestionControl::BbrLite($c) => $e,
        }
    };
}

impl CongestionControl {
    /// Current congestion window, bytes. Always ≥ 1 MSS.
    pub fn cwnd(&self) -> usize {
        each!(self, c => c.cwnd)
    }

    /// Current slow-start threshold, bytes. Always ≥ 2 MSS.
    pub fn ssthresh(&self) -> usize {
        each!(self, c => c.ssthresh)
    }

    /// MSS (re)negotiated during the handshake: the window restarts at
    /// one segment of the new size.
    pub fn on_mss_negotiated(&mut self, mss: usize) {
        each!(self, c => {
            c.mss = mss;
            c.cwnd = mss;
            // Keeps the ssthresh ≥ 2 MSS invariant if the MSS grew. A
            // no-op during a real handshake (ssthresh is still the initial
            // 65 535), so NewReno stays bit-identical to the monolith.
            c.ssthresh = c.ssthresh.max(2 * mss);
        })
    }

    /// A new-data ACK arrived. `acked` is the number of bytes this ACK
    /// newly acknowledged; `rtt_s` carries the Karn-filtered RTT sample
    /// if this ACK produced one (at most one per window).
    pub fn on_ack(&mut self, now: SimTime, acked: usize, rtt_s: Option<f64>) {
        each!(self, c => c.on_ack(now, acked, rtt_s))
    }

    /// Loss inferred from three duplicate ACKs (fast retransmit).
    /// `flight` is the number of bytes in flight when the signal fired.
    pub fn on_loss(&mut self, flight: usize) {
        each!(self, c => c.on_loss(flight))
    }

    /// The retransmission timer fired. `flight` as in
    /// [`on_loss`](Self::on_loss).
    pub fn on_rto(&mut self, flight: usize) {
        each!(self, c => c.on_rto(flight))
    }

    /// The connection sat idle (nothing in flight, empty send buffer) and
    /// the application is writing again. Controllers with rate models may
    /// restart them; NewReno deliberately does nothing, preserving
    /// bit-identity with the pre-refactor code.
    pub fn on_idle_restart(&mut self) {
        match self {
            CongestionControl::NewReno(_) => {}
            CongestionControl::Cubic(c) => c.epoch = None,
            // Stale rate samples would span the idle gap; restart sampling.
            CongestionControl::BbrLite(b) => {
                b.rate_anchor = None;
                b.cycle_idx = 0;
                b.cycle_start = None;
            }
        }
    }

    /// Deterministic pacing-rate hint: the multiple of `cwnd / RTT` the
    /// controller would pace at, ×1024. The simulated output engine does
    /// not pace (it is window-limited only), so this is advisory —
    /// surfaced to telemetry so rate-based controllers are observable.
    pub fn pacing_gain_x1024(&self) -> u32 {
        match self {
            CongestionControl::BbrLite(b) if b.startup => BBR_STARTUP_GAIN_X1024,
            CongestionControl::BbrLite(b) => BBR_GAIN_CYCLE_X1024[b.cycle_idx],
            _ => 1024,
        }
    }
}

// ---- NewReno ----

/// The 4.4BSD arithmetic extracted from the monolithic `tcp.rs`: slow
/// start below `ssthresh`, additive increase above it, half-flight
/// `ssthresh` on loss, window collapse to one MSS on RTO.
#[derive(Debug)]
pub struct NewReno {
    mss: usize,
    cap: usize,
    cwnd: usize,
    ssthresh: usize,
}

impl NewReno {
    /// One MSS of initial window, the classic 65 535-byte `ssthresh`.
    pub fn new(mss: usize, cap: usize) -> Self {
        NewReno {
            mss,
            cap,
            cwnd: mss,
            ssthresh: 65_535,
        }
    }

    fn on_ack(&mut self, _now: SimTime, _acked: usize, _rtt_s: Option<f64>) {
        if self.cwnd < self.ssthresh {
            self.cwnd += self.mss;
        } else {
            self.cwnd += ((self.mss * self.mss) / self.cwnd).max(1);
        }
        self.cwnd = self.cwnd.min(self.cap);
    }

    fn on_loss(&mut self, flight: usize) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
    }

    fn on_rto(&mut self, flight: usize) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
    }
}

// ---- Cubic ----

/// The cubic's scaling constant, segments/s³.
const CUBIC_C: f64 = 0.4;
/// Multiplicative-decrease factor.
const CUBIC_BETA: f64 = 0.7;

/// Cubic-style congestion avoidance: after a loss the window follows
/// `W(t) = C·(t−K)³ + W_max` (in segments) — concave up to the previous
/// peak, convex past it — with fast convergence releasing bandwidth when
/// losses arrive before the peak is regained, and a TCP-friendly floor of
/// one Reno additive increase per ACK.
#[derive(Debug)]
pub struct Cubic {
    mss: usize,
    cap: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Window, bytes, just before the last reduction.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch: Option<SimTime>,
    /// Seconds for the cubic to return to `w_max` from the epoch start.
    k: f64,
}

impl Cubic {
    /// Same initial window as NewReno.
    pub fn new(mss: usize, cap: usize) -> Self {
        Cubic {
            mss,
            cap,
            cwnd: mss,
            ssthresh: 65_535,
            w_max: 0.0,
            epoch: None,
            k: 0.0,
        }
    }

    /// `W(t)` in bytes at `t` seconds into the epoch.
    fn target(&self, t: f64) -> f64 {
        let mssf = self.mss as f64;
        (CUBIC_C * (t - self.k).powi(3) + self.w_max / mssf) * mssf
    }

    fn on_ack(&mut self, now: SimTime, _acked: usize, _rtt_s: Option<f64>) {
        if self.cwnd < self.ssthresh {
            self.cwnd += self.mss;
        } else {
            let t = match self.epoch {
                Some(e) => now.since(e).as_secs_f64(),
                None => {
                    // New avoidance epoch: anchor the cubic at the
                    // current window.
                    self.epoch = Some(now);
                    if self.w_max < self.cwnd as f64 {
                        self.w_max = self.cwnd as f64;
                    }
                    self.k = ((self.w_max - self.cwnd as f64) / (CUBIC_C * self.mss as f64))
                        .max(0.0)
                        .cbrt();
                    0.0
                }
            };
            let target = self.target(t);
            if target > self.cwnd as f64 {
                // Spread the climb to the target over one window of ACKs.
                let segs = (self.cwnd / self.mss).max(1);
                self.cwnd += ((target - self.cwnd as f64) as usize / segs).max(1);
            } else {
                // At/above the cubic (TCP-friendly region): Reno's
                // additive increase.
                self.cwnd += ((self.mss * self.mss) / self.cwnd).max(1);
            }
        }
        self.cwnd = self.cwnd.min(self.cap);
    }

    fn on_loss(&mut self, _flight: usize) {
        let w = self.cwnd as f64;
        // Fast convergence: remember a *lower* peak when the window never
        // regained the previous one, ceding bandwidth to new flows.
        self.w_max = if w < self.w_max {
            w * (2.0 - CUBIC_BETA) / 2.0
        } else {
            w
        };
        self.ssthresh = ((w * CUBIC_BETA) as usize).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.epoch = None;
    }

    fn on_rto(&mut self, _flight: usize) {
        self.w_max = self.cwnd as f64;
        self.ssthresh = ((self.cwnd as f64 * CUBIC_BETA) as usize).max(2 * self.mss);
        self.cwnd = self.mss;
        self.epoch = None;
    }
}

// ---- BBR-lite ----

/// ProbeBW pacing-gain cycle (×1024): one probe phase, one drain phase,
/// six cruise phases.
const BBR_GAIN_CYCLE_X1024: [u32; 8] = [1280, 768, 1024, 1024, 1024, 1024, 1024, 1024];
/// Startup pacing gain (×1024): 2/ln 2 ≈ 2.885.
const BBR_STARTUP_GAIN_X1024: u32 = 2954;
/// Window gain over the estimated BDP (×1024): BBR's 2×.
const BBR_CWND_GAIN_X1024: usize = 2048;
/// Window floor, in segments, once the model drives the window.
const BBR_MIN_SEGS: usize = 4;

/// A reduced BBR: bottleneck bandwidth is the max-filtered delivery rate
/// (bytes acked between ACKs over elapsed simulated time), the RTT floor
/// is min-filtered from the PCB's Karn-filtered samples, and the window
/// is `2 × BDP` once both estimates exist. Startup grows the window
/// exponentially (one acked byte adds one window byte) until it overshoots
/// twice the estimated BDP. Loss does not collapse the model — a triple
/// dup-ACK trims the window by a quarter — but an RTO resets it entirely.
/// The pacing-gain cycle advances once per min-RTT of simulated time,
/// making the ProbeBW phases deterministic without a wall clock.
#[derive(Debug)]
pub struct BbrLite {
    mss: usize,
    cap: usize,
    cwnd: usize,
    ssthresh: usize,
    /// Max-filtered delivery rate, bytes/second.
    btl_bw: f64,
    /// Min-filtered round-trip time, seconds.
    min_rtt: Option<f64>,
    /// Cumulative bytes delivered (acked).
    delivered: u64,
    /// Delivery-rate sample anchor: (time, `delivered` then).
    rate_anchor: Option<(SimTime, u64)>,
    /// Index into [`BBR_GAIN_CYCLE_X1024`].
    cycle_idx: usize,
    /// When the current gain phase began.
    cycle_start: Option<SimTime>,
    /// Startup: exponential growth until the pipe looks full.
    startup: bool,
}

impl BbrLite {
    /// Same initial window as NewReno; the model takes over once it has
    /// a rate and an RTT.
    pub fn new(mss: usize, cap: usize) -> Self {
        BbrLite {
            mss,
            cap,
            cwnd: mss,
            ssthresh: 65_535,
            btl_bw: 0.0,
            min_rtt: None,
            delivered: 0,
            rate_anchor: None,
            cycle_idx: 0,
            cycle_start: None,
            startup: true,
        }
    }

    /// Estimated bandwidth-delay product, bytes (0 until both estimates
    /// exist).
    fn bdp(&self) -> f64 {
        self.min_rtt.map_or(0.0, |r| self.btl_bw * r)
    }

    fn on_ack(&mut self, now: SimTime, acked: usize, rtt_s: Option<f64>) {
        self.delivered += acked as u64;
        if let Some(r) = rtt_s {
            if self.min_rtt.is_none_or(|m| r < m) {
                self.min_rtt = Some(r);
            }
        }
        // Delivery-rate sample: bytes delivered since the anchor over the
        // simulated time elapsed. Max filter (reset only by RTO).
        match self.rate_anchor {
            None => self.rate_anchor = Some((now, self.delivered)),
            Some((t0, d0)) => {
                let dt = now.since(t0).as_secs_f64();
                if dt > 0.0 {
                    let rate = (self.delivered - d0) as f64 / dt;
                    if rate > self.btl_bw {
                        self.btl_bw = rate;
                    }
                    self.rate_anchor = Some((now, self.delivered));
                }
            }
        }
        // Advance the ProbeBW gain cycle once per min-RTT.
        if let Some(mrtt) = self.min_rtt {
            match self.cycle_start {
                None => self.cycle_start = Some(now),
                Some(t0) if now.since(t0).as_secs_f64() >= mrtt => {
                    self.cycle_idx = (self.cycle_idx + 1) % BBR_GAIN_CYCLE_X1024.len();
                    self.cycle_start = Some(now);
                }
                _ => {}
            }
        }
        let bdp = self.bdp();
        if self.startup {
            self.cwnd += acked;
            if bdp > 0.0 && self.cwnd as f64 > 2.0 * bdp {
                self.startup = false;
            }
        }
        if !self.startup && bdp > 0.0 {
            let target = (bdp as usize * BBR_CWND_GAIN_X1024) >> 10;
            self.cwnd = target.max(BBR_MIN_SEGS * self.mss);
        }
        self.cwnd = self.cwnd.clamp(self.mss, self.cap);
    }

    fn on_loss(&mut self, _flight: usize) {
        // BBR does not treat isolated loss as a congestion signal; trim
        // modestly so a persistently lossy path still sheds load.
        self.cwnd = (self.cwnd - self.cwnd / 4).max(self.mss).min(self.cap);
    }

    fn on_rto(&mut self, flight: usize) {
        // The model was wrong enough to stall the pipe: rebuild it.
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.btl_bw = 0.0;
        self.rate_anchor = None;
        self.cycle_idx = 0;
        self.cycle_start = None;
        self.startup = true;
        self.cwnd = self.mss;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MSS: usize = 1000;
    const CAP: usize = 64 * 1024;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + lrp_sim::SimDuration::from_millis(ms)
    }

    #[test]
    fn newreno_exits_slow_start_at_ssthresh() {
        let mut cc = CcAlgo::NewReno.build(MSS, CAP);
        // Pull ssthresh down via a loss so the exit is observable.
        cc.on_loss(8 * MSS); // ssthresh = 4*MSS, cwnd = 7*MSS
        cc.on_rto(8 * MSS); // ssthresh = 4*MSS, cwnd = MSS
        assert_eq!(cc.ssthresh(), 4 * MSS);
        // Slow start: one MSS per ACK while below ssthresh.
        let mut deltas = Vec::new();
        for i in 0..6 {
            let before = cc.cwnd();
            cc.on_ack(t(i), MSS, None);
            deltas.push(cc.cwnd() - before);
        }
        // First three ACKs (cwnd 1000, 2000, 3000 < 4000): +MSS each.
        assert_eq!(&deltas[..3], &[MSS, MSS, MSS]);
        // From cwnd = 4000 = ssthresh: additive increase, strictly less
        // than an MSS per ACK.
        assert!(deltas[3..].iter().all(|&d| d < MSS), "{deltas:?}");
    }

    #[test]
    fn newreno_matches_monolith_arithmetic() {
        // The exact expressions the monolith used, replayed side by side.
        let mut cc = CcAlgo::NewReno.build(MSS, CAP);
        let (mut cwnd, mut ssthresh) = (MSS, 65_535usize);
        for i in 0..200u64 {
            match i % 50 {
                7 => {
                    let flight = 9 * MSS;
                    ssthresh = (flight / 2).max(2 * MSS);
                    cwnd = ssthresh + 3 * MSS;
                    cc.on_loss(flight);
                }
                23 => {
                    let flight = 5 * MSS;
                    ssthresh = (flight / 2).max(2 * MSS);
                    cwnd = MSS;
                    cc.on_rto(flight);
                }
                _ => {
                    if cwnd < ssthresh {
                        cwnd += MSS;
                    } else {
                        cwnd += ((MSS * MSS) / cwnd).max(1);
                    }
                    cwnd = cwnd.min(CAP);
                    cc.on_ack(t(i), MSS, None);
                }
            }
            assert_eq!(cc.cwnd(), cwnd, "ack #{i}");
            assert_eq!(cc.ssthresh(), ssthresh, "ack #{i}");
        }
    }

    #[test]
    fn cubic_growth_is_concave_then_convex_around_w_max() {
        let mut cc = CcAlgo::Cubic.build(MSS, 1 << 20);
        // Get into avoidance with a meaningful w_max: grow, then lose.
        for i in 0..40 {
            cc.on_ack(t(i), MSS, None);
        }
        let w_before_loss = cc.cwnd();
        cc.on_loss(w_before_loss);
        // Replay ACKs on a fixed 10 ms cadence and record the window.
        // Long enough that the convex segment past w_max is as wide as
        // the concave climb back to it.
        let mut curve = Vec::new();
        for i in 0..800u64 {
            cc.on_ack(t(200 + 10 * i), MSS, None);
            curve.push(cc.cwnd());
        }
        // The curve regains the pre-loss window...
        assert!(
            *curve.last().unwrap() > w_before_loss,
            "never regained w_max: {} <= {}",
            curve.last().unwrap(),
            w_before_loss
        );
        // ...and the mean step while climbing back (concave region) is
        // smaller than the mean step after passing it (convex region).
        let cross = curve
            .iter()
            .position(|&w| w >= w_before_loss)
            .expect("crossed w_max");
        // Skip the first samples right after the loss (steepest part of
        // the concave segment) and compare the flat middle to the tail.
        let mid = cross / 2;
        let concave: f64 = curve[mid..cross]
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .sum::<f64>()
            / (cross - mid).max(1) as f64;
        let tail = &curve[cross..];
        let convex: f64 =
            tail.windows(2).map(|w| (w[1] - w[0]) as f64).sum::<f64>() / tail.len() as f64;
        assert!(
            convex > concave,
            "no convex acceleration past w_max: concave {concave:.1} vs convex {convex:.1}"
        );
    }

    #[test]
    fn cubic_fast_convergence_lowers_the_peak() {
        let mut cc = CcAlgo::Cubic.build(MSS, 1 << 20);
        for i in 0..40 {
            cc.on_ack(t(i), MSS, None);
        }
        let w1 = cc.cwnd();
        cc.on_loss(w1);
        let w_after_first = cc.cwnd();
        // Second loss before regaining the peak: ssthresh must land
        // *below* beta times the first peak (bandwidth ceded).
        cc.on_loss(w_after_first);
        assert!(cc.ssthresh() < (w1 as f64 * CUBIC_BETA) as usize);
        assert!(cc.ssthresh() >= 2 * MSS);
    }

    #[test]
    fn bbr_lite_steady_state_window_is_bounded_by_the_model() {
        let mut cc = CcAlgo::BbrLite.build(MSS, 1 << 24);
        // Synthetic steady path: 10 MB/s delivery, 20 ms RTT, one ACK of
        // one MSS every 100 µs of simulated time.
        let rate = 10_000_000.0; // bytes/s
        let rtt = 0.020; // seconds
        let mut now = SimTime::ZERO;
        for _ in 0..5_000u32 {
            now += lrp_sim::SimDuration::from_micros(100);
            cc.on_ack(now, MSS, Some(rtt));
        }
        // Per-sample delivery rate is MSS / 100 µs = 10 MB/s, so the
        // model's BDP is rate × rtt and the window must settle at the
        // fixed gain over it (never above, never below the floor).
        let bdp = rate * rtt;
        let bound = (bdp as usize * BBR_CWND_GAIN_X1024) >> 10;
        assert!(
            cc.cwnd() <= bound + MSS,
            "cwnd {} exceeds 2×BDP bound {}",
            cc.cwnd(),
            bound
        );
        assert!(cc.cwnd() >= BBR_MIN_SEGS * MSS);
        // Out of startup, and stable: more ACKs at the same rate do not
        // move the window.
        let settled = cc.cwnd();
        for _ in 0..500u32 {
            now += lrp_sim::SimDuration::from_micros(100);
            cc.on_ack(now, MSS, Some(rtt));
        }
        assert_eq!(cc.cwnd(), settled, "window drifted in steady state");
    }

    #[test]
    fn bbr_lite_rto_resets_the_model() {
        let mut cc = CcAlgo::BbrLite.build(MSS, 1 << 24);
        let mut now = SimTime::ZERO;
        for _ in 0..1_000u32 {
            now += lrp_sim::SimDuration::from_micros(100);
            cc.on_ack(now, MSS, Some(0.02));
        }
        cc.on_rto(10 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), 5 * MSS);
        assert_eq!(cc.pacing_gain_x1024(), BBR_STARTUP_GAIN_X1024);
    }

    /// One randomly drawn controller event.
    #[derive(Clone, Copy, Debug)]
    enum Ev {
        Ack {
            dt_us: u64,
            acked: usize,
            rtt_us: Option<u64>,
        },
        Loss {
            flight_segs: usize,
        },
        Rto {
            flight_segs: usize,
        },
        Idle,
        Mss {
            mss: usize,
        },
    }

    fn ev_strategy() -> impl Strategy<Value = Ev> {
        prop_oneof![
            (
                1u64..100_000,
                1usize..20_000,
                proptest::option::of(100u64..1_000_000)
            )
                .prop_map(|(dt_us, acked, rtt_us)| Ev::Ack {
                    dt_us,
                    acked,
                    rtt_us
                }),
            (0usize..200).prop_map(|flight_segs| Ev::Loss { flight_segs }),
            (0usize..200).prop_map(|flight_segs| Ev::Rto { flight_segs }),
            Just(Ev::Idle),
            (536usize..9_200).prop_map(|mss| Ev::Mss { mss }),
        ]
    }

    proptest! {
        /// Every controller keeps `cwnd >= 1 MSS` and `ssthresh >= 2 MSS`
        /// under arbitrary ack/loss/RTO/idle/MSS-renegotiation sequences
        /// (and `cwnd` never exceeds the construction-time cap).
        #[test]
        fn window_invariants_hold_under_arbitrary_events(
            algo_idx in 0usize..3,
            evs in proptest::collection::vec(ev_strategy(), 1..200),
        ) {
            let algo = CcAlgo::all()[algo_idx];
            let mut mss = MSS;
            let mut cc = algo.build(mss, CAP);
            let mut now = SimTime::ZERO;
            for ev in &evs {
                match *ev {
                    Ev::Ack { dt_us, acked, rtt_us } => {
                        now += lrp_sim::SimDuration::from_micros(dt_us);
                        cc.on_ack(now, acked, rtt_us.map(|u| u as f64 / 1e6));
                    }
                    Ev::Loss { flight_segs } => cc.on_loss(flight_segs * mss),
                    Ev::Rto { flight_segs } => cc.on_rto(flight_segs * mss),
                    Ev::Idle => cc.on_idle_restart(),
                    Ev::Mss { mss: m } => {
                        mss = m;
                        cc.on_mss_negotiated(m);
                    }
                }
                prop_assert!(
                    cc.cwnd() >= mss,
                    "{algo:?}: cwnd {} < 1 MSS ({mss}) after {ev:?}",
                    cc.cwnd()
                );
                prop_assert!(
                    cc.ssthresh() >= 2 * mss,
                    "{algo:?}: ssthresh {} < 2 MSS ({mss}) after {ev:?}",
                    cc.ssthresh()
                );
                // The cap applies on the ACK path; the loss path may
                // transiently overshoot (BSD's ssthresh + 3 MSS inflation,
                // preserved verbatim for bit-identity) until the next ACK
                // clamps it.
                if matches!(ev, Ev::Ack { .. }) {
                    prop_assert!(cc.cwnd() <= CAP.max(2 * mss), "{algo:?}: cwnd above cap");
                }
            }
        }
    }
}
