//! Deterministic link-fault injection.
//!
//! A [`FaultPlan`] describes what can go wrong on the wire between a
//! transmitter and one destination host: random loss (independent
//! Bernoulli or bursty Gilbert–Elliott), payload corruption (a single
//! bit-flip, which the receiving stack must catch in its IP/UDP/TCP
//! checksum verify paths), frame duplication, bounded reordering, and
//! timed link pauses. [`LinkFaults`] is the runtime: it owns a dedicated
//! [`SplitMix64`] stream so a faulty run replays bit-identically from its
//! seed, and it counts every injected fault in [`FaultStats`] so
//! experiments can attribute wire-level losses that the destination host
//! never sees.
//!
//! Faults are applied at link *delivery* (when the world schedules the
//! frame's arrival), not inside the host: the paper's architectures differ
//! in how the *host* processes packets, so the adversity must be identical
//! for all of them and must not consume any simulated host resource.
//!
//! [`FaultPlan::none`] is inert by construction: the world bypasses the
//! fault path entirely for it, and even when called, [`LinkFaults::apply`]
//! draws nothing from the RNG — a no-fault run is bit-identical to a
//! build without this module.

use lrp_sim::{SimDuration, SimTime, SplitMix64};
use lrp_wire::Frame;

/// Random-loss model for one link direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossModel {
    /// No random loss.
    None,
    /// Independent loss: each frame is dropped with probability `p`.
    Bernoulli {
        /// Per-frame drop probability.
        p: f64,
    },
    /// Two-state bursty loss (Gilbert–Elliott). Before each frame the
    /// chain takes one step (good→bad with probability `p_gb`, bad→good
    /// with probability `p_bg`), then the frame is dropped with the
    /// current state's loss probability. The stationary probability of
    /// the bad state is `p_gb / (p_gb + p_bg)` and bad-state sojourns
    /// are geometric with mean `1 / p_bg` frames.
    GilbertElliott {
        /// Good→bad transition probability per frame.
        p_gb: f64,
        /// Bad→good transition probability per frame.
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Long-run expected loss rate of the model.
    pub fn stationary_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                if p_gb + p_bg == 0.0 {
                    return loss_good; // Chain never leaves the good state.
                }
                let pi_bad = p_gb / (p_gb + p_bg);
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }

    fn is_none(&self) -> bool {
        matches!(self, LossModel::None)
    }
}

/// What a link does to frames bound for one destination host.
///
/// All probabilities are per-frame. The plan is declarative; the mutable
/// runtime (RNG, Gilbert–Elliott state, counters) lives in
/// [`LinkFaults`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
    /// Random-loss model.
    pub loss: LossModel,
    /// Probability of flipping one random bit in the frame.
    pub corrupt_p: f64,
    /// Probability of delivering a second copy of the frame.
    pub duplicate_p: f64,
    /// Probability of delaying the frame by a uniform extra amount in
    /// `(0, reorder_max_delay]`, letting later frames overtake it.
    pub reorder_p: f64,
    /// Upper bound of the reordering delay.
    pub reorder_max_delay: SimDuration,
    /// Link pause windows `(from, until)`: frames that would arrive
    /// inside a window are held and delivered at `until` (in their
    /// original order) — a timed link flap.
    pub pauses: Vec<(SimTime, SimTime)>,
}

impl FaultPlan {
    /// The inert plan: nothing is injected and no RNG draws are made.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss: LossModel::None,
            corrupt_p: 0.0,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            reorder_max_delay: SimDuration::ZERO,
            pauses: Vec::new(),
        }
    }

    /// Independent (Bernoulli) loss only.
    pub fn bernoulli(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            loss: LossModel::Bernoulli { p },
            ..FaultPlan::none()
        }
    }

    /// Bursty (Gilbert–Elliott) loss only.
    pub fn gilbert_elliott(seed: u64, p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        FaultPlan {
            seed,
            loss: LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            },
            ..FaultPlan::none()
        }
    }

    /// True if this plan can never affect a frame.
    pub fn is_none(&self) -> bool {
        self.loss.is_none()
            && self.corrupt_p == 0.0
            && self.duplicate_p == 0.0
            && self.reorder_p == 0.0
            && self.pauses.is_empty()
    }

    fn assert_valid(&self) {
        let check = |p: f64, what: &str| {
            assert!((0.0..=1.0).contains(&p), "invalid {what} probability {p}");
        };
        match self.loss {
            LossModel::None => {}
            LossModel::Bernoulli { p } => check(p, "loss"),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                check(p_gb, "good->bad");
                check(p_bg, "bad->good");
                check(loss_good, "good-state loss");
                check(loss_bad, "bad-state loss");
            }
        }
        check(self.corrupt_p, "corruption");
        check(self.duplicate_p, "duplication");
        check(self.reorder_p, "reordering");
        if self.reorder_p > 0.0 {
            assert!(
                self.reorder_max_delay > SimDuration::ZERO,
                "reorder_p > 0 requires a positive reorder_max_delay"
            );
        }
        for &(from, until) in &self.pauses {
            assert!(from < until, "empty pause window {from}..{until}");
        }
    }
}

/// Counters for every fault injected on one link direction.
///
/// Frames dropped or mutated here never reach the destination NIC, so the
/// destination's packet ledger cannot account for them; these counters
/// close that gap (`offered = delivered + dropped`, with duplicates
/// counted on the delivered side).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames presented to the fault stage.
    pub offered: u64,
    /// Frame deliveries scheduled (includes duplicates).
    pub delivered: u64,
    /// Frames dropped by the loss model.
    pub dropped: u64,
    /// Frames with one bit flipped.
    pub corrupted: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Frames given an extra reordering delay.
    pub reordered: u64,
    /// Frames held by a pause window.
    pub paused: u64,
}

impl FaultStats {
    /// Total faults injected (of any kind).
    pub fn injected(&self) -> u64 {
        self.dropped + self.corrupted + self.duplicated + self.reordered + self.paused
    }
}

/// The runtime of a [`FaultPlan`] on one link direction: dedicated RNG,
/// Gilbert–Elliott channel state, and fault counters.
#[derive(Debug)]
pub struct LinkFaults {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Gilbert–Elliott: currently in the bad state.
    bad: bool,
    /// Counters, exported to experiment reports.
    pub stats: FaultStats,
}

impl LinkFaults {
    /// Creates the runtime for `plan`.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or a pause window is
    /// empty.
    pub fn new(plan: FaultPlan) -> Self {
        plan.assert_valid();
        let rng = SplitMix64::new(plan.seed);
        LinkFaults {
            plan,
            rng,
            bad: false,
            stats: FaultStats::default(),
        }
    }

    /// The plan this runtime executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the loss verdict for one frame. Consumes RNG only when a
    /// loss model is configured.
    fn lose(&mut self) -> bool {
        match self.plan.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => self.rng.next_bool(p),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                let flip = self.rng.next_bool(if self.bad { p_bg } else { p_gb });
                if flip {
                    self.bad = !self.bad;
                }
                self.rng
                    .next_bool(if self.bad { loss_bad } else { loss_good })
            }
        }
    }

    /// Passes one frame due at `arrival` through the fault stage and
    /// returns the deliveries to schedule: empty if the frame was lost,
    /// one entry normally, two if duplicated. Applied per destination at
    /// link-delivery time; an inert plan returns the frame untouched
    /// without consuming any randomness.
    pub fn apply(&mut self, arrival: SimTime, frame: Frame) -> Deliveries {
        self.stats.offered += 1;
        if self.plan.is_none() {
            self.stats.delivered += 1;
            return Deliveries([Some((arrival, frame)), None]);
        }

        // Pause windows are schedule-driven, no randomness involved.
        let mut at = arrival;
        for &(from, until) in &self.plan.pauses {
            if at >= from && at < until {
                at = until;
                self.stats.paused += 1;
                break;
            }
        }

        if self.lose() {
            self.stats.dropped += 1;
            return Deliveries([None, None]);
        }

        let mut frame = frame;
        if self.plan.corrupt_p > 0.0 && self.rng.next_bool(self.plan.corrupt_p) {
            let (Frame::Ipv4(b) | Frame::Arp(b)) = &mut frame;
            if !b.is_empty() {
                let bit = self.rng.next_below(b.len() as u64 * 8);
                b.make_mut()[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.stats.corrupted += 1;
            }
        }

        let duplicate = self.plan.duplicate_p > 0.0 && self.rng.next_bool(self.plan.duplicate_p);

        if self.plan.reorder_p > 0.0 && self.rng.next_bool(self.plan.reorder_p) {
            let extra = self
                .rng
                .next_range(1, self.plan.reorder_max_delay.as_nanos());
            at += SimDuration::from_nanos(extra);
            self.stats.reordered += 1;
        }

        self.stats.delivered += 1;
        if duplicate {
            // The copy arrives right behind the original (same instant;
            // FIFO tie-break keeps the order deterministic).
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
            return Deliveries([Some((at, frame.clone())), Some((at, frame))]);
        }
        Deliveries([Some((at, frame)), None])
    }
}

/// What [`LinkFaults::apply`] makes of one frame, held inline: nothing
/// (lost), one delivery, or two (duplicated), filled from the front.
#[derive(Clone, Debug, PartialEq)]
pub struct Deliveries([Option<(SimTime, Frame)>; 2]);

impl Deliveries {
    /// Number of deliveries (0, 1 or 2).
    pub fn len(&self) -> usize {
        self.0.iter().flatten().count()
    }

    /// True if the frame was lost.
    pub fn is_empty(&self) -> bool {
        self.0[0].is_none()
    }
}

impl std::ops::Index<usize> for Deliveries {
    type Output = (SimTime, Frame);

    fn index(&self, i: usize) -> &(SimTime, Frame) {
        self.0[i].as_ref().expect("delivery index out of range")
    }
}

impl IntoIterator for Deliveries {
    type Item = (SimTime, Frame);
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<(SimTime, Frame)>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_wire::FrameBuf;

    fn frame(n: usize) -> Frame {
        Frame::ipv4(vec![0xAA; n])
    }

    #[test]
    fn none_plan_is_inert_and_draws_nothing() {
        let mut f = LinkFaults::new(FaultPlan::none());
        let rng_before = format!("{:?}", f.rng);
        for i in 0..100u64 {
            let at = SimTime::from_micros(i);
            let out = f.apply(at, frame(64));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, at);
            assert_eq!(out[0].1, frame(64));
        }
        assert_eq!(format!("{:?}", f.rng), rng_before, "RNG was consumed");
        assert_eq!(f.stats.offered, 100);
        assert_eq!(f.stats.delivered, 100);
        assert_eq!(f.stats.injected(), 0);
    }

    #[test]
    fn bernoulli_loss_rate_converges() {
        let mut f = LinkFaults::new(FaultPlan::bernoulli(42, 0.2));
        for _ in 0..50_000 {
            f.apply(SimTime::ZERO, frame(64));
        }
        let rate = f.stats.dropped as f64 / f.stats.offered as f64;
        assert!((rate - 0.2).abs() < 0.01, "loss rate {rate}");
        assert_eq!(f.stats.delivered + f.stats.dropped, f.stats.offered);
    }

    #[test]
    fn same_seed_same_fate() {
        let mk = || {
            let mut plan = FaultPlan::bernoulli(7, 0.3);
            plan.corrupt_p = 0.1;
            plan.duplicate_p = 0.05;
            plan.reorder_p = 0.2;
            plan.reorder_max_delay = SimDuration::from_micros(500);
            LinkFaults::new(plan)
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..10_000u64 {
            let at = SimTime::from_nanos(i * 1000);
            assert_eq!(a.apply(at, frame(128)), b.apply(at, frame(128)));
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.injected() > 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut plan = FaultPlan::none();
        plan.corrupt_p = 1.0;
        plan.seed = 3;
        let mut f = LinkFaults::new(plan);
        for _ in 0..100 {
            let out = f.apply(SimTime::ZERO, frame(32));
            let bytes = out[0].1.bytes();
            let flipped: u32 = bytes.iter().map(|b| (b ^ 0xAA).count_ones()).sum();
            assert_eq!(flipped, 1);
        }
        assert_eq!(f.stats.corrupted, 100);
    }

    #[test]
    fn duplicates_arrive_with_the_original() {
        let mut plan = FaultPlan::none();
        plan.duplicate_p = 1.0;
        let mut f = LinkFaults::new(plan);
        let at = SimTime::from_millis(1);
        let out = f.apply(at, frame(64));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0].0, at);
        assert_eq!(f.stats.duplicated, 1);
        assert_eq!(f.stats.delivered, 2);
    }

    #[test]
    fn duplicate_shares_the_original_buffer() {
        // Duplication is a reference-count bump, not a byte copy: both
        // deliveries must point at the same arena buffer.
        let mut plan = FaultPlan::none();
        plan.duplicate_p = 1.0;
        let mut f = LinkFaults::new(plan);
        let out = f.apply(SimTime::ZERO, frame(1500));
        assert_eq!(out.len(), 2);
        let (Frame::Ipv4(a) | Frame::Arp(a)) = &out[0].1;
        let (Frame::Ipv4(b) | Frame::Arp(b)) = &out[1].1;
        assert!(FrameBuf::ptr_eq(a, b), "duplicate copied the frame bytes");
    }

    #[test]
    fn reordering_delay_is_bounded() {
        let mut plan = FaultPlan::none();
        plan.reorder_p = 1.0;
        plan.reorder_max_delay = SimDuration::from_micros(100);
        plan.seed = 11;
        let mut f = LinkFaults::new(plan);
        let at = SimTime::from_millis(5);
        for _ in 0..1000 {
            let out = f.apply(at, frame(64));
            let delay = out[0].0.since(at);
            assert!(delay > SimDuration::ZERO);
            assert!(delay <= SimDuration::from_micros(100));
        }
        assert_eq!(f.stats.reordered, 1000);
    }

    #[test]
    fn pause_window_defers_to_window_end() {
        let mut plan = FaultPlan::none();
        plan.pauses = vec![(SimTime::from_millis(10), SimTime::from_millis(20))];
        let mut f = LinkFaults::new(plan);
        // Before the window: untouched.
        let out = f.apply(SimTime::from_millis(5), frame(64));
        assert_eq!(out[0].0, SimTime::from_millis(5));
        // Inside: held until the window ends.
        let out = f.apply(SimTime::from_millis(15), frame(64));
        assert_eq!(out[0].0, SimTime::from_millis(20));
        // At the end boundary (exclusive): untouched.
        let out = f.apply(SimTime::from_millis(20), frame(64));
        assert_eq!(out[0].0, SimTime::from_millis(20));
        assert_eq!(f.stats.paused, 1);
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Strongly bursty: rare long bad spells, lossless good state.
        let mut f = LinkFaults::new(FaultPlan::gilbert_elliott(13, 0.01, 0.1, 0.0, 1.0));
        let mut drops = Vec::new();
        for i in 0..100_000u64 {
            let before = f.stats.dropped;
            f.apply(SimTime::from_nanos(i), frame(64));
            drops.push(f.stats.dropped > before);
        }
        // Count maximal runs of consecutive drops.
        let mut runs = Vec::new();
        let mut cur = 0u64;
        for &d in &drops {
            if d {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        let mean_run = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        // Mean bad sojourn is 1/p_bg = 10 frames; Bernoulli loss at the
        // same rate would have mean run ≈ 1.1.
        assert!(mean_run > 5.0, "mean drop-run {mean_run}, not bursty");
        let rate = f.stats.dropped as f64 / f.stats.offered as f64;
        let expect = f.plan().loss.stationary_loss();
        assert!((rate - expect).abs() < 0.02, "rate {rate} vs {expect}");
    }

    #[test]
    fn stationary_loss_formula() {
        assert_eq!(LossModel::None.stationary_loss(), 0.0);
        assert_eq!(LossModel::Bernoulli { p: 0.25 }.stationary_loss(), 0.25);
        let ge = LossModel::GilbertElliott {
            p_gb: 0.1,
            p_bg: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert!((ge.stationary_loss() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        LinkFaults::new(FaultPlan::bernoulli(1, 1.5));
    }
}
