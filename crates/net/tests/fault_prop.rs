//! Property tests for the Gilbert–Elliott loss model: the empirical
//! behaviour of the two-state chain must match the closed-form
//! predictions derived from its transition parameters.

use lrp_net::{FaultPlan, LinkFaults};
use lrp_sim::SimTime;
use lrp_wire::{udp, Frame, Ipv4Addr};
use proptest::prelude::*;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn frame(seq: u16) -> Frame {
    Frame::ipv4(udp::build_datagram(
        A, B, 6000, 9000, seq, &[0u8; 32], false,
    ))
}

/// Feeds `n` frames through the fault stage; returns per-frame delivery
/// (`true` = delivered).
fn drive(plan: FaultPlan, n: usize) -> Vec<bool> {
    let mut lf = LinkFaults::new(plan);
    (0..n)
        .map(|i| {
            let t = SimTime::from_micros(i as u64 * 100);
            !lf.apply(t, frame((i & 0xFFFF) as u16)).is_empty()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Long-run empirical loss converges on the stationary probability
    /// `pi_bad * loss_bad + pi_good * loss_good`.
    #[test]
    fn long_run_loss_matches_stationary_probability(
        seed in any::<u32>(),
        p_gb in 0.02f64..0.3,
        p_bg in 0.05f64..0.5,
        loss_bad in 0.5f64..1.0,
        loss_good in 0.0f64..0.05,
    ) {
        let plan = FaultPlan::gilbert_elliott(seed as u64, p_gb, p_bg, loss_good, loss_bad);
        let expected = plan.loss.stationary_loss();
        prop_assert!(expected > 0.0);
        let n = 50_000;
        let delivered = drive(plan, n);
        let lost = delivered.iter().filter(|d| !**d).count();
        let empirical = lost as f64 / n as f64;
        // Binomial-ish noise plus chain mixing time: 3 percentage points
        // absolute is generous at n = 50k yet tight enough to catch a
        // transposed parameter or a misweighted state.
        prop_assert!(
            (empirical - expected).abs() < 0.03,
            "empirical {empirical:.4} vs stationary {expected:.4} (p_gb={p_gb:.3} p_bg={p_bg:.3})"
        );
    }

    /// With `loss_bad = 1` and `loss_good = 0`, every loss run is exactly
    /// one bad-state residency, so the mean run of consecutive drops must
    /// match the geometric mean residency `1 / p_bg`.
    #[test]
    fn burst_length_matches_transition_parameters(
        seed in any::<u32>(),
        p_gb in 0.01f64..0.1,
        p_bg in 0.08f64..0.5,
    ) {
        let plan = FaultPlan::gilbert_elliott(seed as u64, p_gb, p_bg, 0.0, 1.0);
        let delivered = drive(plan, 60_000);
        // Collect completed runs of consecutive losses.
        let mut runs = Vec::new();
        let mut cur = 0u64;
        for d in &delivered {
            if !d {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        prop_assert!(runs.len() >= 50, "need enough bursts to average: {}", runs.len());
        let mean = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        let expected = 1.0 / p_bg;
        let rel = (mean - expected).abs() / expected;
        prop_assert!(
            rel < 0.25,
            "mean burst {mean:.2} vs expected {expected:.2} over {} bursts",
            runs.len()
        );
    }
}
