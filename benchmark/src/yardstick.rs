//! The yardstick: how fast the core runs instructions for this process
//! right now, read beside every timed region.
//!
//! The machines this benchmark runs on are guests of shared hosts. On
//! the build machine the core clock moves between 3.3 and 4.2 GHz with
//! the other tenants' load, in steps, for seconds to minutes at a time;
//! and at one clock the core still issues up to 1.5 times fewer
//! instructions per second for minutes on end (a tenant on the core's
//! other hardware thread). A single-threaded simulator's host time moves
//! with both. That is the machine's mood, not the program's cost, and it
//! is wider than any bound worth holding a change to (see README,
//! "Noise").
//!
//! Eight independent multiply-add chains — register arithmetic only, a
//! fixed number of instructions per step, bound by how many the core
//! issues per second, so slowed by a lower clock and by a busy sibling
//! thread alike — are therefore timed before and after every timed
//! region. A region's host time divided by the mean of the two readings
//! counts the region in yardstick steps; times [`REF_STEP_NS`] states it
//! as seconds on a core that runs a step in that time. Every time this
//! package reports is such a scaled time; the raw clock time of the reps
//! is reported beside it (`bench.wall_raw_s`).
//!
//! The chains touch no memory, so nothing the simulator does to the
//! caches can move a reading; what the neighbours do to the caches is
//! not seen either, and stays in the numbers.

use std::hint::black_box;
use std::time::Instant;

/// The yardstick's nanoseconds per step on the core all times are stated
/// for: eight multiplies through one multiplier at 3.33 GHz, the build
/// machine's usual state, so that there a scaled second mostly reads
/// like a raw one.
pub const REF_STEP_NS: f64 = 2.4;

/// Independent chains per step.
const CHAINS: usize = 8;
/// Steps per sample: ~12 µs.
const STEPS: u64 = 5_000;
/// Samples per reading. The middle one counts: a timer interrupt spoils
/// at most one, and the fastest would overlook a busy sibling.
const SAMPLES: usize = 3;

/// One reading: the chains' nanoseconds per step right now.
pub fn step_ns() -> f64 {
    let mut samples = [0.0; SAMPLES];
    for sample in &mut samples {
        let seed = black_box(1u64);
        let mut chains = [seed; CHAINS];
        let t0 = Instant::now();
        for i in 0..STEPS {
            for (j, x) in chains.iter_mut().enumerate() {
                *x = x
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i ^ j as u64);
            }
        }
        *sample = t0.elapsed().as_secs_f64() * 1e9 / STEPS as f64;
        black_box(chains);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("a time is never NaN"));
    samples[SAMPLES / 2]
}

/// `raw_s` host seconds, measured between the readings `before` and
/// `after`, as seconds on the reference core.
pub fn scaled(raw_s: f64, before: f64, after: f64) -> f64 {
    raw_s * REF_STEP_NS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_arithmetic() {
        // On the reference core a second is a second.
        assert_eq!(scaled(2.0, REF_STEP_NS, REF_STEP_NS), 2.0);
        // A core a quarter slower (steps a quarter longer) did a quarter
        // less work in the same time.
        let slow = REF_STEP_NS * 1.25;
        assert!((scaled(2.0, slow, slow) - 1.6).abs() < 1e-12);
        // The readings either side of the region are averaged.
        assert!((scaled(1.0, REF_STEP_NS, REF_STEP_NS * 3.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_reading_is_a_plausible_step_time() {
        // Eight multiplies: 0.2 ns (8 GHz, eight multipliers) to 40 ns.
        let ns = step_ns();
        assert!(ns > 0.2 && ns < 40.0, "{ns} ns per step");
    }
}
