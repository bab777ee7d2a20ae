//! Property tests for the simulation engine: the event queue against a
//! reference model, and statistics invariants.

use lrp_sim::{EventQueue, Histogram, RateSeries, SimDuration, SimTime, Welford};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum QOp {
    Schedule { at_us: u64 },
    Pop,
    PopBefore { limit_us: u64 },
    PeekTime,
}

fn arb_qop() -> impl Strategy<Value = QOp> {
    prop_oneof![
        // Four distinct instants: most schedules tie with a pending event,
        // so the FIFO tie-break decides most pops.
        (0u64..4).prop_map(|at_us| QOp::Schedule { at_us }),
        (0u64..64).prop_map(|at_us| QOp::Schedule { at_us }),
        Just(QOp::Pop),
        (0u64..64).prop_map(|limit_us| QOp::PopBefore { limit_us }),
        Just(QOp::PeekTime),
    ]
}

proptest! {
    /// The event queue agrees with a stably sorted `Vec` of
    /// `(time, seq, payload)` under arbitrary schedule / pop /
    /// `pop_before` / `peek_time` sequences: the front of the vector is
    /// the earliest time, and among equal times the earliest scheduled.
    /// `len`, `is_empty` and `peek_time` agree after every op, so a
    /// vacant top left by a pop is never counted or peeked.
    #[test]
    fn event_queue_matches_sorted_vec_model(ops in proptest::collection::vec(arb_qop(), 1..400)) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, u64, usize)> = Vec::new();
        let mut next_seq = 0u64;
        for (payload, op) in ops.into_iter().enumerate() {
            match op {
                QOp::Schedule { at_us } => {
                    let t = SimTime::from_micros(at_us);
                    q.schedule(t, payload);
                    model.push((t, next_seq, payload));
                    next_seq += 1;
                    // Stable: equal times keep their schedule order.
                    model.sort_by_key(|&(t, ..)| t);
                }
                QOp::Pop => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(q.pop(), want.map(|(t, _, p)| (t, p)));
                }
                QOp::PopBefore { limit_us } => {
                    let limit = SimTime::from_micros(limit_us);
                    let due = model.first().is_some_and(|&(t, ..)| t <= limit);
                    let want = due.then(|| model.remove(0));
                    prop_assert_eq!(q.pop_before(limit), want.map(|(t, _, p)| (t, p)));
                }
                QOp::PeekTime => {
                    prop_assert_eq!(q.peek_time(), model.first().map(|&(t, ..)| t));
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.first().map(|&(t, ..)| t));
        }
        for (t, _, p) in model {
            prop_assert_eq!(q.pop(), Some((t, p)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Times drawn from the whole `u64` nanosecond range, with repeats,
    /// drain as a stable sort of the schedule order: no time scale is
    /// ordered differently from another.
    #[test]
    fn event_queue_drains_full_range_times_as_stable_sort(
        times in proptest::collection::vec(
            prop_oneof![any::<u64>(), 0u64..8, (u64::MAX - 8)..=u64::MAX],
            0..300,
        )
    ) {
        let mut q = EventQueue::new();
        for (i, &ns) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(ns), i);
        }
        let mut want: Vec<(SimTime, usize)> =
            times.iter().enumerate().map(|(i, &ns)| (SimTime::from_nanos(ns), i)).collect();
        want.sort_by_key(|&(t, _)| t);
        let got: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(got, want);
    }

    /// The simulator's own pattern: every event is scheduled at the
    /// current time plus a non-negative delay. Popped times never go
    /// backwards, and events due at one instant pop in schedule order.
    #[test]
    fn event_queue_pops_are_monotone_under_relative_scheduling(
        delays in proptest::collection::vec((0u64..3, 1usize..4), 1..300)
    ) {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0usize);
        let mut next = 1usize;
        let mut last: Option<(SimTime, usize)> = None;
        let mut steps = delays.iter().cycle();
        for _ in 0..delays.len() * 4 {
            let Some((now, id)) = q.pop() else { break };
            if let Some((at, prev)) = last {
                prop_assert!(now > at || (now == at && id > prev), "{id} at {now:?} after {prev} at {at:?}");
            }
            last = Some((now, id));
            let &(delay_us, fanout) = steps.next().unwrap();
            for _ in 0..fanout {
                q.schedule(now + SimDuration::from_micros(delay_us), next);
                next += 1;
            }
        }
    }

    /// Welford's mean equals the arithmetic mean to floating tolerance.
    #[test]
    fn welford_mean_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        prop_assert_eq!(w.count(), xs.len() as u64);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
    }

    /// Histogram quantiles stay within bucket resolution of exact
    /// order statistics.
    #[test]
    fn histogram_quantile_accuracy(xs in proptest::collection::vec(0u64..10_000_000, 10..400)) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let approx = h.quantile(q);
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let exact = sorted[rank - 1];
            // Values below 32 are exact; above, within the stated bound.
            prop_assert!(
                approx.abs_diff(exact) as f64 <= exact as f64 * Histogram::RELATIVE_ERROR,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
    }

    /// Any split of a sample stream, merged back, is the histogram of the
    /// whole stream.
    #[test]
    fn histogram_merge_of_any_split_is_the_whole(
        xs in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..300),
    ) {
        let (mut whole, mut a, mut b) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &(x, left) in &xs {
            whole.record(x);
            if left { &mut a } else { &mut b }.record(x);
        }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    /// Merging is commutative and associative: three shards fold to the
    /// same histogram in any order.
    #[test]
    fn histogram_merge_order_is_irrelevant(
        shards in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..50), 3),
    ) {
        let hs: Vec<Histogram> = shards
            .iter()
            .map(|xs| {
                let mut h = Histogram::new();
                xs.iter().for_each(|&x| h.record(x));
                h
            })
            .collect();
        let fold = |order: [usize; 3]| {
            let mut acc = Histogram::new();
            order.iter().for_each(|&i| acc.merge(&hs[i]));
            acc
        };
        let first = fold([0, 1, 2]);
        for order in [[2, 1, 0], [1, 2, 0], [0, 2, 1]] {
            prop_assert_eq!(&fold(order), &first);
        }
        let mut right = hs[1].clone();
        right.merge(&hs[2]);
        let mut left = hs[0].clone();
        left.merge(&right);
        prop_assert_eq!(left, first);
    }

    /// Quantiles are monotone in `q`, never above the exact maximum, and
    /// reach it at `q = 1`.
    #[test]
    fn histogram_quantiles_monotone_up_to_max(
        xs in proptest::collection::vec(0u64..1 << 48, 1..300),
    ) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut prev = h.quantile(0.0);
        for i in 1..=100 {
            let q = h.quantile(i as f64 / 100.0);
            prop_assert!(q >= prev, "q{i}: {q} < {prev}");
            prop_assert!(q <= h.max());
            prev = q;
        }
        prop_assert_eq!(prev, h.max());
    }

    /// The histogram is a function of the sample multiset: recording the
    /// same samples in reverse gives the identical state.
    #[test]
    fn histogram_is_independent_of_recording_order(
        xs in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let (mut fwd, mut rev) = (Histogram::new(), Histogram::new());
        xs.iter().for_each(|&x| fwd.record(x));
        xs.iter().rev().for_each(|&x| rev.record(x));
        prop_assert_eq!(fwd, rev);
    }

    /// Rate series conserve events: sum of buckets equals records.
    #[test]
    fn rate_series_conserves(events in proptest::collection::vec((0u64..10_000, 1u64..5), 0..300)) {
        let mut r = RateSeries::new(SimTime::ZERO, SimDuration::from_millis(100));
        let mut total = 0u64;
        for &(ms, n) in &events {
            r.record(SimTime::from_millis(ms), n);
            total += n;
        }
        prop_assert_eq!(r.buckets().iter().sum::<u64>(), total);
    }
}
