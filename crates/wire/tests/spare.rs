//! The spare list's property: it is a stack, and it makes an item only
//! when it holds none, so what it made is bounded by the peak live.

use lrp_wire::spare::{SpareList, SpareStats};
use proptest::prelude::*;

/// One step against the list: take an item, give one of the live ones
/// back, or drop one (it leaves, as a box does at thread teardown).
#[derive(Clone, Debug)]
enum Op {
    Take,
    Give(sample::Index),
    Drop(sample::Index),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Take),
        any::<sample::Index>().prop_map(Op::Give),
        any::<sample::Index>().prop_map(Op::Drop),
    ]
}

proptest! {
    /// Against a model (a stack of spare ids and a count of ids
    /// made): every take hands out the id given last, or a new one
    /// only when none is spare; the counters equal the model's; and
    /// pooled + live + dropped = made ≤ peak live + dropped, which
    /// with nothing dropped is the bound the users rely on.
    #[test]
    fn the_list_is_a_stack_bounded_by_the_peak(ops in collection::vec(op(), 1..300)) {
        let mut list = SpareList::new();
        let (mut spare, mut made) = (Vec::new(), 0u64);
        let (mut live, mut dropped, mut peak) = (Vec::new(), 0u64, 0);
        for op in ops {
            match op {
                Op::Take => {
                    let want = spare.pop().unwrap_or(made);
                    let got = list.take_or_make(|| made);
                    if got == made {
                        made += 1;
                    }
                    prop_assert_eq!(got, want);
                    live.push(got);
                }
                Op::Give(ix) if !live.is_empty() => {
                    let t = live.swap_remove(ix.index(live.len()));
                    list.give(t);
                    spare.push(t);
                }
                Op::Drop(ix) if !live.is_empty() => {
                    live.swap_remove(ix.index(live.len()));
                    dropped += 1;
                }
                _ => {}
            }
            peak = peak.max(live.len());
            let s = list.stats();
            prop_assert_eq!(s, SpareStats { pooled: spare.len(), made });
            prop_assert_eq!(s.pooled as u64 + live.len() as u64 + dropped, s.made);
            prop_assert!(s.made <= peak as u64 + dropped, "{:?} past a peak of {}", s, peak);
        }
    }
}
