//! Property tests for the frame arena: exact accounting, no aliasing of
//! live buffers, and bounded storage under any interleaving of checkouts
//! and returns.

use lrp_mbuf::{FrameArena, PooledBuf};
use proptest::prelude::*;
use std::collections::HashSet;
use std::rc::Rc;

/// One step of an arena workload.
#[derive(Clone, Debug)]
enum Op {
    /// Build a frame of this many bytes and adopt it.
    Adopt(usize),
    /// Share the picked live buffer (a second reference).
    Share(sample::Index),
    /// Reclaim the picked reference.
    Reclaim(sample::Index),
    /// Take scratch storage of this capacity and give it straight back.
    Scratch(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..10_000).prop_map(Op::Adopt),
        any::<sample::Index>().prop_map(Op::Share),
        any::<sample::Index>().prop_map(Op::Reclaim),
        (0usize..70_000).prop_map(Op::Scratch),
    ]
}

proptest! {
    /// A buffer is retired only when its last reference comes back, so
    /// the live boxes are the distinct buffers held; a box is made only
    /// for a checkout; and cached storage stays within its byte bound.
    #[test]
    fn accounting_is_exact_under_any_interleaving(ops in collection::vec(op(), 1..300)) {
        let mut arena = FrameArena::new();
        let mut refs: Vec<Rc<PooledBuf>> = Vec::new();
        for op in ops {
            match op {
                Op::Adopt(len) => {
                    let v = arena.take_storage(len);
                    refs.push(arena.adopt(v));
                }
                Op::Share(ix) if !refs.is_empty() => {
                    let r = Rc::clone(&refs[ix.index(refs.len())]);
                    refs.push(r);
                }
                Op::Reclaim(ix) if !refs.is_empty() => {
                    arena.reclaim(refs.swap_remove(ix.index(refs.len())));
                }
                Op::Scratch(cap) => {
                    let v = arena.take_storage(cap);
                    arena.give_storage(v);
                }
                _ => {}
            }
            let s = arena.stats();
            let distinct: HashSet<*const PooledBuf> = refs.iter().map(Rc::as_ptr).collect();
            prop_assert_eq!(s.boxes.live(), distinct.len());
            prop_assert!(s.boxes.made <= s.checkouts);
            prop_assert!(s.cached_bytes <= 4 << 20);
        }
        for r in refs {
            arena.reclaim(r);
        }
        prop_assert_eq!(arena.stats().boxes.live(), 0);
    }

    /// Recycling never hands a live buffer's bytes to another frame:
    /// every live buffer still holds what it was built with.
    #[test]
    fn live_buffers_are_never_aliased(ops in collection::vec(op(), 1..200)) {
        let mut arena = FrameArena::new();
        let mut live: Vec<(Rc<Vec<u8>>, Rc<PooledBuf>)> = Vec::new();
        let mut next = 0usize;
        for op in ops {
            match op {
                Op::Adopt(len) => {
                    let want: Vec<u8> = (0..len).map(|i| (next * 31 + i) as u8).collect();
                    let mut v = arena.take_storage(len);
                    v.extend_from_slice(&want);
                    live.push((Rc::new(want), arena.adopt(v)));
                    next += 1;
                }
                Op::Share(ix) if !live.is_empty() => {
                    let (want, r) = &live[ix.index(live.len())];
                    let shared = (Rc::clone(want), Rc::clone(r));
                    live.push(shared);
                }
                Op::Reclaim(ix) if !live.is_empty() => {
                    arena.reclaim(live.swap_remove(ix.index(live.len())).1);
                }
                Op::Scratch(cap) => {
                    let mut v = arena.take_storage(cap);
                    v.resize(cap, 0xEE);
                    arena.give_storage(v);
                }
                _ => {}
            }
            for (want, r) in &live {
                prop_assert!(r.bytes() == &want[..]);
            }
        }
    }

    /// Scratch storage comes back empty, large enough, and from the
    /// request's own power of two (less than twice the request).
    #[test]
    fn storage_is_served_from_its_own_band(
        caps in collection::vec((1usize..70_000, any::<bool>()), 1..200),
    ) {
        let mut arena = FrameArena::new();
        let mut held = Vec::new();
        for (cap, keep) in caps {
            let v = arena.take_storage(cap);
            prop_assert!(v.is_empty());
            prop_assert!(v.capacity() >= cap);
            prop_assert!(v.capacity() < 2 * cap, "cap {} got {}", cap, v.capacity());
            if keep {
                held.push(v);
            } else {
                arena.give_storage(v);
            }
        }
        for v in held {
            arena.give_storage(v);
        }
        prop_assert!(arena.stats().cached_bytes <= 4 << 20);
    }

    /// Each take gets between `c` and `1.125 · c` bytes, and a mix of
    /// sizes taken together, given back and taken again allocates
    /// nothing the second time: whatever a class holds fits every
    /// request of that class. Sixty takes of at most 64 KiB stay within
    /// the 4 MiB the cache keeps.
    #[test]
    fn storage_comes_in_exact_classes(caps in collection::vec(1usize..=65_536, 1..=60)) {
        let mut arena = FrameArena::new();
        let mix = |arena: &mut FrameArena| {
            let mut held = Vec::new();
            for &c in &caps {
                let v = arena.take_storage(c);
                prop_assert!(v.is_empty());
                prop_assert!(v.capacity() >= c && v.capacity() * 8 <= c * 9,
                    "{} got {}", c, v.capacity());
                held.push(v);
            }
            held.into_iter().for_each(|v| arena.give_storage(v));
        };
        mix(&mut arena);
        let warm = arena.stats();
        prop_assert_eq!(warm.storage_allocs, caps.len() as u64);
        mix(&mut arena);
        mix(&mut arena);
        prop_assert_eq!(arena.stats(), warm);
    }
}
