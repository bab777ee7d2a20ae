//! The event queue at the heart of the simulation.
//!
//! [`EventQueue`] is a binary min-heap of `(time, seq, event)` entries:
//! events pop in time order, and events due at the same instant pop in
//! the order they were scheduled (FIFO), because `seq` is a counter
//! stamped at `schedule`. That `(time, seq)` order is the whole contract
//! every golden digest rests on.
//!
//! There is no cancel. Nothing in the simulator needs one: the world
//! revokes a stale CPU-completion event by generation (the event fires
//! and is ignored), and kernel timers live inside the hosts, which post
//! one `Timer` event for their earliest deadline.
//!
//! # Deferred top removal
//!
//! Nearly every event the world handles schedules at least one more, so
//! a `pop` is almost always followed by a `schedule`. `pop` therefore
//! only moves the top event out and leaves its slot *vacant*; the next
//! `schedule` writes its entry into that slot and sifts it down once,
//! instead of `pop` refilling the root from the last leaf (one sift) and
//! `schedule` appending and sifting up (another). If a `pop` comes first,
//! the vacant slot is removed then in the ordinary way. Either way the
//! set of pending `(time, seq)` keys at every instant is exactly the one
//! an eager heap would hold, so the pop order — and every digest — is
//! unchanged.

use std::ptr;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    /// `None` only in the vacant top slot.
    event: Option<E>,
}

impl<E> Entry<E> {
    /// True if `self` is due before `other`: earlier time, then lower
    /// sequence number. Keys are unique, so this is a strict order.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        self.time < other.time || (self.time == other.time && self.seq < other.seq)
    }
}

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which keeps multi-component simulations reproducible.
pub struct EventQueue<E> {
    /// A binary min-heap on `(time, seq)`: each entry is due before its
    /// children (`2i + 1`, `2i + 2`). While `vacant` is set, `heap[0]`
    /// holds no event and a stale key; the heap property holds in the two
    /// subtrees below it.
    heap: Vec<Entry<E>>,
    vacant: bool,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes per queued event: the event, its `(time, seq)` key, and no
    /// more when `E` has a niche for the vacant slot's `None`. Every
    /// sift moves entries of this size.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            vacant: false,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            time,
            seq,
            event: Some(event),
        };
        if self.vacant {
            // Fill the slot the last pop left: one sift down replaces the
            // pop's refill and this schedule's sift up.
            self.vacant = false;
            self.sift_down_into_vacant(entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.vacant {
            self.remove_vacant_top();
        }
        let top = self.heap.first_mut()?;
        let event = top
            .event
            .take()
            .expect("an occupied top slot holds an event");
        self.vacant = true;
        Some((top.time, event))
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `limit`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// The time of the earliest pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.vacant {
            // The earliest pending event is the earlier of the vacant
            // top's children.
            return self.heap[1..].iter().take(2).map(|e| e.time).min();
        }
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.vacant)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event, keeping the storage.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.vacant = false;
    }

    /// Removes the vacant top slot: the last entry moves into it and sifts
    /// down, as an eager pop would have done.
    fn remove_vacant_top(&mut self) {
        self.vacant = false;
        let last = self.heap.pop().expect("a vacant slot is in the heap");
        if !self.heap.is_empty() {
            self.sift_down_into_vacant(last);
        }
    }

    /// Moves the entry at `pos` towards the root until its parent is due
    /// before it.
    fn sift_up(&mut self, mut pos: usize) {
        assert!(pos < self.heap.len());
        let base = self.heap.as_mut_ptr();
        // SAFETY: `pos` is in bounds (asserted) and every parent index is
        // smaller, so each pointer below is in bounds. The moving entry is
        // read out once, leaving a hole at `pos`; each step copies a
        // parent down into the hole and the parent's slot becomes the
        // hole; the moving entry is written into the final hole. On return
        // each slot again holds exactly one entry, none duplicated or
        // lost, and nothing in between can panic (`before` compares two
        // `Copy` keys), so no unwind can observe the hole.
        unsafe {
            let moving = ptr::read(base.add(pos));
            while pos > 0 {
                let parent = (pos - 1) / 2;
                if !moving.before(&*base.add(parent)) {
                    break;
                }
                ptr::copy_nonoverlapping(base.add(parent), base.add(pos), 1);
                pos = parent;
            }
            ptr::write(base.add(pos), moving);
        }
    }

    /// Places `moving` in the vacant top slot and moves it towards the
    /// leaves until neither child is due before it.
    fn sift_down_into_vacant(&mut self, moving: Entry<E>) {
        let len = self.heap.len();
        assert!(len > 0 && self.heap[0].event.is_none());
        let base = self.heap.as_mut_ptr();
        let mut pos = 0;
        // SAFETY: slot 0 exists (asserted) and every child index is
        // checked against `len` before use. Slot 0 holds no event, so
        // treating it as a hole drops nothing that needs dropping. The hole
        // discipline is the one in `sift_up`: copy the earlier child up
        // into the hole at each step, write `moving` into the final hole;
        // nothing in between can panic.
        unsafe {
            loop {
                let mut child = 2 * pos + 1;
                if child >= len {
                    break;
                }
                if child + 1 < len && (*base.add(child + 1)).before(&*base.add(child)) {
                    child += 1;
                }
                if !(*base.add(child)).before(&moving) {
                    break;
                }
                ptr::copy_nonoverlapping(base.add(child), base.add(pos), 1);
                pos = child;
            }
            ptr::write(base.add(pos), moving);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn a_32_byte_event_with_a_niche_queues_in_48() {
        type Event = (std::num::NonZeroU64, [u64; 3]);
        const { assert!(std::mem::size_of::<Event>() == 32) };
        const { assert!(EventQueue::<Event>::ENTRY_BYTES <= 48) };
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        let (now, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        q.schedule(now + SimDuration::from_micros(5), 2);
        q.schedule(now + SimDuration::from_micros(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.schedule(t(2), 3);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_before(t(0)), None, "nothing due: len unchanged");
        assert_eq!(q.len(), 2);
        q.pop_before(t(2));
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_before(SimTime::NEVER), None);
        assert!(q.is_empty());
    }

    #[test]
    fn pops_across_time_scales_in_order() {
        let mut q = EventQueue::new();
        // Nanoseconds to days, scheduled latest-first.
        let times = [
            5u64,
            70,
            5000,
            300_000,
            20_000_000,
            1 << 33,
            1 << 40,
            1 << 45,
            u64::MAX,
        ];
        for (i, &ns) in times.iter().enumerate().rev() {
            q.schedule(SimTime::from_nanos(ns), i);
        }
        for (i, &ns) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(ns), i)), "entry {i}");
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_fifo_after_interleaved_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(100), "first");
        q.schedule(t(40), "early");
        assert_eq!(q.pop(), Some((t(40), "early")));
        // Scheduled after a pop, at the instant of a pending event: it
        // still queues behind the one scheduled earlier.
        q.schedule(t(100), "second");
        assert_eq!(q.pop(), Some((t(100), "first")));
        assert_eq!(q.pop(), Some((t(100), "second")));
    }

    #[test]
    fn past_schedule_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(t(1000), "late");
        assert_eq!(q.pop(), Some((t(1000), "late")));
        q.schedule(t(2000), "future");
        q.schedule(t(50), "past");
        assert_eq!(q.pop(), Some((t(50), "past")));
        assert_eq!(q.pop(), Some((t(2000), "future")));
    }

    #[test]
    fn zero_delay_event_runs_before_later_ones() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.schedule(t(20), "c");
        let (now, _) = q.pop().unwrap();
        // A handler posting a follow-up at `now` (a software interrupt
        // raised by a hardware one) must run before anything later.
        q.schedule(now, "b");
        assert_eq!(q.pop(), Some((t(10), "b")));
        assert_eq!(q.pop(), Some((t(20), "c")));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        for ns in [9u64, 3, 77, 3, 4096, 1 << 43] {
            q.schedule(SimTime::from_nanos(ns), ns);
        }
        while let Some(at) = q.peek_time() {
            let (popped, _) = q.pop().expect("peeked");
            assert_eq!(at, popped);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_is_inclusive_of_its_limit() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop_before(SimTime::from_nanos(9_999)), None);
        assert_eq!(q.pop_before(t(10)), Some((t(10), 1)));
    }

    #[test]
    fn pop_before_leaves_later_events_pending() {
        let mut q = EventQueue::new();
        for us in [5, 10, 10, 15, 30] {
            q.schedule(t(us), us);
        }
        let mut due = Vec::new();
        while let Some((_, e)) = q.pop_before(t(10)) {
            due.push(e);
        }
        assert_eq!(due, [5, 10, 10]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(15)));
    }

    #[test]
    fn fifo_holds_across_heap_growth() {
        let mut q = EventQueue::new();
        // Seven instants, a thousand events: every sift path of the heap
        // sees equal keys, and each instant must still drain in order.
        for i in 0..1000u64 {
            q.schedule(t(i * 3 % 7), i);
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some((at, i)) = q.pop() {
            if let Some((prev_at, prev_i)) = last {
                assert!(
                    prev_at < at || (prev_at == at && prev_i < i),
                    "{i} after {prev_i}"
                );
            }
            last = Some((at, i));
        }
        // The last index with `i * 3 % 7 == 6`.
        assert_eq!(last, Some((t(6), 996)));
    }

    #[test]
    fn vacant_top_is_not_counted_or_peeked() {
        let mut q = EventQueue::new();
        for us in [40, 10, 30, 20] {
            q.schedule(t(us), us);
        }
        assert_eq!(q.pop(), Some((t(10), 10)));
        // The popped slot is still in the heap, but not an event.
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(t(20)));
        q.pop();
        q.pop();
        assert_eq!((q.len(), q.peek_time()), (1, Some(t(40))));
        assert_eq!(q.pop(), Some((t(40), 40)));
        // Only the vacant slot is left.
        assert_eq!((q.len(), q.is_empty(), q.peek_time()), (0, true, None));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_before_everything_right_after_a_pop() {
        let mut q = EventQueue::new();
        for us in [50, 60, 70, 80, 90] {
            q.schedule(t(us), us);
        }
        assert_eq!(q.pop(), Some((t(50), 50)));
        // Written into the vacant top, it must stay there.
        q.schedule(t(5), 5);
        assert_eq!(q.peek_time(), Some(t(5)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [5, 60, 70, 80, 90]);
    }

    #[test]
    fn pop_before_declines_right_after_a_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(30), 2);
        q.schedule(t(20), 3);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop_before(t(19)), None);
        assert_eq!(q.len(), 2, "a declined pop_before leaves both pending");
        assert_eq!(q.pop_before(t(20)), Some((t(20), 3)));
        assert_eq!(q.pop_before(t(29)), None);
        assert_eq!(q.pop(), Some((t(30), 2)));
    }

    #[test]
    fn dropping_a_queue_with_a_vacant_top_drops_each_payload_once() {
        let payload = std::rc::Rc::new(());
        let mut q = EventQueue::new();
        for us in 0..20 {
            q.schedule(t(us % 7), std::rc::Rc::clone(&payload));
        }
        let (_, popped) = q.pop().expect("pending");
        drop(popped);
        assert_eq!(std::rc::Rc::strong_count(&payload), 20);
        drop(q);
        assert_eq!(std::rc::Rc::strong_count(&payload), 1);
    }
}
