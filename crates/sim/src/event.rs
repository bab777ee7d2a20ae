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

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time, then the
        // lowest sequence number, is on top.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which keeps multi-component simulations reproducible.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `limit`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.time > limit {
            return None;
        }
        self.pop()
    }

    /// The time of the earliest pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
}
