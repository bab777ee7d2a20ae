//! The TCP deadline index, [`DeadlineHeap`]: an indexed binary min-heap
//! of `(deadline, SockId)`, with one position per socket.
//!
//! The host files a socket here while its connection has a timer armed
//! and no timer work queued, so the earliest deadline is the heap's top
//! and the due batch comes off the top in `(deadline, SockId)` order.
//! Re-keying one socket is a sift from its recorded position; nothing
//! allocates once the heap and the position table have grown to the
//! host's working size.

use lrp_sim::SimTime;
use lrp_stack::SockId;

/// `pos` entry of a socket that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// A min-heap on `(deadline, SockId)`, keys unique per socket.
#[derive(Debug, Default)]
pub(crate) struct DeadlineHeap {
    /// Each entry is before its children (`2i + 1`, `2i + 2`).
    heap: Vec<(SimTime, SockId)>,
    /// Per `SockId`, the index of its entry in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl DeadlineHeap {
    /// The earliest entry.
    pub(crate) fn peek(&self) -> Option<(SimTime, SockId)> {
        self.heap.first().copied()
    }

    /// Files `sock` under `deadline`, or takes it out (`None`).
    pub(crate) fn set(&mut self, sock: SockId, deadline: Option<SimTime>) {
        let i = sock.0 as usize;
        if i >= self.pos.len() {
            self.pos.resize(i + 1, ABSENT);
        }
        match (self.pos[i], deadline) {
            (ABSENT, None) => {}
            (ABSENT, Some(t)) => {
                self.heap.push((t, sock));
                self.sift_up(self.heap.len() - 1);
            }
            (at, Some(t)) => {
                self.heap[at as usize].0 = t;
                self.sift(at as usize);
            }
            (at, None) => self.remove_at(at as usize),
        }
    }

    /// Takes the earliest socket out if its deadline is at or before
    /// `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<SockId> {
        let (t, sock) = self.peek()?;
        (t <= now).then(|| {
            self.remove_at(0);
            sock
        })
    }

    /// Checks that positions and heap slots are a bijection, that the
    /// heap order holds and that the entries are exactly `filed` (sorted);
    /// `Err` names the first violation.
    pub(crate) fn check(&self, filed: &[(SimTime, SockId)]) -> Result<(), String> {
        for (i, &entry) in self.heap.iter().enumerate() {
            if self.pos.get(entry.1 .0 as usize) != Some(&(i as u32)) {
                return Err(format!(
                    "{entry:?} sits in slot {i}, its position says otherwise"
                ));
            }
            if i > 0 && entry < self.heap[(i - 1) / 2] {
                return Err(format!("slot {i} {entry:?} is before its parent"));
            }
        }
        let placed = self.pos.iter().filter(|&&p| p != ABSENT).count();
        let mut entries = self.heap.clone();
        entries.sort_unstable();
        if placed != entries.len() || entries != filed {
            return Err(format!(
                "{placed} positions for entries {entries:?}, want {filed:?}"
            ));
        }
        Ok(())
    }

    /// Removes the entry in slot `at`; the last entry takes its place.
    fn remove_at(&mut self, at: usize) {
        let (_, sock) = self.heap.swap_remove(at);
        self.pos[sock.0 as usize] = ABSENT;
        if at < self.heap.len() {
            self.sift(at);
        }
    }

    /// Moves the entry in slot `at` whichever way its key sends it.
    fn sift(&mut self, at: usize) {
        let at = self.sift_up(at);
        self.sift_down(at);
    }

    /// Moves the entry in slot `at` towards the root while it is before
    /// its parent, parents moving down into the hole it leaves; returns
    /// its final slot.
    fn sift_up(&mut self, mut at: usize) -> usize {
        let moving = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if moving >= self.heap[parent] {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, moving);
        at
    }

    /// Moves the entry in slot `at` towards the leaves while a child is
    /// before it, the earlier child moving up into the hole.
    fn sift_down(&mut self, mut at: usize) {
        let moving = self.heap[at];
        let len = self.heap.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if self.heap[child] >= moving {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, moving);
    }

    /// Writes `entry` into slot `at` and records the position.
    fn place(&mut self, at: usize, entry: (SimTime, SockId)) {
        self.heap[at] = entry;
        self.pos[entry.1 .0 as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_sim::{EventQueue, SimDuration};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Sockets the sequences touch.
    const SOCKS: usize = 24;

    proptest! {
        /// Against the `BTreeSet` model the index replaced — every socket
        /// with a deadline, queued ones skipped when asked — the heap
        /// holding only unqueued sockets gives the same next deadline and
        /// the same due batch in the same order, and stays well formed.
        /// Each step is `(op, socket, ms)`: op 0-1 re-keys the socket's
        /// deadline (`ms` ≥ 50: none), 2 fires the timer at `ms` (the
        /// due sockets queue work), 3 runs the lowest queued socket's
        /// work, 4 frees the socket.
        #[test]
        fn heap_matches_the_btreeset_model(
            ops in proptest::collection::vec((0u8..5, 0..SOCKS, 0u64..60), 1..300),
        ) {
            let mut model: BTreeSet<(SimTime, SockId)> = BTreeSet::new();
            let mut heap = DeadlineHeap::default();
            let mut deadline = [None; SOCKS];
            let mut queued = [false; SOCKS];
            for (op, s, ms) in ops {
                let sock = SockId(s as u32);
                let t = SimTime::ZERO + SimDuration::from_millis(ms);
                match op {
                    0 | 1 | 4 => {
                        let new = (op < 4 && ms < 50).then_some(t);
                        if let Some(old) = std::mem::replace(&mut deadline[s], new) {
                            model.remove(&(old, sock));
                        }
                        model.extend(new.map(|t| (t, sock)));
                        queued[s] &= op < 4;
                        if !queued[s] {
                            heap.set(sock, new);
                        }
                    }
                    2 => {
                        let want: Vec<SockId> = model
                            .range(..=(t, SockId(u32::MAX)))
                            .map(|&(_, id)| id)
                            .filter(|id| !queued[id.0 as usize])
                            .collect();
                        let got: Vec<_> = std::iter::from_fn(|| heap.pop_due(t)).collect();
                        prop_assert_eq!(&got, &want);
                        got.iter().for_each(|id| queued[id.0 as usize] = true);
                    }
                    _ => {
                        if let Some(q) = queued.iter().position(|&q| q) {
                            queued[q] = false;
                            heap.set(SockId(q as u32), deadline[q]);
                        }
                    }
                }
                let filed: Vec<_> =
                    model.iter().copied().filter(|(_, id)| !queued[id.0 as usize]).collect();
                prop_assert_eq!(heap.peek(), filed.first().copied());
                prop_assert_eq!(heap.check(&filed), Ok(()));
            }
        }

        /// Against the `BTreeMap<SimTime, Vec<T>>` the host's timed
        /// wakeups (sleeps, receive timeouts, restarts) once used, whose
        /// due keys came off earliest first with each key's entries in
        /// push order: the `EventQueue` they now use gives the same next
        /// time, and the same due entries in the same order. Each step
        /// is `(op, item, ms)`: op 0-1 schedules `item` at `ms`, 2 pops
        /// everything due at `ms`, 3 clears the queue (a reboot).
        #[test]
        fn timer_queue_matches_the_btreemap_model(
            ops in proptest::collection::vec((0u8..4, 0u32..8, 0u64..20), 1..200),
        ) {
            let mut model: BTreeMap<SimTime, Vec<u32>> = BTreeMap::new();
            let mut queue = EventQueue::new();
            for (op, item, ms) in ops {
                let t = SimTime::ZERO + SimDuration::from_millis(ms);
                match op {
                    0 | 1 => {
                        model.entry(t).or_default().push(item);
                        queue.schedule(t, item);
                    }
                    2 => {
                        let mut want = Vec::new();
                        while let Some(e) = model.first_entry().filter(|e| *e.key() <= t) {
                            want.extend(e.remove());
                        }
                        let got: Vec<_> =
                            std::iter::from_fn(|| queue.pop_before(t).map(|(_, e)| e)).collect();
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        model.clear();
                        queue.clear();
                    }
                }
                prop_assert_eq!(queue.peek_time(), model.keys().next().copied());
            }
        }
    }
}
