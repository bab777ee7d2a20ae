//! BSD-style run queues: 32 FIFO buckets, four priorities per bucket.

use crate::process::Pid;
use std::collections::VecDeque;

/// Number of run-queue buckets (BSD's `NQS`).
pub const NQS: usize = 32;

/// The ready queue: processes indexed by priority bucket (`pri >> 2`),
/// FIFO within a bucket, exactly like 4.3BSD's `qs[NQS]` + `whichqs`
/// bitmap.
#[derive(Debug, Default)]
pub struct RunQueue {
    queues: [VecDeque<Pid>; NQS],
    whichqs: u32,
    len: usize,
}

impl RunQueue {
    /// Creates an empty run queue.
    pub fn new() -> Self {
        RunQueue {
            queues: Default::default(),
            whichqs: 0,
            len: 0,
        }
    }

    fn bucket(pri: u8) -> usize {
        ((pri >> 2) as usize).min(NQS - 1)
    }

    /// Enqueues a process at the tail of its priority bucket
    /// (`setrunqueue`).
    pub fn enqueue(&mut self, pid: Pid, pri: u8) {
        let b = Self::bucket(pri);
        self.queues[b].push_back(pid);
        self.whichqs |= 1 << b;
        self.len += 1;
    }

    /// Enqueues at the head of the bucket (used when a preempted process
    /// should not lose its turn).
    pub fn enqueue_front(&mut self, pid: Pid, pri: u8) {
        let b = Self::bucket(pri);
        self.queues[b].push_front(pid);
        self.whichqs |= 1 << b;
        self.len += 1;
    }

    /// Dequeues the best (lowest-bucket, FIFO) runnable process.
    pub fn dequeue(&mut self) -> Option<Pid> {
        if self.whichqs == 0 {
            return None;
        }
        let b = self.whichqs.trailing_zeros() as usize;
        let pid = self.queues[b]
            .pop_front()
            .expect("whichqs bit implies non-empty");
        if self.queues[b].is_empty() {
            self.whichqs &= !(1 << b);
        }
        self.len -= 1;
        Some(pid)
    }

    /// The bucket of the best runnable process, if any (for preemption
    /// decisions). Returns the *lowest priority value* in the bucket, i.e.
    /// `bucket * 4`.
    pub fn best_pri(&self) -> Option<u8> {
        if self.whichqs == 0 {
            None
        } else {
            Some((self.whichqs.trailing_zeros() as u8) << 2)
        }
    }

    /// Dequeues the best runnable process satisfying `pred`, preserving
    /// bucket order and FIFO order within a bucket. Used by the idle-steal
    /// balancer, which must skip processes pinned to another CPU.
    pub fn dequeue_where(&mut self, mut pred: impl FnMut(Pid) -> bool) -> Option<Pid> {
        let mut qs = self.whichqs;
        while qs != 0 {
            let b = qs.trailing_zeros() as usize;
            if let Some(pos) = self.queues[b].iter().position(|&p| pred(p)) {
                let pid = self.queues[b].remove(pos).expect("position was valid");
                if self.queues[b].is_empty() {
                    self.whichqs &= !(1 << b);
                }
                self.len -= 1;
                return Some(pid);
            }
            qs &= !(1 << b);
        }
        None
    }

    /// Removes a specific process (e.g. on exit); returns true if found.
    pub fn remove(&mut self, pid: Pid) -> bool {
        for b in 0..NQS {
            if let Some(pos) = self.queues[b].iter().position(|&p| p == pid) {
                self.queues[b].remove(pos);
                if self.queues[b].is_empty() {
                    self.whichqs &= !(1 << b);
                }
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Appends every queued process to `out`, best bucket first, FIFO
    /// within a bucket; visits only the non-empty buckets.
    pub fn extend_into(&self, out: &mut Vec<Pid>) {
        let mut qs = self.whichqs;
        while qs != 0 {
            let b = qs.trailing_zeros() as usize;
            out.extend(&self.queues[b]);
            qs &= qs - 1;
        }
    }

    /// Number of queued processes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no process is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_bucket_first() {
        let mut q = RunQueue::new();
        q.enqueue(Pid(1), 100);
        q.enqueue(Pid(2), 24);
        q.enqueue(Pid(3), 50);
        assert_eq!(q.dequeue(), Some(Pid(2)));
        assert_eq!(q.dequeue(), Some(Pid(3)));
        assert_eq!(q.dequeue(), Some(Pid(1)));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_within_bucket() {
        let mut q = RunQueue::new();
        q.enqueue(Pid(1), 50);
        q.enqueue(Pid(2), 51); // Same bucket (50>>2 == 51>>2).
        q.enqueue(Pid(3), 50);
        assert_eq!(q.dequeue(), Some(Pid(1)));
        assert_eq!(q.dequeue(), Some(Pid(2)));
        assert_eq!(q.dequeue(), Some(Pid(3)));
    }

    #[test]
    fn enqueue_front_jumps_queue() {
        let mut q = RunQueue::new();
        q.enqueue(Pid(1), 50);
        q.enqueue_front(Pid(2), 50);
        assert_eq!(q.dequeue(), Some(Pid(2)));
        assert_eq!(q.dequeue(), Some(Pid(1)));
    }

    #[test]
    fn best_pri_reports_bucket() {
        let mut q = RunQueue::new();
        assert_eq!(q.best_pri(), None);
        q.enqueue(Pid(1), 101);
        assert_eq!(q.best_pri(), Some(100));
        q.enqueue(Pid(2), 26);
        assert_eq!(q.best_pri(), Some(24));
        q.dequeue();
        assert_eq!(q.best_pri(), Some(100));
    }

    #[test]
    fn remove_clears_bitmap() {
        let mut q = RunQueue::new();
        q.enqueue(Pid(1), 50);
        assert!(q.remove(Pid(1)));
        assert!(!q.remove(Pid(1)));
        assert!(q.is_empty());
        assert_eq!(q.best_pri(), None);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn dequeue_where_skips_non_matching() {
        let mut q = RunQueue::new();
        q.enqueue(Pid(1), 24); // Best bucket, but filtered out.
        q.enqueue(Pid(2), 50);
        q.enqueue(Pid(3), 50);
        assert_eq!(q.dequeue_where(|p| p != Pid(1)), Some(Pid(2)));
        assert_eq!(q.dequeue_where(|p| p != Pid(1)), Some(Pid(3)));
        assert_eq!(q.dequeue_where(|p| p != Pid(1)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dequeue(), Some(Pid(1)));
    }

    #[test]
    fn extend_into_lists_queue_order() {
        let mut q = RunQueue::new();
        q.enqueue(Pid(1), 100);
        q.enqueue(Pid(2), 24);
        q.enqueue(Pid(3), 100);
        q.enqueue_front(Pid(4), 24);
        let mut out = vec![Pid(9)];
        q.extend_into(&mut out);
        assert_eq!(out, [Pid(9), Pid(4), Pid(2), Pid(1), Pid(3)]);
    }

    #[test]
    fn len_tracks() {
        let mut q = RunQueue::new();
        q.enqueue(Pid(1), 10);
        q.enqueue(Pid(2), 20);
        assert_eq!(q.len(), 2);
        q.dequeue();
        assert_eq!(q.len(), 1);
    }
}
