//! The span log's storage: fixed chunks of [`CHUNK_EVENTS`] packed
//! events, drawn from and returned to this thread's spare list.
//!
//! A push writes into the last chunk and takes a new one only when that
//! one is full, so no event is ever moved once written and a capped log
//! ([`SPAN_LOG_CAP`]) is exactly [`MAX_CHUNKS`] chunks. Dropping a log,
//! on whatever path drops its [`Telemetry`](super::Telemetry) (the host's
//! drop at world end, `Host::set_telemetry`), returns its chunks for the
//! thread's next log, in this world or the next, so a world run after
//! another on the same thread records its spans into storage the first
//! one left.
//!
//! Chunks rather than a pooled whole vector: chunks are interchangeable,
//! so they go where spans are recorded, whereas a pooled vector could go
//! to a host that records none while the recording host grows another.
//!
//! A chunk is made only when every chunk the thread made is live, so
//! pooled plus live never exceed the most chunks the thread has held at
//! once, as the connection pool (`lrp_stack::tcp::pool`) is bounded.

use super::{PackedSpanEvent, SPAN_LOG_CAP};
use std::cell::{Cell, RefCell};

/// Packed events per chunk: 4 096 of 16 bytes, 64 KiB.
const CHUNK_EVENTS: usize = 4096;

/// Chunks in a log at [`SPAN_LOG_CAP`].
const MAX_CHUNKS: usize = SPAN_LOG_CAP / CHUNK_EVENTS;

const _: () = assert!(MAX_CHUNKS * CHUNK_EVENTS == SPAN_LOG_CAP);

/// One chunk: a vector of capacity [`CHUNK_EVENTS`] that never grows.
type Chunk = Vec<PackedSpanEvent>;

/// Released chunks, emptied, and how many chunks were ever made.
struct ChunkPool {
    spare: RefCell<Vec<Chunk>>,
    made: Cell<u64>,
}

thread_local! {
    static POOL: ChunkPool = const {
        ChunkPool {
            spare: RefCell::new(Vec::new()),
            made: Cell::new(0),
        }
    };
}

/// Counters for this thread's span-log chunk pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanChunkStats {
    /// Released chunks waiting for the next log.
    pub pooled: usize,
    /// Chunks the pool has made, so the most this thread's span logs
    /// have held at once; pooled plus live equals this.
    pub made: u64,
}

/// This thread's span-log chunk pool counters.
pub fn span_chunk_stats() -> SpanChunkStats {
    POOL.with(|p| SpanChunkStats {
        pooled: p.spare.borrow().len(),
        made: p.made.get(),
    })
}

/// A chunk from this thread's pool, or a new one when the pool is empty.
fn take_chunk() -> Chunk {
    POOL.with(|p| {
        p.spare.borrow_mut().pop().unwrap_or_else(|| {
            p.made.set(p.made.get() + 1);
            Vec::with_capacity(CHUNK_EVENTS)
        })
    })
}

/// A span log: its events in push order, in pooled chunks.
#[derive(Debug, Default)]
pub(crate) struct SpanLog {
    /// The chunks filled, in push order.
    full: Vec<Chunk>,
    /// The chunk being written; no storage until the first push.
    cur: Chunk,
}

impl SpanLog {
    /// Events held.
    pub(crate) fn len(&self) -> usize {
        self.full.len() * CHUNK_EVENTS + self.cur.len()
    }

    /// Appends `ev`; false, storing nothing, when the log already holds
    /// [`SPAN_LOG_CAP`] events.
    #[inline]
    pub(crate) fn push(&mut self, ev: PackedSpanEvent) -> bool {
        // A chunk's capacity is exactly `CHUNK_EVENTS` (`with_capacity`
        // guarantees it), so this never grows one.
        if self.cur.len() < self.cur.capacity() {
            self.cur.push(ev);
            true
        } else {
            self.push_into_next_chunk(ev)
        }
    }

    /// [`Self::push`] when the current chunk is full, or there is none.
    #[cold]
    #[inline(never)]
    fn push_into_next_chunk(&mut self, ev: PackedSpanEvent) -> bool {
        if self.cur.capacity() != 0 {
            if self.full.len() + 1 == MAX_CHUNKS {
                return false;
            }
            self.full.push(std::mem::take(&mut self.cur));
        }
        self.cur = take_chunk();
        self.cur.push(ev);
        true
    }

    /// The events in push order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = PackedSpanEvent> + '_ {
        ExactLen {
            inner: self.full.iter().chain([&self.cur]).flatten().copied(),
            left: self.len(),
        }
    }

    /// Chunks held.
    #[cfg(test)]
    fn chunks(&self) -> usize {
        self.full.len() + usize::from(self.cur.capacity() != 0)
    }
}

impl Drop for SpanLog {
    fn drop(&mut self) {
        // During thread teardown the pool may already be gone; the chunks
        // then just free normally.
        let _ = POOL.try_with(|p| {
            let mut spare = p.spare.borrow_mut();
            let cur = std::mem::take(&mut self.cur);
            for mut c in self
                .full
                .drain(..)
                .chain((cur.capacity() != 0).then_some(cur))
            {
                c.clear();
                spare.push(c);
            }
        });
    }
}

/// An iterator whose length is known to be `left`.
struct ExactLen<I> {
    inner: I,
    left: usize,
}

impl<I: Iterator> Iterator for ExactLen<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator> ExactSizeIterator for ExactLen<I> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Telemetry, SP_DELIVER};
    use lrp_sim::SimTime;
    use proptest::prelude::*;
    use std::num::NonZeroU64;

    /// Runs `f` on a thread of its own, whose pool starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread");
    }

    fn ev(i: u64) -> PackedSpanEvent {
        PackedSpanEvent::pack(i + 1, i, (i % 64) as usize, (i % 7) as u8).expect("fits")
    }

    /// Several logs grow and drop in turn, as the hosts of successive
    /// worlds do: after every step pooled plus live chunks equal `made`,
    /// `made` never passes the peak of live chunks, and a second round
    /// at the first one's size makes no chunk.
    #[test]
    fn a_second_round_makes_no_chunk_and_the_pool_never_exceeds_the_peak() {
        on_fresh_thread(|| {
            let mut peak = 0;
            let mut step = |logs: &[SpanLog]| {
                let live: usize = logs.iter().map(SpanLog::chunks).sum();
                peak = peak.max(live);
                let s = span_chunk_stats();
                assert_eq!(s.pooled + live, s.made as usize);
                assert!(s.made as usize <= peak, "{s:?} past a peak of {peak}");
            };
            // Host sizes in events: one past a chunk, none, exactly two
            // chunks, and a few.
            let sizes = [CHUNK_EVENTS + 1, 0, 2 * CHUNK_EVENTS, 5];
            for round in 0..2 {
                let mut logs: Vec<SpanLog> = sizes.iter().map(|_| SpanLog::default()).collect();
                // The second round fills the logs in the other order.
                for k in 0..sizes.len() {
                    let k = if round == 0 { sizes.len() - 1 - k } else { k };
                    (0..sizes[k] as u64).for_each(|i| assert!(logs[k].push(ev(i))));
                    step(&logs);
                }
                while logs.pop().is_some() {
                    step(&logs);
                }
                assert_eq!(span_chunk_stats().made, 5, "round {round}");
            }
            assert_eq!(span_chunk_stats().pooled, 5);
        });
    }

    /// A log a thread-local holds is dropped during the thread's
    /// teardown, after the pool's own destructor has run (thread-local
    /// destructors run in reverse order of first use): its chunks free
    /// without a panic.
    #[test]
    fn a_log_dropped_at_thread_exit_frees_its_chunks() {
        thread_local! {
            static HELD: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
        }
        on_fresh_thread(|| {
            // First use of `HELD`, then of the pool.
            HELD.with(|h| h.borrow_mut().take());
            let mut tele = Telemetry::new(true);
            for i in 1..=CHUNK_EVENTS as u64 + 1 {
                tele.span_ev(SimTime::from_nanos(i), SP_DELIVER, NonZeroU64::new(i), 0);
            }
            assert_eq!(span_chunk_stats().made, 2);
            HELD.with(|h| *h.borrow_mut() = Some(tele));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Against a `Vec` capped at `SPAN_LOG_CAP`, as the log was once
        /// kept: batches of pushes across chunk boundaries, starting
        /// empty or two chunks short of the cap, some of them events that
        /// do not pack, hold the same events and count the same drops.
        #[test]
        fn chunked_log_matches_the_vec_model(
            near_cap in any::<bool>(),
            batches in proptest::collection::vec(0usize..3 * CHUNK_EVENTS, 1..6),
        ) {
            let mut tele = Telemetry::new(true);
            let mut model: Vec<PackedSpanEvent> = Vec::new();
            let mut model_dropped = 0u64;
            let start = if near_cap { SPAN_LOG_CAP - 2 * CHUNK_EVENTS } else { 0 };
            let mut i = 0u64;
            for n in std::iter::once(start).chain(batches) {
                for _ in 0..n {
                    i += 1;
                    // Every 1 000th event is past the packed time limit.
                    let t = if i.is_multiple_of(1000) { PackedSpanEvent::T_LIMIT } else { i };
                    let cpu = (i % 5) as usize;
                    tele.span_ev(SimTime::from_nanos(t), SP_DELIVER, NonZeroU64::new(i), cpu);
                    match PackedSpanEvent::pack(i, t, cpu, SP_DELIVER) {
                        Some(p) if model.len() < SPAN_LOG_CAP => model.push(p),
                        _ => model_dropped += 1,
                    }
                }
                prop_assert_eq!(tele.span_log().len(), model.len());
                prop_assert_eq!(tele.span_events_dropped, model_dropped);
            }
            prop_assert!(tele.span_log().eq(model.iter().map(|p| p.unpack())));
        }
    }
}
