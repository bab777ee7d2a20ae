//! The span log's storage: events coded as a few bytes each, in fixed
//! chunks of [`CHUNK_BYTES`] drawn from and returned to this thread's
//! spare list.
//!
//! An event is one header byte (its stage, and its CPU below
//! [`CPU_ESCAPE`]; otherwise an escape, and the CPU in the next byte),
//! the zigzag varint of its time's step from the previous event's, and
//! its span coded against the last span with the same 16-bit tag
//! (`span >> 48`: the injector or host that minted it). The last spans
//! of up to [`TAG_SLOTS`] tags are kept; a span whose tag holds a slot is
//! one varint, `zigzag(step) << TAG_BITS | slot`, and any other is the
//! varint [`MISS`] and the span in full, after which its tag takes a
//! slot (an empty one, else the slots in turn). Consecutive events of
//! one packet share a span and follow within microseconds, so an event
//! takes four or five bytes where a fixed-width one took sixteen
//! (DESIGN §10). The reader keeps the same context and mirrors every
//! update.
//!
//! A push writes into the last chunk and takes a new one when fewer than
//! [`MAX_EVENT_BYTES`] are left in it, so an event never straddles two
//! chunks and none is moved once written; [`SPAN_LOG_CAP`] counts
//! events. Dropping a log, on whatever path drops its
//! [`Telemetry`](super::Telemetry) (the host's drop at world end,
//! `Host::set_telemetry`), returns its chunks for the thread's next log,
//! in this world or the next, so a world run after another on the same
//! thread records its spans into storage the first one left.
//!
//! Chunks rather than a pooled whole vector: chunks are interchangeable,
//! so they go where spans are recorded, whereas a pooled vector could go
//! to a host that records none while the recording host grows another.
//!
//! The chunks are kept in a [`SpareList`], so pooled plus live chunks
//! never exceed the most the thread has held at once.

use super::{SpanEvent, SPAN_LOG_CAP, SPAN_STAGES};
use lrp_sim::varint;
use lrp_wire::spare::{SpareList, SpareStats};
use std::cell::RefCell;

/// Bytes per chunk: 64 KiB.
const CHUNK_BYTES: usize = 1 << 16;

/// First time, in ns, that the log does not take (about 417 simulated
/// days); a later event is counted as dropped.
pub(crate) const T_LIMIT: u64 = 1 << 55;
/// First CPU index that the log does not take.
pub(crate) const CPU_LIMIT: usize = 64;

/// Header CPU field value that says the CPU follows in its own byte.
const CPU_ESCAPE: usize = 31;

/// Low bits of a coded span that name its tag's slot.
const TAG_BITS: u32 = 4;
/// Span tags whose last span is kept.
const TAG_SLOTS: usize = (1 << TAG_BITS) - 1;
/// The slot code of a span written in full.
const MISS: u64 = TAG_SLOTS as u64;

/// The most bytes one event takes: header, escaped CPU, time step, and a
/// miss's code and full span.
const MAX_EVENT_BYTES: usize = 3 + 2 * varint::MAX_LEN;

/// One chunk: a vector of capacity [`CHUNK_BYTES`] that never grows.
type Chunk = Vec<u8>;

thread_local! {
    static POOL: RefCell<SpareList<Chunk>> = const { RefCell::new(SpareList::new()) };
}

/// This thread's span-log chunk pool counters: `made` is the most
/// chunks this thread's span logs have held at once.
pub fn span_chunk_stats() -> SpareStats {
    POOL.with_borrow(SpareList::stats)
}

/// A chunk from this thread's pool, or a new one when the pool is empty.
fn take_chunk() -> Chunk {
    let c = POOL.with_borrow_mut(|p| p.take_or_make(|| Vec::with_capacity(CHUNK_BYTES)));
    // A pool keeps capacity, never content: no event of an earlier log
    // may reach this one.
    debug_assert!(c.is_empty() && c.capacity() == CHUNK_BYTES);
    c
}

/// What an event is coded against: the previous event's time, and the
/// last span of each tag in the slots. Writer and reader each keep one
/// and update it alike.
#[derive(Debug, Default)]
struct Context {
    t_ns: u64,
    tags: [u16; TAG_SLOTS],
    last: [u64; TAG_SLOTS],
    /// Slots in use, from the first.
    filled: usize,
    /// The slot the next miss takes once all are in use.
    next: usize,
}

impl Context {
    fn tag(span: u64) -> u16 {
        (span >> 48) as u16
    }

    /// Gives `span`'s tag a slot, holding `span`.
    fn admit(&mut self, span: u64) {
        let slot = if self.filled < TAG_SLOTS {
            self.filled += 1;
            self.filled - 1
        } else {
            let slot = self.next;
            self.next = (slot + 1) % TAG_SLOTS;
            slot
        };
        self.tags[slot] = Self::tag(span);
        self.last[slot] = span;
    }

    /// Appends one event to `out`, which has room for it.
    #[inline]
    fn write(&mut self, out: &mut Vec<u8>, span: u64, t_ns: u64, cpu: usize, stage: u8) {
        out.push(stage | (cpu.min(CPU_ESCAPE) as u8) << 3);
        if cpu >= CPU_ESCAPE {
            out.push(cpu as u8);
        }
        varint::put_delta(out, self.t_ns, t_ns);
        self.t_ns = t_ns;
        let tag = Self::tag(span);
        match self.tags[..self.filled].iter().position(|&t| t == tag) {
            Some(slot) => {
                // Spans of one tag share their top 16 bits, so the step
                // fits in 48 and the shifted code in 53.
                let step = varint::zigzag(span.wrapping_sub(self.last[slot]) as i64);
                varint::put(out, step << TAG_BITS | slot as u64);
                self.last[slot] = span;
            }
            None => {
                varint::put(out, MISS);
                varint::put(out, span);
                self.admit(span);
            }
        }
    }

    /// Reads the event [`Self::write`] wrote at `*at`.
    fn read(&mut self, bytes: &[u8], at: &mut usize) -> SpanEvent {
        let head = bytes[*at] as usize;
        *at += 1;
        let mut cpu = head >> 3;
        if cpu == CPU_ESCAPE {
            cpu = bytes[*at] as usize;
            *at += 1;
        }
        self.t_ns = varint::get_delta(bytes, at, self.t_ns);
        let code = varint::get(bytes, at);
        let span = if code == MISS {
            let span = varint::get(bytes, at);
            self.admit(span);
            span
        } else {
            let slot = (code % (1 << TAG_BITS)) as usize;
            let step = varint::unzigzag(code >> TAG_BITS);
            self.last[slot] = self.last[slot].wrapping_add(step as u64);
            self.last[slot]
        };
        SpanEvent {
            span,
            t_ns: self.t_ns,
            stage: SPAN_STAGES[head & 7],
            cpu: cpu as u32,
        }
    }
}

/// A span log: its events in push order, coded into pooled chunks.
#[derive(Debug, Default)]
pub(crate) struct SpanLog {
    /// The chunks filled, in push order.
    full: Vec<Chunk>,
    /// The chunk being written; no storage until the first push.
    cur: Chunk,
    /// Events held.
    len: usize,
    /// What the next event is coded against.
    ctx: Context,
}

impl SpanLog {
    /// Appends an event; false, storing nothing, when the log already
    /// holds [`SPAN_LOG_CAP`] events or the event's time or CPU is past
    /// [`T_LIMIT`] or [`CPU_LIMIT`].
    #[inline]
    pub(crate) fn push(&mut self, span: u64, t_ns: u64, cpu: usize, stage: u8) -> bool {
        if self.len == SPAN_LOG_CAP || t_ns >= T_LIMIT || cpu >= CPU_LIMIT {
            return false;
        }
        // A chunk's capacity is exactly `CHUNK_BYTES` (`with_capacity`
        // guarantees it), and no event is written without room for the
        // longest, so this never grows one.
        if self.cur.capacity() - self.cur.len() < MAX_EVENT_BYTES {
            self.next_chunk();
        }
        self.ctx.write(&mut self.cur, span, t_ns, cpu, stage);
        self.len += 1;
        true
    }

    /// Files the current chunk, if any, and starts the next.
    #[cold]
    #[inline(never)]
    fn next_chunk(&mut self) {
        let cur = std::mem::replace(&mut self.cur, take_chunk());
        if cur.capacity() != 0 {
            self.full.push(cur);
        }
    }

    /// The events in push order, decoded as they are read.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = SpanEvent> + '_ {
        let mut chunks = self.full.iter().chain([&self.cur]);
        let (mut chunk, mut at): (&[u8], usize) = (&[], 0);
        let mut ctx = Context::default();
        (0..self.len).map(move |_| {
            while at == chunk.len() {
                chunk = chunks.next().expect("`len` counts the coded events");
                at = 0;
            }
            ctx.read(chunk, &mut at)
        })
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
            let mut p = p.borrow_mut();
            let cur = std::mem::take(&mut self.cur);
            for mut c in self
                .full
                .drain(..)
                .chain((cur.capacity() != 0).then_some(cur))
            {
                c.clear();
                p.give(c);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Telemetry, SP_DELIVER};
    use lrp_sim::{SimTime, SplitMix64};
    use proptest::prelude::*;
    use std::num::NonZeroU64;

    /// Runs `f` on a thread of its own, whose pool starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread");
    }

    /// Pushes events into `log` until it holds `chunks` chunks.
    fn fill_to(log: &mut SpanLog, chunks: usize) {
        let mut i = log.len as u64;
        while log.chunks() < chunks {
            i += 1;
            assert!(log.push(i, 1000 * i, (i % 64) as usize, (i % 7) as u8));
        }
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
            // Host sizes in chunks: one event into a second chunk, none,
            // two, and one.
            let sizes = [2, 0, 2, 1];
            for round in 0..2 {
                let mut logs: Vec<SpanLog> = sizes.iter().map(|_| SpanLog::default()).collect();
                // The second round fills the logs in the other order.
                for k in 0..sizes.len() {
                    let k = if round == 0 { sizes.len() - 1 - k } else { k };
                    fill_to(&mut logs[k], sizes[k]);
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

    /// Dropping a log returns every chunk it held, the one being
    /// written included, to the thread's pool.
    #[test]
    fn a_dropped_log_returns_every_chunk() {
        on_fresh_thread(|| {
            let mut log = SpanLog::default();
            fill_to(&mut log, 3);
            drop(log);
            assert_eq!(span_chunk_stats(), SpareStats { pooled: 3, made: 3 });
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
            let mut i = 0;
            while span_chunk_stats().made < 2 {
                i += 1;
                tele.span_ev(SimTime::from_nanos(i), SP_DELIVER, NonZeroU64::new(i), 0);
            }
            HELD.with(|h| *h.borrow_mut() = Some(tele));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Against a `Vec` of plain events capped at `SPAN_LOG_CAP`:
        /// batches of pushes across chunk boundaries, starting empty or a
        /// few chunks short of the cap, hold the same events and count
        /// the same drops. The events draw their spans from more tags
        /// than the log keeps slots for, step back in time as well as
        /// forward, run on every CPU up to `CPU_LIMIT` (past the escape),
        /// and some sit at `T_LIMIT − 1` or past a limit.
        #[test]
        fn chunked_log_matches_the_vec_model(
            near_cap in any::<bool>(),
            seed in any::<u64>(),
            batches in proptest::collection::vec(0usize..40_000, 1..6),
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut tele = Telemetry::new(true);
            let mut model: Vec<SpanEvent> = Vec::new();
            let mut model_dropped = 0u64;
            let start = if near_cap { SPAN_LOG_CAP - 40_000 } else { 0 };
            let (mut t, mut seq) = (0u64, 0u64);
            for n in std::iter::once(start).chain(batches) {
                for _ in 0..n {
                    let tag = rng.next_below(2 * TAG_SLOTS as u64 + 2);
                    seq += rng.next_below(3);
                    let span = (tag << 48 | seq).max(1);
                    t = match rng.next_below(1000) {
                        0 => T_LIMIT - 1,
                        1 => T_LIMIT,
                        2 => t.saturating_sub(50_000),
                        _ => (t + rng.next_below(100_000)) % T_LIMIT,
                    };
                    let cpu = match rng.next_below(4) {
                        0 => rng.next_below(CPU_LIMIT as u64 + 2) as usize,
                        _ => 0,
                    };
                    let stage = rng.next_below(SPAN_STAGES.len() as u64) as u8;
                    tele.span_ev(SimTime::from_nanos(t), stage, NonZeroU64::new(span), cpu);
                    if t < T_LIMIT && cpu < CPU_LIMIT && model.len() < SPAN_LOG_CAP {
                        model.push(SpanEvent {
                            span,
                            t_ns: t,
                            stage: SPAN_STAGES[stage as usize],
                            cpu: cpu as u32,
                        });
                    } else {
                        model_dropped += 1;
                    }
                }
                prop_assert_eq!(tele.span_log().len(), model.len());
                prop_assert_eq!(tele.span_events_dropped, model_dropped);
            }
            prop_assert!(tele.span_log().eq(model.iter().copied()));
        }
    }
}
