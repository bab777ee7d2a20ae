//! The thread's connection boxes, reused across connections and worlds.
//!
//! A host keeps each connection in a [`PooledConn`]: a box drawn from
//! this thread's pool and refilled with [`TcpConn::renew`], or a new box
//! when the pool is empty. Dropping one, on whatever path ends the
//! connection (a close, a freed socket, a crash or reboot, the host's own
//! drop), releases the connection and returns the box, with its socket
//! buffers' chains and out-of-order stash, for the thread's next
//! connection, in this world or the next. No call site has to remember
//! to return it.
//!
//! The boxes are kept in a [`SpareList`], so pooled plus live boxes
//! never exceed the most connections the thread has held at once.

use super::TcpConn;
use lrp_wire::spare::{SpareList, SpareStats};
use std::cell::RefCell;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};

thread_local! {
    static POOL: RefCell<SpareList<Box<TcpConn>>> = const { RefCell::new(SpareList::new()) };
}

/// This thread's connection pool counters: `made` is the most
/// connections the thread has held at once.
pub fn conn_pool_stats() -> SpareStats {
    POOL.with_borrow(SpareList::stats)
}

/// A connection in a box from this thread's pool, returned to it on drop.
///
/// One pointer wide, as `Option<PooledConn>` is: the box is dropped by
/// hand, into the pool, rather than behind an `Option`'s tag.
pub struct PooledConn(ManuallyDrop<Box<TcpConn>>);

impl PooledConn {
    /// `fresh`, a connection just built by one of the constructors, in a
    /// pooled box when the thread has one: it equals `fresh` field for
    /// field either way.
    pub fn new(fresh: TcpConn) -> Self {
        // A new box takes `fresh` itself; a spare one is renewed with it.
        let mut fresh = Some(fresh);
        let make = || Box::new(fresh.take().expect("made at most once"));
        let mut conn = POOL.with_borrow_mut(|p| p.take_or_make(make));
        if let Some(fresh) = fresh {
            conn.renew(fresh);
        }
        PooledConn(ManuallyDrop::new(conn))
    }
}

impl Deref for PooledConn {
    type Target = TcpConn;

    #[inline]
    fn deref(&self) -> &TcpConn {
        &self.0
    }
}

impl DerefMut for PooledConn {
    #[inline]
    fn deref_mut(&mut self) -> &mut TcpConn {
        &mut self.0
    }
}

impl fmt::Debug for PooledConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        // SAFETY: `drop` runs once, and nothing reads `self.0` after it.
        let mut conn = unsafe { ManuallyDrop::take(&mut self.0) };
        conn.release();
        // During thread teardown the pool may already be gone; the box
        // then just frees normally.
        let _ = POOL.try_with(|p| p.borrow_mut().give(conn));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpConfig;
    use lrp_wire::{Endpoint, Ipv4Addr};

    fn conn(i: u16) -> TcpConn {
        let ep = |a, p| Endpoint::new(Ipv4Addr::new(10, 0, 0, a), p);
        TcpConn::new(TcpConfig::default(), ep(1, 1000 + i), ep(2, 80), i as u32)
    }

    /// Runs `f` on a thread of its own, whose pool starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread");
    }

    #[test]
    fn a_second_round_reuses_every_box_and_never_exceeds_the_peak() {
        on_fresh_thread(|| {
            const N: usize = 40;
            let mut live: Vec<PooledConn> = Vec::new();
            let mut peak = 0;
            let mut step = |live: &mut Vec<PooledConn>, build: bool| {
                if build {
                    live.push(PooledConn::new(conn(live.len() as u16)));
                } else {
                    live.pop();
                }
                peak = peak.max(live.len());
                let s = conn_pool_stats();
                assert_eq!(s.pooled + live.len(), s.made as usize);
                assert!(s.made as usize <= peak, "{s:?} past a peak of {peak}");
            };
            (0..N).for_each(|_| step(&mut live, true));
            (0..N).for_each(|_| step(&mut live, false));
            assert_eq!(conn_pool_stats().pooled, N);
            // A second round, drawn down and refilled in a different
            // rhythm, makes no box.
            for i in 0..3 * N {
                let build = i % 3 != 2 && live.len() < N;
                step(&mut live, build);
            }
            while !live.is_empty() {
                step(&mut live, false);
            }
            assert_eq!(
                conn_pool_stats().made,
                N as u64,
                "no box past the first round"
            );
        });
    }

    #[test]
    fn an_optional_connection_is_one_pointer_wide() {
        assert_eq!(size_of::<Option<PooledConn>>(), size_of::<Box<TcpConn>>());
    }

    #[test]
    fn a_pooled_connection_equals_a_fresh_one() {
        on_fresh_thread(|| {
            drop(PooledConn::new(conn(1)));
            let c = PooledConn::new(conn(2));
            assert_eq!(conn_pool_stats().made, 1, "the box came from the pool");
            assert_eq!(format!("{c:?}"), format!("{:?}", conn(2)));
        });
    }
}
