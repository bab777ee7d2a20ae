//! One free list for storage that outlives its user: the frame arena's
//! `Rc` boxes, the connection boxes of `lrp-stack` and the span-log
//! chunks of `lrp-core` each keep one, in a thread-local `RefCell`.
//!
//! A [`SpareList`] hands back the item given last (LIFO) and makes one
//! only when it holds none. So every item it made is either live or
//! pooled, `pooled + live = made`, and `made` never exceeds the most
//! items live at once: a burst leaves its items for the next one instead
//! of returning them to the allocator, and no more.

/// Spare items, last given first taken, and how many were ever made.
#[derive(Debug)]
pub struct SpareList<T> {
    spare: Vec<T>,
    made: u64,
}

/// A spare list's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpareStats {
    /// Items given back and waiting to be taken.
    pub pooled: usize,
    /// Items made, so the most ever live at once: pooled plus live.
    pub made: u64,
}

impl SpareStats {
    /// Items taken and not given back: `made - pooled`.
    pub fn live(&self) -> usize {
        self.made as usize - self.pooled
    }
}

impl<T> SpareList<T> {
    /// An empty list, for a `const` thread-local.
    pub const fn new() -> Self {
        SpareList {
            spare: Vec::new(),
            made: 0,
        }
    }

    /// The item given last, or `make()`'s, counted, when none is spare.
    #[inline]
    pub fn take_or_make(&mut self, make: impl FnOnce() -> T) -> T {
        match self.spare.pop() {
            Some(t) => t,
            None => {
                self.made += 1;
                make()
            }
        }
    }

    /// Keeps `t` for the next [`Self::take_or_make`].
    #[inline]
    pub fn give(&mut self, t: T) {
        self.spare.push(t);
    }

    /// Current counters.
    pub fn stats(&self) -> SpareStats {
        SpareStats {
            pooled: self.spare.len(),
            made: self.made,
        }
    }
}

impl<T> Default for SpareList<T> {
    fn default() -> Self {
        Self::new()
    }
}
