//! The host's socket table, paged so that its storage follows the
//! sockets alive rather than every socket ever opened.
//!
//! A [`SockId`] is the socket's creation number and is never reused
//! (netstat rows, the telemetry and every digest name sockets by it), so
//! a server that accepts connections without end keeps minting new ids.
//! The table splits the id space into pages of [`PAGE`] slots: a
//! directory indexed by `id / PAGE` points at the pages that hold a live
//! socket, and a lookup is two array indexes. A page whose last socket
//! is freed goes onto a free list, and the next page the ids reach is
//! taken from there, so churn at a steady live count allocates nothing.
//! The page the next id lands in is kept even while empty, so a socket
//! opened and closed on its own does not move a page back and forth.
//!
//! Walks follow a list through the held pages in ascending order, and
//! so visit live sockets in ascending id at a cost that grows with the
//! pages held, not with history. What grows with history is the
//! directory: one pointer per `PAGE` ids.

use lrp_stack::SockId;

/// Slots per page.
const PAGE: usize = 16;

/// No page: an end of the held list.
const NIL: u32 = u32::MAX;

/// `PAGE` consecutive ids' slots, how many are occupied, and the held
/// pages on either side.
#[derive(Debug)]
struct Page<T> {
    slots: [Option<T>; PAGE],
    live: u32,
    prev: u32,
    next: u32,
}

impl<T> Page<T> {
    fn empty() -> Box<Self> {
        Box::new(Page {
            slots: std::array::from_fn(|_| None),
            live: 0,
            prev: NIL,
            next: NIL,
        })
    }
}

/// Live entries keyed by ids handed out in ascending order.
#[derive(Debug)]
pub(crate) struct SockTable<T> {
    /// Page `n` holds ids `n * PAGE ..= n * PAGE + PAGE - 1`; `None`
    /// where no id of the page is live (except the next id's page).
    dir: Vec<Option<Box<Page<T>>>>,
    /// The lowest and the highest held page.
    first: u32,
    last: u32,
    /// Released pages, every slot empty.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Page<T>>>,
    /// The id the next `insert` hands out.
    next: u32,
    /// Live entries.
    len: usize,
}

impl<T> Default for SockTable<T> {
    fn default() -> Self {
        SockTable {
            dir: Vec::new(),
            first: NIL,
            last: NIL,
            free: Vec::new(),
            next: 0,
            len: 0,
        }
    }
}

/// The page of `id` and its slot there.
fn split(id: SockId) -> (usize, usize) {
    let i = id.0 as usize;
    (i / PAGE, i % PAGE)
}

impl<T> SockTable<T> {
    /// Stores `make(id)` under the next id, which it returns.
    pub(crate) fn insert(&mut self, make: impl FnOnce(SockId) -> T) -> SockId {
        let id = SockId(self.next);
        self.next += 1;
        let (p, i) = split(id);
        if p == self.dir.len() {
            self.dir.push(None);
        }
        if self.dir[p].is_none() {
            // The highest page yet: it joins the list at the end.
            let mut page = self.free.pop().unwrap_or_else(Page::empty);
            (page.prev, page.next) = (self.last, NIL);
            match self.page_mut(self.last) {
                Some(last) => last.next = p as u32,
                None => self.first = p as u32,
            }
            self.last = p as u32;
            self.dir[p] = Some(page);
        }
        let page = self.page_mut(p as u32).expect("held");
        page.slots[i] = Some(make(id));
        page.live += 1;
        self.len += 1;
        id
    }

    fn page_mut(&mut self, p: u32) -> Option<&mut Page<T>> {
        self.dir.get_mut(p as usize)?.as_deref_mut()
    }

    pub(crate) fn get(&self, id: SockId) -> Option<&T> {
        let (p, i) = split(id);
        self.dir.get(p)?.as_ref()?.slots[i].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: SockId) -> Option<&mut T> {
        let (p, i) = split(id);
        self.dir.get_mut(p)?.as_mut()?.slots[i].as_mut()
    }

    /// Removes and returns `id`'s entry; its page is released if that
    /// was the page's last entry and the next id lands elsewhere.
    pub(crate) fn take(&mut self, id: SockId) -> Option<T> {
        let (p, i) = split(id);
        let page = self.dir.get_mut(p)?.as_mut()?;
        let value = page.slots[i].take()?;
        page.live -= 1;
        self.len -= 1;
        if page.live == 0 && p != self.next as usize / PAGE {
            let page = self.dir[p].take().expect("held");
            match self.page_mut(page.prev) {
                Some(prev) => prev.next = page.next,
                None => self.first = page.next,
            }
            match self.page_mut(page.next) {
                Some(next) => next.prev = page.prev,
                None => self.last = page.prev,
            }
            self.free.push(page);
        }
        Some(value)
    }

    /// The held pages and their numbers, ascending.
    fn pages(&self) -> impl Iterator<Item = (usize, &Page<T>)> + '_ {
        let mut p = self.first as usize;
        std::iter::from_fn(move || {
            let page = self.dir.get(p)?.as_deref().expect("held");
            let at = std::mem::replace(&mut p, page.next as usize);
            Some((at, page))
        })
    }

    /// Every live entry, in ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SockId, &T)> + '_ {
        self.pages().flat_map(|(p, page)| {
            (page.slots.iter().enumerate())
                .filter_map(move |(i, s)| Some((SockId((p * PAGE + i) as u32), s.as_ref()?)))
        })
    }

    /// The lowest live id.
    pub(crate) fn first(&self) -> Option<SockId> {
        self.iter().next().map(|(id, _)| id)
    }

    /// Recounts the table by brute force: each page's live count against
    /// its occupied slots, the held list against the directory, the
    /// table's count against the walk, and no page held empty but the
    /// one the next id lands in. `Err` names the first divergence.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut held = Vec::new();
        let mut occupied = 0;
        for (p, page) in self.dir.iter().enumerate() {
            let Some(page) = page else { continue };
            let n = page.slots.iter().flatten().count();
            if n != page.live as usize {
                return Err(format!(
                    "page {p}: live count {}, {n} slots occupied",
                    page.live
                ));
            }
            if n == 0 && p != self.next as usize / PAGE {
                return Err(format!("page {p} held with no live socket"));
            }
            let prev = held.last().map_or(NIL, |&q| q as u32);
            if page.prev != prev {
                return Err(format!("page {p} links back to {}, not {prev}", page.prev));
            }
            held.push(p);
            occupied += n;
        }
        let listed: Vec<usize> = self.pages().map(|(p, _)| p).collect();
        if listed != held || self.last != held.last().map_or(NIL, |&p| p as u32) {
            return Err(format!(
                "held list {listed:?} ending at {}, directory holds {held:?}",
                self.last
            ));
        }
        let walked = self.iter().count();
        if occupied != self.len || walked != self.len {
            return Err(format!(
                "count {}, {occupied} slots occupied, the walk visits {walked}",
                self.len
            ));
        }
        if let Some(p) = self.free.iter().position(|page| page.live != 0) {
            return Err(format!("free page {p} has live slots"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Steps per sequence, and the most entries live at once.
    const STEPS: usize = 5_000;
    const LIVE: usize = 2_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Against a `BTreeMap` model, random insert / take sequences
        /// (up to `STEPS` steps, up to `LIVE` live, drawn from `seed`,
        /// which every failure prints): ids ascend by one; `get`,
        /// `get_mut` and `take` agree with the model, on live and dead
        /// ids; the walk gives the model's order, and `first` its least; the
        /// table holds at most one page beyond those with a live id; and
        /// its free list never outgrows the most pages held at once.
        #[test]
        fn the_table_matches_the_btreemap_model(
            seed in any::<u64>(),
            steps in 1..STEPS,
            cap in 1..LIVE,
            bias in 1u64..4,
        ) {
            let mut rng = TestRng::new(seed);
            let mut table = SockTable::default();
            let mut model: BTreeMap<SockId, u64> = BTreeMap::new();
            // The model's live ids (in no order) and live ids per page.
            let mut live: Vec<SockId> = Vec::new();
            let mut per_page: BTreeMap<usize, usize> = BTreeMap::new();
            let (mut inserted, mut most_held) = (0, 0);
            for step in 0..steps {
                let why = format!("seed {seed}, step {step}");
                // Inserts win `bias` draws in four while under the cap.
                if live.is_empty() || live.len() < cap && rng.below(4) < bias {
                    let value = rng.next_u64();
                    let id = table.insert(|_| value);
                    prop_assert_eq!(id, SockId(inserted), "{}", why);
                    inserted += 1;
                    model.insert(id, value);
                    live.push(id);
                    *per_page.entry(id.0 as usize / PAGE).or_default() += 1;
                } else {
                    // A live id, or (one time in eight) one never handed
                    // out or already taken.
                    let id = if rng.below(8) == 0 {
                        let id = SockId(rng.below(inserted as u64 + 2) as u32);
                        live.retain(|&x| x != id);
                        id
                    } else {
                        live.swap_remove(rng.below(live.len() as u64) as usize)
                    };
                    if let Some(v) = table.get_mut(id) {
                        *v ^= 1;
                        *model.get_mut(&id).expect("model agrees") ^= 1;
                    }
                    let taken = model.remove(&id);
                    prop_assert_eq!(table.take(id), taken, "{}", why);
                    prop_assert_eq!(table.get(id), None, "{}", why);
                    if taken.is_some() {
                        let p = id.0 as usize / PAGE;
                        let n = per_page.get_mut(&p).expect("counted");
                        *n -= 1;
                        if *n == 0 {
                            per_page.remove(&p);
                        }
                    }
                }
                let probe = SockId(rng.below(inserted as u64 + 1) as u32);
                prop_assert_eq!(table.get(probe), model.get(&probe), "{}", why);
                prop_assert_eq!(table.len, model.len(), "{}", why);
                let (held, free) = (table.pages().count(), table.free.len());
                most_held = most_held.max(held);
                let live_pages = per_page.len();
                prop_assert!(held <= live_pages + 1, "{why}: {held} pages held, {live_pages} live");
                prop_assert!(free <= most_held, "{why}: {free} free pages, at most {most_held} held");
                if step % 97 == 0 || step + 1 == steps {
                    prop_assert_eq!(table.check(), Ok(()), "{}", why);
                    let walk: Vec<_> = table.iter().map(|(id, &v)| (id, v)).collect();
                    let want: Vec<_> = model.iter().map(|(&id, &v)| (id, v)).collect();
                    prop_assert_eq!(&walk, &want, "{}", why);
                    prop_assert_eq!(table.first(), model.keys().next().copied(), "{}", why);
                }
            }
        }
    }

    #[test]
    fn ids_ascend_by_one_and_pages_are_reused() {
        let mut table = SockTable::default();
        for round in 0..4u32 {
            let ids: Vec<_> = (0..3 * PAGE).map(|_| table.insert(|id| id)).collect();
            let base = round * 3 * PAGE as u32;
            assert!(ids
                .iter()
                .enumerate()
                .all(|(i, id)| id.0 == base + i as u32));
            ids.iter()
                .for_each(|&id| assert_eq!(table.take(id), Some(id)));
            // Every page went to the free list: the last one filled up,
            // so the next id lands on a page not yet made.
            assert_eq!((table.pages().count(), table.free.len()), (0, 3));
            assert_eq!(table.check(), Ok(()));
        }
    }
}
