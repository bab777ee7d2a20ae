//! A listening socket's two queues, threaded through its children's own
//! socket slots.
//!
//! 4.4BSD keeps a listener's embryonic and completed children on two
//! queues (`so_q0`, `so_q`) linked through the child sockets themselves;
//! [`SockList`] does the same. A queue is its head, tail and length, and
//! each child carries its neighbours on the one queue it is on
//! (`Socket::links`), so queueing allocates nothing and any member
//! leaves in O(1). Which queue a child is on follows from its state: the
//! half-open one until its handshake is reported
//! (`Socket::established_reported`), then the accept one until `accept`
//! takes it.

use lrp_stack::SockId;

/// No neighbour: an end of a queue. Socket ids, creation numbers, never
/// reach it.
const NIL: u32 = u32::MAX;

/// A socket's neighbours on its listener's queue: none on either side
/// when it is on no queue, or alone on one. Two words, not two
/// `Option<SockId>`s, so that a socket-table slot grows by eight bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Links {
    prev: u32,
    next: u32,
}

impl Default for Links {
    fn default() -> Self {
        Links {
            prev: NIL,
            next: NIL,
        }
    }
}

fn word(id: Option<SockId>) -> u32 {
    id.map_or(NIL, |s| s.0)
}

fn sock(word: u32) -> Option<SockId> {
    (word != NIL).then_some(SockId(word))
}

impl Links {
    fn new(prev: Option<SockId>, next: Option<SockId>) -> Self {
        Links {
            prev: word(prev),
            next: word(next),
        }
    }

    fn prev(&self) -> Option<SockId> {
        sock(self.prev)
    }

    fn next(&self) -> Option<SockId> {
        sock(self.next)
    }
}

/// Where queued sockets keep their [`Links`].
pub(crate) trait LinkStore {
    fn links(&self, id: SockId) -> Links;
    fn links_mut(&mut self, id: SockId) -> &mut Links;
}

/// A FIFO of sockets threaded through their [`Links`]. A socket is on at
/// most one list, and a list's operations take only sockets on it or on
/// none.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SockList {
    head: Option<SockId>,
    tail: Option<SockId>,
    len: usize,
}

impl SockList {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest socket on the list.
    pub(crate) fn front(&self) -> Option<SockId> {
        self.head
    }

    /// Appends `id`, which is on no list.
    pub(crate) fn push_back(&mut self, store: &mut impl LinkStore, id: SockId) {
        debug_assert!(
            store.links(id) == Links::default() && self.head != Some(id),
            "{id:?} is queued already"
        );
        *store.links_mut(id) = Links::new(self.tail, None);
        match self.tail {
            Some(t) => store.links_mut(t).next = id.0,
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        self.len += 1;
    }

    /// Takes the oldest socket off the list.
    pub(crate) fn pop_front(&mut self, store: &mut impl LinkStore) -> Option<SockId> {
        let id = self.head?;
        self.remove(store, id);
        Some(id)
    }

    /// Takes `id` off the list; false if it was on none.
    pub(crate) fn remove(&mut self, store: &mut impl LinkStore, id: SockId) -> bool {
        let links = store.links(id);
        let (prev, next) = (links.prev(), links.next());
        if prev.is_none() && self.head != Some(id) {
            return false;
        }
        match prev {
            Some(p) => store.links_mut(p).next = links.next,
            None => self.head = next,
        }
        match next {
            Some(n) => store.links_mut(n).prev = links.prev,
            None => self.tail = prev,
        }
        *store.links_mut(id) = Links::default();
        self.len -= 1;
        true
    }

    /// Walks the list from its head and returns its members, oldest
    /// first; `Err` names the first link that does not answer its
    /// neighbour's, a walk that does not end at the tail, or a length
    /// that does not match.
    pub(crate) fn check(&self, store: &impl LinkStore) -> Result<Vec<SockId>, String> {
        let mut members = Vec::with_capacity(self.len);
        let (mut at, mut prev) = (self.head, None);
        while let Some(id) = at {
            if members.len() == self.len {
                return Err(format!("longer than its length {}", self.len));
            }
            let links = store.links(id);
            if links.prev() != prev {
                return Err(format!(
                    "{id:?} links back to {:?}, not {prev:?}",
                    links.prev()
                ));
            }
            members.push(id);
            (prev, at) = (Some(id), links.next());
        }
        if prev != self.tail || members.len() != self.len {
            return Err(format!(
                "{} members ending at {prev:?}; length {}, tail {:?}",
                members.len(),
                self.len,
                self.tail
            ));
        }
        Ok(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Sockets the sequences touch.
    const SOCKS: usize = 24;

    impl LinkStore for Vec<Links> {
        fn links(&self, id: SockId) -> Links {
            self[id.0 as usize]
        }

        fn links_mut(&mut self, id: SockId) -> &mut Links {
            &mut self[id.0 as usize]
        }
    }

    proptest! {
        /// Against the two `VecDeque`s the lists replaced — half-open
        /// children in admission order, completed ones in completion
        /// order — a listener's two lists hold the same sockets in the
        /// same order through admissions, completions, failures,
        /// oldest-first evictions, accepts and frees, and stay well
        /// formed. Each step is `(op, socket)`: op 0 admits the socket
        /// if it is on neither list, 1 completes its handshake, 2 fails
        /// it, 3 evicts the oldest half-open child, 4 accepts the oldest
        /// completed one, 5 frees the socket from whichever list it is
        /// on.
        #[test]
        fn lists_match_the_vecdeque_model(
            ops in proptest::collection::vec((0u8..6, 0..SOCKS), 1..300),
        ) {
            let mut store = vec![Links::default(); SOCKS];
            let (mut half_open, mut accept_q) = (SockList::default(), SockList::default());
            let (mut model_half, mut model_accept) = (VecDeque::new(), VecDeque::new());
            for (op, s) in ops {
                let sock = SockId(s as u32);
                let in_half = model_half.contains(&sock);
                let in_accept = model_accept.contains(&sock);
                match op {
                    0 if !in_half && !in_accept => {
                        half_open.push_back(&mut store, sock);
                        model_half.push_back(sock);
                    }
                    1 if in_half => {
                        prop_assert!(half_open.remove(&mut store, sock));
                        accept_q.push_back(&mut store, sock);
                        model_half.retain(|&x| x != sock);
                        model_accept.push_back(sock);
                    }
                    2 if !in_accept => {
                        prop_assert_eq!(half_open.remove(&mut store, sock), in_half);
                        model_half.retain(|&x| x != sock);
                    }
                    3 => prop_assert_eq!(half_open.pop_front(&mut store), model_half.pop_front()),
                    4 => prop_assert_eq!(accept_q.pop_front(&mut store), model_accept.pop_front()),
                    5 => {
                        let list = if in_accept { &mut accept_q } else { &mut half_open };
                        prop_assert_eq!(list.remove(&mut store, sock), in_half || in_accept);
                        model_half.retain(|&x| x != sock);
                        model_accept.retain(|&x| x != sock);
                    }
                    _ => {}
                }
                let half: Vec<_> = model_half.iter().copied().collect();
                let accept: Vec<_> = model_accept.iter().copied().collect();
                prop_assert_eq!(half_open.check(&store), Ok(half));
                prop_assert_eq!(accept_q.check(&store), Ok(accept));
                prop_assert_eq!(half_open.front(), model_half.front().copied());
                prop_assert_eq!(half_open.len(), model_half.len());
                prop_assert_eq!(accept_q.is_empty(), model_accept.is_empty());
            }
            // A socket on no list has no neighbours.
            for (i, links) in store.iter().enumerate() {
                let sock = SockId(i as u32);
                if !model_half.contains(&sock) && !model_accept.contains(&sock) {
                    prop_assert_eq!(*links, Links::default());
                }
            }
        }
    }
}
