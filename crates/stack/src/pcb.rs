//! Protocol control block (PCB) tables.
//!
//! 4.3BSD finds the socket for an incoming packet by scanning a list of
//! PCBs (`in_pcblookup`): the first entry whose 5-tuple matches exactly
//! wins, otherwise the first wildcard entry for the local endpoint, and
//! every entry before the answer is examined. The scan cost grows with
//! the number of sockets, TIME_WAIT ones included — a real problem for
//! busy HTTP servers (reference 16 in the paper; the Figure 5 experiment
//! shortens TIME_WAIT to keep it bounded). [`PcbTable::lookup`] reports
//! that scan length as [`LookupResult::steps`] so the host can charge a
//! per-step cost, and the LRP kernels can bypass the table entirely
//! (early demux already identified the socket).
//!
//! The simulated CPU pays for the scan; the simulator does not have to.
//! The table keeps the list's order and answers from indexes instead:
//!
//! - **slots** hold the entries in insertion order; a removed entry
//!   leaves a dead slot (a tombstone) so later slots keep their place;
//! - a **key index** maps each key to its slot;
//! - a **rank tree** (a Fenwick tree over slot liveness) counts the live
//!   slots up to any slot, which is the 1-based position the scan would
//!   reach it at;
//! - **socket chains** link each socket's slots, so removing a socket
//!   visits only its own entries.
//!
//! Keys are unique and "wildcard" means `remote == Endpoint::ANY`, so a
//! `(proto, local)` pair has at most one wildcard key and "the first
//! wildcard" is a key lookup. A lookup therefore costs a hash probe or
//! two and a rank query, whatever the table holds. When the slots fill,
//! the live ones are compacted in place (order kept) and the indexes
//! re-pointed; the capacity doubles only when at least half the slots
//! are live, so steady churn allocates nothing.

use lrp_sim::FastHashMap;
use lrp_wire::{Endpoint, FlowKey};
use std::hash::{Hash, Hasher};

/// A socket identifier (index into the host's socket table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockId(pub u32);

/// The end of a socket chain.
const NIL: u32 = u32::MAX;

/// Slot capacity of the first allocation.
const MIN_SLOTS: usize = 8;

#[derive(Clone, Copy, Debug)]
struct Slot {
    key: FlowKey,
    sock: SockId,
    live: bool,
    /// Neighbours in `sock`'s chain (`NIL` at either end); meaningless
    /// once the slot is dead.
    prev: u32,
    next: u32,
}

/// A [`FlowKey`] packed into one integer: remote endpoint in bits 0..48,
/// local endpoint in 48..96, protocol in 96..104 (address above port in
/// each endpoint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedKey(u128);

impl PackedKey {
    fn of(key: &FlowKey) -> Self {
        let ep = |e: Endpoint| (u32::from(e.addr) as u128) << 16 | e.port as u128;
        PackedKey((key.proto as u128) << 96 | ep(key.local) << 48 | ep(key.remote))
    }
}

impl Hash for PackedKey {
    /// One word for the map's multiply-fold hasher: the low half carries
    /// the remote endpoint and the local port, the high half the local
    /// address and protocol, so the fold is injective among the keys of
    /// one local address and protocol — every key a host table holds.
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.0 as u64 ^ (self.0 >> 64) as u64);
    }
}

/// The result of a PCB lookup: the match (if any) and how many entries
/// were examined (for cost accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupResult {
    /// The matched socket.
    pub sock: Option<SockId>,
    /// Entries scanned during the lookup.
    pub steps: usize,
}

/// A PCB table with 4.3BSD list semantics on an indexed store (see the
/// module docs).
#[derive(Debug, Default)]
pub struct PcbTable {
    slots: Vec<Slot>,
    /// Live key → its slot.
    index: FastHashMap<PackedKey, u32>,
    /// Fenwick tree over slot liveness: entry `j - 1` counts the live
    /// slots in `j - lowbit(j) .. j`. Its length is the slot capacity.
    tree: Vec<u32>,
    /// Socket → the first slot of its chain, for sockets with live keys.
    heads: FastHashMap<SockId, u32>,
    /// Live entries.
    live: usize,
}

impl PcbTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of PCBs.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no PCBs exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a PCB at the end of the list. Duplicate keys are rejected.
    pub fn insert(&mut self, key: FlowKey, sock: SockId) -> Result<(), PcbError> {
        let packed = PackedKey::of(&key);
        if self.index.contains_key(&packed) {
            return Err(PcbError::InUse);
        }
        if self.slots.len() == self.tree.len() {
            self.compact();
        }
        let i = self.slots.len() as u32;
        self.slots.push(Slot {
            key,
            sock,
            live: true,
            prev: NIL,
            next: NIL,
        });
        self.push_chain(i);
        self.index.insert(packed, i);
        self.tree_add(i, true);
        self.live += 1;
        Ok(())
    }

    /// Removes the PCB with this exact key; returns its socket.
    pub fn remove(&mut self, key: &FlowKey) -> Option<SockId> {
        let i = self.index.remove(&PackedKey::of(key))?;
        let Slot {
            sock, prev, next, ..
        } = self.slots[i as usize];
        if prev == NIL {
            match next {
                NIL => self.heads.remove(&sock),
                _ => self.heads.insert(sock, next),
            };
        } else {
            self.slots[prev as usize].next = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        self.kill(i);
        Some(sock)
    }

    /// Removes every PCB belonging to `sock`.
    pub fn remove_socket(&mut self, sock: SockId) {
        let mut i = self.heads.remove(&sock).unwrap_or(NIL);
        while i != NIL {
            let slot = self.slots[i as usize];
            self.index.remove(&PackedKey::of(&slot.key));
            self.kill(i);
            i = slot.next;
        }
    }

    /// BSD-style lookup: an exact 5-tuple match, else the wildcard entry
    /// for `(proto, local)`, with the length of the list scan that finds
    /// it — the exact match's position, or the whole list.
    pub fn lookup(&self, proto: u8, local: Endpoint, remote: Endpoint) -> LookupResult {
        let exact = FlowKey::new(proto, local, remote);
        if let Some(&i) = self.index.get(&PackedKey::of(&exact)) {
            return LookupResult {
                sock: Some(self.slots[i as usize].sock),
                steps: self.rank(i),
            };
        }
        let wildcard = FlowKey::listening(proto, local);
        LookupResult {
            sock: self
                .index
                .get(&PackedKey::of(&wildcard))
                .map(|&i| self.slots[i as usize].sock),
            steps: self.live,
        }
    }

    /// True if a key is present (for bind conflict checks).
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.index.contains_key(&PackedKey::of(key))
    }

    /// Recomputes every index from the slots and compares: the key index,
    /// the rank tree, the socket chains and `len`. `Err` names the first
    /// divergence.
    pub fn check_indexes(&self) -> Result<(), String> {
        if self.slots.len() > self.tree.len() {
            return Err(format!(
                "{} slots beyond a capacity of {}",
                self.slots.len(),
                self.tree.len()
            ));
        }
        let mut rank = 0;
        for i in 0..self.tree.len() {
            let slot = self.slots.get(i).filter(|s| s.live);
            if let Some(s) = slot {
                rank += 1;
                let indexed = self.index.get(&PackedKey::of(&s.key));
                if indexed != Some(&(i as u32)) {
                    return Err(format!(
                        "{:?} in slot {i}, key index says {indexed:?}",
                        s.key
                    ));
                }
            }
            if self.rank(i as u32) != rank {
                return Err(format!(
                    "rank tree counts {} live slots to slot {i}, the slots {rank}",
                    self.rank(i as u32)
                ));
            }
        }
        if rank != self.live || self.index.len() != self.live {
            return Err(format!(
                "{rank} live slots, {} indexed keys, len {}",
                self.index.len(),
                self.live
            ));
        }
        let mut chained = 0;
        for (&sock, &head) in &self.heads {
            let (mut prev, mut i) = (NIL, head);
            while i != NIL {
                let s = &self.slots[i as usize];
                if !s.live || s.sock != sock || s.prev != prev || chained == self.live {
                    return Err(format!("{sock:?}'s chain is broken at slot {i}: {s:?}"));
                }
                chained += 1;
                (prev, i) = (i, s.next);
            }
        }
        if chained != self.live {
            return Err(format!(
                "socket chains hold {chained} slots, len {}",
                self.live
            ));
        }
        Ok(())
    }

    /// Puts slot `i` at the head of its socket's chain.
    fn push_chain(&mut self, i: u32) {
        let sock = self.slots[i as usize].sock;
        let next = self.heads.insert(sock, i).unwrap_or(NIL);
        if next != NIL {
            self.slots[next as usize].prev = i;
        }
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = next;
    }

    /// Marks live slot `i` dead (its key and chain are already undone).
    fn kill(&mut self, i: u32) {
        self.slots[i as usize].live = false;
        self.tree_add(i, false);
        self.live -= 1;
    }

    /// Live slots in `0..=i`: the 1-based scan position of live slot `i`.
    fn rank(&self, i: u32) -> usize {
        let (mut j, mut n) = (i as usize + 1, 0);
        while j > 0 {
            n += self.tree[j - 1] as usize;
            j &= j - 1;
        }
        n
    }

    fn tree_add(&mut self, i: u32, live: bool) {
        let mut j = i as usize + 1;
        while j <= self.tree.len() {
            if live {
                self.tree[j - 1] += 1;
            } else {
                self.tree[j - 1] -= 1;
            }
            j += j & j.wrapping_neg();
        }
    }

    /// The slots are full: drop the dead ones (keeping order), doubling
    /// the capacity if at least half are live, and rebuild the indexes
    /// in the storage they already have.
    fn compact(&mut self) {
        if 2 * self.live >= self.tree.len() {
            let cap = (2 * self.tree.len()).max(MIN_SLOTS);
            self.slots.reserve_exact(cap - self.slots.len());
            self.tree.resize(cap, 0);
        }
        self.slots.retain(|s| s.live);
        self.heads.clear();
        for i in 0..self.slots.len() as u32 {
            let key = PackedKey::of(&self.slots[i as usize].key);
            *self.index.get_mut(&key).expect("live key") = i;
            self.push_chain(i);
        }
        // Every live slot now precedes every free one: seed each node with
        // its own slot's liveness and push it up to its parent.
        let n = self.tree.len();
        for (j, t) in self.tree.iter_mut().enumerate() {
            *t = u32::from(j < self.live);
        }
        for j in 1..=n {
            let parent = j + (j & j.wrapping_neg());
            if parent <= n {
                self.tree[parent - 1] += self.tree[j - 1];
            }
        }
    }
}

/// PCB errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcbError {
    /// Address already in use.
    InUse,
}

impl std::fmt::Display for PcbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcbError::InUse => write!(f, "address already in use"),
        }
    }
}

impl std::error::Error for PcbError {}

/// The 4.3BSD list itself: the reference the indexed table is tested
/// against.
#[cfg(test)]
mod linear {
    use super::{LookupResult, PcbError, SockId};
    use lrp_wire::{Endpoint, FlowKey};

    #[derive(Debug, Default)]
    pub(super) struct LinearPcbTable {
        entries: Vec<(FlowKey, SockId)>,
    }

    impl LinearPcbTable {
        pub(super) fn len(&self) -> usize {
            self.entries.len()
        }

        pub(super) fn insert(&mut self, key: FlowKey, sock: SockId) -> Result<(), PcbError> {
            if self.contains(&key) {
                return Err(PcbError::InUse);
            }
            self.entries.push((key, sock));
            Ok(())
        }

        pub(super) fn remove(&mut self, key: &FlowKey) -> Option<SockId> {
            let pos = self.entries.iter().position(|(k, _)| k == key)?;
            Some(self.entries.remove(pos).1)
        }

        pub(super) fn remove_socket(&mut self, sock: SockId) {
            self.entries.retain(|&(_, s)| s != sock);
        }

        pub(super) fn lookup(&self, proto: u8, local: Endpoint, remote: Endpoint) -> LookupResult {
            let mut wildcard: Option<SockId> = None;
            let mut steps = 0;
            for &(key, sock) in &self.entries {
                steps += 1;
                if key.proto != proto || key.local != local {
                    continue;
                }
                if key.remote == remote {
                    return LookupResult {
                        sock: Some(sock),
                        steps,
                    };
                }
                if key.is_wildcard() && wildcard.is_none() {
                    wildcard = Some(sock);
                }
            }
            LookupResult {
                sock: wildcard,
                steps,
            }
        }

        pub(super) fn contains(&self, key: &FlowKey) -> bool {
            self.entries.iter().any(|(k, _)| k == key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::linear::LinearPcbTable;
    use super::*;
    use lrp_wire::{proto, Ipv4Addr};
    use proptest::prelude::*;

    const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn ep(addr: Ipv4Addr, port: u16) -> Endpoint {
        Endpoint::new(addr, port)
    }

    #[test]
    fn exact_preferred_over_wildcard() {
        let mut t = PcbTable::new();
        t.insert(FlowKey::listening(proto::TCP, ep(LOCAL, 80)), SockId(1))
            .unwrap();
        t.insert(
            FlowKey::new(proto::TCP, ep(LOCAL, 80), ep(PEER, 999)),
            SockId(2),
        )
        .unwrap();
        let r = t.lookup(proto::TCP, ep(LOCAL, 80), ep(PEER, 999));
        assert_eq!(r.sock, Some(SockId(2)));
        let r2 = t.lookup(proto::TCP, ep(LOCAL, 80), ep(PEER, 1000));
        assert_eq!(r2.sock, Some(SockId(1)));
    }

    #[test]
    fn lookup_reports_scan_steps() {
        let mut t = PcbTable::new();
        for i in 0..50u16 {
            t.insert(
                FlowKey::new(proto::TCP, ep(LOCAL, 80), ep(PEER, 1000 + i)),
                SockId(i as u32),
            )
            .unwrap();
        }
        // Wildcard-only miss scans everything.
        let r = t.lookup(proto::TCP, ep(LOCAL, 81), ep(PEER, 1));
        assert_eq!(r.sock, None);
        assert_eq!(r.steps, 50);
        // Early exact hit scans a prefix.
        let r2 = t.lookup(proto::TCP, ep(LOCAL, 80), ep(PEER, 1000));
        assert_eq!(r2.steps, 1);
    }

    #[test]
    fn steps_count_only_the_live_entries_ahead() {
        let key = |i: u16| FlowKey::new(proto::TCP, ep(LOCAL, 80), ep(PEER, 1000 + i));
        let mut t = PcbTable::new();
        let mut reference = LinearPcbTable::default();
        for i in 0..40u16 {
            t.insert(key(i), SockId(i as u32)).unwrap();
            reference.insert(key(i), SockId(i as u32)).unwrap();
        }
        // Punch holes in the middle of the list, by key and by socket.
        for i in [7u16, 8, 20, 33] {
            assert_eq!(t.remove(&key(i)), Some(SockId(i as u32)));
            reference.remove(&key(i));
        }
        t.remove_socket(SockId(21));
        reference.remove_socket(SockId(21));
        t.check_indexes().unwrap();
        for i in 0..45u16 {
            let (local, remote) = (ep(LOCAL, 80), ep(PEER, 1000 + i));
            let got = t.lookup(proto::TCP, local, remote);
            assert_eq!(got, reference.lookup(proto::TCP, local, remote));
        }
        // The 30th entry, with four removed ahead of it.
        assert_eq!(
            t.lookup(proto::TCP, ep(LOCAL, 80), ep(PEER, 1029)).steps,
            26
        );
        assert_eq!(t.lookup(proto::TCP, ep(LOCAL, 80), ep(PEER, 1006)).steps, 7);
        assert_eq!(t.lookup(proto::TCP, ep(LOCAL, 80), ep(PEER, 1009)).steps, 8);
        assert_eq!(t.lookup(proto::TCP, ep(LOCAL, 81), ep(PEER, 1)).steps, 35);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = PcbTable::new();
        let k = FlowKey::listening(proto::UDP, ep(LOCAL, 53));
        t.insert(k, SockId(1)).unwrap();
        assert_eq!(t.insert(k, SockId(2)), Err(PcbError::InUse));
        assert!(t.contains(&k));
    }

    #[test]
    fn remove_by_key_and_socket() {
        let mut t = PcbTable::new();
        let k1 = FlowKey::listening(proto::UDP, ep(LOCAL, 1));
        let k2 = FlowKey::listening(proto::UDP, ep(LOCAL, 2));
        let k3 = FlowKey::listening(proto::UDP, ep(LOCAL, 3));
        t.insert(k1, SockId(1)).unwrap();
        t.insert(k2, SockId(1)).unwrap();
        t.insert(k3, SockId(2)).unwrap();
        assert_eq!(t.remove(&k3), Some(SockId(2)));
        t.remove_socket(SockId(1));
        assert!(t.is_empty());
        t.check_indexes().unwrap();
    }

    #[test]
    fn time_wait_bloat_increases_scan_cost() {
        // The Figure 5 phenomenon: thousands of TIME_WAIT PCBs make every
        // lookup expensive.
        let mut t = PcbTable::new();
        for i in 0..1000u32 {
            t.insert(
                FlowKey::new(proto::TCP, ep(LOCAL, 80), ep(PEER, (i % 60_000) as u16 + 1)),
                SockId(i),
            )
            .unwrap();
        }
        t.insert(FlowKey::listening(proto::TCP, ep(LOCAL, 80)), SockId(9999))
            .unwrap();
        let r = t.lookup(proto::TCP, ep(LOCAL, 80), ep(PEER, 60_001));
        assert_eq!(r.sock, Some(SockId(9999)));
        assert_eq!(r.steps, 1001, "wildcard hit requires a full scan");
    }

    /// The key space of the model test: 2 protocols × 2 local endpoints ×
    /// 3 remotes, one of them the wildcard.
    fn model_key(i: usize) -> FlowKey {
        let protocol = [proto::TCP, proto::UDP][i % 2];
        let local = ep(LOCAL, [80, 81][i / 2 % 2]);
        let remote = [Endpoint::ANY, ep(PEER, 1000), ep(PEER, 1001)][i / 4 % 3];
        FlowKey::new(protocol, local, remote)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every answer of the indexed table equals the list scan's, after
        /// every operation of a random sequence long enough to compact the
        /// slots several times.
        #[test]
        fn indexed_table_matches_the_linear_scan(
            ops in collection::vec((0u8..5, 0usize..12, 0u32..6), 300..600usize)
        ) {
            let mut t = PcbTable::new();
            let mut reference = LinearPcbTable::default();
            let mut compactions = 0;
            for (op, k, sock) in ops {
                let key = model_key(k);
                let sock = SockId(sock);
                match op {
                    0 => {
                        let slots = t.slots.len();
                        let r = t.insert(key, sock);
                        prop_assert_eq!(r, reference.insert(key, sock));
                        compactions += usize::from(r.is_ok() && t.slots.len() <= slots);
                    }
                    1 => prop_assert_eq!(t.remove(&key), reference.remove(&key)),
                    2 => {
                        t.remove_socket(sock);
                        reference.remove_socket(sock);
                    }
                    3 => prop_assert_eq!(t.contains(&key), reference.contains(&key)),
                    _ => {
                        let got = t.lookup(key.proto, key.local, key.remote);
                        let want = reference.lookup(key.proto, key.local, key.remote);
                        prop_assert_eq!(got, want, "lookup {:?}", key);
                    }
                }
                prop_assert_eq!(t.len(), reference.len());
                if let Err(e) = t.check_indexes() {
                    panic!("{e}");
                }
            }
            prop_assert!(compactions >= 3, "only {} compactions", compactions);
        }
    }
}
