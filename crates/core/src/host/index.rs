//! The host's incrementally maintained indexes, each with the one place
//! that mutates it, and the brute-force check that they are exact.
//!
//! The event loop asks the host a few questions after *every* event —
//! when is the next kernel timer, which sockets have frames waiting, who
//! sleeps on this channel. Answering by walking the socket or process
//! table makes every event cost O(live sockets); the indexes here answer
//! from state kept current where it changes. They alter how the host
//! *finds* the next socket, never which one it finds: every walk that
//! replaced a table scan visits in ascending `SockId`, the order the scan
//! had.

use super::{sock_wchan, Host, Links, Socket, WC_ACCEPT, WC_CONNECT, WC_RECV, WC_SEND};
use crate::syscall::SockProto;
use lrp_demux::ChannelId;
use lrp_sched::{Pid, WaitChannel};
use lrp_stack::tcp::{PooledConn, TcpConn};
use lrp_stack::SockId;
use std::collections::BTreeMap;

/// A set of sockets as a sorted vector: membership by binary search, and
/// walks in ascending `SockId`. Its storage is the most members it ever
/// held at once, reused, so a steady membership allocates nothing, and
/// nothing is kept per socket id ever issued.
#[derive(Debug, Default)]
pub(crate) struct SockSet(Vec<SockId>);

impl SockSet {
    /// Adds `id`; false if it was already a member.
    pub(crate) fn insert(&mut self, id: SockId) -> bool {
        let Err(i) = self.0.binary_search(&id) else {
            return false;
        };
        self.0.insert(i, id);
        true
    }

    /// Removes `id`; false if it was not a member.
    pub(crate) fn remove(&mut self, id: SockId) -> bool {
        let Ok(i) = self.0.binary_search(&id) else {
            return false;
        };
        self.0.remove(i);
        true
    }

    /// True if `id` is a member.
    pub(crate) fn contains(&self, id: SockId) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    /// The members, in ascending order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, SockId> {
        self.0.iter()
    }

    /// Cursor for walks whose body needs `&mut Host`: the first member at
    /// or after `*from`, advancing `from` past it.
    pub(crate) fn next_from(&self, from: &mut SockId) -> Option<SockId> {
        let sock = *self.0.get(self.0.partition_point(|&s| s < *from))?;
        *from = SockId(sock.0 + 1);
        Some(sock)
    }
}

/// The cwnd gauge's key for `s` now: its connection's
/// `(cwnd, ssthresh)`, `None` without one.
fn conn_cwnd_key(s: &Socket) -> Option<(u64, u64)> {
    s.tcp
        .as_ref()
        .map(|c| (c.cwnd() as u64, c.ssthresh() as u64))
}

impl Host {
    /// A frame was just queued on `chan`: on the empty→non-empty edge its
    /// socket joins the ready set. Called at both enqueue sites (the NI
    /// firmware path in `on_frame_span`, the host handler in
    /// `soft_demux_deliver`).
    pub(crate) fn note_chan_enqueue(&mut self, chan: ChannelId) {
        if self.nic.channel(chan).depth() == 1 {
            if let Some(&sock) = self.chan_to_sock.get(&chan) {
                if self.ready_socks.insert(sock) {
                    let s = self.sock(sock);
                    self.note_owner_work(s.owner, s.proto, true);
                }
            }
        }
    }

    /// `chan` was just drained or is about to be destroyed: its socket
    /// leaves the ready set. The socket is still in the table:
    /// `free_socket` closes the channel before it takes the slot.
    pub(crate) fn note_chan_empty(&mut self, chan: ChannelId) {
        if let Some(&sock) = self.chan_to_sock.get(&chan) {
            if self.ready_socks.remove(sock) {
                let s = self.sock(sock);
                self.note_owner_work(s.owner, s.proto, false);
            }
        }
    }

    /// A socket of `owner` joined (`gained`) or left `ready_socks` or
    /// `tcp_timer_work`: keeps `owner_work` — per owner, its TCP sockets'
    /// memberships of the two — exact.
    pub(crate) fn note_owner_work(&mut self, owner: Pid, proto: SockProto, gained: bool) {
        if proto != SockProto::Tcp {
            return;
        }
        let found = self.owner_work.binary_search_by_key(&owner, |&(p, _)| p);
        match found {
            Ok(i) if gained => self.owner_work[i].1 += 1,
            Err(i) if gained => self.owner_work.insert(i, (owner, 1)),
            Ok(i) if self.owner_work[i].1 > 1 => self.owner_work[i].1 -= 1,
            Ok(i) => {
                self.owner_work.remove(i);
            }
            Err(_) => panic!("{owner:?} lost work it did not have"),
        }
    }

    /// `accept` hands `sock` to `owner`: its pending work moves with it.
    pub(crate) fn set_owner(&mut self, sock: SockId, owner: Pid) {
        let s = self.sock(sock);
        let (old, proto) = (s.owner, s.proto);
        let units = usize::from(self.ready_socks.contains(sock)) + usize::from(s.timer_queued);
        for _ in 0..units {
            self.note_owner_work(old, proto, false);
            self.note_owner_work(owner, proto, true);
        }
        self.sock_mut(sock).owner = owner;
    }

    /// Runs `f` on `sock`'s connection, re-files the socket under
    /// whatever deadline the connection has afterwards (unless its timer
    /// work is queued: `pop_timer_work` files it), and marks it for the
    /// cwnd gauge. Every mutation of a live `TcpConn` goes through
    /// here — that is what keeps `tcp_deadlines` and the gauge exact.
    ///
    /// # Panics
    ///
    /// Panics if the socket is gone or has no connection.
    pub(crate) fn with_conn<R>(&mut self, sock: SockId, f: impl FnOnce(&mut TcpConn) -> R) -> R {
        let s = self.sockets.get_mut(sock).expect("live socket");
        Self::mark_cwnd_dirty(&mut self.cwnd_dirty, s);
        let filed = !s.timer_queued;
        let conn = s.tcp.as_mut().expect("tcp socket");
        let old = conn.next_deadline();
        let r = f(conn);
        let new = conn.next_deadline();
        if filed && old != new {
            self.tcp_deadlines.set(sock, new);
        }
        r
    }

    /// Gives `sock` its connection, in a box from the thread's pool, or
    /// takes it away without a protocol goodbye (`None`); a connection
    /// taken away returns its box to the pool as it drops.
    pub(crate) fn set_conn(&mut self, sock: SockId, conn: Option<TcpConn>) {
        let conn = conn.map(PooledConn::new);
        let new = conn.as_ref().and_then(|c| c.next_deadline());
        let s = self.sockets.get_mut(sock).expect("live socket");
        Self::mark_cwnd_dirty(&mut self.cwnd_dirty, s);
        if !s.timer_queued {
            self.tcp_deadlines.set(sock, new);
        }
        s.tcp = conn;
    }

    /// Queues `s` for the cwnd gauge's next re-read, once per tick.
    fn mark_cwnd_dirty(dirty: &mut Vec<SockId>, s: &mut Socket) {
        if !s.cwnd_dirty {
            s.cwnd_dirty = true;
            dirty.push(s.id);
        }
    }

    /// Statclock tick: re-reads `(cwnd, ssthresh)` for the sockets whose
    /// connection changed since the last tick and keeps `cwnd_max` — the
    /// widest live connection's — exact. The stored keys are walked only
    /// when the socket holding the maximum fell or was freed.
    pub(crate) fn refresh_cwnd_gauge(&mut self) {
        for sock in self.cwnd_dirty.drain(..) {
            let s = (self.sockets.get_mut(sock)).expect("freed sockets leave the dirty list");
            s.cwnd_dirty = false;
            s.cwnd_key = conn_cwnd_key(s);
            match s.cwnd_key {
                Some(k) if k > self.cwnd_max || self.cwnd_max_sock.is_none() => {
                    self.cwnd_max = k;
                    self.cwnd_max_sock = Some(sock);
                }
                key if self.cwnd_max_sock == Some(sock) && key != Some(self.cwnd_max) => {
                    self.cwnd_rescan = true;
                }
                _ => {}
            }
        }
        if std::mem::take(&mut self.cwnd_rescan) {
            let widest = (self.sockets.iter())
                .filter_map(|(id, s)| Some((s.cwnd_key?, id)))
                .max();
            self.cwnd_max = widest.map_or((0, 0), |(k, _)| k);
            self.cwnd_max_sock = widest.map(|(_, id)| id);
        }
    }

    /// Takes the next socket with due TCP timer work; it goes back into
    /// the deadline index under its connection's deadline.
    pub(crate) fn pop_timer_work(&mut self) -> Option<SockId> {
        let sock = self.tcp_timer_work.pop_front()?;
        let s = self.sock_mut(sock);
        s.timer_queued = false;
        let (owner, proto) = (s.owner, s.proto);
        let deadline = s.tcp.as_ref().and_then(|c| c.next_deadline());
        self.tcp_deadlines.set(sock, deadline);
        self.note_owner_work(owner, proto, false);
        Some(sock)
    }

    /// Wakes every process sleeping on `wchan` and resumes its blocked
    /// continuation.
    pub(crate) fn wake_channel(&mut self, wchan: WaitChannel) {
        let mut woken = std::mem::take(&mut self.woken_scratch);
        self.sched.wakeup_into(wchan, &mut woken);
        for pid in woken.drain(..) {
            self.unblock(pid);
        }
        self.woken_scratch = woken;
    }

    /// Whether a process is blocked in a call that drains `s`'s channel
    /// without the APP thread: any call on `s`, or an accept on the
    /// listener that spawned it.
    fn drainer_asleep(&self, s: &Socket) -> bool {
        let kinds = [WC_RECV, WC_SEND, WC_ACCEPT, WC_CONNECT];
        kinds
            .iter()
            .any(|&k| self.sched.has_sleeper(sock_wchan(s.id, k)))
            || s.parent
                .is_some_and(|p| self.sched.has_sleeper(sock_wchan(p, WC_ACCEPT)))
    }

    /// Walks every listener's two queues: each is whole, holds only the
    /// listener's own children (half-open before the handshake is
    /// reported, completed after), and every socket with queue
    /// neighbours is on one of them.
    fn check_listen_queues(&self) -> Result<(), String> {
        let mut on_queues = Vec::new();
        for (id, s) in self.sockets.iter() {
            let Some(l) = s.listen.and_then(|i| self.listeners[i as usize].as_ref()) else {
                continue;
            };
            for (list, reported, name) in [
                (&l.half_open, false, "half-open"),
                (&l.accept_q, true, "accept"),
            ] {
                let members = (list.check(&self.sockets))
                    .map_err(|e| format!("{id:?}'s {name} queue: {e}"))?;
                for m in members {
                    let c = self.sock(m);
                    if c.parent != Some(id) || c.established_reported != reported {
                        return Err(format!(
                            "{m:?} on {id:?}'s {name} queue: parent {:?}, reported {}",
                            c.parent, c.established_reported
                        ));
                    }
                    on_queues.push(m);
                }
            }
        }
        on_queues.sort_unstable();
        let stray = self
            .sockets
            .iter()
            .find(|(id, s)| s.links != Links::default() && on_queues.binary_search(id).is_err());
        match stray {
            Some((id, s)) => Err(format!("{id:?} links {:?} but is on no queue", s.links)),
            None => Ok(()),
        }
    }

    /// Recomputes every index by brute force and compares it with the
    /// maintained one, and checks that the packet ledger balances; `Err`
    /// names the first divergence. The table scans
    /// the indexes replaced live on only here: [`World::run_until`] runs
    /// this every few hundred events under `debug_assertions`, and the
    /// chaos tests call it right after crash, reboot and listener-close
    /// steps.
    ///
    /// [`World::run_until`]: crate::world::World::run_until
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut deadlines = Vec::new();
        let mut ready = Vec::new();
        let mut dgram = Vec::new();
        let mut queued = Vec::new();
        let mut dirty = Vec::new();
        let mut widest = None;
        let mut listening = 0;
        (self.sockets.check()).map_err(|e| format!("socket table: {e}"))?;
        for (id, s) in self.sockets.iter() {
            if s.id != id {
                return Err(format!("socket table: {:?} in the slot of {id:?}", s.id));
            }
            if let Some(i) = s.listen {
                listening += 1;
                if self.listeners[i as usize].is_none() {
                    return Err(format!("{id:?}: listener entry {i} is empty"));
                }
            }
            let deadline = s.tcp.as_ref().and_then(|c| c.next_deadline());
            if !s.timer_queued {
                deadlines.extend(deadline.map(|t| (t, s.id)));
            }
            if s.cwnd_dirty {
                dirty.push(s.id);
            } else {
                let key = conn_cwnd_key(s);
                if s.cwnd_key != key {
                    return Err(format!(
                        "{:?}: cwnd gauge key {:?}, connection says {key:?}, not marked dirty",
                        s.id, s.cwnd_key
                    ));
                }
            }
            widest = widest.max(s.cwnd_key);
            let chan = s.chan.filter(|&c| self.nic.channel_exists(c));
            if chan.is_some_and(|c| !self.nic.channel(c).is_empty()) {
                ready.push(s.id);
            }
            if s.proto != SockProto::Tcp {
                dgram.push(s.id);
            }
            if s.timer_queued {
                queued.push(s.id);
            }
            // A TCP channel may be disarmed (only the NI firmware clears
            // the flag) with no re-arm pending only while its drainer is
            // awake: with the APP thread, never (a fired channel is listed
            // for the thread's re-arm); without it (A4), while no process
            // is blocked in a call that drains it, which arms it first.
            if let Some(c) = chan {
                if s.proto == SockProto::Tcp
                    && !self.nic.channel(c).intr_requested
                    && !self.rearm_socks.contains(&s.id)
                    && (self.app_thread.is_some() || self.drainer_asleep(s))
                {
                    return Err(format!(
                        "{:?}: TCP channel disarmed, no re-arm pending, its drainer asleep",
                        s.id
                    ));
                }
            }
        }
        deadlines.sort_unstable();
        self.tcp_deadlines
            .check(&deadlines)
            .map_err(|e| format!("deadline heap: {e}"))?;
        if let Some(cached) = self.kernel_timer_at {
            let folded = self.kernel_timer_min();
            if cached != folded {
                return Err(format!(
                    "kernel timer cache {cached:?}, its sources say {folded:?}"
                ));
            }
        }
        let entries = self.listeners.iter().flatten().count();
        if listening != entries {
            return Err(format!(
                "{entries} listener entries, {listening} listening sockets"
            ));
        }
        self.check_listen_queues()?;
        if !self.ready_socks.iter().eq(&ready) {
            return Err(format!(
                "ready set {:?}, non-empty channels {ready:?}",
                self.ready_socks
            ));
        }
        if !self.dgram_socks.iter().eq(&dgram) {
            return Err(format!(
                "datagram set {:?}, live datagram sockets {dgram:?}",
                self.dgram_socks
            ));
        }
        let mut work: Vec<SockId> = self.tcp_timer_work.iter().copied().collect();
        work.sort_unstable();
        if work != queued {
            return Err(format!(
                "timer work queue {work:?}, flagged sockets {queued:?}"
            ));
        }
        let mut listed = self.cwnd_dirty.clone();
        listed.sort_unstable();
        if listed != dirty {
            return Err(format!(
                "cwnd dirty list {listed:?}, sockets marked dirty {dirty:?}"
            ));
        }
        if !self.cwnd_rescan {
            let held = self
                .cwnd_max_sock
                .and_then(|id| self.sock_opt(id))
                .and_then(|s| s.cwnd_key);
            if self.cwnd_max != widest.unwrap_or((0, 0)) || held != widest {
                return Err(format!(
                    "cwnd gauge {:?} held by {:?} ({held:?}), stored keys peak at {widest:?}",
                    self.cwnd_max, self.cwnd_max_sock
                ));
            }
        }
        let mut owner_work = BTreeMap::new();
        for &id in self.ready_socks.iter().chain(&self.tcp_timer_work) {
            let s = self.sock(id);
            if s.proto == SockProto::Tcp {
                *owner_work.entry(s.owner).or_insert(0) += 1;
            }
        }
        let owner_work: Vec<(Pid, u32)> = owner_work.into_iter().collect();
        if owner_work != self.owner_work {
            return Err(format!(
                "owner work counts {:?}, ready and timer-queued TCP sockets say {owner_work:?}",
                self.owner_work
            ));
        }
        self.nic.check_depth_gauge()?;
        self.check_ledger()?;
        self.pcb
            .check_indexes()
            .map_err(|e| format!("PCB table: {e}"))?;
        self.sched
            .check_sleeper_index()
            .map_err(|e| format!("sleeper index: {e}"))?;
        self.sched
            .check_activity_index()
            .map_err(|e| format!("scheduler activity: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// Against the `BTreeSet` the ready and datagram sets were: the
        /// same answers to `insert`, `remove` and `contains`, the same
        /// members in the same order, and a cursor walk from any start
        /// visits the model's members at or after it, in order.
        /// Each step is `(op, id, from)`: op 0-1 inserts, 2 removes, 3
        /// walks from `from`.
        #[test]
        fn sock_set_matches_the_btreeset_model(
            ops in proptest::collection::vec((0u8..4, 0u32..40, 0u32..42), 1..300),
        ) {
            let mut model = BTreeSet::new();
            let mut set = SockSet::default();
            for (op, id, from) in ops {
                let sock = SockId(id);
                match op {
                    0 | 1 => prop_assert_eq!(set.insert(sock), model.insert(sock)),
                    2 => prop_assert_eq!(set.remove(sock), model.remove(&sock)),
                    _ => {
                        let mut cursor = SockId(from);
                        let walked: Vec<_> = std::iter::from_fn(|| set.next_from(&mut cursor)).collect();
                        let want: Vec<_> = model.range(SockId(from)..).copied().collect();
                        prop_assert_eq!(walked, want);
                    }
                }
                prop_assert_eq!(set.contains(sock), model.contains(&sock));
                prop_assert!(set.iter().eq(model.iter()));
            }
        }
    }
}
