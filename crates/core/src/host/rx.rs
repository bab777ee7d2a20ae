//! Frame reception: interrupt handling and software-interrupt protocol
//! work — the point where the four architectures diverge.

use super::{sock_wchan, DropPoint, Host, IP_QUEUE_LIMIT, WC_RECV};
use crate::config::Architecture;
use crate::host::proto::ProtoCtx;
use lrp_demux::{ChannelId, Verdict};
use lrp_nic::{NicDrop, RxOutcome, Stamp};
use lrp_sched::Pid;
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::SockId;
use lrp_wire::Frame;
use std::num::NonZeroU64;

/// Maximum receive-ring frames the driver hands to the kernel per
/// interrupt (BSD / SOFT-LRP / Early-Demux). Without interrupt coalescing
/// the ring holds exactly one frame when the interrupt fires, so any
/// value ≥ 1 is behaviour-identical; under coalescing the batch is what
/// lets held frames ride along. Per-frame driver cost is charged for
/// every frame in the batch.
const RX_BATCH: usize = 16;

impl Host {
    /// A frame arrives from the link, carrying the causal-trace span
    /// minted at injection (if any). The span is observational metadata
    /// only: it never influences queueing or cost decisions.
    ///
    /// Interrupt-handler *logic* runs here (hardware interrupts preempt
    /// everything instantly); the handler's CPU *cost* then occupies a
    /// CPU via the interrupt-preemption machinery. On SMP, each RX queue
    /// interrupts its target CPU (`rxq % ncpus`) — the RSS steering that
    /// spreads flows across processors.
    pub fn on_frame_span(&mut self, now: SimTime, frame: Frame, span: Option<NonZeroU64>) {
        let cost = self.cfg.cost;
        match self.nic.rx_frame_spanned(now.as_nanos(), frame, span) {
            RxOutcome::Interrupt(rxq) => {
                self.tele.on_rx(now, span);
                let cpu = rxq % self.cpus.len();
                self.cur_cpu = cpu;
                if self.cfg.arch == Architecture::NiLrp {
                    // Demux, early discard and queueing all happened on
                    // the NIC processor; the host pays only for the
                    // interrupt it requested.
                    if let Some(chan) = self.nic.last_rx_channel() {
                        self.tele.on_enqueue(now, 0, span);
                        self.note_chan_enqueue(chan);
                        self.note_intr_fired(chan);
                    }
                    self.ni_interrupt_wakeups();
                    self.raise_hw_on(now, cpu, cost.hw_intr_ni, "ni-intr");
                } else {
                    self.rx_interrupt(now, rxq, cpu, span);
                }
            }
            RxOutcome::Queued => {
                self.tele.on_rx(now, span);
                // NI-LRP: queued on a channel without an interrupt.
                // Otherwise coalesced: held in the ring until the next
                // interrupt drains it, without its span.
                if let Some(chan) = self.nic.last_rx_channel() {
                    self.tele.on_enqueue(now, 0, span);
                    self.note_chan_enqueue(chan);
                }
            }
            RxOutcome::Dropped(NicDrop::Stalled) => self.stats.drop_at(DropPoint::NicStall),
            RxOutcome::Dropped(NicDrop::RingOverrun) => self.stats.drop_at(DropPoint::RxRing),
            // Early packet discard on the NIC (NI-LRP): by design, no host
            // work at all. NIC stats carry the count.
            RxOutcome::Dropped(_) => {}
        }
        self.dispatch(now);
    }

    /// The receive interrupt handler (BSD, Early-Demux, SOFT-LRP): drains
    /// the ring batch — one frame unless coalescing held earlier ones
    /// back — into the shared IP queue (BSD; a full queue drops the frame
    /// after its per-frame handler work) or through the host's demux, in
    /// arrival order. The handler's cost covers the whole batch.
    fn rx_interrupt(&mut self, now: SimTime, rxq: usize, cpu: usize, span: Option<NonZeroU64>) {
        let cost = self.cfg.cost;
        let mut batch = std::mem::take(&mut self.rx_scratch);
        self.nic.ring_drain_into(rxq, RX_BATCH, &mut batch);
        debug_assert!(!batch.is_empty(), "frame just queued");
        let n = batch.len();
        // `span` belongs to the frame that raised the interrupt, the last
        // one queued: the batch's last frame, if the drain reached the
        // end of the ring. Held frames lost theirs on arrival.
        let tail = n < RX_BATCH || self.nic.ring_depth() == 0;
        let mut d = cost.hw_intr + cost.driver_rx_per_pkt * n as u64;
        for (i, f) in batch.drain(..).enumerate() {
            let span = span.filter(|_| tail && i + 1 == n);
            let stamp = Stamp { at: now, span };
            if self.cfg.arch != Architecture::Bsd {
                d += self.soft_demux_deliver(now, f, stamp);
            } else if self.ip_queue.len() >= IP_QUEUE_LIMIT {
                self.drop_frame(DropPoint::IpQueue);
            } else {
                self.ip_queue.push_back((f, stamp));
                self.tele.on_enqueue(now, cpu, span);
            }
        }
        self.rx_scratch = batch;
        self.raise_hw_on(now, cpu, d, "rx-intr");
    }

    /// Host-interrupt-handler demux (SOFT-LRP and Early-Demux): classify,
    /// enqueue or discard, wake receivers. Returns the extra handler cost
    /// beyond the base interrupt cost.
    fn soft_demux_deliver(&mut self, now: SimTime, frame: Frame, stamp: Stamp) -> SimDuration {
        let cost = self.cfg.cost;
        let cpu = self.cur_cpu;
        let mut extra = cost.demux_per_pkt;
        let verdict = self.nic.demux.classify(&frame);
        let frag = self.nic.fragment_channel;
        let chan = match verdict {
            Verdict::Endpoint(c) => c,
            // Proxy daemons: queue on their channel if registered. ARP,
            // which has none, and the unregistered share the fragment
            // channel.
            Verdict::IcmpDaemon => self.nic.proxies().icmp.unwrap_or(frag),
            Verdict::Forward => self.nic.proxies().forward.unwrap_or(frag),
            Verdict::Fragment | Verdict::ArpDaemon => frag,
            Verdict::NoMatch => {
                self.drop_frame(DropPoint::NoSocket);
                return extra;
            }
            Verdict::Malformed => {
                self.drop_frame(DropPoint::BadPacket);
                return extra;
            }
        };
        if !self.nic.channel_exists(chan) {
            self.drop_frame(DropPoint::Channel);
            return extra;
        }
        // Forwarded traffic wakes the forwarding daemon.
        let is_forward_chan = self.nic.proxies().forward == Some(chan);
        let sock = self.sock_of_channel(chan);
        if self.cfg.arch == Architecture::EarlyDemux {
            // Early-Demux feedback: discard when the *socket queue* cannot
            // take this packet — the receiver is not keeping up (§3,
            // "early demultiplexing only"). Checking against the frame
            // size (not just zero space) is what makes the feedback bind.
            if let Some(s) = sock {
                let sk = self.sock(s);
                let rcvq_full = sk.rcvq.space() < frame.len();
                if rcvq_full || self.nic.channel(chan).is_full() {
                    self.drop_frame(DropPoint::Channel);
                    self.sock_mut(s).drops_channel += 1;
                    return extra;
                }
            }
        }
        let was_empty = self.nic.channel(chan).is_empty();
        if !self.nic.channel_mut(chan).enqueue(frame, stamp) {
            self.drop_frame(DropPoint::Channel);
            if let Some(s) = sock {
                self.sock_mut(s).drops_channel += 1;
            }
            return extra;
        }
        self.tele.on_enqueue(now, cpu, stamp.span);
        self.note_chan_enqueue(chan);
        match self.cfg.arch {
            Architecture::EarlyDemux => {
                // Schedule eager softirq protocol processing.
                if let Some(s) = sock {
                    if !self.ed_pending.contains(&s) {
                        self.ed_pending.push_back(s);
                    }
                }
            }
            Architecture::SoftLrp => {
                if is_forward_chan {
                    if self.forward_daemon.is_some() {
                        extra += cost.wakeup;
                        self.wake_channel(super::WC_FORWARD);
                    }
                } else if let Some(s) = sock {
                    let sk = self.sock(s);
                    let is_tcp = sk.proto == crate::syscall::SockProto::Tcp;
                    if is_tcp {
                        if self.app_thread.is_some() {
                            // Asynchronous protocol processing thread.
                            extra += cost.wakeup;
                            self.wake_app_thread();
                        } else {
                            // A4 (no APP): lazy processing happens in the
                            // blocked receive/accept/connect call; wake it
                            // — for an embryonic child, the acceptor
                            // sleeps on the parent listener.
                            extra += cost.wakeup;
                            self.wake_tcp_waiters(s, true);
                        }
                    } else if self.sched.has_sleeper(sock_wchan(s, WC_RECV)) {
                        extra += cost.wakeup;
                        self.wake_sock(s, WC_RECV);
                    } else if was_empty {
                        self.wake_idle_thread_if_sleeping();
                    }
                } else if chan == self.nic.fragment_channel {
                    // Wake blocked UDP receivers: their datagram's missing
                    // fragments may have just arrived. They re-check, pump
                    // the fragment channel, and re-sleep if idle.
                    self.wake_udp_recv_sleepers();
                }
            }
            _ => {}
        }
        extra
    }

    /// Wakes every process blocked receiving on a datagram socket
    /// (fragment arrivals: the sleeper must pump the shared fragment
    /// channel), in socket order.
    pub(crate) fn wake_udp_recv_sleepers(&mut self) {
        let mut from = SockId(0);
        while let Some(s) = self.dgram_socks.next_from(&mut from) {
            if self.sched.has_sleeper(sock_wchan(s, WC_RECV)) {
                self.wake_sock(s, WC_RECV);
            }
        }
    }

    /// The NIC delivered (and thereby cleared) `chan`'s demand interrupt.
    /// Simulator bookkeeping of the NIC-side flag, not knowledge the
    /// modelled handler has: the APP thread re-arms *all* TCP channels
    /// when it next sleeps, and only those listed here are not armed
    /// already.
    fn note_intr_fired(&mut self, chan: ChannelId) {
        if self.app_thread.is_none() {
            return;
        }
        if let Some(sock) = self.sock_of_channel(chan) {
            if self.sock(sock).proto == crate::syscall::SockProto::Tcp {
                self.rearm_socks.push(sock);
            }
        }
    }

    /// NI-LRP interrupt: a channel went empty→non-empty with notification
    /// requested. Wake the corresponding sleepers.
    fn ni_interrupt_wakeups(&mut self) {
        // Wake receivers of any UDP socket with queued channel data, the
        // APP thread if TCP channels have data, or the idle thread — in
        // socket order. Nothing below dequeues, so the ready set is stable
        // across the walk.
        let mut any_tcp = false;
        let mut from = SockId(0);
        while let Some(sock) = self.ready_socks.next_from(&mut from) {
            if self.sock(sock).proto == crate::syscall::SockProto::Tcp {
                any_tcp = true;
                if self.app_thread.is_none() {
                    self.wake_tcp_waiters(sock, true);
                }
            } else if self.sched.has_sleeper(sock_wchan(sock, WC_RECV)) {
                self.wake_sock(sock, WC_RECV);
            } else {
                self.wake_idle_thread_if_sleeping();
            }
        }
        if any_tcp {
            self.wake_app_thread();
        }
        // Forward-channel arrivals wake the forwarding daemon.
        if let Some(fc) = self.nic.proxies().forward {
            if self.nic.channel_exists(fc) && !self.nic.channel(fc).is_empty() {
                self.wake_channel(super::WC_FORWARD);
            }
        }
        // Fragment-channel arrivals: wake receivers so they pump it, and
        // re-arm the demand interrupt (the flag auto-clears on delivery).
        let frag = self.nic.fragment_channel;
        if !self.nic.channel(frag).is_empty() {
            self.wake_udp_recv_sleepers();
        }
        self.nic.channel_mut(frag).intr_requested = true;
    }

    pub(crate) fn wake_idle_thread_if_sleeping(&mut self) {
        if self.idle_thread.is_some() {
            self.wake_channel(super::WC_IDLE_THREAD);
        }
    }

    /// Maps an NI channel back to its socket (indexed; O(log n)).
    pub(crate) fn sock_of_channel(&self, chan: ChannelId) -> Option<SockId> {
        self.chan_to_sock
            .get(&chan)
            .copied()
            .filter(|s| self.sock_opt(*s).is_some())
    }

    /// Produces the next software-interrupt job for BSD / Early-Demux:
    /// TCP timer work first, then one packet of protocol processing.
    /// Returns `(cost, tag)`; logic is applied immediately.
    pub(crate) fn next_soft_job(&mut self, now: SimTime) -> Option<(SimDuration, &'static str)> {
        let cost = self.cfg.cost;
        if let Some(sock) = self.pop_timer_work() {
            // The timer work rightfully belongs to the socket's owner —
            // note it for the charge-attribution ledger.
            if let Some(owner) = self.sock_opt(sock).map(|s| s.owner) {
                self.tele.note_proto_owner(owner.0);
            }
            let d = self.run_tcp_timer(now, sock);
            return Some((cost.softirq_dispatch + d, "tcp-timer"));
        }
        match self.cfg.arch {
            Architecture::Bsd => {
                let (frame, stamp) = self.ip_queue.pop_front()?;
                self.tele.on_ipq_dequeue(now, self.cur_cpu, stamp);
                let d = self.ip_deliver(now, frame, stamp, ProtoCtx::BsdSoftirq);
                Some((cost.softirq_dispatch + d, "ip-input"))
            }
            Architecture::EarlyDemux => {
                // Round-robin over sockets with pending channel frames.
                while let Some(sock) = self.ed_pending.pop_front() {
                    let Some(s) = self.sock_opt(sock) else {
                        continue;
                    };
                    let Some(chan) = s.chan else { continue };
                    if !self.nic.channel_exists(chan) {
                        continue;
                    }
                    let Some((frame, stamp)) = self.chan_dequeue(now, chan) else {
                        continue;
                    };
                    // More frames pending? Re-queue for fairness.
                    if !self.nic.channel(chan).is_empty() {
                        self.ed_pending.push_back(sock);
                    }
                    self.tele.note_softirq_dispatch(now, stamp);
                    let ctx = ProtoCtx::EarlyDemuxSoftirq { sock };
                    let d = self.ip_deliver(now, frame, stamp, ctx);
                    return Some((cost.softirq_dispatch + d, "ed-input"));
                }
                None
            }
            _ => None,
        }
    }

    /// LRP: TCP timer work runs in kernel context charged to the socket
    /// owner even when the APP thread is not scheduled (the clock handler
    /// dispatches it). Returns `(cost, charged_pid)`.
    pub(crate) fn next_lrp_timer_job(
        &mut self,
        now: SimTime,
    ) -> Option<(SimDuration, Option<Pid>)> {
        let sock = self.pop_timer_work()?;
        let owner = self.sock_opt(sock).map(|s| s.owner);
        let d = self.run_tcp_timer(now, sock);
        Some((SimDuration::from_micros(5) + d, owner))
    }

    /// Mark a process as wanting an interrupt when its socket's channel
    /// receives data (NI-LRP demand interrupts).
    pub(crate) fn request_channel_interrupt(&mut self, sock: SockId) {
        if let Some(chan) = self.sock(sock).chan {
            if self.nic.channel_exists(chan) {
                self.nic.channel_mut(chan).intr_requested = true;
            }
        }
    }

    /// True if the LRP idle protocol thread has work: a UDP channel with
    /// raw frames whose socket has receive-buffer space.
    pub(crate) fn idle_work_available(&self) -> bool {
        if self.idle_thread.is_none() {
            return false;
        }
        self.ready_socks.iter().any(|&id| {
            let s = self.sock(id);
            s.tcp.is_none() && s.listen.is_none() && s.rcvq.space() > 0
        })
    }

    /// The idle thread processes one queued UDP packet; returns
    /// `(cost, owner)` or `None` if no work.
    pub(crate) fn idle_thread_step(&mut self, now: SimTime) -> Option<(SimDuration, Pid)> {
        let (sock, chan, owner) = self.ready_socks.iter().find_map(|&id| {
            let s = self.sock(id);
            let udp = s.proto != crate::syscall::SockProto::Tcp;
            (udp && s.rcvq.space() > 0).then_some((id, s.chan?, s.owner))
        })?;
        let (frame, stamp) = self.chan_dequeue(now, chan)?;
        let d = self.ip_deliver(now, frame, stamp, ProtoCtx::Lrp { sock, lazy: false });
        // Wake a blocked receiver now that processed data is ready.
        if self.sched.has_sleeper(sock_wchan(sock, WC_RECV)) {
            self.wake_sock(sock, WC_RECV);
        }
        Some((d, owner))
    }

    /// The APP thread processes one queued TCP packet (or reports no
    /// work). Returns `(cost, owner)`.
    pub(crate) fn app_thread_step(&mut self, now: SimTime) -> Option<(SimDuration, Pid)> {
        // TCP sockets with non-empty channels, in socket order, skipping
        // listeners whose backlog is exhausted: their channels fill and
        // the NI discards further SYNs (§3.4).
        let mut from = SockId(0);
        while let Some(sock) = self.ready_socks.next_from(&mut from) {
            if self.sock(sock).proto != crate::syscall::SockProto::Tcp {
                continue;
            }
            let chan = self.sock(sock).chan.expect("ready socket has a channel");
            if let Some(l) = self.listening(sock).map(|l| &l.state) {
                // §3.4: protocol processing is disabled for listeners
                // whose backlog is exhausted; the channel then fills and
                // the NI discards further SYNs without host work. With
                // SYN cookies engaged the listener keeps draining: a
                // full backlog answers SYNs statelessly instead of
                // going deaf, so legitimate peers can still get in.
                let enabled = l.can_accept_syn() || self.cfg.syn_cookies;
                self.nic.channel_mut(chan).processing_enabled = enabled;
                if !enabled {
                    continue;
                }
            }
            let Some((frame, stamp)) = self.chan_dequeue(now, chan) else {
                continue;
            };
            let owner = self.sock(sock).owner;
            let d = self.ip_deliver(now, frame, stamp, ProtoCtx::Lrp { sock, lazy: false });
            return Some((d, owner));
        }
        None
    }
}
