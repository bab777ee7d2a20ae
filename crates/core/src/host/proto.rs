//! Shared protocol processing: the one IP/UDP/TCP delivery path executed
//! by all four architectures — in softirq context (BSD, Early-Demux), in
//! the receive system call or the APP/idle threads (LRP).
//!
//! Each function *applies the protocol logic immediately* and *returns the
//! CPU cost*; the caller turns that cost into a work chunk charged
//! according to its architecture's policy.

use super::{sock_wchan, DropPoint, Host, WC_ACCEPT, WC_CONNECT, WC_RECV, WC_SEND};
use crate::config::Architecture;
use crate::syscall::{Errno, SockProto};
use lrp_nic::Stamp;
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::sockbuf::Datagram;
use lrp_stack::tcp::{cookie, Actions, ConnEvent, Segment, TcpConn};
use lrp_stack::{ReasmOutcome, SockId};
use lrp_wire::{icmp, ipv4, proto, tcp, udp, Endpoint, FlowKey, Frame, FrameBuf, FrameSlice};
use std::borrow::Cow;
use std::num::NonZeroU64;

/// Execution context of protocol processing: determines cost discounts
/// and whether the BSD PCB lookup is performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProtoCtx {
    /// BSD softirq: PCB lookup, eager costs.
    BsdSoftirq,
    /// Early-Demux softirq: socket known from the channel, no PCB lookup.
    EarlyDemuxSoftirq {
        /// The socket the channel identified.
        sock: SockId,
    },
    /// LRP: lazy context (receive syscall or idle thread) — locality
    /// discount applies; socket known from the channel.
    Lrp {
        /// The socket the channel identified.
        sock: SockId,
        /// True in the receive system call itself (full lazy benefit).
        lazy: bool,
    },
}

/// A datagram a fragment drain completed: its header, its payload, and
/// the stamp its delivery reports — the completing frame's if the drain
/// ended on it, else none.
type Reassembled = (ipv4::Ipv4Header, Vec<u8>, Option<Stamp>);

impl Host {
    /// Full input processing for one IP frame, dequeued with `stamp`.
    /// Returns the CPU cost; all state changes are applied immediately.
    pub(crate) fn ip_deliver(
        &mut self,
        now: SimTime,
        frame: Frame,
        stamp: Stamp,
        ctx: ProtoCtx,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let lazy = matches!(ctx, ProtoCtx::Lrp { lazy: true, .. });
        let scale = |d: SimDuration| if lazy { cost.lazy(d) } else { d };
        let mut total = scale(cost.ip_input + cost.proto_bytes(frame.len()));
        let bytes = match frame {
            Frame::Ipv4(b) => b,
            Frame::Arp(_) => {
                // ARP handled by the proxy daemon path; count and ignore
                // here.
                self.ledger.arp_frames += 1;
                return total;
            }
        };
        let Ok((first_hdr, first_payload)) = ipv4::parse(&bytes) else {
            self.drop_frame(DropPoint::BadPacket);
            return total;
        };
        // The stamp a delivered datagram reports: this frame's, unless a
        // fragment drain completes the datagram instead.
        let mut stamp = Some(stamp);
        // Fragment reassembly; whole datagrams pass straight through —
        // borrowed from the frame, so the common path copies nothing here.
        let completed: Option<(ipv4::Ipv4Header, Cow<'_, [u8]>)> = if first_hdr.is_fragment() {
            total += scale(cost.ip_reasm_per_frag);
            // The reassembler's pending count gates its sweep timer.
            self.timers_changed();
            match self.reasm.input(now, &first_hdr, first_payload) {
                ReasmOutcome::Complete {
                    payload: p,
                    src,
                    dst,
                    proto: pr,
                } => Some((
                    ipv4::Ipv4Header::new(src, dst, pr, 0, p.len()),
                    Cow::Owned(p),
                )),
                ReasmOutcome::Incomplete => {
                    // This frame is now held by the reassembler (the
                    // completing frame inherits the delivery disposition).
                    self.ledger.reasm_absorbed += 1;
                    // In LRP, the missing fragments may already be waiting
                    // on the special NI fragment channel (§3.2).
                    if self.cfg.arch.is_lrp() {
                        let (extra, done) = self.drain_fragment_channel(now);
                        total += if lazy { cost.lazy(extra) } else { extra };
                        done.map(|(h, p, s)| {
                            stamp = s;
                            (h, Cow::Owned(p))
                        })
                    } else {
                        None
                    }
                }
                ReasmOutcome::Dropped => {
                    self.drop_frame(DropPoint::Reasm);
                    None
                }
            }
        } else {
            Some((first_hdr, Cow::Borrowed(first_payload)))
        };
        let Some((ih, payload)) = completed else {
            return total;
        };
        // Packets for another host: IP forwarding (BSD path — under LRP
        // the demux function already routed them to the forward channel).
        if ih.dst != self.addr {
            self.ledger.forwarded += 1;
            return total + self.do_forward(&bytes);
        }
        match ih.proto {
            proto::UDP => total + self.udp_deliver(now, &ih, &payload, stamp, ctx),
            proto::TCP => {
                // TCP queues arrived data by reference: hand it the
                // segment as a slice of the frame (or of the datagram
                // reassembly built).
                let seg = match payload {
                    Cow::Borrowed(p) => {
                        FrameSlice::new(bytes.clone(), ipv4::HEADER_LEN..ipv4::HEADER_LEN + p.len())
                    }
                    Cow::Owned(p) => {
                        let n = p.len();
                        FrameSlice::new(FrameBuf::from_vec(p), 0..n)
                    }
                };
                total + self.tcp_deliver(now, &ih, seg, ctx)
            }
            proto::ICMP => total + self.icmp_deliver(now, &ih, &payload, stamp, ctx),
            _ => {
                // Unknown protocols are dropped after IP input.
                self.drop_frame(DropPoint::NoSocket);
                total
            }
        }
    }

    /// Forwards an IP datagram: TTL handling, header rewrite, transmit
    /// queue. Returns the CPU cost.
    pub(crate) fn do_forward(&mut self, bytes: &[u8]) -> SimDuration {
        let cost = self.cfg.cost;
        if !self.forwarding_enabled {
            self.stats.drop_at(DropPoint::NoSocket);
            return cost.ip_forward;
        }
        let Ok((mut ih, payload)) = ipv4::parse(bytes) else {
            self.stats.drop_at(DropPoint::BadPacket);
            return cost.ip_forward;
        };
        if ih.ttl <= 1 {
            // TTL expired: a real router would emit ICMP Time Exceeded;
            // count the drop.
            self.stats.drop_at(DropPoint::BadPacket);
            return cost.ip_forward;
        }
        ih.ttl -= 1;
        self.ifq_enqueue(Frame::ipv4(ipv4::build_datagram(&ih, payload)), None);
        cost.ip_forward + cost.ip_output + cost.driver_tx_per_pkt
    }

    /// The forwarding daemon processes one frame from the forward channel;
    /// returns the cost, or `None` when the channel is empty.
    pub(crate) fn forward_step(&mut self, now: SimTime) -> Option<SimDuration> {
        let chan = self.nic.proxies().forward?;
        if !self.nic.channel_exists(chan) {
            return None;
        }
        let (frame, _) = self.chan_dequeue(now, chan)?;
        let cost = self.cfg.cost;
        let d = match &frame {
            Frame::Ipv4(b) => {
                self.ledger.forwarded += 1;
                cost.ip_input + self.do_forward(b)
            }
            Frame::Arp(_) => {
                self.ledger.arp_frames += 1;
                cost.ip_input
            }
        };
        Some(d)
    }

    /// Delivers an ICMP message to the proxy daemon's raw socket (§3.5),
    /// as a datagram without a span.
    fn icmp_deliver(
        &mut self,
        now: SimTime,
        ih: &ipv4::Ipv4Header,
        payload: &[u8],
        stamp: Option<Stamp>,
        ctx: ProtoCtx,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let cpu = self.cur_cpu;
        let lazy = matches!(ctx, ProtoCtx::Lrp { lazy: true, .. });
        let scale = |d: SimDuration| if lazy { cost.lazy(d) } else { d };
        let mut total = scale(cost.udp_input) + scale(cost.csum(payload.len()));
        if lrp_wire::icmp::parse(payload).is_err() {
            self.drop_frame(DropPoint::BadPacket);
            return total;
        }
        let Some(sock) = self.icmp_sock.filter(|s| self.sock_opt(*s).is_some()) else {
            self.drop_frame(DropPoint::NoSocket);
            return total;
        };
        let rightful = self.sock(sock).owner;
        self.tele.note_proto_owner(rightful.0);
        let dgram = Datagram {
            from: Endpoint::new(ih.src, 0),
            payload: payload.into(),
            span: None,
        };
        if self.sock_mut(sock).rcvq.enqueue(dgram) {
            self.ledger.delivered_icmp += 1;
            self.tele.on_delivered(now, cpu, stamp);
            if !lazy {
                total += scale(cost.sock_enqueue);
                if self.sched.has_sleeper(sock_wchan(sock, WC_RECV)) {
                    total += cost.wakeup;
                    self.wake_sock(sock, WC_RECV);
                }
            }
        } else {
            self.drop_frame(DropPoint::SockBuf);
            self.sock_mut(sock).drops_sockbuf += 1;
        }
        total
    }

    /// LRP receive path helper: drains the fragment channel and delivers
    /// any completed datagram to its socket (resolved through the demux
    /// table, since the fragment channel is shared). Returns the cost.
    pub(crate) fn pump_fragment_channel(&mut self, now: SimTime) -> SimDuration {
        let (mut total, done) = self.drain_fragment_channel(now);
        if let Some((ih, payload, stamp)) = done {
            // Resolve the destination socket exactly as the demux function
            // would have, had the transport header been present.
            if ih.proto == proto::UDP {
                let sock = udp::parse(&payload).ok().and_then(|(uh, _)| {
                    let local = Endpoint::new(ih.dst, uh.dst_port);
                    let remote = Endpoint::new(ih.src, uh.src_port);
                    self.nic
                        .demux
                        .lookup_flow(proto::UDP, local, remote)
                        .and_then(|c| self.sock_of_channel(c))
                });
                if let Some(sock) = sock {
                    let ctx = ProtoCtx::Lrp { sock, lazy: false };
                    total += self.udp_deliver(now, &ih, &payload, stamp, ctx);
                    if self.sched.has_sleeper(sock_wchan(sock, WC_RECV)) {
                        self.wake_sock(sock, WC_RECV);
                    }
                } else {
                    self.drop_frame(DropPoint::NoSocket);
                }
            } else {
                // A completed non-UDP datagram has no receiver on this
                // path; its completing frame stays with the reassembler
                // bucket.
                self.ledger.reasm_absorbed += 1;
            }
        }
        total
    }

    /// Pulls queued fragments from the special NI fragment channel into
    /// the reassembler (LRP §3.2). Returns the cost and a completed
    /// datagram if the drain finished one.
    fn drain_fragment_channel(&mut self, now: SimTime) -> (SimDuration, Option<Reassembled>) {
        let mut total = SimDuration::ZERO;
        let mut done = None;
        let frag_chan = self.nic.fragment_channel;
        while let Some((f, stamp)) = self.chan_dequeue(now, frag_chan) {
            total += self.cfg.cost.ip_reasm_per_frag;
            // Every drained frame is absorbed by the reassembler except
            // the one that completes the returned datagram — that frame's
            // disposition is decided by whoever delivers `done`.
            let mut completer = false;
            if let Frame::Ipv4(b) = f {
                if let Ok((fh, fp)) = ipv4::parse(&b) {
                    self.timers_changed();
                    if let ReasmOutcome::Complete {
                        payload,
                        src,
                        dst,
                        proto: pr,
                    } = self.reasm.input(now, &fh, fp)
                    {
                        if done.is_none() {
                            done = Some((
                                ipv4::Ipv4Header::new(src, dst, pr, 0, payload.len()),
                                payload,
                                None,
                            ));
                            completer = true;
                        }
                    }
                }
            }
            if !completer {
                self.ledger.reasm_absorbed += 1;
            }
            if let Some(d) = &mut done {
                d.2 = completer.then_some(stamp);
            }
        }
        (total, done)
    }

    /// Delivers a UDP datagram whose delivery reports `stamp`.
    fn udp_deliver(
        &mut self,
        now: SimTime,
        ih: &ipv4::Ipv4Header,
        payload: &[u8],
        stamp: Option<Stamp>,
        ctx: ProtoCtx,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let cpu = self.cur_cpu;
        let lazy = matches!(ctx, ProtoCtx::Lrp { lazy: true, .. });
        let scale = |d: SimDuration| if lazy { cost.lazy(d) } else { d };
        let mut total = scale(cost.udp_input);
        let Ok((uh, body)) = udp::parse(payload) else {
            self.drop_frame(DropPoint::BadPacket);
            return total;
        };
        // Checksum verification (skipped when the sender disabled it).
        if uh.checksum != 0 {
            total += scale(cost.csum(payload.len()));
            if !udp::verify_checksum(ih.src, ih.dst, payload) {
                self.drop_frame(DropPoint::BadPacket);
                return total;
            }
        }
        let local = Endpoint::new(ih.dst, uh.dst_port);
        let remote = Endpoint::new(ih.src, uh.src_port);
        // Socket resolution: PCB scan for BSD (and the redundant-lookup
        // control for LRP, Figure 5), channel identity otherwise.
        let sock = match ctx {
            ProtoCtx::BsdSoftirq => {
                let r = self.pcb.lookup(proto::UDP, local, remote);
                total += cost.pcb_lookup(r.steps);
                r.sock
            }
            ProtoCtx::EarlyDemuxSoftirq { sock } => Some(sock),
            ProtoCtx::Lrp { sock, .. } => {
                if self.cfg.redundant_pcb_lookup {
                    let r = self.pcb.lookup(proto::UDP, local, remote);
                    total += cost.pcb_lookup(r.steps);
                }
                Some(sock)
            }
        };
        let Some(sock) = sock.filter(|s| self.sock_opt(*s).is_some()) else {
            // Closed port: drop the datagram (its own ledger disposition)
            // and answer with ICMP port unreachable (RFC 1122 §4.1.3.1).
            self.drop_frame(DropPoint::PortUnreach);
            total += scale(cost.ip_output + cost.driver_tx_per_pkt);
            // Quoted context: the offending IP header + leading 8 bytes of
            // its payload (the UDP header).
            let mut quote = ih.encode().to_vec();
            quote.extend_from_slice(&payload[..payload.len().min(8)]);
            let msg = icmp::IcmpMessage {
                kind: icmp::IcmpType::Unreachable(3),
                ident: 0,
                seq: 0,
                payload: quote,
            };
            let reply = icmp::build_datagram(self.addr, ih.src, 0, &msg);
            self.stats.icmp_unreach_sent += 1;
            self.ifq_enqueue(Frame::ipv4(reply), None);
            return total;
        };
        // The rightful receiver is now known; note it so the chunk that
        // carries this protocol work can record who *should* be billed.
        let rightful = self.sock(sock).owner;
        self.tele.note_proto_owner(rightful.0);
        let dgram = Datagram {
            from: remote,
            payload: body.into(),
            span: stamp.and_then(|s| s.span),
        };
        let nbytes = dgram.payload.len() as u64;
        if self.sock_mut(sock).rcvq.enqueue(dgram) {
            self.stats.udp_delivered += 1;
            self.stats.udp_delivered_bytes += nbytes;
            self.tele.on_delivered(now, cpu, stamp);
            if !lazy {
                total += scale(cost.sock_enqueue);
                // Wake a blocked receiver (sowakeup).
                if self.sched.has_sleeper(sock_wchan(sock, WC_RECV)) {
                    total += cost.wakeup;
                    self.wake_sock(sock, WC_RECV);
                }
            }
        } else {
            // BSD pays everything above and only now discovers the full
            // socket queue — the waste LRP eliminates.
            self.drop_frame(DropPoint::SockBuf);
            self.sock_mut(sock).drops_sockbuf += 1;
        }
        total
    }

    fn tcp_deliver(
        &mut self,
        now: SimTime,
        ih: &ipv4::Ipv4Header,
        seg: FrameSlice,
        ctx: ProtoCtx,
    ) -> SimDuration {
        // The whole frame is charged to TCP input from here on; per-drop
        // ledger granularity stops at the transport boundary (segments are
        // not 1:1 with user-visible deliveries).
        self.ledger.tcp_frames += 1;
        let cost = self.cfg.cost;
        // The simulated CPU pays for the sum even when the simulator
        // trusts the frame and skips it.
        let mut total = cost.csum(seg.len());
        if !tcp::verify_segment(ih.src, ih.dst, &seg) {
            self.stats.drop_at(DropPoint::BadPacket);
            return total;
        }
        let Ok((th, data)) = tcp::parse(&seg) else {
            self.stats.drop_at(DropPoint::BadPacket);
            return total;
        };
        let header_len = seg.len() - data.len();
        let mut body = seg;
        body.advance(header_len);
        let local = Endpoint::new(ih.dst, th.dst_port);
        let remote = Endpoint::new(ih.src, th.src_port);
        let sock = match ctx {
            ProtoCtx::BsdSoftirq => {
                let r = self.pcb.lookup(proto::TCP, local, remote);
                total += cost.pcb_lookup(r.steps);
                r.sock
            }
            ProtoCtx::EarlyDemuxSoftirq { sock } => Some(sock),
            ProtoCtx::Lrp { sock, .. } => {
                if self.cfg.redundant_pcb_lookup {
                    let r = self.pcb.lookup(proto::TCP, local, remote);
                    total += cost.pcb_lookup(r.steps);
                }
                Some(sock)
            }
        };
        let Some(sock) = sock.filter(|s| self.sock_opt(*s).is_some()) else {
            // No socket: a RST would be generated by a real stack; cost
            // only.
            self.stats.drop_at(DropPoint::NoSocket);
            return total + cost.tcp_input;
        };
        // The rightful receiver is now known; note it for attribution.
        let rightful = self.sock(sock).owner;
        self.tele.note_proto_owner(rightful.0);
        // Listening socket: SYN handling.
        if self.sock(sock).listen.is_some() && th.has(tcp::flags::SYN) && !th.has(tcp::flags::ACK) {
            return total + self.tcp_handle_syn(now, sock, local, remote, &th);
        }
        // A bare ACK at a *listening* socket with cookies enabled is the
        // returning half of a stateless handshake: no child exists yet —
        // the cookie in the ACK field *is* the connection state.
        if self.cfg.syn_cookies
            && self.sock(sock).listen.is_some()
            && th.has(tcp::flags::ACK)
            && !th.has(tcp::flags::SYN)
            && !th.has(tcp::flags::RST)
        {
            return total + self.tcp_cookie_ack(now, sock, local, remote, &th, body);
        }
        // Established (or embryonic) connection.
        if self.sock(sock).tcp.is_none() {
            self.stats.drop_at(DropPoint::NoSocket);
            return total + cost.tcp_input;
        }
        total += cost.tcp_input;
        total += self
            .tcp_run(now, sock, |conn, out| {
                conn.on_segment_slice_into(now, &th, body, out)
            })
            .1;
        // TIME_WAIT channel reclamation (NI-LRP §4.2).
        self.maybe_reclaim_channel(sock);
        total
    }

    /// SYN arrival at a listening socket: backlog admission, child
    /// creation, SYN|ACK transmission.
    pub(crate) fn tcp_handle_syn(
        &mut self,
        now: SimTime,
        lsock: SockId,
        local: Endpoint,
        remote: Endpoint,
        th: &tcp::TcpHeader,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let total = cost.tcp_syn;
        // A retransmitted SYN for an embryonic connection.
        if let Some(d) = self.deliver_to_child(now, lsock, local, remote, th, None) {
            return total + d;
        }
        let can = self
            .listening(lsock)
            .expect("listener")
            .state
            .can_accept_syn();
        // Stateless SYN cookies: answer with a SYN|ACK whose sequence
        // number encodes the connection (no child socket, no half-open
        // entry — nothing for a flood to exhaust). This engages only
        // once the backlog is full, and takes precedence over the
        // SYN-cache eviction below: dropping *state* beats recycling it
        // when the flood outruns the table.
        if !can && self.cfg.syn_cookies {
            return total + self.tcp_send_cookie_synack(lsock, local, remote, th, now);
        }
        if !can {
            // SYN-cache: evict the oldest half-open child to admit the
            // fresh SYN (bounded table, oldest-first), instead of letting
            // a flood of never-completing handshakes freeze the backlog.
            let victim = if self.cfg.syn_cache {
                let (l, socks) = self.listen_queues(lsock).expect("listener");
                l.half_open.pop_front(socks)
            } else {
                None
            };
            if let Some(victim) = victim {
                self.listening_mut(lsock)
                    .expect("listener")
                    .state
                    .on_syn_cache_evict();
                // Drop the embryonic connection state silently (no RST —
                // the peer, likely spoofed, retransmits or times out) and
                // tear the child down; the orphan path releases its
                // backlog slot.
                self.set_conn(victim, None);
                self.teardown_tcp_sock(victim);
                // Fall through to admit the new SYN below.
            } else {
                self.listening_mut(lsock)
                    .expect("listener")
                    .state
                    .on_syn_dropped();
                self.reattribute_tcp_frame();
                self.drop_frame(DropPoint::Backlog);
                return total;
            }
        }
        // Admit: create the child socket + connection.
        let iss = self.next_iss();
        let mut acts = std::mem::take(&mut self.tcp_acts);
        let conn = TcpConn::accept_syn_into(self.cfg.tcp, local, remote, iss, th, now, &mut acts);
        let child = self.install_child(lsock, local, remote, conn);
        let (l, socks) = self.listen_queues(lsock).expect("listener");
        l.state.on_syn_admitted();
        l.half_open.push_back(socks, child);
        let d = self.apply_tcp_actions(now, child, &mut acts);
        self.tcp_acts = acts;
        total + d
    }

    /// An exact-match child of listener `lsock` already owns the flow (a
    /// retransmitted SYN, or a handshake ACK whose first copy established
    /// it): the segment, with `body` (none for a SYN), is the child's.
    /// Returns its cost, `None` if no child owns the flow.
    fn deliver_to_child(
        &mut self,
        now: SimTime,
        lsock: SockId,
        local: Endpoint,
        remote: Endpoint,
        th: &tcp::TcpHeader,
        body: Option<&FrameSlice>,
    ) -> Option<SimDuration> {
        let child = self.pcb.lookup(proto::TCP, local, remote).sock?;
        if child == lsock {
            return None;
        }
        if self.sock_opt(child).and_then(|s| s.tcp.as_ref()).is_none() {
            return Some(SimDuration::ZERO);
        }
        let run = self.tcp_run(now, child, |conn, out| match body {
            Some(body) => conn.on_segment_slice_into(now, th, body.clone(), out),
            None => conn.on_segment_into(now, th, &[], out),
        });
        Some(run.1)
    }

    /// Installs `conn` as a passive child of listener `lsock`: a socket of
    /// the listener's owner with its exact PCB key and, off BSD, its own
    /// NI channel and filter, the demand interrupt armed for the APP
    /// thread.
    fn install_child(
        &mut self,
        lsock: SockId,
        local: Endpoint,
        remote: Endpoint,
        conn: TcpConn,
    ) -> SockId {
        let owner = self.sock(lsock).owner;
        let child = self.alloc_sock(owner, SockProto::Tcp);
        let s = self.sock_mut(child);
        s.local = Some(local);
        s.remote = Some(remote);
        s.parent = Some(lsock);
        self.set_conn(child, Some(conn));
        let key = FlowKey::new(proto::TCP, local, remote);
        let _ = self.pcb.insert(key, child);
        if self.cfg.arch != Architecture::Bsd {
            self.open_channel(child, Some(key), true);
        }
        child
    }

    /// Emits a stateless cookie SYN|ACK for a SYN at `lsock`. The segment
    /// is built by hand — there is no child socket to transmit through;
    /// the sequence number carries the keyed hash of the 4-tuple, the
    /// quantized peer MSS and a coarse timestamp (see
    /// [`lrp_stack::tcp::cookie`]). Returns the output cost.
    fn tcp_send_cookie_synack(
        &mut self,
        lsock: SockId,
        local: Endpoint,
        remote: Endpoint,
        th: &tcp::TcpHeader,
        now: SimTime,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let key = cookie::host_key(self.addr);
        let hdr = tcp::TcpHeader {
            src_port: local.port,
            dst_port: remote.port,
            seq: cookie::encode(key, local, remote, th.mss, now),
            ack: th.seq.wrapping_add(1),
            flags: tcp::flags::SYN | tcp::flags::ACK,
            // Advertise what a fresh child would: an empty receive buffer.
            window: self.cfg.tcp.rcv_buf.min(65_535) as u16,
            mss: Some(self.cfg.tcp.mss),
        };
        let ident = self.next_ident();
        let dgram = tcp::build_datagram(local.addr, remote.addr, &hdr, ident, &[]);
        self.ifq_enqueue(Frame::ipv4(dgram), None);
        self.listening_mut(lsock)
            .expect("listener")
            .state
            .on_cookie_sent();
        cost.tcp_output + cost.csum(20) + cost.ip_output + cost.driver_tx_per_pkt
    }

    /// Handshake ACK returning to a listening socket under SYN cookies:
    /// validates the cookie (ACK − 1) and, on success, fabricates the
    /// fully-established child the SYN|ACK never instantiated. The child
    /// skips the SYN queue entirely — only the accept queue bounds it.
    fn tcp_cookie_ack(
        &mut self,
        now: SimTime,
        lsock: SockId,
        local: Endpoint,
        remote: Endpoint,
        th: &tcp::TcpHeader,
        body: FrameSlice,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let mut total = cost.tcp_input;
        // Hand the segment over rather than re-deriving a connection.
        if let Some(d) = self.deliver_to_child(now, lsock, local, remote, th, Some(&body)) {
            return total + d;
        }
        let key = cookie::host_key(self.addr);
        let Some(mss) = cookie::decode(key, local, remote, th.ack.wrapping_sub(1), now) else {
            // Forged or expired cookie: silent drop, separately ledgered —
            // under a flood this is the common case and must stay cheap.
            self.listening_mut(lsock)
                .expect("listener")
                .state
                .on_cookie_rejected();
            self.reattribute_tcp_frame();
            self.ledger.cookie_rejected += 1;
            return total;
        };
        // Valid cookie, but the accept queue still bounds admission: a
        // listener nobody accepts from must not grow without limit.
        {
            let l = &self.listening(lsock).expect("listener").state;
            if l.accept_queue >= l.backlog {
                self.listening_mut(lsock)
                    .expect("listener")
                    .state
                    .on_syn_dropped();
                self.reattribute_tcp_frame();
                self.drop_frame(DropPoint::Backlog);
                return total;
            }
        }
        // Reconstruct the child the stateless SYN|ACK stood in for.
        let conn = TcpConn::cookie_established(self.cfg.tcp, local, remote, th, mss, now);
        let child = self.install_child(lsock, local, remote, conn);
        // Established from birth: never counted into the SYN queue,
        // reported straight into the accept queue below.
        self.sock_mut(child).established_reported = true;
        let (l, socks) = self.listen_queues(lsock).expect("listener");
        l.state.on_cookie_child_established();
        l.accept_q.push_back(socks, child);
        self.stats.tcp_accepted += 1;
        self.reattribute_tcp_frame();
        self.ledger.cookie_validated += 1;
        self.wake_sock(lsock, WC_ACCEPT);
        // Any data riding on the ACK is processed by the new connection.
        total += self
            .tcp_run(now, child, |conn, out| {
                conn.on_segment_slice_into(now, th, body, out)
            })
            .1;
        total
    }

    /// Runs `f` on `sock`'s connection (through `with_conn`) with the
    /// host's reusable action list, then transmits the segments and
    /// dispatches the events `f` appended. Returns `f`'s result and the
    /// output cost; the list goes back empty, its storage kept.
    pub(crate) fn tcp_run<R>(
        &mut self,
        now: SimTime,
        sock: SockId,
        f: impl FnOnce(&mut TcpConn, &mut Actions) -> R,
    ) -> (R, SimDuration) {
        let mut acts = std::mem::take(&mut self.tcp_acts);
        let r = self.with_conn(sock, |conn| f(conn, &mut acts));
        let cost = self.apply_tcp_actions(now, sock, &mut acts);
        self.tcp_acts = acts;
        (r, cost)
    }

    /// Transmits segments and dispatches events produced by a connection,
    /// draining both lists. Returns the CPU cost of output processing.
    pub(crate) fn apply_tcp_actions(
        &mut self,
        now: SimTime,
        sock: SockId,
        actions: &mut Actions,
    ) -> SimDuration {
        let total = self.tx_segments(sock, &mut actions.segments);
        for ev in actions.events.drain(..) {
            self.handle_conn_event(now, sock, ev);
        }
        total
    }

    /// Enqueues an outgoing frame, with its causal-trace span, on the NIC
    /// interface queue. Returns false when the queue was full: the frame
    /// is dropped and counted.
    pub(crate) fn ifq_enqueue(&mut self, frame: Frame, span: Option<NonZeroU64>) -> bool {
        let ok = self.nic.ifq_enqueue(frame, span);
        if !ok {
            self.stats.drop_at(DropPoint::IfQueue);
        }
        ok
    }

    /// Frames and enqueues outgoing TCP segments, draining `segments`;
    /// returns output cost. Each payload becomes its frame: the headers
    /// are written into its headroom.
    pub(crate) fn tx_segments(&mut self, sock: SockId, segments: &mut Vec<Segment>) -> SimDuration {
        let cost = self.cfg.cost;
        let mut total = SimDuration::ZERO;
        if segments.is_empty() {
            return total;
        }
        let (src, dst) = {
            let s = self.sock(sock);
            (
                s.local.expect("connected socket has local"),
                s.remote.expect("connected socket has remote"),
            )
        };
        for seg in segments.drain(..) {
            let ident = self.next_ident();
            total += cost.tcp_output
                + cost.csum(seg.payload.len() + 20)
                + cost.ip_output
                + cost.driver_tx_per_pkt;
            let dgram = seg.payload.frame(src.addr, dst.addr, &seg.hdr, ident);
            self.ifq_enqueue(Frame::ipv4(dgram), None);
        }
        total
    }

    /// Reacts to a connection event: wakeups, accept-queue movement,
    /// teardown.
    pub(crate) fn handle_conn_event(&mut self, now: SimTime, sock: SockId, ev: ConnEvent) {
        let _ = now;
        match ev {
            ConnEvent::Established => {
                let parent = self.sock(sock).parent;
                if let Some(p) = parent {
                    if !self.sock(sock).established_reported {
                        self.sock_mut(sock).established_reported = true;
                        if self.sock_opt(p).is_some() {
                            if let Some((l, socks)) = self.listen_queues(p) {
                                l.half_open.remove(socks, sock);
                                l.accept_q.push_back(socks, sock);
                                l.state.on_child_established();
                            }
                            self.stats.tcp_accepted += 1;
                            self.wake_sock(p, WC_ACCEPT);
                        }
                    }
                } else {
                    self.wake_sock(sock, WC_CONNECT);
                }
            }
            ConnEvent::DataReady => self.wake_sock(sock, WC_RECV),
            ConnEvent::SendSpace => self.wake_sock(sock, WC_SEND),
            ConnEvent::PeerClosed => self.wake_sock(sock, WC_RECV),
            ConnEvent::Reset | ConnEvent::TimedOut => {
                // Record why the connection died *before* waking anyone,
                // so recv/send/connect report the error instead of
                // silently parking (or mis-reporting EOF).
                let errno = if matches!(ev, ConnEvent::Reset) {
                    Errno::ConnReset
                } else {
                    Errno::TimedOut
                };
                let s = self.sock_mut(sock);
                if s.err.is_none() {
                    s.err = Some(errno);
                }
                self.wake_tcp_waiters(sock, false);
            }
            ConnEvent::Closed => {
                self.wake_tcp_waiters(sock, false);
                self.teardown_tcp_sock(sock);
            }
        }
    }

    /// Wakes all sleepers on a socket wait channel.
    pub(crate) fn wake_sock(&mut self, sock: SockId, kind: u64) {
        self.wake_channel(sock_wchan(sock, kind));
    }

    /// Wakes every call that may sleep on TCP socket `sock`: receive,
    /// send, accept and connect, in that order (a connection's accept
    /// channel has no sleepers) — then, with `acceptor`, whoever accepts
    /// on an embryonic child's listener.
    pub(crate) fn wake_tcp_waiters(&mut self, sock: SockId, acceptor: bool) {
        for kind in [WC_RECV, WC_SEND, WC_ACCEPT, WC_CONNECT] {
            self.wake_sock(sock, kind);
        }
        if acceptor {
            if let Some(parent) = self.sock(sock).parent {
                self.wake_sock(parent, WC_ACCEPT);
            }
        }
    }

    /// NI-LRP: reclaim the NI channel of a connection entering TIME_WAIT.
    pub(crate) fn maybe_reclaim_channel(&mut self, sock: SockId) {
        if self.cfg.arch != Architecture::NiLrp || !self.cfg.time_wait_channel_reclaim {
            return;
        }
        let Some(s) = self.sock_opt(sock) else { return };
        if s.chan_reclaimed || !s.tcp.as_ref().is_some_and(|t| t.in_time_wait()) {
            return;
        }
        let (Some(_), Some(local), Some(remote)) = (s.chan, s.local, s.remote) else {
            return;
        };
        let key = FlowKey::new(proto::TCP, local, remote);
        let _ = self.nic.demux.unregister(&key);
        self.close_channel(sock, false);
        self.sock_mut(sock).chan_reclaimed = true;
    }

    /// Final teardown once a connection leaves the state machine: removes
    /// PCB entries, channels and — if the app already closed it — the
    /// socket itself.
    pub(crate) fn teardown_tcp_sock(&mut self, sock: SockId) {
        let Some(s) = self.sock_opt(sock) else { return };
        let parent = s.parent;
        let reported = s.established_reported;
        let local = s.local;
        let remote = s.remote;
        let closed = s.closed_by_app;
        // Embryonic child died before the handshake completed.
        if let Some(p) = parent {
            if !reported {
                if let Some((l, socks)) = self.listen_queues(p) {
                    l.state.on_child_failed();
                    l.half_open.remove(socks, sock);
                }
            }
        }
        if let (Some(l), Some(r)) = (local, remote) {
            let key = FlowKey::new(proto::TCP, l, r);
            self.pcb.remove(&key);
            if self.cfg.arch != Architecture::Bsd {
                let _ = self.nic.demux.unregister(&key);
            }
        }
        self.close_channel(sock, false);
        // Free the slot only when the application has also closed it, so
        // in-flight syscall continuations never dangle. An orphaned child
        // (never accepted) is freed immediately.
        let orphan = parent.is_some() && !reported;
        if closed || orphan {
            self.free_socket(sock);
        }
    }

    /// Releases a socket table slot and all remaining kernel state.
    pub(crate) fn free_socket(&mut self, sock: SockId) {
        if self.sock_opt(sock).is_none() {
            return;
        }
        // The channel goes first, taking the socket out of the ready set
        // while the table still names its owner.
        self.close_channel(sock, false);
        self.unqueue_child(sock);
        let s = self.sockets.take(sock).expect("checked");
        if s.timer_queued {
            self.tcp_timer_work.retain(|&x| x != sock);
            self.note_owner_work(s.owner, s.proto, false);
        }
        // The cwnd gauge forgets the socket; its maximum is recomputed
        // at the next tick if this socket held it.
        if s.cwnd_dirty {
            self.cwnd_dirty.retain(|&x| x != sock);
        }
        if self.cwnd_max_sock == Some(sock) {
            self.cwnd_rescan = true;
        }
        if let Some(i) = s.listen {
            self.listeners[i as usize] = None;
        }
        if let Some(conn) = &s.tcp {
            self.stats.tcp_closed.absorb(&conn.stats);
        }
        self.pcb.remove_socket(sock);
        if s.proto == SockProto::Icmp && self.icmp_sock == Some(sock) {
            self.icmp_sock = None;
        }
        if let Some(l) = s.local {
            if s.proto == SockProto::Udp {
                let key = FlowKey::listening(proto::UDP, l);
                self.pcb.remove(&key);
                if self.cfg.arch != Architecture::Bsd {
                    let _ = self.nic.demux.unregister(&key);
                }
            } else if s.listen.is_some() || s.parent.is_none() {
                // The wildcard key belongs to whoever *bound* the port: a
                // listener, or an actively-opened socket (implicit bind at
                // connect). A passive child shares `local` with its
                // listener and must not tear the listener's filter down.
                let key = FlowKey::listening(proto::TCP, l);
                if self.cfg.arch != Architecture::Bsd {
                    let _ = self.nic.demux.unregister(&key);
                }
            }
        }
        self.dgram_socks.remove(sock);
        self.tcp_deadlines.set(sock, None);
        self.ed_pending.retain(|&x| x != sock);
    }

    /// Takes passive child `sock` off whichever of its listener's queues
    /// it is on, and releases its place in the backlog: its slot, which
    /// holds its links, is about to go. Teardown, `accept` and a
    /// listener's close take a child off first, and a crash or reboot
    /// frees the listener before its children; but an application may
    /// close, by id, a child nobody accepted, and its free must not
    /// leave the queue running through a dead slot.
    fn unqueue_child(&mut self, sock: SockId) {
        let s = self.sock(sock);
        let (Some(p), reported) = (s.parent, s.established_reported) else {
            return;
        };
        let Some((l, socks)) = self.listen_queues(p) else {
            return;
        };
        if reported {
            if l.accept_q.remove(socks, sock) {
                l.state.on_accept();
            }
        } else if l.half_open.remove(socks, sock) {
            l.state.on_child_failed();
        }
    }

    /// Processes one due TCP timer for `sock`; returns the CPU cost.
    pub(crate) fn run_tcp_timer(&mut self, now: SimTime, sock: SockId) -> SimDuration {
        let Some(s) = self.sock_opt(sock) else {
            return SimDuration::ZERO;
        };
        if s.tcp.is_none() {
            return SimDuration::ZERO;
        }
        let base = SimDuration::from_micros(5);
        base + self
            .tcp_run(now, sock, |conn, out| conn.on_timer_into(now, out))
            .1
    }
}
