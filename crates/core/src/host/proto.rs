//! Shared protocol processing: the one IP/UDP/TCP delivery path executed
//! by all four architectures — in softirq context (BSD, Early-Demux), in
//! the receive system call or the APP/idle threads (LRP).
//!
//! Each function *applies the protocol logic immediately* and *returns the
//! CPU cost*; the caller turns that cost into a work chunk charged
//! according to its architecture's policy.

use super::{sock_wchan, DropPoint, Host, WC_CONNECT, WC_RECV, WC_SEND};
use crate::config::{Architecture, SynCookies};
use crate::syscall::{Errno, SockProto};
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::sockbuf::Datagram;
use lrp_stack::tcp::{cookie, Actions, ConnEvent, Segment, TcpConn};
use lrp_stack::{ReasmOutcome, SockId};
use lrp_wire::{icmp, ipv4, proto, tcp, udp, Endpoint, FlowKey, Frame, FrameBuf, FrameSlice};
use std::borrow::Cow;

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

impl Host {
    /// Full input processing for one IP frame. Returns the CPU cost; all
    /// state changes are applied immediately.
    pub(crate) fn ip_deliver(&mut self, now: SimTime, frame: Frame, ctx: ProtoCtx) -> SimDuration {
        let cost = self.cfg.cost;
        let lazy = matches!(ctx, ProtoCtx::Lrp { lazy: true, .. });
        let scale = |d: SimDuration| if lazy { cost.lazy(d) } else { d };
        let mut total = scale(cost.ip_input + cost.proto_bytes(frame.len()));
        let bytes = match frame {
            Frame::Ipv4(b) => b,
            Frame::Arp(_) => {
                // ARP handled by the proxy daemon path; count and ignore
                // here.
                self.tele.on_arp();
                return total;
            }
        };
        let Ok((first_hdr, first_payload)) = ipv4::parse(&bytes) else {
            self.stats.drop_at(DropPoint::BadPacket);
            self.tele.on_drop(DropPoint::BadPacket);
            return total;
        };
        // Fragment reassembly; whole datagrams pass straight through —
        // borrowed from the frame, so the common path copies nothing here.
        let completed: Option<(ipv4::Ipv4Header, Cow<'_, [u8]>)> = if first_hdr.is_fragment() {
            total += scale(cost.ip_reasm_per_frag);
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
                    self.tele.on_reasm_absorbed();
                    // In LRP, the missing fragments may already be waiting
                    // on the special NI fragment channel (§3.2).
                    if self.cfg.arch.is_lrp() {
                        let (extra, done) = self.drain_fragment_channel(now);
                        total += if lazy { cost.lazy(extra) } else { extra };
                        done.map(|(h, p)| (h, Cow::Owned(p)))
                    } else {
                        None
                    }
                }
                ReasmOutcome::Dropped => {
                    self.stats.drop_at(DropPoint::Reasm);
                    self.tele.on_drop(DropPoint::Reasm);
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
            self.tele.on_forwarded();
            return total + self.do_forward(&bytes);
        }
        match ih.proto {
            proto::UDP => total + self.udp_deliver(now, &ih, &payload, ctx),
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
            proto::ICMP => total + self.icmp_deliver(now, &ih, &payload, ctx),
            _ => {
                // Unknown protocols are dropped after IP input.
                self.stats.drop_at(DropPoint::NoSocket);
                self.tele.on_drop(DropPoint::NoSocket);
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
        let out = ipv4::build_datagram(&ih, payload);
        let total = cost.ip_forward + cost.ip_output + cost.driver_tx_per_pkt;
        if !self.ifq_enqueue_spanned(Frame::ipv4(out), None) {
            self.stats.drop_at(DropPoint::IfQueue);
        }
        total
    }

    /// The forwarding daemon processes one frame from the forward channel;
    /// returns the cost, or `None` when the channel is empty.
    pub(crate) fn forward_step(&mut self, now: SimTime) -> Option<SimDuration> {
        let chan = self.nic.proxies().forward?;
        if !self.nic.channel_exists(chan) {
            return None;
        }
        let frame = self.chan_dequeue(now, chan)?;
        let cost = self.cfg.cost;
        let d = match &frame {
            Frame::Ipv4(b) => {
                self.tele.on_forwarded();
                cost.ip_input + self.do_forward(b)
            }
            Frame::Arp(_) => {
                self.tele.on_arp();
                cost.ip_input
            }
        };
        Some(d)
    }

    /// Delivers an ICMP message to the proxy daemon's raw socket (§3.5).
    fn icmp_deliver(
        &mut self,
        now: SimTime,
        ih: &ipv4::Ipv4Header,
        payload: &[u8],
        ctx: ProtoCtx,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let cpu = self.cur_cpu;
        let lazy = matches!(ctx, ProtoCtx::Lrp { lazy: true, .. });
        let scale = |d: SimDuration| if lazy { cost.lazy(d) } else { d };
        let mut total = scale(cost.udp_input) + scale(cost.csum(payload.len()));
        if lrp_wire::icmp::parse(payload).is_err() {
            self.stats.drop_at(DropPoint::BadPacket);
            self.tele.on_drop(DropPoint::BadPacket);
            return total;
        }
        let Some(sock) = self.icmp_sock.filter(|s| self.sock_opt(*s).is_some()) else {
            self.stats.drop_at(DropPoint::NoSocket);
            self.tele.on_drop(DropPoint::NoSocket);
            return total;
        };
        let rightful = self.sock(sock).owner;
        self.tele.note_proto_owner(rightful.0);
        let dgram = Datagram {
            from: Endpoint::new(ih.src, 0),
            payload: payload.into(),
        };
        if self.sock_mut(sock).rcvq.enqueue(dgram) {
            self.tele.on_icmp_delivered(now, cpu);
            if !lazy {
                total += scale(cost.sock_enqueue);
                if self.sched.has_sleeper(sock_wchan(sock, WC_RECV)) {
                    total += cost.wakeup;
                    self.wake_sock(sock, WC_RECV);
                }
            }
        } else {
            self.stats.drop_at(DropPoint::SockBuf);
            self.sock_mut(sock).drops_sockbuf += 1;
            self.tele.on_drop(DropPoint::SockBuf);
        }
        total
    }

    /// LRP receive path helper: drains the fragment channel and delivers
    /// any completed datagram to its socket (resolved through the demux
    /// table, since the fragment channel is shared). Returns the cost.
    pub(crate) fn pump_fragment_channel(&mut self, now: SimTime) -> SimDuration {
        let (mut total, done) = self.drain_fragment_channel(now);
        if let Some((ih, payload)) = done {
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
                    total +=
                        self.udp_deliver(now, &ih, &payload, ProtoCtx::Lrp { sock, lazy: false });
                    if self.sched.has_sleeper(sock_wchan(sock, WC_RECV)) {
                        self.wake_sock(sock, WC_RECV);
                    }
                } else {
                    self.stats.drop_at(DropPoint::NoSocket);
                    self.tele.on_drop(DropPoint::NoSocket);
                }
            } else {
                // A completed non-UDP datagram has no receiver on this
                // path; its completing frame stays with the reassembler
                // bucket.
                self.tele.on_reasm_absorbed();
            }
        }
        total
    }

    /// Pulls queued fragments from the special NI fragment channel into
    /// the reassembler (LRP §3.2). Returns the cost and a completed
    /// datagram if the drain finished one.
    fn drain_fragment_channel(
        &mut self,
        now: SimTime,
    ) -> (SimDuration, Option<(ipv4::Ipv4Header, Vec<u8>)>) {
        let mut total = SimDuration::ZERO;
        let mut done = None;
        let frag_chan = self.nic.fragment_channel;
        while let Some(f) = self.chan_dequeue(now, frag_chan) {
            total += self.cfg.cost.ip_reasm_per_frag;
            // Every drained frame is absorbed by the reassembler except
            // the one that completes the returned datagram — that frame's
            // disposition is decided by whoever delivers `done`.
            let mut completer = false;
            if let Frame::Ipv4(b) = f {
                if let Ok((fh, fp)) = ipv4::parse(&b) {
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
                            ));
                            completer = true;
                        }
                    }
                }
            }
            if !completer {
                self.tele.on_reasm_absorbed();
            }
        }
        (total, done)
    }

    fn udp_deliver(
        &mut self,
        now: SimTime,
        ih: &ipv4::Ipv4Header,
        payload: &[u8],
        ctx: ProtoCtx,
    ) -> SimDuration {
        let cost = self.cfg.cost;
        let cpu = self.cur_cpu;
        let lazy = matches!(ctx, ProtoCtx::Lrp { lazy: true, .. });
        let scale = |d: SimDuration| if lazy { cost.lazy(d) } else { d };
        let mut total = scale(cost.udp_input);
        let Ok((uh, body)) = udp::parse(payload) else {
            self.stats.drop_at(DropPoint::BadPacket);
            self.tele.on_drop(DropPoint::BadPacket);
            return total;
        };
        // Checksum verification (skipped when the sender disabled it).
        if uh.checksum != 0 {
            total += scale(cost.csum(payload.len()));
            if !udp::verify_checksum(ih.src, ih.dst, payload) {
                self.stats.drop_at(DropPoint::BadPacket);
                self.tele.on_drop(DropPoint::BadPacket);
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
            self.stats.drop_at(DropPoint::PortUnreach);
            self.tele.on_drop(DropPoint::PortUnreach);
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
            if !self.ifq_enqueue_spanned(Frame::ipv4(reply), None) {
                self.stats.drop_at(DropPoint::IfQueue);
            }
            return total;
        };
        // The rightful receiver is now known; note it so the chunk that
        // carries this protocol work can record who *should* be billed.
        let rightful = self.sock(sock).owner;
        self.tele.note_proto_owner(rightful.0);
        let dgram = Datagram {
            from: remote,
            payload: body.into(),
        };
        let nbytes = dgram.payload.len() as u64;
        if self.sock_mut(sock).rcvq.enqueue(dgram) {
            self.stats.udp_delivered += 1;
            self.stats.udp_delivered_bytes += nbytes;
            self.tele.on_udp_delivered(now, cpu, sock.0 as u64);
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
            self.stats.drop_at(DropPoint::SockBuf);
            self.sock_mut(sock).drops_sockbuf += 1;
            self.tele.on_drop(DropPoint::SockBuf);
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
        self.tele.on_tcp_frame();
        let cost = self.cfg.cost;
        let mut total = cost.csum(seg.len());
        if !tcp::verify_checksum(ih.src, ih.dst, &seg) {
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
        if self.sock(sock).listener.is_some() && th.has(tcp::flags::SYN) && !th.has(tcp::flags::ACK)
        {
            return total + self.tcp_handle_syn(now, sock, local, remote, &th);
        }
        // A bare ACK at a *listening* socket with cookies enabled is the
        // returning half of a stateless handshake: no child exists yet —
        // the cookie in the ACK field *is* the connection state.
        if self.cfg.syn_cookies != SynCookies::Off
            && self.sock(sock).listener.is_some()
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
        let mut total = cost.tcp_syn;
        // Duplicate SYN for an embryonic connection? Find the child by
        // exact PCB key.
        let exact = self.pcb.lookup(proto::TCP, local, remote);
        if let Some(child) = exact.sock {
            if child != lsock {
                // Retransmitted SYN: let the child handle it.
                if self.sock_opt(child).and_then(|s| s.tcp.as_ref()).is_some() {
                    total += self
                        .tcp_run(now, child, |conn, out| {
                            conn.on_segment_into(now, th, &[], out)
                        })
                        .1;
                }
                return total;
            }
        }
        let can = self
            .sock(lsock)
            .listener
            .as_ref()
            .expect("listener")
            .can_accept_syn();
        // Stateless SYN cookies: answer with a SYN|ACK whose sequence
        // number encodes the connection (no child socket, no half-open
        // entry — nothing for a flood to exhaust). In `Auto` mode this
        // engages only once the backlog is full, and takes precedence
        // over the SYN-cache eviction below: dropping *state* beats
        // recycling it when the flood outruns the table.
        let engaged = match self.cfg.syn_cookies {
            SynCookies::Always => true,
            SynCookies::Auto => !can,
            SynCookies::Off => false,
        };
        if engaged {
            return total + self.tcp_send_cookie_synack(lsock, local, remote, th, now);
        }
        if !can {
            // SYN-cache: evict the oldest half-open child to admit the
            // fresh SYN (bounded table, oldest-first), instead of letting
            // a flood of never-completing handshakes freeze the backlog.
            let victim = if self.cfg.syn_cache {
                self.sock(lsock)
                    .listener
                    .as_ref()
                    .expect("listener")
                    .oldest_half_open()
            } else {
                None
            };
            if let Some(victim) = victim {
                let l = self.sock_mut(lsock).listener.as_mut().expect("listener");
                l.untrack_half_open(victim);
                l.on_syn_cache_evict();
                if self.sock_opt(victim).is_some() {
                    // Drop the embryonic connection state silently (no
                    // RST — the peer, likely spoofed, retransmits or
                    // times out) and tear the child down; the orphan
                    // path releases its backlog slot.
                    self.set_conn(victim, None);
                    self.teardown_tcp_sock(victim);
                }
                // Fall through to admit the new SYN below.
            } else {
                self.sock_mut(lsock)
                    .listener
                    .as_mut()
                    .expect("listener")
                    .on_syn_dropped();
                self.stats.drop_at(DropPoint::Backlog);
                self.tele.on_backlog_drop();
                return total;
            }
        }
        // Admit: create the child socket + connection.
        let owner = self.sock(lsock).owner;
        let child = self.alloc_sock(owner, SockProto::Tcp);
        let iss = self.next_iss();
        let mut acts = std::mem::take(&mut self.tcp_acts);
        let conn =
            TcpConn::accept_syn_into(self.tcp_config(), local, remote, iss, th, now, &mut acts);
        {
            let s = self.sock_mut(child);
            s.local = Some(local);
            s.remote = Some(remote);
            s.parent = Some(lsock);
        }
        self.set_conn(child, Some(conn));
        {
            let l = self.sock_mut(lsock).listener.as_mut().expect("listener");
            l.on_syn_admitted();
            l.track_half_open(child);
        }
        // PCB entry (exact match) for the child.
        let key = FlowKey::new(proto::TCP, local, remote);
        let _ = self.pcb.insert(key, child);
        // LRP / Early-Demux: give the child its own NI channel + filter,
        // with the demand interrupt armed for the APP thread.
        if self.cfg.arch != Architecture::Bsd {
            let chan = self.nic.create_default_channel();
            self.sock_mut(child).chan = Some(chan);
            self.bind_channel(chan, child);
            let _ = self.nic.demux.register(key, chan);
            self.nic.channel_mut(chan).intr_requested = true;
        }
        total += self.apply_tcp_actions(now, child, &mut acts);
        self.tcp_acts = acts;
        total
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
        if !self.ifq_enqueue_spanned(Frame::ipv4(dgram), None) {
            self.stats.drop_at(DropPoint::IfQueue);
        }
        self.sock_mut(lsock)
            .listener
            .as_mut()
            .expect("listener")
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
        // An exact-match child already owns this flow (e.g. the peer
        // retransmitted the ACK after the first copy established it):
        // hand the segment over rather than re-deriving a connection.
        let exact = self.pcb.lookup(proto::TCP, local, remote);
        if let Some(child) = exact.sock {
            if child != lsock {
                if self.sock_opt(child).and_then(|s| s.tcp.as_ref()).is_some() {
                    total += self
                        .tcp_run(now, child, |conn, out| {
                            conn.on_segment_slice_into(now, th, body, out)
                        })
                        .1;
                }
                return total;
            }
        }
        let key = cookie::host_key(self.addr);
        let Some(mss) = cookie::decode(key, local, remote, th.ack.wrapping_sub(1), now) else {
            // Forged or expired cookie: silent drop, separately ledgered —
            // under a flood this is the common case and must stay cheap.
            self.sock_mut(lsock)
                .listener
                .as_mut()
                .expect("listener")
                .on_cookie_rejected();
            self.tele.on_cookie_rejected();
            return total;
        };
        // Valid cookie, but the accept queue still bounds admission: a
        // listener nobody accepts from must not grow without limit.
        {
            let l = self.sock(lsock).listener.as_ref().expect("listener");
            if l.accept_queue >= l.backlog {
                self.sock_mut(lsock)
                    .listener
                    .as_mut()
                    .expect("listener")
                    .on_syn_dropped();
                self.stats.drop_at(DropPoint::Backlog);
                self.tele.on_backlog_drop();
                return total;
            }
        }
        // Reconstruct the child the stateless SYN|ACK stood in for.
        let owner = self.sock(lsock).owner;
        let child = self.alloc_sock(owner, SockProto::Tcp);
        let conn = TcpConn::cookie_established(self.tcp_config(), local, remote, th, mss, now);
        {
            let s = self.sock_mut(child);
            s.local = Some(local);
            s.remote = Some(remote);
            s.parent = Some(lsock);
            // Established from birth: never counted into the SYN queue,
            // reported straight into the accept queue below.
            s.established_reported = true;
        }
        self.set_conn(child, Some(conn));
        let key = FlowKey::new(proto::TCP, local, remote);
        let _ = self.pcb.insert(key, child);
        if self.cfg.arch != Architecture::Bsd {
            let chan = self.nic.create_default_channel();
            self.sock_mut(child).chan = Some(chan);
            self.bind_channel(chan, child);
            let _ = self.nic.demux.register(key, chan);
            self.nic.channel_mut(chan).intr_requested = true;
        }
        self.sock_mut(lsock)
            .listener
            .as_mut()
            .expect("listener")
            .on_cookie_child_established();
        self.sock_mut(lsock).accept_q.push_back(child);
        self.stats.tcp_accepted += 1;
        self.tele.on_cookie_validated();
        self.wake_sock(lsock, super::WC_ACCEPT);
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
            if !self.ifq_enqueue_spanned(Frame::ipv4(dgram), None) {
                self.stats.drop_at(DropPoint::IfQueue);
            }
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
                            self.sock_mut(p).accept_q.push_back(sock);
                            if let Some(l) = self.sock_mut(p).listener.as_mut() {
                                l.on_child_established();
                                l.untrack_half_open(sock);
                            }
                            self.stats.tcp_accepted += 1;
                            self.wake_sock(p, super::WC_ACCEPT);
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
                self.wake_sock(sock, WC_RECV);
                self.wake_sock(sock, WC_SEND);
                self.wake_sock(sock, WC_CONNECT);
            }
            ConnEvent::Closed => {
                self.wake_sock(sock, WC_RECV);
                self.wake_sock(sock, WC_SEND);
                self.wake_sock(sock, WC_CONNECT);
                self.teardown_tcp_sock(sock);
            }
        }
    }

    /// Wakes all sleepers on a socket wait channel.
    pub(crate) fn wake_sock(&mut self, sock: SockId, kind: u64) {
        self.wake_channel(sock_wchan(sock, kind));
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
        let (Some(chan), Some(local), Some(remote)) = (s.chan, s.local, s.remote) else {
            return;
        };
        let key = FlowKey::new(proto::TCP, local, remote);
        let _ = self.nic.demux.unregister(&key);
        self.destroy_channel_flushed(chan);
        self.chan_to_sock.remove(&chan);
        let s = self.sock_mut(sock);
        s.chan = None;
        s.chan_reclaimed = true;
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
        let chan = s.chan;
        let closed = s.closed_by_app;
        // Embryonic child died before the handshake completed.
        if let Some(p) = parent {
            if !reported {
                if let Some(ps) = self.sockets.get_mut(p.0 as usize).and_then(|x| x.as_mut()) {
                    if let Some(l) = ps.listener.as_mut() {
                        l.on_child_failed();
                        l.untrack_half_open(sock);
                    }
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
        if let Some(c) = chan {
            if self.nic.channel_exists(c) {
                self.destroy_channel_flushed(c);
            }
            self.chan_to_sock.remove(&c);
            self.sock_mut(sock).chan = None;
        }
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
        let Some(s) = self.sockets.get_mut(sock.0 as usize).and_then(|x| x.take()) else {
            return;
        };
        // Leave the ready set and the timer queue now: the channel
        // teardown below no longer finds the socket to name its owner.
        if self.ready_socks.remove(&sock) {
            self.note_owner_work(s.owner, s.proto, false);
        }
        if s.timer_queued {
            self.tcp_timer_work.retain(|&x| x != sock);
            self.note_owner_work(s.owner, s.proto, false);
        }
        self.tele.on_sock_close(sock.0 as u64);
        // The cwnd gauge forgets the socket; its maximum is recomputed
        // at the next tick if this socket held it.
        if s.cwnd_dirty {
            self.cwnd_dirty.retain(|&x| x != sock);
        }
        if self.cwnd_max_sock == Some(sock) {
            self.cwnd_rescan = true;
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
            } else if s.listener.is_some() || s.parent.is_none() {
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
        if let Some(c) = s.chan {
            if self.nic.channel_exists(c) {
                self.destroy_channel_flushed(c);
            }
            self.chan_to_sock.remove(&c);
        }
        self.live_socks.remove(&sock);
        self.dgram_socks.remove(&sock);
        let deadline = s.tcp.as_ref().and_then(|c| c.next_deadline());
        self.rekey_deadline(sock, deadline, None);
        self.ed_pending.retain(|&x| x != sock);
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
