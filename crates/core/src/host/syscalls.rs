//! The system-call phase machine: decomposes each operation into
//! cost-bearing kernel phases, with architecture-specific receive paths.

use super::{
    sock_wchan, Cont, Host, Listen, PhaseOut, SockList, WC_ACCEPT, WC_CONNECT, WC_RECV, WC_SEND,
};
use crate::config::{Architecture, QUANTUM};
use crate::host::proto::ProtoCtx;
use crate::syscall::{AppCtx, Errno, SockProto, SyscallOp, SyscallRet};
use lrp_demux::TableError;
use lrp_sched::{Account, Pid, WaitChannel, PPAUSE, PSOCK};
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::tcp::{TcpConn, TcpListener, TcpState};
use lrp_stack::SockId;
use lrp_wire::{proto, udp, Endpoint, FlowKey, FrameBuf, FrameSlice};

/// Link MTU (the paper's ATM LAN): sends fragment above it.
const MTU: usize = 9180;

/// Sent UDP datagrams carry no checksum, as in the paper's UDP tests
/// (received ones are verified when they carry one).
const UDP_CHECKSUM: bool = false;

impl Host {
    /// Executes one kernel phase for `pid`: applies its logic and reports
    /// the CPU to burn and what comes next.
    pub(crate) fn exec_phase(&mut self, now: SimTime, pid: Pid, cont: Cont) -> PhaseOut {
        let cost = self.cfg.cost;
        match cont {
            Cont::AppNext(ret) => {
                let ctx = AppCtx { now, pid };
                let op = self
                    .apps
                    .get_mut(pid)
                    .expect("app for process")
                    .resume(ctx, ret);
                PhaseOut::sys(SimDuration::ZERO, Cont::SyscallEntry(op))
            }
            Cont::SyscallEntry(op) => self.begin_op(now, pid, op),
            Cont::SyscallReturn(ret) => {
                self.sched.return_to_user(pid);
                PhaseOut::sys(cost.syscall_return, Cont::AppNext(ret))
            }
            Cont::ComputeSlice(remaining) => {
                let slice = remaining.min(QUANTUM);
                let left = remaining - slice;
                let next = if left.is_zero() {
                    Cont::AppNext(SyscallRet::Ok)
                } else {
                    Cont::ComputeMore(left)
                };
                PhaseOut::Run {
                    dur: slice,
                    account: Account::User,
                    next,
                }
            }
            Cont::ComputeMore(remaining) => {
                // Round-robin at the quantum boundary: give the CPU away
                // if a process of equal or better priority is queued on
                // this CPU's run queue.
                let my_bucket = self.sched.proc_ref(pid).effective_pri() & !3u8;
                let others = self
                    .sched
                    .best_queued_pri_on(self.cur_cpu)
                    .is_some_and(|b| b <= my_bucket);
                if others {
                    PhaseOut::Yield(Cont::ComputeSlice(remaining))
                } else {
                    PhaseOut::Run {
                        dur: SimDuration::ZERO,
                        account: Account::User,
                        next: Cont::ComputeSlice(remaining),
                    }
                }
            }
            Cont::RecvCheck { sock, max_len } => self.phase_recv_check(now, sock, max_len),
            Cont::TcpSend { sock, data, off } => self.phase_tcp_send(now, sock, data, off),
            Cont::AcceptCheck { sock } => self.phase_accept(now, pid, sock),
            Cont::ConnectCheck { sock } => self.phase_connect_check(now, sock),
            Cont::AppThreadStep => match self.app_thread_step(now) {
                Some((dur, owner)) => {
                    // Charge to the owning application (§3.4).
                    self.charge_override(pid, owner);
                    PhaseOut::sys(dur, Cont::AppThreadStep)
                }
                None => {
                    self.charge_override(pid, pid);
                    // Request NI interrupts for all TCP channels before
                    // sleeping (demand interrupts): every TCP channel is
                    // created armed, so only those that fired need it.
                    let mut fired = std::mem::take(&mut self.rearm_socks);
                    for s in fired.drain(..) {
                        if self.sock_opt(s).is_some() {
                            self.request_channel_interrupt(s);
                        }
                    }
                    self.rearm_socks = fired;
                    PhaseOut::Block {
                        wchan: super::WC_APP_THREAD,
                        pri: PSOCK,
                        resume: Cont::AppThreadStep,
                    }
                }
            },
            Cont::ForwardStep => match self.forward_step(now) {
                Some(dur) => PhaseOut::sys(dur, Cont::ForwardStep),
                None => {
                    if self.cfg.arch == Architecture::NiLrp {
                        if let Some(chan) = self.nic.proxies().forward {
                            if self.nic.channel_exists(chan) {
                                self.nic.channel_mut(chan).intr_requested = true;
                            }
                        }
                    }
                    PhaseOut::Block {
                        wchan: super::WC_FORWARD,
                        pri: PSOCK,
                        resume: Cont::ForwardStep,
                    }
                }
            },
            Cont::IdleThreadStep => match self.idle_thread_step(now) {
                Some((dur, owner)) => {
                    self.charge_override(pid, owner);
                    PhaseOut::sys(dur, Cont::IdleThreadStep)
                }
                None => {
                    self.charge_override(pid, pid);
                    PhaseOut::Block {
                        wchan: super::WC_IDLE_THREAD,
                        pri: 126,
                        resume: Cont::IdleThreadStep,
                    }
                }
            },
        }
    }

    /// Begins a system call: pays the entry cost and routes to the first
    /// phase.
    fn begin_op(&mut self, now: SimTime, pid: Pid, op: SyscallOp) -> PhaseOut {
        let cost = self.cfg.cost;
        let entry = cost.syscall_entry;
        match op {
            SyscallOp::Compute(d) => PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::User,
                next: Cont::ComputeSlice(d),
            },
            SyscallOp::Exit => PhaseOut::Done,
            SyscallOp::Sleep(d) => {
                let wake_at = now + d;
                self.sleep_until.schedule(wake_at, pid);
                self.timers_changed();
                PhaseOut::Block {
                    wchan: WaitChannel(0xFFFF_0000 + pid.0 as u64),
                    pri: PPAUSE,
                    resume: Cont::SyscallReturn(SyscallRet::Ok),
                }
            }
            SyscallOp::Socket(p) => {
                let sock = self.alloc_sock(pid, p);
                PhaseOut::ret(entry + cost.accept_sock, SyscallRet::Socket(sock))
            }
            SyscallOp::Bind { sock, port } => {
                PhaseOut::ret(entry + cost.accept_sock, self.do_bind(sock, port))
            }
            SyscallOp::Listen { sock, backlog } => {
                PhaseOut::ret(entry + cost.accept_sock, self.do_listen(sock, backlog))
            }
            SyscallOp::Connect { sock, dst } => self.do_connect(now, sock, dst, entry),
            SyscallOp::Accept { sock } => PhaseOut::sys(entry, Cont::AcceptCheck { sock }),
            SyscallOp::SendTo { sock, dst, data } => self.do_ip_send(now, sock, dst, &data, entry),
            SyscallOp::Send { sock, data } => {
                let s = self.sock_opt(sock);
                if s.is_some_and(|s| s.tcp.is_some()) {
                    PhaseOut::sys(entry, Cont::TcpSend { sock, data, off: 0 })
                } else if let Some(dst) = s.and_then(|s| s.remote) {
                    // Connected datagram socket: send to the default remote.
                    self.do_ip_send(now, sock, dst, &data, entry)
                } else {
                    PhaseOut::ret(entry, SyscallRet::Err(Errno::Invalid))
                }
            }
            SyscallOp::Recv { sock, max_len } => {
                // A plain receive invalidates any armed receive timeout.
                self.recv_seq.remove(pid);
                PhaseOut::sys(entry, Cont::RecvCheck { sock, max_len })
            }
            SyscallOp::RecvTimeout {
                sock,
                max_len,
                timeout,
            } => {
                // Arm a kernel timer for this receive. The seq token ties
                // the deadline to *this* arm: a deadline that outlives its
                // receive (data arrived first) is inert when it fires.
                self.recv_deadline_seq += 1;
                let seq = self.recv_deadline_seq;
                self.recv_seq.insert(pid, seq);
                self.recv_deadlines
                    .schedule(now + timeout, (pid, sock, seq));
                self.timers_changed();
                PhaseOut::sys(entry, Cont::RecvCheck { sock, max_len })
            }
            SyscallOp::SockDepth { sock } => {
                PhaseOut::ret(entry, SyscallRet::Depth(self.sock_depth(sock)))
            }
            SyscallOp::SockStats { sock } => {
                let ret = match self.sock_stats_of(sock) {
                    Some(st) => SyscallRet::Stats(Box::new(st)),
                    None => SyscallRet::Err(Errno::Invalid),
                };
                PhaseOut::ret(entry, ret)
            }
            SyscallOp::Close { sock } => {
                let dur = self.do_close(now, sock);
                PhaseOut::ret(entry + dur, SyscallRet::Ok)
            }
        }
    }

    fn do_bind(&mut self, sock: SockId, port: u16) -> SyscallRet {
        let Some(s) = self.sock_opt(sock) else {
            return SyscallRet::Err(Errno::Invalid);
        };
        let ip_proto = match s.proto {
            SockProto::Udp => proto::UDP,
            SockProto::Tcp => proto::TCP,
            SockProto::Icmp => {
                // Raw ICMP proxy socket (§3.5): no PCB entry; all ICMP
                // traffic routes to its channel / queue.
                self.sock_mut(sock).local = Some(Endpoint::new(self.addr, 0));
                if self.cfg.arch != Architecture::Bsd {
                    let (chan, _) = self.open_channel(sock, None, false);
                    self.nic.set_icmp_proxy(chan);
                }
                self.icmp_sock = Some(sock);
                return SyscallRet::Ok;
            }
        };
        let local = Endpoint::new(self.addr, port);
        let key = FlowKey::listening(ip_proto, local);
        if self.pcb.insert(key, sock).is_err() {
            return SyscallRet::Err(Errno::AddrInUse);
        }
        self.sock_mut(sock).local = Some(local);
        // LRP / Early-Demux: binding creates the NI channel and installs
        // the demux filter (§3.1).
        // TCP channels are drained by the APP thread, which may be asleep
        // right now: arm the demand interrupt from the start.
        if self.cfg.arch != Architecture::Bsd
            && !self.open_channel(sock, Some(key), ip_proto == proto::TCP).1
        {
            // The NIC's demux table is full: undo the bind whole.
            self.close_channel(sock, false);
            self.pcb.remove(&key);
            self.sock_mut(sock).local = None;
            return SyscallRet::Err(Errno::NoBufs);
        }
        SyscallRet::Ok
    }

    fn do_listen(&mut self, sock: SockId, backlog: usize) -> SyscallRet {
        let Some(s) = self.sock_opt(sock) else {
            return SyscallRet::Err(Errno::Invalid);
        };
        let Some(local) = s.local else {
            return SyscallRet::Err(Errno::Invalid);
        };
        if s.proto != SockProto::Tcp {
            return SyscallRet::Err(Errno::Invalid);
        }
        if let Some(l) = self.listening_mut(sock) {
            // Listening again only sets the limit (BSD's `solisten`): the
            // queues and their counts stay with the children on them.
            l.state.backlog = backlog;
            return SyscallRet::Ok;
        }
        let state = TcpListener::new(local, backlog);
        let i = (self.listeners.iter().position(Option::is_none)).unwrap_or_else(|| {
            self.listeners.push(None);
            self.listeners.len() - 1
        });
        self.listeners[i] = Some(Listen {
            state,
            half_open: SockList::default(),
            accept_q: SockList::default(),
        });
        self.sock_mut(sock).listen = Some(i as u32);
        SyscallRet::Ok
    }

    /// `sock`'s local endpoint, bound to an ephemeral port first if it
    /// has none (the implicit bind of `connect` and `sendto`).
    fn bind_implicit(&mut self, sock: SockId) -> Result<Endpoint, SyscallRet> {
        if self.sock(sock).local.is_none() {
            let port = self.next_ephemeral();
            let r = self.do_bind(sock, port);
            if r != SyscallRet::Ok {
                return Err(r);
            }
        }
        Ok(self.sock(sock).local.expect("bound above"))
    }

    fn do_connect(
        &mut self,
        now: SimTime,
        sock: SockId,
        dst: Endpoint,
        entry: SimDuration,
    ) -> PhaseOut {
        let cost = self.cfg.cost;
        let Some(sproto) = self.sock_opt(sock).map(|s| s.proto) else {
            return PhaseOut::ret(entry, SyscallRet::Err(Errno::Invalid));
        };
        let local = match self.bind_implicit(sock) {
            Ok(local) => local,
            Err(r) => return PhaseOut::ret(entry, r),
        };
        if sproto != SockProto::Tcp {
            // Connected datagram/raw socket: remember the default
            // destination.
            self.sock_mut(sock).remote = Some(dst);
            return PhaseOut::ret(entry + cost.accept_sock, SyscallRet::Ok);
        }
        let key = FlowKey::new(proto::TCP, local, dst);
        // The connected socket's channel gets an exact filter. A demux
        // table at its load bound refuses it, and the connect fails
        // before it leaves a PCB entry or a peer behind.
        let chan = self.sock(sock).chan;
        if let Some(chan) = chan.filter(|_| self.cfg.arch != Architecture::Bsd) {
            if self.nic.demux.register(key, chan) == Err(TableError::Full) {
                return PhaseOut::ret(entry, SyscallRet::Err(Errno::NoBufs));
            }
        }
        self.sock_mut(sock).remote = Some(dst);
        let _ = self.pcb.insert(key, sock);
        let iss = self.next_iss();
        let conn = TcpConn::new(self.cfg.tcp, local, dst, iss);
        self.set_conn(sock, Some(conn));
        let ((), tx) = self.tcp_run(now, sock, |conn, out| conn.connect_into(now, out));
        PhaseOut::sys(entry + cost.tcp_output + tx, Cont::ConnectCheck { sock })
    }

    /// Whether a call on `sock` drains the socket's NI channel itself
    /// (LRP's lazy input): on LRP, always for a datagram socket; for TCP
    /// only without the APP thread (ablation A4, §3.4's rejected design),
    /// where the calls that block on a socket are TCP's only input.
    fn drains_own_channel(&self, sock: SockId) -> bool {
        self.cfg.arch.is_lrp()
            && self
                .sock_opt(sock)
                .is_some_and(|s| s.proto != SockProto::Tcp || !self.cfg.tcp_app_processing)
    }

    /// The sockets whose channels a call on `sock` drains besides its
    /// own: for a listener, the children it spawned (the SYN arrives on
    /// the listener's channel, the handshake's final ACK on the embryonic
    /// child's); none otherwise.
    fn children(&self, sock: SockId) -> Vec<SockId> {
        if self.sock(sock).listen.is_none() {
            return Vec::new();
        }
        let children = self.live_sockets().filter(|s| s.parent == Some(sock));
        children.map(|s| s.id).collect()
    }

    /// LRP's lazy input in a blocked call: when the call drains its own
    /// channel, runs the next frame queued there (failing that, on the
    /// first of its `children`' channels that holds one) through the
    /// delivery path in the caller's context, then continues with
    /// `again`. `None` when there is nothing to process.
    fn lazy_step(&mut self, now: SimTime, sock: SockId, again: Cont) -> Option<PhaseOut> {
        if !self.drains_own_channel(sock) {
            return None;
        }
        let children = self.children(sock);
        let dur = std::iter::once(sock)
            .chain(children)
            .find_map(|t| self.lazy_input(now, t))?;
        Some(PhaseOut::sys(dur, again))
    }

    /// Dequeues one frame from `sock`'s NI channel, if it holds one, and
    /// runs it through the delivery path in the caller's context; returns
    /// the cost.
    fn lazy_input(&mut self, now: SimTime, sock: SockId) -> Option<SimDuration> {
        let chan = self.sock_opt(sock)?.chan?;
        if !self.nic.channel_exists(chan) {
            return None;
        }
        let (frame, stamp) = self.chan_dequeue(now, chan)?;
        Some(self.ip_deliver(now, frame, stamp, ProtoCtx::Lrp { sock, lazy: true }))
    }

    /// Blocks the caller on `sock`'s wait channel `kind`, to resume with
    /// `resume`. A call that drains its own channel first requests the
    /// demand interrupt of every channel its lazy step walks: on NI-LRP
    /// nothing else wakes it when a frame arrives.
    fn sleep_on(&mut self, sock: SockId, kind: u64, resume: Cont) -> PhaseOut {
        if self.drains_own_channel(sock) {
            for s in std::iter::once(sock).chain(self.children(sock)) {
                self.request_channel_interrupt(s);
            }
        }
        PhaseOut::Block {
            wchan: sock_wchan(sock, kind),
            pri: PSOCK,
            resume,
        }
    }

    fn phase_connect_check(&mut self, now: SimTime, sock: SockId) -> PhaseOut {
        // A4: the handshake segments.
        if let Some(out) = self.lazy_step(now, sock, Cont::ConnectCheck { sock }) {
            return out;
        }
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::ret(SimDuration::ZERO, SyscallRet::Err(Errno::ConnReset));
        };
        match s.tcp.as_ref().map(|t| t.state) {
            Some(
                TcpState::Established
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::CloseWait,
            ) => PhaseOut::ret(SimDuration::ZERO, SyscallRet::Ok),
            Some(TcpState::Closed) | None => {
                let e = s.err.unwrap_or(Errno::ConnRefused);
                PhaseOut::ret(SimDuration::ZERO, SyscallRet::Err(e))
            }
            _ => self.sleep_on(sock, WC_CONNECT, Cont::ConnectCheck { sock }),
        }
    }

    /// Sends `data` to `dst` from a datagram socket, fragmented above the
    /// MTU: a UDP socket (bound implicitly if need be) wraps it in a UDP
    /// header, a raw ICMP socket sends it as the complete ICMP message.
    fn do_ip_send(
        &mut self,
        now: SimTime,
        sock: SockId,
        dst: Endpoint,
        data: &[u8],
        entry: SimDuration,
    ) -> PhaseOut {
        let cost = self.cfg.cost;
        let seg = match self.sock_opt(sock).map(|s| s.proto) {
            Some(SockProto::Icmp) => None,
            Some(SockProto::Udp) => {
                let local = match self.bind_implicit(sock) {
                    Ok(local) => local,
                    Err(r) => return PhaseOut::ret(entry, r),
                };
                Some(udp::build(
                    local.addr,
                    dst.addr,
                    local.port,
                    dst.port,
                    data,
                    UDP_CHECKSUM,
                ))
            }
            _ => return PhaseOut::ret(entry, SyscallRet::Err(Errno::Invalid)),
        };
        let is_udp = seg.is_some();
        let ip_proto = if is_udp { proto::UDP } else { proto::ICMP };
        let ident = self.next_ident();
        let payload = seg.as_deref().unwrap_or(data);
        let frames = lrp_wire::ipv4::fragment(self.addr, dst.addr, ip_proto, ident, payload, MTU);
        // The fragments copied the segment: its arena scratch goes back.
        if let Some(seg) = seg {
            lrp_wire::buf::recycle(seg);
        }
        let nfrags = frames.len() as u64;
        let dur = cost.copy(data.len())
            + cost.udp_output
            + (cost.ip_output + cost.driver_tx_per_pkt) * nfrags;
        // Causal trace: a UDP reply continues the span of the request this
        // process most recently received (or mints a fresh one).
        let span = if is_udp {
            let owner = self.sock(sock).owner;
            self.tele.on_tx(now, self.cur_cpu, owner.0)
        } else {
            None
        };
        let mut dropped = false;
        for f in frames {
            dropped |= !self.ifq_enqueue(lrp_wire::Frame::ipv4(f), span);
        }
        let ret = if dropped {
            SyscallRet::Err(Errno::NoBufs)
        } else {
            SyscallRet::Sent(data.len())
        };
        PhaseOut::ret(entry + dur, ret)
    }

    /// The receive phase: delivers ready data, lazily processes raw
    /// channel packets (LRP), or blocks.
    fn phase_recv_check(&mut self, now: SimTime, sock: SockId, max_len: usize) -> PhaseOut {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::ret(SimDuration::ZERO, SyscallRet::Err(Errno::Invalid));
        };
        if s.tcp.is_some() {
            return self.phase_tcp_recv(now, sock, max_len);
        }
        // UDP: ready data first.
        if let Some(d) = self.sock_mut(sock).rcvq.dequeue() {
            let n = d.payload.len().min(max_len);
            let owner = self.sock(sock).owner;
            self.tele.on_recv(now, self.cur_cpu, d.span, owner.0);
            // A user buffer smaller than the datagram truncates it (copy);
            // the common full-size receive hands the buffer over as-is.
            let payload = if n < d.payload.len() {
                FrameBuf::from(&d.payload[..n])
            } else {
                d.payload
            };
            let ret = SyscallRet::DataFrom(d.from, payload);
            return PhaseOut::ret(cost.sock_dequeue + cost.copy(n), ret);
        }
        // LRP: lazily process one raw packet from the NI channel.
        if let Some(out) = self.lazy_step(now, sock, Cont::RecvCheck { sock, max_len }) {
            return out;
        }
        // Misordered fragments may be parked on the special fragment
        // channel (§3.2): reassemble and route them before sleeping.
        if self.drains_own_channel(sock) && !self.nic.channel(self.nic.fragment_channel).is_empty()
        {
            let dur = self
                .pump_fragment_channel(now)
                .max(SimDuration::from_nanos(1));
            return PhaseOut::sys(dur, Cont::RecvCheck { sock, max_len });
        }
        self.sleep_on(sock, WC_RECV, Cont::RecvCheck { sock, max_len })
    }

    fn phase_tcp_recv(&mut self, now: SimTime, sock: SockId, max_len: usize) -> PhaseOut {
        let cost = self.cfg.cost;
        // A4: TCP receiver processing happens here, in the receive call.
        if let Some(out) = self.lazy_step(now, sock, Cont::RecvCheck { sock, max_len }) {
            return out;
        }
        let conn = self.sock(sock).tcp.as_ref().expect("tcp socket");
        if conn.available() > 0 {
            let (data, tx) = self.tcp_run(now, sock, |conn, out| conn.read_into(max_len, out));
            let n = data.len();
            self.stats.tcp_delivered_bytes += n as u64;
            let dur = cost.sock_dequeue + cost.copy(n) + tx;
            return PhaseOut::ret(dur, SyscallRet::Data(data.into()));
        }
        // A dead connection reports *why* it died (RST, retransmit
        // give-up, keepalive abort) — after any buffered data has been
        // drained above, and before the orderly-EOF path below can
        // mistake an abort for end-of-stream.
        if let Some(e) = self.sock(sock).err {
            return PhaseOut::ret(cost.sock_dequeue, SyscallRet::Err(e));
        }
        // End of stream or dead connection?
        match self.sock(sock).tcp.as_ref().expect("tcp").state {
            TcpState::CloseWait
            | TcpState::Closing
            | TcpState::LastAck
            | TcpState::TimeWait
            | TcpState::Closed => {
                PhaseOut::ret(cost.sock_dequeue, SyscallRet::Data(Vec::new().into()))
            }
            _ => self.sleep_on(sock, WC_RECV, Cont::RecvCheck { sock, max_len }),
        }
    }

    fn phase_tcp_send(
        &mut self,
        now: SimTime,
        sock: SockId,
        data: FrameBuf,
        off: usize,
    ) -> PhaseOut {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::ret(SimDuration::ZERO, SyscallRet::Err(Errno::ConnReset));
        };
        let Some(conn) = s.tcp.as_ref() else {
            return PhaseOut::ret(SimDuration::ZERO, SyscallRet::Err(Errno::Invalid));
        };
        let stalled = conn.send_space() == 0;
        match conn.state {
            TcpState::Established | TcpState::CloseWait => {}
            TcpState::Closed | TcpState::TimeWait => {
                let e = s.err.unwrap_or(Errno::ConnReset);
                return PhaseOut::ret(SimDuration::ZERO, SyscallRet::Err(e));
            }
            _ => return self.sleep_on(sock, WC_SEND, Cont::TcpSend { sock, data, off }),
        }
        // A4: ACKs are processed lazily in the send call too (any-socket-
        // syscall processing); otherwise a window-stalled sender would
        // deadlock with its peer.
        if stalled {
            let again = Cont::TcpSend {
                sock,
                data: data.clone(),
                off,
            };
            if let Some(out) = self.lazy_step(now, sock, again) {
                return out;
            }
        }
        let ((n, nsegs), tx) = self.tcp_run(now, sock, |conn, out| {
            let n = conn.write_slice_into(now, FrameSlice::new(data.clone(), off..data.len()), out);
            (n, out.segments.len() as u64)
        });
        let dur = cost.copy(n) + cost.tcp_output * nsegs.min(1) + tx;
        let new_off = off + n;
        if new_off >= data.len() {
            PhaseOut::ret(dur, SyscallRet::Sent(data.len()))
        } else if n > 0 {
            PhaseOut::sys(
                dur,
                Cont::TcpSend {
                    sock,
                    data,
                    off: new_off,
                },
            )
        } else {
            self.sleep_on(sock, WC_SEND, Cont::TcpSend { sock, data, off })
        }
    }

    fn phase_accept(&mut self, now: SimTime, pid: Pid, sock: SockId) -> PhaseOut {
        let cost = self.cfg.cost;
        if self.sock_opt(sock).is_none_or(|s| s.listen.is_none()) {
            return PhaseOut::ret(SimDuration::ZERO, SyscallRet::Err(Errno::Invalid));
        }
        // A4: handshake processing happens lazily in the accept call
        // itself.
        if self.listening(sock).expect("listener").accept_q.is_empty() {
            if let Some(out) = self.lazy_step(now, sock, Cont::AcceptCheck { sock }) {
                return out;
            }
        }
        let (l, socks) = self.listen_queues(sock).expect("listener");
        if let Some(child) = l.accept_q.pop_front(socks) {
            l.state.on_accept();
            // The accepting process becomes the owner (charging target).
            self.set_owner(child, pid);
            return PhaseOut::ret(cost.accept_sock, SyscallRet::Accepted(child));
        }
        self.sleep_on(sock, WC_ACCEPT, Cont::AcceptCheck { sock })
    }

    fn do_close(&mut self, now: SimTime, sock: SockId) -> SimDuration {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return SimDuration::ZERO;
        };
        let has_tcp = s.tcp.is_some();
        self.sock_mut(sock).closed_by_app = true;
        if has_tcp {
            let (already_closed, tx) = self.tcp_run(now, sock, |conn, out| {
                conn.close_into(now, out);
                conn.is_closed()
            });
            if already_closed {
                self.teardown_tcp_sock(sock);
                self.free_socket(sock);
            }
            cost.accept_sock + tx
        } else {
            // A closing listener reaps its children first: embryonic
            // (half-open) connections die silently — their peers are mid-
            // handshake and time out, exactly as under SYN-cache eviction
            // — and completed-but-unaccepted connections are aborted with
            // an RST (BSD `soabort`). Without this, a close during a SYN
            // flood would leak every child socket, its NI channel and the
            // frames queued on it.
            let mut reap = SimDuration::ZERO;
            if self.sock(sock).listen.is_some() {
                while let Some(victim) = self.listening(sock).and_then(|l| l.half_open.front()) {
                    // Silent teardown, which takes the child off the
                    // queue; the orphan path frees the slot and flushes
                    // the child's channel.
                    self.set_conn(victim, None);
                    self.teardown_tcp_sock(victim);
                }
                while let Some(child) = self
                    .listen_queues(sock)
                    .and_then(|(l, socks)| l.accept_q.pop_front(socks))
                {
                    self.sock_mut(child).closed_by_app = true;
                    if self.sock(child).tcp.is_some() {
                        reap += self.tcp_run(now, child, |conn, out| conn.abort_into(out)).1;
                    } else {
                        self.free_socket(child);
                    }
                }
            }
            // UDP (or the reaped listener): free immediately.
            self.free_socket(sock);
            cost.accept_sock + reap
        }
    }

    /// Overrides the charge target of the next started chunk: APP and
    /// idle kernel threads bill their protocol work to the application
    /// that owns the socket (§3.4).
    pub(crate) fn charge_override(&mut self, thread: Pid, target: Pid) {
        self.pending_charge = (thread != target).then_some(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;
    use lrp_wire::Ipv4Addr;

    /// A NI-LRP host with one TCP socket bound to port 5000, whose NIC's
    /// demux table is filled to its load bound; the last filler key comes
    /// back so a test can free its slot.
    fn full_table() -> (Host, Pid, SockId, FlowKey) {
        let addr = Ipv4Addr::new(10, 0, 0, 2);
        let mut h = Host::new(HostConfig::new(Architecture::NiLrp), addr);
        let pid = Pid(0);
        let sock = h.alloc_sock(pid, SockProto::Tcp);
        assert_eq!(h.do_bind(sock, 5000), SyscallRet::Ok);
        let spare = h.sock(sock).chan.expect("bound on NI-LRP");
        let filler = |i: u16| {
            let peer = Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), i);
            FlowKey::new(proto::TCP, Endpoint::new(addr, 9), peer)
        };
        let mut fillers = 0;
        while h.nic.demux.register(filler(fillers), spare).is_ok() {
            fillers += 1;
        }
        (h, pid, sock, filler(fillers - 1))
    }

    /// A connect whose exact demux filter the NIC's table refuses, at
    /// its load bound, fails with `NoBufs` and leaves no PCB entry, peer
    /// or connection behind; once a slot frees, the same connect goes
    /// through.
    #[test]
    fn a_connect_the_full_demux_table_refuses_fails_with_nobufs() {
        let (mut h, pid, sock, last) = full_table();
        let dst = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 80);
        let key = FlowKey::new(proto::TCP, Endpoint::new(h.addr, 5000), dst);
        let connect = SyscallOp::Connect { sock, dst };
        let out = h.begin_op(SimTime::ZERO, pid, connect.clone());
        assert!(matches!(
            out,
            PhaseOut::Run {
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::NoBufs)),
                ..
            }
        ));
        assert!(!h.pcb.contains(&key));
        assert!(h.sock(sock).remote.is_none() && h.sock(sock).tcp.is_none());

        h.nic.demux.unregister(&last).expect("a filler");
        let out = h.begin_op(SimTime::ZERO, pid, connect);
        assert!(matches!(
            out,
            PhaseOut::Run {
                next: Cont::ConnectCheck { .. },
                ..
            }
        ));
        assert!(h.pcb.contains(&key));
        assert_eq!(h.sock(sock).remote, Some(dst));
    }

    /// A bind whose wildcard demux filter the full table refuses fails
    /// with `NoBufs` and undoes itself: no PCB entry, local address or NI
    /// channel stays behind. Once a slot frees, the same bind goes
    /// through.
    #[test]
    fn a_bind_the_full_demux_table_refuses_fails_with_nobufs_and_leaves_nothing() {
        let (mut h, pid, _, last) = full_table();
        let sock = h.alloc_sock(pid, SockProto::Tcp);
        let key = FlowKey::listening(proto::TCP, Endpoint::new(h.addr, 6000));
        let channels = h.chan_to_sock.len();
        assert_eq!(h.do_bind(sock, 6000), SyscallRet::Err(Errno::NoBufs));
        assert!(!h.pcb.contains(&key));
        assert!(h.sock(sock).local.is_none() && h.sock(sock).chan.is_none());
        assert_eq!(h.chan_to_sock.len(), channels, "no channel stays mapped");

        h.nic.demux.unregister(&last).expect("a filler");
        assert_eq!(h.do_bind(sock, 6000), SyscallRet::Ok);
        assert!(h.pcb.contains(&key));
        assert_eq!(h.chan_to_sock.len(), channels + 1);
    }
}
