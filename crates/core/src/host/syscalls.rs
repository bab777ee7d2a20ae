//! The system-call phase machine: decomposes each operation into
//! cost-bearing kernel phases, with architecture-specific receive paths.

use super::{sock_wchan, Cont, Host, PhaseOut, WC_ACCEPT, WC_CONNECT, WC_RECV, WC_SEND};
use crate::config::Architecture;
use crate::host::proto::ProtoCtx;
use crate::syscall::{AppCtx, Errno, SockProto, SyscallOp, SyscallRet};
use lrp_sched::{Account, Pid, WaitChannel, PPAUSE, PSOCK};
use lrp_sim::{SimDuration, SimTime};
use lrp_stack::tcp::{TcpConn, TcpListener, TcpState};
use lrp_stack::SockId;
use lrp_wire::{proto, udp, Endpoint, FlowKey, FrameBuf, FrameSlice};

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
                PhaseOut::Run {
                    dur: SimDuration::ZERO,
                    account: Account::System,
                    next: Cont::SyscallEntry(op),
                }
            }
            Cont::SyscallEntry(op) => self.begin_op(now, pid, op),
            Cont::SyscallReturn(ret) => {
                self.sched.return_to_user(pid);
                PhaseOut::Run {
                    dur: cost.syscall_return,
                    account: Account::System,
                    next: Cont::AppNext(ret),
                }
            }
            Cont::ComputeSlice(remaining) => {
                let slice = remaining.min(self.cfg.quantum);
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
            Cont::RecvCheck { sock, max_len } => self.phase_recv_check(now, pid, sock, max_len),
            Cont::TcpSend { sock, data, off } => self.phase_tcp_send(now, pid, sock, data, off),
            Cont::AcceptCheck { sock } => self.phase_accept(now, pid, sock),
            Cont::ConnectCheck { sock } => self.phase_connect_check(now, pid, sock),
            Cont::AppThreadStep => match self.app_thread_step(now) {
                Some((dur, owner)) => {
                    // Charge to the owning application (§3.4); the chunk's
                    // charge target is overridden below via a trick: we
                    // run the APP thread chunk but account to the owner.
                    self.charge_override(pid, owner);
                    PhaseOut::Run {
                        dur,
                        account: Account::System,
                        next: Cont::AppThreadStep,
                    }
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
                        pri: lrp_sched::PSOCK,
                        resume: Cont::AppThreadStep,
                    }
                }
            },
            Cont::ForwardStep => match self.forward_step(now) {
                Some(dur) => PhaseOut::Run {
                    dur,
                    account: Account::System,
                    next: Cont::ForwardStep,
                },
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
                    PhaseOut::Run {
                        dur,
                        account: Account::System,
                        next: Cont::IdleThreadStep,
                    }
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
                self.sleep_until.entry(wake_at).or_default().push(pid);
                PhaseOut::Block {
                    wchan: WaitChannel(0xFFFF_0000 + pid.0 as u64),
                    pri: PPAUSE,
                    resume: Cont::SyscallReturn(SyscallRet::Ok),
                }
            }
            SyscallOp::Socket(p) => {
                let sock = self.alloc_sock(pid, p);
                PhaseOut::Run {
                    dur: entry + cost.accept_sock,
                    account: Account::System,
                    next: Cont::SyscallReturn(SyscallRet::Socket(sock)),
                }
            }
            SyscallOp::Bind { sock, port } => {
                let ret = self.do_bind(sock, port);
                PhaseOut::Run {
                    dur: entry + cost.accept_sock,
                    account: Account::System,
                    next: Cont::SyscallReturn(ret),
                }
            }
            SyscallOp::Listen { sock, backlog } => {
                let ret = self.do_listen(sock, backlog);
                PhaseOut::Run {
                    dur: entry + cost.accept_sock,
                    account: Account::System,
                    next: Cont::SyscallReturn(ret),
                }
            }
            SyscallOp::Connect { sock, dst } => self.do_connect(now, pid, sock, dst, entry),
            SyscallOp::Accept { sock } => PhaseOut::Run {
                dur: entry,
                account: Account::System,
                next: Cont::AcceptCheck { sock },
            },
            SyscallOp::SendTo { sock, dst, data } => {
                let (dur, ret) = self.do_udp_send(now, sock, dst, &data);
                PhaseOut::Run {
                    dur: entry + dur,
                    account: Account::System,
                    next: Cont::SyscallReturn(ret),
                }
            }
            SyscallOp::Send { sock, data } => {
                if self.sock_opt(sock).and_then(|s| s.tcp.as_ref()).is_none() {
                    // Connected UDP socket: send to the default remote.
                    if let Some(dst) = self.sock_opt(sock).and_then(|s| s.remote) {
                        let (dur, ret) = self.do_udp_send(now, sock, dst, &data);
                        return PhaseOut::Run {
                            dur: entry + dur,
                            account: Account::System,
                            next: Cont::SyscallReturn(ret),
                        };
                    }
                    return PhaseOut::Run {
                        dur: entry,
                        account: Account::System,
                        next: Cont::SyscallReturn(SyscallRet::Err(Errno::Invalid)),
                    };
                }
                PhaseOut::Run {
                    dur: entry,
                    account: Account::System,
                    next: Cont::TcpSend { sock, data, off: 0 },
                }
            }
            SyscallOp::Recv { sock, max_len } => {
                // A plain receive invalidates any armed receive timeout.
                self.recv_seq.remove(pid);
                PhaseOut::Run {
                    dur: entry,
                    account: Account::System,
                    next: Cont::RecvCheck { sock, max_len },
                }
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
                    .entry(now + timeout)
                    .or_default()
                    .push((pid, sock, seq));
                PhaseOut::Run {
                    dur: entry,
                    account: Account::System,
                    next: Cont::RecvCheck { sock, max_len },
                }
            }
            SyscallOp::SockDepth { sock } => {
                let depth = self.sock_depth(sock);
                PhaseOut::Run {
                    dur: entry,
                    account: Account::System,
                    next: Cont::SyscallReturn(SyscallRet::Depth(depth)),
                }
            }
            SyscallOp::SockStats { sock } => {
                let ret = match self.sock_stats_of(sock) {
                    Some(st) => SyscallRet::Stats(Box::new(st)),
                    None => SyscallRet::Err(Errno::Invalid),
                };
                PhaseOut::Run {
                    dur: entry,
                    account: Account::System,
                    next: Cont::SyscallReturn(ret),
                }
            }
            SyscallOp::Close { sock } => {
                let dur = self.do_close(now, sock);
                PhaseOut::Run {
                    dur: entry + dur,
                    account: Account::System,
                    next: Cont::SyscallReturn(SyscallRet::Ok),
                }
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
                let local = Endpoint::new(self.addr, 0);
                self.sock_mut(sock).local = Some(local);
                if self.cfg.arch != Architecture::Bsd {
                    let chan = self.nic.create_default_channel();
                    self.sock_mut(sock).chan = Some(chan);
                    self.bind_channel(chan, sock);
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
        if self.cfg.arch != Architecture::Bsd {
            let chan = self.nic.create_default_channel();
            self.sock_mut(sock).chan = Some(chan);
            self.bind_channel(chan, sock);
            if self.nic.demux.register(key, chan).is_err() {
                return SyscallRet::Err(Errno::NoBufs);
            }
            // TCP channels are drained by the APP thread, which may be
            // asleep right now: arm the demand interrupt from the start.
            if ip_proto == proto::TCP {
                self.nic.channel_mut(chan).intr_requested = true;
            }
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
        self.sock_mut(sock).listener = Some(TcpListener::new(local, backlog));
        SyscallRet::Ok
    }

    fn do_connect(
        &mut self,
        now: SimTime,
        _pid: Pid,
        sock: SockId,
        dst: Endpoint,
        entry: SimDuration,
    ) -> PhaseOut {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::Run {
                dur: entry,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::Invalid)),
            };
        };
        let sproto = s.proto;
        // Implicit bind to an ephemeral port.
        if self.sock(sock).local.is_none() {
            let port = self.next_ephemeral();
            let r = self.do_bind(sock, port);
            if r != SyscallRet::Ok {
                return PhaseOut::Run {
                    dur: entry,
                    account: Account::System,
                    next: Cont::SyscallReturn(r),
                };
            }
        }
        let local = self.sock(sock).local.expect("bound above");
        self.sock_mut(sock).remote = Some(dst);
        match sproto {
            SockProto::Udp | SockProto::Icmp => {
                // Connected datagram/raw socket: remember the default
                // destination.
                PhaseOut::Run {
                    dur: entry + cost.accept_sock,
                    account: Account::System,
                    next: Cont::SyscallReturn(SyscallRet::Ok),
                }
            }
            SockProto::Tcp => {
                let ip_proto = proto::TCP;
                let key = FlowKey::new(ip_proto, local, dst);
                let _ = self.pcb.insert(key, sock);
                if self.cfg.arch != Architecture::Bsd {
                    // The connected socket's channel gets an exact filter.
                    if let Some(chan) = self.sock(sock).chan {
                        let _ = self.nic.demux.register(key, chan);
                    }
                }
                let iss = self.next_iss();
                let conn = TcpConn::new(self.tcp_config(), local, dst, iss);
                self.set_conn(sock, Some(conn));
                let ((), tx) = self.tcp_run(now, sock, |conn, out| conn.connect_into(now, out));
                PhaseOut::Run {
                    dur: entry + cost.tcp_output + tx,
                    account: Account::System,
                    next: Cont::ConnectCheck { sock },
                }
            }
        }
    }

    fn phase_connect_check(&mut self, _now: SimTime, _pid: Pid, sock: SockId) -> PhaseOut {
        // Ablation A4: without the APP thread, handshake segments are
        // processed lazily in the blocked connect call.
        if self.cfg.arch.is_lrp() && !self.cfg.tcp_app_processing {
            if let Some(chan) = self.sock_opt(sock).and_then(|s| s.chan) {
                if self.nic.channel_exists(chan) {
                    if let Some(frame) = self.chan_dequeue(_now, chan) {
                        let dur = self.ip_deliver(_now, frame, ProtoCtx::Lrp { sock, lazy: true });
                        return PhaseOut::Run {
                            dur,
                            account: Account::System,
                            next: Cont::ConnectCheck { sock },
                        };
                    }
                }
            }
        }
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::ConnReset)),
            };
        };
        match s.tcp.as_ref().map(|t| t.state) {
            Some(TcpState::Established)
            | Some(TcpState::FinWait1)
            | Some(TcpState::FinWait2)
            | Some(TcpState::CloseWait) => PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Ok),
            },
            Some(TcpState::Closed) | None => {
                let e = self.sock(sock).err.unwrap_or(Errno::ConnRefused);
                PhaseOut::Run {
                    dur: SimDuration::ZERO,
                    account: Account::System,
                    next: Cont::SyscallReturn(SyscallRet::Err(e)),
                }
            }
            _ => PhaseOut::Block {
                wchan: sock_wchan(sock, WC_CONNECT),
                pri: PSOCK,
                resume: Cont::ConnectCheck { sock },
            },
        }
    }

    fn do_udp_send(
        &mut self,
        now: SimTime,
        sock: SockId,
        dst: Endpoint,
        data: &[u8],
    ) -> (SimDuration, SyscallRet) {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return (SimDuration::ZERO, SyscallRet::Err(Errno::Invalid));
        };
        if s.proto == SockProto::Icmp {
            return self.do_icmp_send(dst, data);
        }
        if s.proto != SockProto::Udp {
            return (SimDuration::ZERO, SyscallRet::Err(Errno::Invalid));
        }
        // Implicit bind.
        if self.sock(sock).local.is_none() {
            let port = self.next_ephemeral();
            let r = self.do_bind(sock, port);
            if r != SyscallRet::Ok {
                return (SimDuration::ZERO, r);
            }
        }
        let local = self.sock(sock).local.expect("bound");
        let ident = self.next_ident();
        let seg = udp::build(
            local.addr,
            dst.addr,
            local.port,
            dst.port,
            data,
            self.cfg.udp_checksum,
        );
        let frames =
            lrp_wire::ipv4::fragment(local.addr, dst.addr, proto::UDP, ident, &seg, self.cfg.mtu);
        // The fragments copied the segment: its arena scratch goes back.
        lrp_wire::buf::recycle(seg);
        let nfrags = frames.len() as u64;
        let mut dur = cost.copy(data.len()) + cost.udp_output;
        if self.cfg.udp_checksum {
            dur += cost.csum(data.len());
        }
        dur += (cost.ip_output + cost.driver_tx_per_pkt) * nfrags;
        // Causal trace: the reply continues the span of the request this
        // process most recently received (or mints a fresh one).
        let owner = self.sock(sock).owner;
        let cpu = self.cur_cpu;
        let span = self.tele.on_tx(now, cpu, owner.0);
        let mut dropped = false;
        for f in frames {
            if !self.ifq_enqueue_spanned(lrp_wire::Frame::ipv4(f), span) {
                self.stats.drop_at(super::DropPoint::IfQueue);
                dropped = true;
            }
        }
        let ret = if dropped {
            SyscallRet::Err(Errno::NoBufs)
        } else {
            SyscallRet::Sent(data.len())
        };
        (dur, ret)
    }

    /// Sends a raw ICMP message (the payload is the complete ICMP
    /// message bytes) to `dst`.
    fn do_icmp_send(&mut self, dst: Endpoint, data: &[u8]) -> (SimDuration, SyscallRet) {
        let cost = self.cfg.cost;
        let ident = self.next_ident();
        let frames =
            lrp_wire::ipv4::fragment(self.addr, dst.addr, proto::ICMP, ident, data, self.cfg.mtu);
        let nfrags = frames.len() as u64;
        let dur = cost.copy(data.len())
            + cost.udp_output
            + (cost.ip_output + cost.driver_tx_per_pkt) * nfrags;
        let mut dropped = false;
        for f in frames {
            if !self.ifq_enqueue_spanned(lrp_wire::Frame::ipv4(f), None) {
                self.stats.drop_at(super::DropPoint::IfQueue);
                dropped = true;
            }
        }
        let ret = if dropped {
            SyscallRet::Err(Errno::NoBufs)
        } else {
            SyscallRet::Sent(data.len())
        };
        (dur, ret)
    }

    /// The receive phase: delivers ready data, lazily processes raw
    /// channel packets (LRP), or blocks.
    fn phase_recv_check(
        &mut self,
        now: SimTime,
        _pid: Pid,
        sock: SockId,
        max_len: usize,
    ) -> PhaseOut {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::Invalid)),
            };
        };
        let is_tcp = s.tcp.is_some();
        if is_tcp {
            return self.phase_tcp_recv(now, sock, max_len);
        }
        // UDP: ready data first.
        if !self.sock(sock).rcvq.is_empty() {
            let d = self.sock_mut(sock).rcvq.dequeue().expect("checked");
            let n = d.payload.len().min(max_len);
            let dur = cost.sock_dequeue + cost.copy(n);
            let cpu = self.cur_cpu;
            let owner = self.sock(sock).owner;
            self.tele.on_recv(now, cpu, sock.0 as u64, owner.0);
            // A user buffer smaller than the datagram truncates it (copy);
            // the common full-size receive hands the buffer over as-is.
            let payload = if n < d.payload.len() {
                lrp_wire::FrameBuf::from(&d.payload[..n])
            } else {
                d.payload
            };
            return PhaseOut::Run {
                dur,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::DataFrom(d.from, payload)),
            };
        }
        // LRP: lazily process one raw packet from the NI channel.
        if self.cfg.arch.is_lrp() {
            if let Some(chan) = self.sock(sock).chan {
                if self.nic.channel_exists(chan) {
                    if let Some(frame) = self.chan_dequeue(now, chan) {
                        let dur = self.ip_deliver(now, frame, ProtoCtx::Lrp { sock, lazy: true });
                        return PhaseOut::Run {
                            dur,
                            account: Account::System,
                            next: Cont::RecvCheck { sock, max_len },
                        };
                    }
                }
            }
            // Misordered fragments may be parked on the special fragment
            // channel (§3.2): reassemble and route them before sleeping.
            if !self.nic.channel(self.nic.fragment_channel).is_empty() {
                let dur = self.pump_fragment_channel(now);
                return PhaseOut::Run {
                    dur: dur.max(SimDuration::from_nanos(1)),
                    account: Account::System,
                    next: Cont::RecvCheck { sock, max_len },
                };
            }
            // Ask the NI to interrupt when the channel goes non-empty.
            self.request_channel_interrupt(sock);
        }
        PhaseOut::Block {
            wchan: sock_wchan(sock, WC_RECV),
            pri: PSOCK,
            resume: Cont::RecvCheck { sock, max_len },
        }
    }

    fn phase_tcp_recv(&mut self, now: SimTime, sock: SockId, max_len: usize) -> PhaseOut {
        let cost = self.cfg.cost;
        // Ablation A4: without the APP thread, TCP receiver processing
        // happens only here, in the receive call (§3.4's rejected design).
        if self.cfg.arch.is_lrp() && !self.cfg.tcp_app_processing {
            if let Some(chan) = self.sock(sock).chan {
                if self.nic.channel_exists(chan) {
                    if let Some(frame) = self.chan_dequeue(now, chan) {
                        let dur = self.ip_deliver(now, frame, ProtoCtx::Lrp { sock, lazy: true });
                        return PhaseOut::Run {
                            dur,
                            account: Account::System,
                            next: Cont::RecvCheck { sock, max_len },
                        };
                    }
                }
            }
        }
        let conn = self.sock(sock).tcp.as_ref().expect("tcp socket");
        if conn.available() > 0 {
            let (data, tx) = self.tcp_run(now, sock, |conn, out| conn.read_into(max_len, out));
            let n = data.len();
            self.stats.tcp_delivered_bytes += n as u64;
            let cpu = self.cur_cpu;
            let owner = self.sock(sock).owner;
            self.tele.on_recv(now, cpu, sock.0 as u64, owner.0);
            return PhaseOut::Run {
                dur: cost.sock_dequeue + cost.copy(n) + tx,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Data(data.into())),
            };
        }
        // A dead connection reports *why* it died (RST, retransmit
        // give-up, keepalive abort) — after any buffered data has been
        // drained above, and before the orderly-EOF path below can
        // mistake an abort for end-of-stream.
        if let Some(e) = self.sock(sock).err {
            return PhaseOut::Run {
                dur: cost.sock_dequeue,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(e)),
            };
        }
        // End of stream or dead connection?
        let state = self.sock(sock).tcp.as_ref().expect("tcp").state;
        match state {
            TcpState::CloseWait
            | TcpState::Closing
            | TcpState::LastAck
            | TcpState::TimeWait
            | TcpState::Closed => PhaseOut::Run {
                dur: cost.sock_dequeue,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Data(Vec::new().into())),
            },
            _ => PhaseOut::Block {
                wchan: sock_wchan(sock, WC_RECV),
                pri: PSOCK,
                resume: Cont::RecvCheck { sock, max_len },
            },
        }
    }

    fn phase_tcp_send(
        &mut self,
        now: SimTime,
        _pid: Pid,
        sock: SockId,
        data: FrameBuf,
        off: usize,
    ) -> PhaseOut {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::ConnReset)),
            };
        };
        let Some(state) = s.tcp.as_ref().map(|t| t.state) else {
            return PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::Invalid)),
            };
        };
        match state {
            TcpState::Established | TcpState::CloseWait => {}
            TcpState::Closed | TcpState::TimeWait => {
                let e = self.sock(sock).err.unwrap_or(Errno::ConnReset);
                return PhaseOut::Run {
                    dur: SimDuration::ZERO,
                    account: Account::System,
                    next: Cont::SyscallReturn(SyscallRet::Err(e)),
                };
            }
            _ => {
                return PhaseOut::Block {
                    wchan: sock_wchan(sock, WC_SEND),
                    pri: PSOCK,
                    resume: Cont::TcpSend { sock, data, off },
                };
            }
        }
        // Ablation A4: without the APP thread, ACKs are processed lazily
        // in the send call too (any-socket-syscall processing); otherwise
        // a window-stalled sender would deadlock with its peer.
        if self.cfg.arch.is_lrp()
            && !self.cfg.tcp_app_processing
            && self
                .sock(sock)
                .tcp
                .as_ref()
                .is_some_and(|t| t.send_space() == 0)
        {
            if let Some(chan) = self.sock(sock).chan {
                if self.nic.channel_exists(chan) {
                    if let Some(frame) = self.chan_dequeue(now, chan) {
                        let dur = self.ip_deliver(now, frame, ProtoCtx::Lrp { sock, lazy: true });
                        return PhaseOut::Run {
                            dur,
                            account: Account::System,
                            next: Cont::TcpSend { sock, data, off },
                        };
                    }
                }
            }
        }
        let ((n, nsegs), tx) = self.tcp_run(now, sock, |conn, out| {
            let n = conn.write_slice_into(now, FrameSlice::new(data.clone(), off..data.len()), out);
            (n, out.segments.len() as u64)
        });
        let dur = cost.copy(n) + cost.tcp_output * nsegs.min(1) + tx;
        let new_off = off + n;
        if new_off >= data.len() {
            let total = data.len();
            PhaseOut::Run {
                dur,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Sent(total)),
            }
        } else if n > 0 {
            PhaseOut::Run {
                dur,
                account: Account::System,
                next: Cont::TcpSend {
                    sock,
                    data,
                    off: new_off,
                },
            }
        } else {
            PhaseOut::Block {
                wchan: sock_wchan(sock, WC_SEND),
                pri: PSOCK,
                resume: Cont::TcpSend { sock, data, off },
            }
        }
    }

    fn phase_accept(&mut self, _now: SimTime, _pid: Pid, sock: SockId) -> PhaseOut {
        let cost = self.cfg.cost;
        let Some(s) = self.sock_opt(sock) else {
            return PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::Invalid)),
            };
        };
        if s.listener.is_none() {
            return PhaseOut::Run {
                dur: SimDuration::ZERO,
                account: Account::System,
                next: Cont::SyscallReturn(SyscallRet::Err(Errno::Invalid)),
            };
        }
        // Ablation A4: without the APP thread, handshake processing (the
        // SYN on the listener's channel, the final ACK on an embryonic
        // child's channel) happens lazily in the accept call itself.
        if self.cfg.arch.is_lrp()
            && !self.cfg.tcp_app_processing
            && self.sock(sock).accept_q.is_empty()
        {
            let mut targets: Vec<SockId> = vec![sock];
            targets.extend(
                self.sockets
                    .iter()
                    .flatten()
                    .filter(|s| s.parent == Some(sock))
                    .map(|s| s.id),
            );
            for t in targets {
                let Some(chan) = self.sock(t).chan else {
                    continue;
                };
                if !self.nic.channel_exists(chan) {
                    continue;
                }
                if let Some(frame) = self.chan_dequeue(_now, chan) {
                    let dur = self.ip_deliver(
                        _now,
                        frame,
                        ProtoCtx::Lrp {
                            sock: t,
                            lazy: true,
                        },
                    );
                    return PhaseOut::Run {
                        dur,
                        account: Account::System,
                        next: Cont::AcceptCheck { sock },
                    };
                }
            }
        }
        if let Some(child) = self.sock_mut(sock).accept_q.pop_front() {
            if let Some(l) = self.sock_mut(sock).listener.as_mut() {
                l.on_accept();
            }
            // The accepting process becomes the owner (charging target).
            if self.sock_opt(child).is_some() {
                self.set_owner(child, _pid);
                return PhaseOut::Run {
                    dur: cost.accept_sock,
                    account: Account::System,
                    next: Cont::SyscallReturn(SyscallRet::Accepted(child)),
                };
            }
            // The child died while queued; try again.
            return PhaseOut::Run {
                dur: cost.accept_sock,
                account: Account::System,
                next: Cont::AcceptCheck { sock },
            };
        }
        PhaseOut::Block {
            wchan: sock_wchan(sock, WC_ACCEPT),
            pri: PSOCK,
            resume: Cont::AcceptCheck { sock },
        }
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
            if self.sock(sock).listener.is_some() {
                while let Some(victim) = self
                    .sock(sock)
                    .listener
                    .as_ref()
                    .and_then(|l| l.oldest_half_open())
                {
                    if self.sock_opt(victim).is_none() {
                        // Stale entry: drop it and keep draining.
                        if let Some(l) = self.sock_mut(sock).listener.as_mut() {
                            l.untrack_half_open(victim);
                        }
                        continue;
                    }
                    // Silent teardown; the orphan path frees the slot and
                    // flushes the child's channel.
                    self.set_conn(victim, None);
                    self.teardown_tcp_sock(victim);
                }
                let pending: Vec<SockId> = self.sock(sock).accept_q.iter().copied().collect();
                for child in pending {
                    if self.sock_opt(child).is_none() {
                        continue;
                    }
                    self.sock_mut(child).closed_by_app = true;
                    if self.sock(child).tcp.is_some() {
                        reap += self.tcp_run(now, child, |conn, out| conn.abort_into(out)).1;
                    } else {
                        self.free_socket(child);
                    }
                }
                if let Some(s) = self
                    .sockets
                    .get_mut(sock.0 as usize)
                    .and_then(|x| x.as_mut())
                {
                    s.accept_q.clear();
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
