//! The simulated server host: one or more CPUs, a scheduler, a NIC and
//! the protocol stack, glued together under one of the paper's four
//! architectures.
//!
//! # Execution model
//!
//! The host is driven by the [`World`](crate::world::World): frames arrive
//! via [`Host::on_frame_span`], CPU work completions via
//! [`Host::on_cpu_complete`], kernel timers via [`Host::on_timer`], and
//! the statclock via [`Host::on_tick`]. The host never blocks; it models
//! each CPU as a resource executing *work chunks* with three preemption
//! levels, highest first:
//!
//! 1. **Hardware interrupts** — run to completion, queue FIFO behind each
//!    other, preempt everything else.
//! 2. **Software interrupts** (BSD / Early-Demux protocol processing, TCP
//!    timers) — preempted by hardware interrupts, preempt processes.
//! 3. **Processes** — scheduled by the 4.3BSD decay scheduler; system
//!    calls decompose into cost-bearing phases.
//!
//! Protocol *logic* executes at chunk start (exact at interrupt level,
//! and equivalent on a uniprocessor for the rest, since nothing else can
//! observe intermediate state while the chunk occupies the CPU); the chunk
//! then occupies the CPU for the modelled cost, charged to a process
//! according to the architecture's accounting policy — the paper's central
//! lever.
//!
//! With `ncpus > 1` ([`HostConfig::ncpus`]) the host models an SMP
//! machine: each CPU keeps its own run queue, interrupt/softirq suspend
//! state and generation counter, NIC RX interrupts are steered to the
//! queue's target CPU (`rxq % ncpus`), and a wakeup that makes a process
//! runnable on another CPU posts an IPI whose delivery cost is paid on
//! the target. `ncpus = 1` reproduces the classic uniprocessor host
//! bit-for-bit.

mod cpu;
mod deadlines;
mod index;
mod ledger;
mod listq;
mod pidmap;
mod proto;
mod rx;
mod socktab;
mod syscalls;

use crate::config::{Architecture, HostConfig, TICK};
use crate::hostfault::{FaultKind, HostFaultPlan, HostFaultState};
use crate::syscall::{AppLogic, Errno, SockProto, SyscallOp, SyscallRet};
use deadlines::DeadlineHeap;
use index::SockSet;
pub use ledger::PacketLedger;
use listq::{LinkStore, Links, SockList};
use lrp_demux::ChannelId;
use lrp_nic::{DemuxMode, Nic};
use lrp_sched::{Account, Pid, SchedConfig, Scheduler, WaitChannel};
use lrp_sim::{EventQueue, FastHashMap, SimDuration, SimTime};
use lrp_stack::sockbuf::DatagramQueue;
use lrp_stack::tcp::{Actions, PooledConn, TcpListener, TcpStats};
use lrp_stack::{PcbTable, Reassembler, SockId};
use lrp_wire::{Endpoint, FlowKey, Frame, FrameBuf, Ipv4Addr};
use pidmap::PidMap;
use socktab::SockTable;
use std::collections::VecDeque;

/// Where a packet was dropped — the paper's instrumentation distinguishes
/// exactly these points to explain each architecture's overload behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropPoint {
    /// NIC receive ring overrun (host not servicing interrupts).
    RxRing,
    /// Early discard at an NI channel (LRP) or at demux time (Early-Demux).
    Channel,
    /// The shared IP queue overflowed (BSD beyond ~15k pkts/s).
    IpQueue,
    /// The socket receive buffer was full — BSD pays full protocol
    /// processing before discovering this.
    SockBuf,
    /// Checksum or header validation failed in protocol processing.
    BadPacket,
    /// No socket bound to the destination port.
    NoSocket,
    /// Listen backlog exceeded (SYN dropped after processing — BSD path).
    Backlog,
    /// Reassembly gave up (table full or timeout).
    Reasm,
    /// Interface (transmit) queue overflow.
    IfQueue,
    /// NIC receive path stalled (injected device fault); the frame died
    /// on the device, not in the host. The ledger accounts these from NIC
    /// statistics (`stall_drops`); this point only feeds host statistics.
    NicStall,
    /// UDP datagram to a closed port, answered with ICMP port
    /// unreachable. Distinct from [`DropPoint::NoSocket`] (demux-time
    /// no-match), which never reaches protocol processing and so sends
    /// no ICMP — the LRP discipline.
    PortUnreach,
}

impl DropPoint {
    /// Every drop point, indexed by `DropPoint as usize`.
    const ALL: [DropPoint; 11] = [
        DropPoint::RxRing,
        DropPoint::Channel,
        DropPoint::IpQueue,
        DropPoint::SockBuf,
        DropPoint::BadPacket,
        DropPoint::NoSocket,
        DropPoint::Backlog,
        DropPoint::Reasm,
        DropPoint::IfQueue,
        DropPoint::NicStall,
        DropPoint::PortUnreach,
    ];

    /// Stable names used in telemetry output, indexed by `DropPoint as
    /// usize`.
    pub(crate) const NAMES: [&'static str; 11] = [
        "RxRing",
        "Channel",
        "IpQueue",
        "SockBuf",
        "BadPacket",
        "NoSocket",
        "Backlog",
        "Reasm",
        "IfQueue",
        "NicStall",
        "PortUnreach",
    ];

    /// Stable name used in telemetry output.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Drops by [`DropPoint`], each counted once, in one array: row
/// `[p][LEDGER]` holds the frames the host accepted that died at `p` (the
/// packet ledger's host-drop bucket), row `[p][OTHER]` the drops outside
/// the ledger (on the NIC, on the transmit and forward paths, in TCP after
/// its frame was counted, at reassembly expiry). Readers see their sum.
#[derive(Clone, Debug, Default)]
pub struct DropCounts {
    counts: [[u64; 2]; DropPoint::ALL.len()],
}

/// [`DropCounts`] row of a drop the packet ledger counts.
const LEDGER: usize = 0;
/// [`DropCounts`] row of a drop outside the packet ledger.
const OTHER: usize = 1;

impl DropCounts {
    /// Drops at `p`.
    pub fn get(&self, p: DropPoint) -> u64 {
        self.counts[p as usize].iter().sum()
    }

    /// Drops at every point.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// `(point, drops)` for each point with any, in `DropPoint` order.
    pub fn iter(&self) -> impl Iterator<Item = (DropPoint, u64)> + '_ {
        DropPoint::ALL
            .into_iter()
            .map(|p| (p, self.get(p)))
            .filter(|&(_, n)| n > 0)
    }

    /// Frames the host accepted that died at `p`: the ledger's count.
    fn ledger(&self, p: DropPoint) -> u64 {
        self.counts[p as usize][LEDGER]
    }

    /// Frames the host accepted that died, at every point.
    fn ledger_total(&self) -> u64 {
        self.counts.iter().map(|c| c[LEDGER]).sum()
    }

    /// Counts one drop at `p` in `row`.
    fn add(&mut self, p: DropPoint, row: usize) {
        self.counts[p as usize][row] += 1;
    }
}

/// Aggregate host statistics.
#[derive(Clone, Debug, Default)]
pub struct HostStats {
    /// UDP datagrams delivered to applications.
    pub udp_delivered: u64,
    /// UDP payload bytes delivered to applications.
    pub udp_delivered_bytes: u64,
    /// TCP payload bytes delivered to applications.
    pub tcp_delivered_bytes: u64,
    /// Packet drops by location.
    pub drops: DropCounts,
    /// Hardware interrupt work chunks executed.
    pub hw_chunks: u64,
    /// Software interrupt jobs executed.
    pub soft_jobs: u64,
    /// Context switches between different processes.
    pub ctx_switches: u64,
    /// TCP connections fully established (passive side).
    pub tcp_accepted: u64,
    /// Inter-processor interrupts posted for cross-CPU wakeups (SMP).
    pub ipis: u64,
    /// TCP counters folded in from freed sockets. Live connections still
    /// hold theirs — use [`Host::tcp_totals`] for the complete picture.
    pub tcp_closed: TcpStats,
    /// ICMP port-unreachable replies emitted for UDP to closed ports.
    pub icmp_unreach_sent: u64,
}

impl HostStats {
    /// Records a drop at the given point, outside the packet ledger
    /// (`Host::drop_frame` records the ledger's).
    pub fn drop_at(&mut self, p: DropPoint) {
        self.drops.add(p, OTHER);
    }

    /// Count of drops at a point.
    pub fn dropped(&self, p: DropPoint) -> u64 {
        self.drops.get(p)
    }

    /// Total drops across all points.
    pub fn total_drops(&self) -> u64 {
        self.drops.total()
    }
}

/// The BSD shared IP queue's limit, in frames (`ipqmaxlen` in 4.4BSD).
pub(crate) const IP_QUEUE_LIMIT: usize = 50;

/// UDP socket receive-buffer limit, in bytes.
const SOCKBUF_LIMIT: usize = 41_600;

/// Maximum sockets, and so NI channels and demux filters, per host.
const MAX_SOCKETS: usize = 4096;

/// Interval between scheduler decay passes (`schedcpu` runs at 1 Hz).
const DECAY_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Statclock ticks per decay pass.
const DECAY_TICKS: u64 = DECAY_INTERVAL.as_nanos() / TICK.as_nanos();

/// Wait-channel kinds hung off a socket.
pub(crate) const WC_RECV: u64 = 0;
pub(crate) const WC_SEND: u64 = 1;
pub(crate) const WC_ACCEPT: u64 = 2;
pub(crate) const WC_CONNECT: u64 = 3;

pub(crate) fn sock_wchan(sock: SockId, kind: u64) -> WaitChannel {
    WaitChannel((sock.0 as u64) * 8 + kind)
}

/// Wait channel for the APP kernel thread.
pub(crate) const WC_APP_THREAD: WaitChannel = WaitChannel(1 << 60);
/// Wait channel for the idle protocol thread.
pub(crate) const WC_IDLE_THREAD: WaitChannel = WaitChannel((1 << 60) + 1);
/// Wait channel for the IP forwarding daemon.
pub(crate) const WC_FORWARD: WaitChannel = WaitChannel((1 << 60) + 2);

/// A socket in the host's socket table.
#[derive(Debug)]
pub(crate) struct Socket {
    pub id: SockId,
    pub owner: Pid,
    pub proto: SockProto,
    pub local: Option<Endpoint>,
    pub remote: Option<Endpoint>,
    /// The NI channel (LRP and Early-Demux architectures).
    pub chan: Option<ChannelId>,
    /// UDP receive queue: the socket queue (BSD/ED) or the processed-
    /// and-ready queue (LRP).
    pub rcvq: DatagramQueue,
    /// TCP connection state. Mutated only through [`Host::with_conn`] and
    /// [`Host::set_conn`], which keep the host's deadline index and cwnd
    /// gauge in step.
    /// Boxed so the socket table's slots do not each carry half a
    /// kilobyte of connection; the box comes from, and on drop returns
    /// to, the thread's connection pool.
    pub tcp: Option<PooledConn>,
    /// The connection's `(cwnd, ssthresh)` as the cwnd gauge last read
    /// it (`None` without a connection); current unless `cwnd_dirty`.
    pub cwnd_key: Option<(u64, u64)>,
    /// The connection changed since the last tick: this socket is on
    /// `Host::cwnd_dirty` (at most once).
    pub cwnd_dirty: bool,
    /// This socket is queued in `Host::tcp_timer_work` (at most once).
    pub timer_queued: bool,
    /// Where its listening state is in `Host::listeners`, if it listens.
    pub listen: Option<u32>,
    /// For passive children: the listening socket.
    pub parent: Option<SockId>,
    /// A passive child's neighbours on the parent's half-open or accept
    /// queue (`host/listq.rs`).
    pub links: Links,
    /// Child has been counted into the parent's accept queue.
    pub established_reported: bool,
    /// The application has closed this socket.
    pub closed_by_app: bool,
    /// NI channel was reclaimed in TIME_WAIT (NI-LRP).
    pub chan_reclaimed: bool,
    /// Sticky error recorded when the connection died (RST received,
    /// retransmit give-up, keepalive abort); surfaced by the next
    /// recv/send/connect instead of a silent stall or a fake EOF.
    pub err: Option<Errno>,
    /// Frames dropped at this socket's full receive buffer. Kernel state,
    /// not telemetry: the `SockStats` syscall surfaces it to applications,
    /// so it is maintained regardless of the telemetry switch.
    pub drops_sockbuf: u64,
    /// Frames dropped at this socket's full NI channel (or by Early-Demux
    /// socket-queue feedback at the interrupt handler).
    pub drops_channel: u64,
}

/// A listening socket's state (`Host::listeners`). Its two queues are
/// lists threaded through the children's `Socket::links`.
#[derive(Debug)]
pub(crate) struct Listen {
    pub state: TcpListener,
    /// Embryonic (SynReceived) children in admission order — the minimal
    /// SYN cache: when the backlog is full and the host enables the
    /// cache, the oldest is evicted to admit a fresh SYN, bounding the
    /// damage a SYN flood can do to the table.
    pub half_open: SockList,
    /// Completed connections awaiting accept.
    pub accept_q: SockList,
}

impl LinkStore for SockTable<Socket> {
    fn links(&self, id: SockId) -> Links {
        self.get(id).expect("queued socket").links
    }

    fn links_mut(&mut self, id: SockId) -> &mut Links {
        &mut self.get_mut(id).expect("queued socket").links
    }
}

/// Per-process execution state.
#[derive(Debug)]
pub(crate) enum ProcExec {
    /// Process has not run yet; call `AppLogic::start` when scheduled.
    Start,
    /// Continue with this kernel phase when scheduled.
    Cont(Cont),
    /// Mid-phase preemption: finish `remaining` of the charged work, then
    /// continue.
    Chunk {
        remaining: SimDuration,
        account: Account,
        /// Whom the remaining work is charged to (may differ from the
        /// running thread for APP/idle kernel threads).
        charge: Pid,
        /// Profiler metadata carried across the preemption.
        meta: ChunkMeta,
        next: Cont,
    },
    /// Blocked; on wakeup becomes `Cont(resume)`.
    Blocked(Cont),
    /// Terminated.
    Exited,
}

/// Kernel continuations: the next phase of an in-progress operation.
#[derive(Debug)]
pub(crate) enum Cont {
    /// Deliver a result to the app and get its next operation.
    AppNext(SyscallRet),
    /// Begin a system call (pays entry cost).
    SyscallEntry(SyscallOp),
    /// Pay the return cost, then `AppNext`.
    SyscallReturn(SyscallRet),
    /// User-mode computation with `remaining` to burn.
    ComputeSlice(SimDuration),
    /// Quantum boundary inside a computation: round-robin check, then
    /// continue computing.
    ComputeMore(SimDuration),
    /// UDP/TCP receive: check queues, maybe process lazily, maybe block.
    RecvCheck { sock: SockId, max_len: usize },
    /// TCP send: try to buffer more data starting at `off`.
    TcpSend {
        sock: SockId,
        data: FrameBuf,
        off: usize,
    },
    /// Accept: check the accept queue, maybe block.
    AcceptCheck { sock: SockId },
    /// Connect: wait for the handshake outcome.
    ConnectCheck { sock: SockId },
    /// The APP kernel thread's main loop (LRP TCP processing).
    AppThreadStep,
    /// The IP forwarding daemon's main loop (LRP §3.5).
    ForwardStep,
    /// The idle protocol thread's main loop (LRP §3.3).
    IdleThreadStep,
}

impl Cont {
    /// Profiler stage label of the phase this continuation denotes.
    pub(crate) fn stage(&self) -> &'static str {
        match self {
            Cont::AppNext(_) => "app-logic",
            Cont::SyscallEntry(_) => "syscall-entry",
            Cont::SyscallReturn(_) => "syscall-return",
            Cont::ComputeSlice(_) | Cont::ComputeMore(_) => "compute",
            Cont::RecvCheck { .. } => "recv",
            Cont::TcpSend { .. } => "send",
            Cont::AcceptCheck { .. } => "accept",
            Cont::ConnectCheck { .. } => "connect",
            Cont::AppThreadStep => "app-thread-step",
            Cont::ForwardStep => "forward",
            Cont::IdleThreadStep => "idle-proto-step",
        }
    }
}

/// What a phase does after its cost is paid.
pub(crate) enum PhaseOut {
    /// Consume CPU, then continue.
    Run {
        dur: SimDuration,
        account: Account,
        next: Cont,
    },
    /// Block on a wait channel at a kernel priority.
    Block {
        wchan: WaitChannel,
        pri: u8,
        resume: Cont,
    },
    /// Voluntarily yield the CPU (round-robin), stay runnable.
    Yield(Cont),
    /// Process exited.
    Done,
}

impl PhaseOut {
    /// Bills `dur` as system time, then continues with `next`.
    pub(crate) fn sys(dur: SimDuration, next: Cont) -> Self {
        PhaseOut::Run {
            dur,
            account: Account::System,
            next,
        }
    }

    /// Bills `dur` as system time, then returns `ret` from the call.
    pub(crate) fn ret(dur: SimDuration, ret: SyscallRet) -> Self {
        PhaseOut::sys(dur, Cont::SyscallReturn(ret))
    }
}

/// CPU work kinds.
#[derive(Debug)]
pub(crate) enum WorkKind {
    /// Hardware interrupt tail (logic already applied at arrival).
    Hw,
    /// Software interrupt job (logic already applied at job start).
    Soft,
    /// A process phase; continuation runs at completion.
    Proc { pid: Pid, next: Cont },
}

/// Profiler metadata riding on a work chunk. Pure observation: attached
/// at chunk start, consumed when elapsed time is settled, never read by
/// any scheduling or protocol decision.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChunkMeta {
    /// Pipeline stage label (`rx-intr`, `ip-input`, `recv`, `compute`, …).
    pub stage: &'static str,
    /// Rightful receiver of protocol work performed in this chunk, when
    /// one is knowable — the charge-attribution ledger compares it with
    /// whom the chunk was actually billed to.
    pub owner: Option<Pid>,
}

impl ChunkMeta {
    pub(crate) fn stage(stage: &'static str) -> Self {
        ChunkMeta { stage, owner: None }
    }
}

#[derive(Debug)]
pub(crate) struct Running {
    pub kind: WorkKind,
    pub charge: Option<(Pid, Account)>,
    pub meta: ChunkMeta,
    pub started: SimTime,
    pub ends: SimTime,
}

#[derive(Debug)]
pub(crate) struct Suspended {
    pub kind: WorkKind,
    pub charge: Option<(Pid, Account)>,
    pub meta: ChunkMeta,
    pub remaining: SimDuration,
}

#[derive(Debug, Default)]
pub(crate) struct Cpu {
    pub gen: u64,
    pub running: Option<Running>,
    /// A process chunk displaced by an interrupt (resumed in place unless
    /// preempted by a better process at interrupt return).
    pub susp_proc: Option<Suspended>,
    /// A softirq chunk displaced by a hardware interrupt.
    pub susp_soft: Option<Suspended>,
    /// Pending hardware interrupt work (cost, charge target decided at
    /// arrival, profiler stage label).
    pub pending_hw: VecDeque<(SimDuration, Option<Pid>, &'static str)>,
    /// The process whose context was last on this CPU (context-switch
    /// detection for cache-reload penalties).
    pub last_on_cpu: Option<Pid>,
    /// Total time this CPU spent executing chunks (utilization).
    pub busy: SimDuration,
}

/// The simulated host.
pub struct Host {
    /// Configuration (architecture, costs, kernel parameters).
    pub cfg: HostConfig,
    /// This host's address.
    pub addr: Ipv4Addr,
    /// The process scheduler.
    pub sched: Scheduler,
    /// The network interface.
    pub nic: Nic,
    /// Aggregate statistics.
    pub stats: HostStats,
    /// The host's buckets of the frame-disposition ledger (`host/ledger.rs`),
    /// counted on every host. The NIC's buckets, `in_flight` and
    /// `delivered_udp` (which is `stats.udp_delivered`) stay 0 here and
    /// `host_drops` empty: [`Host::packet_ledger`] fills them in.
    pub(crate) ledger: PacketLedger,
    pub(crate) pcb: PcbTable,
    pub(crate) reasm: Reassembler,
    /// The sockets alive, by id (`host/socktab.rs`).
    pub(crate) sockets: SockTable<Socket>,
    /// Listening sockets' state, at the index `Socket::listen` names; a
    /// freed listener's entry goes to the next `listen`. Outside the
    /// socket table so that its slots stay small, and in one `Vec` so
    /// that a host of many listeners pays no allocation per listener.
    pub(crate) listeners: Vec<Option<Listen>>,
    pub(crate) apps: PidMap<Box<dyn AppLogic>>,
    pub(crate) exec: PidMap<ProcExec>,
    /// The simulated CPUs (length `cfg.ncpus`).
    pub(crate) cpus: Vec<Cpu>,
    /// One bit per CPU that started a chunk since the world last took
    /// the set: the only CPUs whose completion event can be new.
    pub(crate) cpus_started: u64,
    /// The CPU whose context the host is currently executing in (set at
    /// every entry point; used for cross-CPU wakeup detection and per-CPU
    /// scheduler queries from syscall phases).
    pub(crate) cur_cpu: usize,
    /// BSD shared IP queue: each frame with its stamp (queued at the
    /// receive interrupt).
    pub(crate) ip_queue: VecDeque<(Frame, lrp_nic::Stamp)>,
    /// Reusable scratch buffer for the driver's per-interrupt ring batch
    /// (capacity persists across interrupts; contents are always drained).
    pub(crate) rx_scratch: Vec<Frame>,
    /// Due TCP timer work (socket ids), processed in protocol context.
    /// Membership is mirrored in `Socket::timer_queued`.
    pub(crate) tcp_timer_work: VecDeque<SockId>,
    /// TCP deadline index: `(tcp.next_deadline(), id)` for every live
    /// socket whose connection has a timer armed and that is not in
    /// `tcp_timer_work`. Re-keyed wherever a `TcpConn` is mutated,
    /// installed or dropped and wherever a socket leaves the work queue,
    /// so the next timer is the heap's top.
    pub(crate) tcp_deadlines: DeadlineHeap,
    /// Ready-channel set: sockets whose NI channel exists and holds
    /// frames. Maintained at channel enqueue, dequeue and destroy; the
    /// LRP threads and the NI interrupt handler iterate it in ascending
    /// `SockId` — the order the socket-table scans they replace visited.
    pub(crate) ready_socks: SockSet,
    /// Per owner pid with any, sorted by pid: how many of its TCP sockets
    /// are in `ready_socks`, plus how many are in `tcp_timer_work` — the
    /// owners whose priority the APP thread takes on. Maintained wherever
    /// either set changes and at `accept`; an owner whose count falls to
    /// 0 leaves.
    pub(crate) owner_work: Vec<(Pid, u32)>,
    /// Live datagram (UDP and raw ICMP) sockets: whom a fragment arrival
    /// may have to wake.
    pub(crate) dgram_socks: SockSet,
    /// Sockets whose connection changed since the last tick (flagged
    /// `Socket::cwnd_dirty`): the only ones the cwnd gauge re-reads.
    pub(crate) cwnd_dirty: Vec<SockId>,
    /// The cwnd gauge: the largest stored `(cwnd, ssthresh)` among live
    /// sockets, `(0, 0)` without any connection.
    pub(crate) cwnd_max: (u64, u64),
    /// A live socket whose stored key is `cwnd_max`, if any.
    pub(crate) cwnd_max_sock: Option<SockId>,
    /// `cwnd_max_sock` fell or was freed: the next tick recomputes the
    /// maximum from the stored keys.
    pub(crate) cwnd_rescan: bool,
    /// NI-LRP: TCP sockets whose channel's demand interrupt has fired (the
    /// flag auto-clears on delivery) and awaits re-arming when the APP
    /// thread next sleeps.
    pub(crate) rearm_socks: Vec<SockId>,
    /// Reusable buffer for the pids a wakeup returns (always drained).
    pub(crate) woken_scratch: Vec<Pid>,
    /// Reusable list the TCP machine appends to (empty between calls;
    /// see `Host::tcp_run`).
    pub(crate) tcp_acts: Actions,
    /// Early-Demux: channels with frames awaiting softirq processing.
    pub(crate) ed_pending: VecDeque<SockId>,
    /// Timed sleeps.
    pub(crate) sleep_until: EventQueue<Pid>,
    /// The earliest kernel-timer deadline outside `tcp_deadlines`, once
    /// computed (`kernel_timer_min`); `None` after a change to any of
    /// its six sources (`timers_changed`).
    pub(crate) kernel_timer_at: Option<Option<SimTime>>,
    pub(crate) app_thread: Option<Pid>,
    pub(crate) idle_thread: Option<Pid>,
    /// The raw socket of the ICMP proxy daemon (§3.5), if one is bound.
    pub(crate) icmp_sock: Option<SockId>,
    /// The IP forwarding daemon (LRP) — forwarding runs at its priority.
    pub(crate) forward_daemon: Option<Pid>,
    /// BSD/Early-Demux: forward in softirq context when enabled.
    pub(crate) forwarding_enabled: bool,
    /// When each process last held a CPU (for away-time-scaled cache
    /// reload penalties).
    pub(crate) last_ran: PidMap<SimTime>,
    pub(crate) iss: u32,
    pub(crate) ip_ident: u16,
    pub(crate) ephemeral_port: u16,
    pub(crate) ticks: u64,
    /// Next reassembly-expiry sweep.
    pub(crate) next_reasm_sweep: SimTime,
    /// Charge target for the next process chunk, when it differs from the
    /// running thread (APP/idle kernel threads billing socket owners).
    pub(crate) pending_charge: Option<Pid>,
    /// Channel → socket index (replaces linear scans per packet).
    pub(crate) chan_to_sock: FastHashMap<lrp_demux::ChannelId, SockId>,
    /// Telemetry state (no-op unless `cfg.telemetry`).
    pub(crate) tele: crate::telemetry::Telemetry,
    /// Receive-timeout deadlines: `(pid, sock, seq)` entries by time. The
    /// seq token (matched against `recv_seq`) keeps a deadline that
    /// fires late from timing out a *later* receive on the same socket.
    pub(crate) recv_deadlines: EventQueue<(Pid, SockId, u64)>,
    /// The seq token of each process's currently armed receive timeout.
    pub(crate) recv_seq: PidMap<u64>,
    /// Monotonic generator for receive-timeout seq tokens.
    pub(crate) recv_deadline_seq: u64,
    /// Attached end-host fault plan runtime (crash schedule + jitter).
    pub(crate) fault: Option<HostFaultState>,
    /// Respawn recipes for processes spawned restartable.
    pub(crate) restartable: PidMap<RestartSpec>,
    /// Scheduled restarts: crashed pids to respawn, by time.
    pub(crate) restart_at: EventQueue<Pid>,
    /// Crashed pid → its restarted successor (chains across restarts).
    pub(crate) reincarnation: PidMap<Pid>,
    /// Crash log: `(time, pid)` per executed crash.
    pub(crate) crash_log: Vec<(SimTime, Pid)>,
    /// Restart log: `(time, old pid, new pid)` per executed restart.
    pub(crate) restart_log: Vec<(SimTime, Pid, Pid)>,
    /// When the host finishes booting after a whole-host reboot; `None`
    /// while up. The NIC stays stalled for the whole down window.
    pub(crate) boot_at: Option<SimTime>,
    /// Reboot log: the time of each executed whole-host reboot.
    pub(crate) reboot_log: Vec<SimTime>,
    /// Niceness the forwarding daemon was enabled with (reboots recreate
    /// it at the same priority).
    pub(crate) forwarding_nice: i8,
}

/// Everything needed to respawn a crashed process: the original spawn
/// parameters plus a factory producing a fresh application state
/// machine (the app restarts from `start`, as a real exec would).
pub(crate) struct RestartSpec {
    name: String,
    nice: i8,
    working_set: usize,
    factory: Box<dyn Fn() -> Box<dyn AppLogic>>,
}

/// Fresh telemetry for the host at `addr`. Host-minted span ids are tagged
/// with the address's last octet so spans from different hosts never
/// collide.
fn host_telemetry(enabled: bool, addr: Ipv4Addr) -> crate::telemetry::Telemetry {
    let mut tele = crate::telemetry::Telemetry::new(enabled);
    let tag = (1u64 << 63) | ((addr.octets()[3] as u64) << 48);
    tele.set_span_tag(std::num::NonZeroU64::new(tag).expect("bit 63 is set"));
    tele
}

impl Host {
    /// Creates a host with the given configuration and address.
    ///
    /// # Examples
    ///
    /// ```
    /// use lrp_core::{Architecture, Host, HostConfig};
    ///
    /// let host = Host::new(
    ///     HostConfig::new(Architecture::SoftLrp),
    ///     "10.0.0.2".parse().unwrap(),
    /// );
    /// assert_eq!(host.rx_frames(), 0);
    /// ```
    pub fn new(cfg: HostConfig, addr: Ipv4Addr) -> Self {
        let demux_mode = match cfg.arch {
            Architecture::Bsd => DemuxMode::None,
            Architecture::EarlyDemux | Architecture::SoftLrp => DemuxMode::Soft,
            Architecture::NiLrp => DemuxMode::Ni,
        };
        assert!(cfg.ncpus > 0, "a host needs at least one CPU");
        assert!(cfg.ncpus <= 64, "one bit of `cpus_started` per CPU");
        let mut nic = Nic::new(demux_mode, addr, MAX_SOCKETS);
        nic.set_default_channel_limit(cfg.channel_limit);
        nic.set_rx_queues(cfg.ncpus);
        let sched_cfg = SchedConfig {
            tick: TICK,
            ncpus: cfg.ncpus,
        };
        let mut host = Host {
            cfg,
            addr,
            sched: Scheduler::new(sched_cfg),
            nic,
            stats: HostStats::default(),
            ledger: PacketLedger::default(),
            pcb: PcbTable::new(),
            reasm: Reassembler::new(16, SimDuration::from_secs(30)),
            sockets: SockTable::default(),
            listeners: Vec::new(),
            apps: PidMap::default(),
            exec: PidMap::default(),
            cpus: (0..cfg.ncpus).map(|_| Cpu::default()).collect(),
            cpus_started: 0,
            cur_cpu: 0,
            ip_queue: VecDeque::new(),
            rx_scratch: Vec::new(),
            tcp_timer_work: VecDeque::new(),
            tcp_deadlines: DeadlineHeap::default(),
            ready_socks: SockSet::default(),
            owner_work: Vec::new(),
            dgram_socks: SockSet::default(),
            cwnd_dirty: Vec::new(),
            cwnd_max: (0, 0),
            cwnd_max_sock: None,
            cwnd_rescan: false,
            rearm_socks: Vec::new(),
            woken_scratch: Vec::new(),
            tcp_acts: Actions::default(),
            ed_pending: VecDeque::new(),
            sleep_until: EventQueue::new(),
            kernel_timer_at: None,
            app_thread: None,
            idle_thread: None,
            icmp_sock: None,
            forward_daemon: None,
            forwarding_enabled: false,
            last_ran: PidMap::default(),
            iss: 1000,
            ip_ident: 1,
            ephemeral_port: 40_000,
            ticks: 0,
            next_reasm_sweep: SimTime::from_secs(1),
            pending_charge: None,
            chan_to_sock: FastHashMap::default(),
            tele: host_telemetry(cfg.telemetry, addr),
            recv_deadlines: EventQueue::new(),
            recv_seq: PidMap::default(),
            recv_deadline_seq: 0,
            fault: None,
            restartable: PidMap::default(),
            restart_at: EventQueue::new(),
            reincarnation: PidMap::default(),
            crash_log: Vec::new(),
            restart_log: Vec::new(),
            boot_at: None,
            reboot_log: Vec::new(),
            forwarding_nice: 0,
        };
        host.spawn_kernel_threads();
        host
    }

    /// Starts what the LRP kernel runs of its own, where it is not running
    /// yet: NI-LRP's demand interrupt on the shared fragment channel, so
    /// a blocked receiver learns about misordered fragments; then the
    /// APP thread (§3.4, unless ablated), the idle protocol thread (§3.3)
    /// and, once forwarding is on, the forwarding daemon (§3.5). The
    /// spawn order fixes their pids. Kernel threads drain global protocol
    /// state, so each is pinned to CPU 0, out of the idle-steal
    /// balancer's reach.
    fn spawn_kernel_threads(&mut self) {
        if !self.cfg.arch.is_lrp() {
            return;
        }
        let ni = self.cfg.arch == Architecture::NiLrp;
        if ni {
            let frag = self.nic.fragment_channel;
            self.nic.channel_mut(frag).intr_requested = true;
        }
        let start = |host: &mut Host, pid: Pid, step: Cont| {
            host.exec.insert(pid, ProcExec::Cont(step));
            host.sched.set_affinity(pid, Some(0));
            Some(pid)
        };
        if self.cfg.tcp_app_processing && self.app_thread.is_none() {
            // Its priority is pinned to the owning applications' (§3.4).
            let pid = self.sched.spawn_fixed("app-thread", lrp_sched::PUSER);
            self.app_thread = start(self, pid, Cont::AppThreadStep);
        }
        if self.idle_thread.is_none() {
            let pid = self.sched.spawn_fixed("idle-proto", 126);
            self.idle_thread = start(self, pid, Cont::IdleThreadStep);
        }
        if self.forwarding_enabled && self.forward_daemon.is_none() {
            let pid = self
                .sched
                .spawn("ipfwd", self.forwarding_nice, SimDuration::ZERO);
            self.forward_daemon = start(self, pid, Cont::ForwardStep);
            // The forward proxy channel belongs to the NIC, not a socket:
            // it outlives a reboot, but its interrupt needs arming.
            if let Some(chan) = self.nic.proxies().forward.filter(|_| ni) {
                self.nic.channel_mut(chan).intr_requested = true;
            }
        }
    }

    /// Spawns an application process.
    ///
    /// `working_set` is the cache working set in bytes (drives the
    /// cache-reload penalty on context switches).
    pub fn spawn_app(
        &mut self,
        name: &str,
        nice: i8,
        working_set: usize,
        app: Box<dyn AppLogic>,
    ) -> Pid {
        let reload = self.cfg.cost.cache_reload(working_set);
        let pid = self.sched.spawn(name, nice, reload);
        self.apps.insert(pid, app);
        self.exec.insert(pid, ProcExec::Start);
        pid
    }

    /// Spawns an application process that can be respawned after a crash:
    /// the factory builds a fresh state machine each incarnation (the app
    /// restarts from `start`, re-binding its sockets as a real exec
    /// would). Crash events addressed to the returned pid follow the
    /// restart chain automatically.
    pub fn spawn_app_restartable(
        &mut self,
        name: &str,
        nice: i8,
        working_set: usize,
        factory: Box<dyn Fn() -> Box<dyn AppLogic>>,
    ) -> Pid {
        let app = factory();
        let pid = self.spawn_app(name, nice, working_set, app);
        self.restartable.insert(
            pid,
            RestartSpec {
                name: name.to_string(),
                nice,
                working_set,
                factory,
            },
        );
        pid
    }

    /// Attaches an end-host fault plan. The inert plan detaches (and
    /// draws no RNG, keeping fault-free runs bit-identical).
    pub fn set_fault_plan(&mut self, plan: &HostFaultPlan) {
        self.timers_changed();
        self.fault = if plan.is_none() {
            None
        } else {
            Some(HostFaultState::new(plan))
        };
    }

    /// The latest live incarnation of a (possibly crashed-and-restarted)
    /// process.
    pub fn live_incarnation(&self, mut pid: Pid) -> Pid {
        while let Some(&next) = self.reincarnation.get(pid) {
            pid = next;
        }
        pid
    }

    /// Executed crashes, `(time, pid)` each.
    pub fn crashes(&self) -> &[(SimTime, Pid)] {
        &self.crash_log
    }

    /// Executed restarts, `(time, old pid, new pid)` each.
    pub fn restarts(&self) -> &[(SimTime, Pid, Pid)] {
        &self.restart_log
    }

    /// Crashes a process *now*: a deterministic kernel teardown. The
    /// process is marked exited first (pending continuations evaporate,
    /// wakeups no-op), then every socket it owns is torn down — NI
    /// channels unmapped with queued frames attributed to the conserved
    /// `owner_dead` ledger bucket, established TCP connections aborted
    /// with an RST per RFC 793, PCB entries and socket slots freed.
    pub fn crash_process(&mut self, now: SimTime, pid: Pid) {
        // Already exited (or never spawned): nothing to tear down. A
        // live process *on the CPU* has no exec entry at all — the
        // continuation travels with its running chunk — so absence of an
        // entry must not be read as "dead"; the apps table is the
        // liveness record (removed only here).
        if matches!(self.exec.get(pid), Some(ProcExec::Exited)) || !self.apps.contains_key(pid) {
            return;
        }
        self.kill(now, pid);
        let owned: Vec<SockId> = self
            .live_sockets()
            .filter(|s| s.owner == pid)
            .map(|s| s.id)
            .collect();
        for sock in owned {
            // A child may already have been freed by its listener's
            // teardown earlier in this loop.
            if self.sock_opt(sock).is_none() {
                continue;
            }
            self.sock_mut(sock).closed_by_app = true;
            // Unmap the NI channel before protocol teardown: frames
            // still queued there were accepted for a process that no
            // longer exists — `owner_dead`, not `flushed`.
            self.close_channel(sock, true);
            if self.sock(sock).tcp.is_some() {
                // The Closed event tears the socket down and frees it
                // (closed_by_app is set).
                let _ = self.tcp_run(now, sock, |conn, out| conn.abort_into(out));
            } else {
                self.free_socket(sock);
            }
        }
    }

    /// Ends process `pid` on the spot: it is marked exited (pending
    /// continuations evaporate, wakeups no-op) and leaves the scheduler;
    /// an application also leaves the application table and enters the
    /// crash log.
    fn kill(&mut self, now: SimTime, pid: Pid) {
        self.exec.insert(pid, ProcExec::Exited);
        self.sched.exit(pid);
        self.recv_seq.remove(pid);
        if self.apps.remove(pid).is_some() {
            self.crash_log.push((now, pid));
        }
    }

    /// Respawns a crashed restartable process; returns the new pid.
    pub fn restart_process(&mut self, now: SimTime, old: Pid) -> Option<Pid> {
        let spec = self.restartable.remove(old)?;
        let app = (spec.factory)();
        let pid = self.spawn_app(&spec.name, spec.nice, spec.working_set, app);
        self.restartable.insert(pid, spec);
        self.reincarnation.insert(old, pid);
        self.restart_log.push((now, old, pid));
        self.dispatch(now);
        Some(pid)
    }

    /// Whole-host reboot *now* ([`FaultKind::Reboot`]): power fails, the
    /// host comes back `boot_delay` later. Deterministic teardown in a
    /// fixed order:
    ///
    /// 1. The NIC loses power for the whole down window — arriving frames
    ///    die on the device as conserved `nic_stall_drops`.
    /// 2. Frames already accepted but not yet delivered (receive rings,
    ///    NI channels, the shared IP queue) move to the `reboot_flushed`
    ///    ledger bucket; queued TX frames vanish untransmitted.
    /// 3. Every process dies instantly. No RSTs, no FINs — the NIC is
    ///    already off; peers observe the outage through retransmit
    ///    give-up, exactly like a real power cut.
    /// 4. All sockets, PCBs, demux filters, reassembly state and kernel
    ///    timers go cold; per-CPU state is wiped (generation bump cancels
    ///    in-flight completions).
    /// 5. At `now + boot_delay` the kernel daemons are recreated and
    ///    every restartable process respawns as a fresh incarnation.
    pub fn reboot(&mut self, now: SimTime, boot_delay: SimDuration) {
        let boot_at = now + boot_delay;
        // (1) NIC down window, modelled as an injected stall: the device
        // fault machinery already conserves these drops.
        let mut plan = self.nic.faults().clone();
        plan.stall_ns.push((now.as_nanos(), boot_at.as_nanos()));
        self.nic.set_faults(plan);
        // (2) Flush accepted-but-undelivered frames.
        self.ledger.reboot_flushed += self.nic.ring_depth() as u64;
        self.nic.set_rx_queues(self.cfg.ncpus);
        for chan in self.nic.channel_ids() {
            self.reboot_flush_channel(chan);
        }
        self.ledger.reboot_flushed += self.ip_queue.len() as u64;
        self.ip_queue.clear();
        let _ = self.nic.ifq_clear();
        self.tele.on_reboot();
        // (3) Kill every process, applications first (in pid order), then
        // the kernel daemons.
        let pids: Vec<Pid> = self.apps.keys().collect();
        let daemons = [
            self.app_thread.take(),
            self.idle_thread.take(),
            self.forward_daemon.take(),
        ];
        for pid in pids.into_iter().chain(daemons.into_iter().flatten()) {
            self.kill(now, pid);
        }
        // (4) All sockets go cold — freed directly, no protocol goodbye.
        // The per-socket channels were drained in (2), so the `flushed`
        // bucket gains nothing here.
        while let Some(sock) = self.sockets.first() {
            self.free_socket(sock);
        }
        self.reasm = Reassembler::new(16, SimDuration::from_secs(30));
        self.tcp_timer_work.clear();
        self.owner_work.clear();
        self.rearm_socks.clear();
        self.ed_pending.clear();
        self.sleep_until.clear();
        self.recv_deadlines.clear();
        self.recv_seq.clear();
        self.restart_at.clear();
        self.chan_to_sock = FastHashMap::default();
        self.icmp_sock = None;
        self.last_ran.clear();
        self.pending_charge = None;
        self.rx_scratch.clear();
        for cpu in self.cpus.iter_mut() {
            cpu.gen += 1;
            cpu.running = None;
            cpu.susp_proc = None;
            cpu.susp_soft = None;
            cpu.pending_hw.clear();
            cpu.last_on_cpu = None;
        }
        self.reboot_log.push(now);
        self.boot_at = Some(boot_at);
        self.timers_changed();
    }

    /// Boot completion: recreates the kernel daemons exactly as
    /// [`Host::new`] does and respawns every restartable application as a
    /// fresh incarnation.
    fn complete_boot(&mut self, now: SimTime) {
        self.boot_at = None;
        self.spawn_kernel_threads();
        let olds: Vec<Pid> = self.restartable.keys().collect();
        for old in olds {
            self.restart_process(now, old);
        }
    }

    /// Executed whole-host reboots (time of each power cut).
    pub fn reboots(&self) -> &[SimTime] {
        &self.reboot_log
    }

    /// True while the host is powered down awaiting boot completion.
    pub fn is_down(&self) -> bool {
        self.boot_at.is_some()
    }

    /// Starts execution (initial dispatch). Call once after spawning apps.
    pub fn start(&mut self, now: SimTime) {
        self.dispatch(now);
    }

    /// Number of simulated CPUs.
    pub fn ncpus(&self) -> usize {
        self.cpus.len()
    }

    /// The next completion event the world must schedule for `cpu`:
    /// `(time, generation)`.
    pub fn cpu_event_on(&self, cpu: usize) -> Option<(SimTime, u64)> {
        let c = &self.cpus[cpu];
        c.running.as_ref().map(|r| (r.ends, c.gen))
    }

    /// Takes the set of CPUs that started a chunk since the last call,
    /// one bit per CPU: the world schedules completions for these only.
    pub(crate) fn take_started_cpus(&mut self) -> u64 {
        std::mem::take(&mut self.cpus_started)
    }

    /// Time `cpu` has spent executing work chunks (for utilization
    /// reports; divide by elapsed simulated time).
    pub fn cpu_busy(&self, cpu: usize) -> SimDuration {
        self.cpus[cpu].busy
    }

    /// The earliest kernel-timer deadline (TCP timers, timed sleeps,
    /// reassembly sweeps). The TCP index's top is read as it stands (a
    /// connection re-keys it on most segments); the other six sources
    /// are folded once per change to them.
    pub fn next_timer_deadline(&mut self) -> Option<SimTime> {
        // A socket whose timer work is already queued is out of the TCP
        // index, so it does not keep re-arming the world's timer event
        // (its deadline stays in the past until the protocol context
        // runs the work).
        let kernel = match self.kernel_timer_at {
            Some(at) => at,
            None => *self.kernel_timer_at.insert(self.kernel_timer_min()),
        };
        let tcp = self.tcp_deadlines.peek().map(|(t, _)| t);
        tcp.into_iter().chain(kernel).min()
    }

    /// One of `kernel_timer_min`'s sources changed: the next
    /// `next_timer_deadline` folds them again.
    pub(crate) fn timers_changed(&mut self) {
        self.kernel_timer_at = None;
    }

    /// The earliest deadline among the timers outside the TCP index.
    fn kernel_timer_min(&self) -> Option<SimTime> {
        [
            self.sleep_until.peek_time(),
            self.recv_deadlines.peek_time(),
            self.restart_at.peek_time(),
            self.boot_at,
            self.fault.as_ref().and_then(|f| f.next_at()),
            (self.reasm.pending() > 0).then_some(self.next_reasm_sweep),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Total packets the NIC has accepted from the link.
    pub fn rx_frames(&self) -> u64 {
        self.nic.stats().rx_frames
    }

    /// Host-wide TCP counters: closed-connection totals folded at socket
    /// free plus every live connection's current statistics.
    pub fn tcp_totals(&self) -> TcpStats {
        let mut total = self.stats.tcp_closed;
        for s in self.live_sockets() {
            if let Some(conn) = &s.tcp {
                total.absorb(&conn.stats);
            }
        }
        total
    }

    /// Total SYN-cache evictions across live listening sockets (only
    /// non-zero when [`HostConfig::syn_cache`] is on and the backlog
    /// overflowed).
    pub fn syn_cache_evictions(&self) -> u64 {
        self.listeners
            .iter()
            .flatten()
            .map(|l| l.state.syn_cache_evictions)
            .sum()
    }

    /// Total stateless SYN-cookie counters `(sent, validated, rejected)`
    /// across live listening sockets (only non-zero when
    /// [`HostConfig::syn_cookies`] engaged).
    pub fn cookie_totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for l in self.listeners.iter().flatten().map(|l| &l.state) {
            t.0 += l.cookies_sent;
            t.1 += l.cookies_validated;
            t.2 += l.cookies_rejected;
        }
        t
    }

    /// Looks up a socket's owner (None if the socket is gone).
    pub fn socket_owner(&self, sock: SockId) -> Option<Pid> {
        self.sockets.get(sock).map(|s| s.owner)
    }

    pub(crate) fn sock(&self, id: SockId) -> &Socket {
        self.sockets.get(id).expect("live socket")
    }

    pub(crate) fn sock_mut(&mut self, id: SockId) -> &mut Socket {
        self.sockets.get_mut(id).expect("live socket")
    }

    pub(crate) fn sock_opt(&self, id: SockId) -> Option<&Socket> {
        self.sockets.get(id)
    }

    pub(crate) fn alloc_sock(&mut self, owner: Pid, proto: SockProto) -> SockId {
        let id = self.sockets.insert(|id| Socket {
            id,
            owner,
            proto,
            local: None,
            remote: None,
            chan: None,
            rcvq: DatagramQueue::new(SOCKBUF_LIMIT),
            tcp: None,
            cwnd_key: None,
            cwnd_dirty: false,
            timer_queued: false,
            listen: None,
            parent: None,
            links: Links::default(),
            established_reported: false,
            closed_by_app: false,
            chan_reclaimed: false,
            err: None,
            drops_sockbuf: 0,
            drops_channel: 0,
        });
        if proto != SockProto::Tcp {
            self.dgram_socks.insert(id);
        }
        id
    }

    /// `sock`'s listening state, if it is a live listener.
    pub(crate) fn listening(&self, sock: SockId) -> Option<&Listen> {
        let i = self.sock_opt(sock)?.listen?;
        self.listeners[i as usize].as_ref()
    }

    pub(crate) fn listening_mut(&mut self, sock: SockId) -> Option<&mut Listen> {
        let i = self.sock_opt(sock)?.listen?;
        self.listeners[i as usize].as_mut()
    }

    /// [`Self::listening_mut`], and the socket table its queues thread
    /// through.
    pub(crate) fn listen_queues(
        &mut self,
        sock: SockId,
    ) -> Option<(&mut Listen, &mut SockTable<Socket>)> {
        let i = self.sock_opt(sock)?.listen?;
        Some((self.listeners[i as usize].as_mut()?, &mut self.sockets))
    }

    /// Receive-side queue depth of a socket: buffered datagrams plus
    /// frames waiting in its NI channel (the `SockDepth` syscall).
    pub(crate) fn sock_depth(&self, sock: SockId) -> usize {
        let Some(s) = self.sock_opt(sock) else {
            return 0;
        };
        let mut depth = s.rcvq.len();
        if let Some(c) = s.chan {
            if self.nic.channel_exists(c) {
                depth += self.nic.channel(c).depth();
            }
        }
        depth
    }

    /// A netstat-style snapshot of one socket (the `SockStats` syscall);
    /// `None` if the socket is gone.
    pub fn sock_stats_of(&self, sock: SockId) -> Option<crate::syscall::SockStats> {
        let s = self.sock_opt(sock)?;
        let chan_depth = match s.chan {
            Some(c) if self.nic.channel_exists(c) => self.nic.channel(c).depth(),
            _ => 0,
        };
        let listen = self.listening(sock);
        let recv_q = match &s.tcp {
            Some(conn) => conn.available(),
            None => s.rcvq.len(),
        };
        Some(crate::syscall::SockStats {
            sock: s.id,
            proto: s.proto,
            local: s.local.unwrap_or_else(|| Endpoint::new(self.addr, 0)),
            remote: s.remote,
            recv_q,
            chan_depth,
            drops_sockbuf: s.drops_sockbuf,
            drops_channel: s.drops_channel,
            listen: listen.map(
                |Listen {
                     state: l,
                     half_open,
                     ..
                 }| {
                    crate::syscall::ListenStats {
                        backlog: l.backlog,
                        syn_queue: l.syn_queue,
                        accept_queue: l.accept_queue,
                        half_open: half_open.len(),
                        syn_drops: l.syn_drops,
                        syn_cache_evictions: l.syn_cache_evictions,
                        cookies_sent: l.cookies_sent,
                        cookies_validated: l.cookies_validated,
                        cookies_rejected: l.cookies_rejected,
                    }
                },
            ),
            tcp: s.tcp.as_ref().map(|conn| conn.sock_stats()).or_else(|| {
                // A listener has no connection object; report its state
                // machine position anyway.
                listen.map(|l| {
                    let mut st = lrp_stack::TcpSockStats {
                        state: lrp_stack::TcpState::Listen,
                        srtt_ns: 0,
                        rttvar_ns: 0,
                        rto_ns: 0,
                        retries: 0,
                        cwnd: 0,
                        ssthresh: 0,
                        snd_q: 0,
                        rcv_q: 0,
                        retransmits: 0,
                        fast_retransmits: 0,
                        timeouts: 0,
                        dup_acks: 0,
                    };
                    st.rcv_q = l.accept_q.len() as u64;
                    st
                })
            }),
        })
    }

    /// The whole-host netstat dump: a [`SockStats`](crate::SockStats)
    /// snapshot for every live socket, in socket-id order.
    pub fn host_netstat(&self) -> Vec<crate::syscall::SockStats> {
        self.sockets
            .iter()
            .filter_map(|(id, _)| self.sock_stats_of(id))
            .collect()
    }

    /// Replaces the telemetry state with a fresh one, enabled or not
    /// (bench harness: measure the same world with telemetry on vs. off).
    /// Call before running the world — recorded state is discarded.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.tele = host_telemetry(enabled, self.addr);
    }

    /// Iterates live sockets (allocation order).
    pub(crate) fn live_sockets(&self) -> impl Iterator<Item = &Socket> + '_ {
        self.sockets.iter().map(|(_, s)| s)
    }

    /// Gives `sock` its own NI channel (§3.1), mapped back to the socket,
    /// its demand interrupt requested when `arm`, and installs the demux
    /// filter `key`, if any. Returns the channel and whether the filter
    /// went in.
    pub(crate) fn open_channel(
        &mut self,
        sock: SockId,
        key: Option<FlowKey>,
        arm: bool,
    ) -> (ChannelId, bool) {
        let chan = self.nic.create_default_channel();
        self.sock_mut(sock).chan = Some(chan);
        self.chan_to_sock.insert(chan, sock);
        if arm {
            self.nic.channel_mut(chan).intr_requested = true;
        }
        let filtered = key.is_none_or(|k| self.nic.demux.register(k, chan).is_ok());
        (chan, filtered)
    }

    /// Takes `sock`'s NI channel away: destroyed, with its still-queued
    /// frames ledgered as `owner_dead` (the owner crashed) or `flushed`,
    /// and unmapped.
    pub(crate) fn close_channel(&mut self, sock: SockId, owner_dead: bool) {
        let Some(chan) = self.sock_mut(sock).chan.take() else {
            return;
        };
        if self.nic.channel_exists(chan) {
            let n = self.nic.channel(chan).depth() as u64;
            if owner_dead {
                self.ledger.owner_dead += n;
            } else {
                self.ledger.flushed += n;
            }
            self.note_chan_empty(chan);
            self.nic.destroy_channel(chan);
        }
        self.chan_to_sock.remove(&chan);
    }

    pub(crate) fn next_iss(&mut self) -> u32 {
        self.iss = self.iss.wrapping_add(64_009);
        self.iss
    }

    pub(crate) fn next_ident(&mut self) -> u16 {
        self.ip_ident = self.ip_ident.wrapping_add(1);
        self.ip_ident
    }

    pub(crate) fn next_ephemeral(&mut self) -> u16 {
        // Skip ports until one is free (bounded by max sockets).
        loop {
            let p = self.ephemeral_port;
            self.ephemeral_port = if p >= 65_000 { 40_000 } else { p + 1 };
            let probe = Endpoint::new(self.addr, p);
            let udp_free = !self
                .pcb
                .contains(&lrp_wire::FlowKey::listening(lrp_wire::proto::UDP, probe));
            let tcp_free = !self
                .pcb
                .contains(&lrp_wire::FlowKey::listening(lrp_wire::proto::TCP, probe));
            if udp_free && tcp_free {
                return p;
            }
        }
    }

    /// Enables IP forwarding. Under the LRP architectures this spawns the
    /// forwarding daemon of §3.5 at the given niceness — its scheduling
    /// priority bounds the CPU spent on forwarding. Under BSD/Early-Demux,
    /// forwarding runs eagerly in software-interrupt context.
    pub fn enable_forwarding(&mut self, nice: i8) {
        self.forwarding_enabled = true;
        self.forwarding_nice = nice;
        if self.cfg.arch.is_lrp() {
            let chan = self.nic.create_default_channel();
            self.nic.set_forward_proxy(chan);
            self.spawn_kernel_threads();
        }
    }

    /// Statclock tick: drives decay (1 Hz) and preemption checks. The
    /// clock interrupt is wired to CPU 0 (the boot CPU).
    pub fn on_tick(&mut self, now: SimTime) {
        self.cur_cpu = 0;
        self.ticks += 1;
        self.refresh_cwnd_gauge();
        self.sample_timeline(now);
        if self.ticks.is_multiple_of(DECAY_TICKS) {
            self.sched.decay();
            if let Some(t) = self.app_thread {
                self.update_app_thread_pri(t);
            }
            self.maybe_preempt_running(now);
        }
    }

    /// Kernel timer service: fires due TCP timers (queued as protocol
    /// work), timed sleeps, and reassembly expiry.
    pub fn on_timer(&mut self, now: SimTime) {
        // Kernel timers fire on the boot CPU.
        self.cur_cpu = 0;
        // Due entries come off every source below.
        self.timers_changed();
        // Boot completion first: a rebooting host has no other live
        // timers, and anything due at the same instant should see the
        // freshly booted kernel.
        if self.boot_at.is_some_and(|b| b <= now) {
            self.complete_boot(now);
        }
        // Timed sleeps.
        while let Some((_, pid)) = self.sleep_until.pop_before(now) {
            self.wake_channel(WaitChannel(0xFFFF_0000 + pid.0 as u64));
        }
        // TCP timers: queue protocol work for due connections. The index
        // yields them by deadline; the batch is queued in socket order.
        let queued = self.tcp_timer_work.len();
        while let Some(id) = self.tcp_deadlines.pop_due(now) {
            let s = self.sock_mut(id);
            s.timer_queued = true;
            let (owner, proto) = (s.owner, s.proto);
            self.tcp_timer_work.push_back(id);
            self.note_owner_work(owner, proto, true);
        }
        if self.tcp_timer_work.len() > queued + 1 {
            self.tcp_timer_work.make_contiguous()[queued..].sort_unstable();
        }
        if !self.tcp_timer_work.is_empty() && self.cfg.arch.is_lrp() {
            self.wake_app_thread();
        }
        // BSD/ED: the work is picked up by the softirq scan in
        // dispatch.
        // Reassembly expiry sweep. Host statistics count the fragment
        // frames discarded, and the ledger re-attributes them from the
        // absorbed bucket to the expired bucket.
        if now >= self.next_reasm_sweep {
            let before = self.reasm.stats().expired_frags;
            self.reasm.expire(now);
            let frags = self.reasm.stats().expired_frags - before;
            for _ in 0..frags {
                self.stats.drop_at(DropPoint::Reasm);
            }
            debug_assert!(
                self.ledger.reasm_absorbed >= frags,
                "expired more fragments than were absorbed"
            );
            self.ledger.reasm_absorbed = self.ledger.reasm_absorbed.saturating_sub(frags);
            self.ledger.reasm_expired += frags;
            self.next_reasm_sweep = now + SimDuration::from_secs(1);
        }
        // Receive timeouts: fire only if the armed deadline is still
        // current (seq token) and the process is still blocked in that
        // very receive — a deadline outlived by its receive is inert.
        while let Some((_, (pid, sock, seq))) = self.recv_deadlines.pop_before(now) {
            if self.recv_seq.get(pid) != Some(&seq) {
                continue;
            }
            let blocked_here = matches!(
                self.exec.get(pid),
                Some(ProcExec::Blocked(Cont::RecvCheck { sock: s, .. })) if *s == sock
            );
            if !blocked_here {
                continue;
            }
            self.recv_seq.remove(pid);
            if self.sched.wake_one(pid) {
                self.exec.insert(
                    pid,
                    ProcExec::Cont(Cont::SyscallReturn(SyscallRet::Err(Errno::TimedOut))),
                );
                self.post_ipi(pid);
            }
        }
        // End-host fault plan: scheduled restarts, then due crashes.
        while let Some((_, pid)) = self.restart_at.pop_before(now) {
            self.restart_process(now, pid);
        }
        while let Some(at) = self.fault.as_ref().and_then(|f| f.next_at()) {
            if at > now {
                break;
            }
            let ev = self
                .fault
                .as_mut()
                .expect("checked")
                .pending
                .pop()
                .expect("due event");
            match ev.kind {
                FaultKind::Reboot => {
                    // `restart_after` is the boot delay; a plan that
                    // somehow omits it gets a conventional 50 ms cold
                    // boot rather than a host that never returns.
                    let delay = ev.restart_after.unwrap_or(SimDuration::from_millis(50));
                    self.reboot(now, delay);
                }
                FaultKind::Process => {
                    let target = self.live_incarnation(ev.pid);
                    self.crash_process(now, target);
                    if let Some(after) = ev.restart_after {
                        let jitter = if ev.restart_jitter.is_zero() {
                            SimDuration::ZERO
                        } else {
                            let f = self.fault.as_mut().expect("checked");
                            SimDuration::from_nanos(f.rng.next_below(ev.restart_jitter.as_nanos()))
                        };
                        self.restart_at.schedule(now + after + jitter, target);
                    }
                }
            }
        }
        self.dispatch(now);
    }

    /// Transitions a woken process from `Blocked` to its continuation.
    /// If the process is homed on another CPU, delivering the wakeup
    /// costs an IPI on that CPU (SMP only).
    pub(crate) fn unblock(&mut self, pid: Pid) {
        if let Some(ex) = self.exec.get_mut(pid) {
            if let ProcExec::Blocked(cont) = ex {
                // Moved, not cloned: the placeholder is overwritten at once.
                let c = std::mem::replace(cont, Cont::AppThreadStep);
                *ex = ProcExec::Cont(c);
                self.post_ipi(pid);
            }
        }
    }

    /// Posts an inter-processor interrupt to `pid`'s home CPU when the
    /// wakeup originates on a different CPU. The IPI's cost is charged on
    /// the target like any hardware interrupt (BSD policy: to whoever
    /// happens to run there). No-op on a uniprocessor.
    fn post_ipi(&mut self, pid: Pid) {
        if self.cpus.len() <= 1 {
            return;
        }
        let home = self.sched.proc_ref(pid).home_cpu;
        if home == self.cur_cpu {
            return;
        }
        let victim = self.current_proc_context_on(home);
        let cost = self.cfg.cost.ipi;
        self.cpus[home].pending_hw.push_back((cost, victim, "ipi"));
        self.stats.ipis += 1;
    }

    /// Wakes the APP kernel thread if sleeping.
    pub(crate) fn wake_app_thread(&mut self) {
        if let Some(t) = self.app_thread {
            self.update_app_thread_pri(t);
            self.wake_channel(WC_APP_THREAD);
        }
    }

    /// Pins the APP thread's priority to the best (numerically lowest)
    /// priority among owners of sockets with pending TCP work (§3.4).
    pub(crate) fn update_app_thread_pri(&mut self, thread: Pid) {
        // Pending TCP work is a non-empty channel or queued timer work.
        // Every socket of one owner has that owner's priority, so the
        // minimum over owners with any is the minimum over the sockets.
        let pri = self
            .owner_work
            .iter()
            .map(|&(owner, _)| self.sched.proc_ref(owner).user_pri)
            .min()
            .unwrap_or(lrp_sched::PUSER);
        self.sched.set_fixed_pri(thread, Some(pri));
    }
}
