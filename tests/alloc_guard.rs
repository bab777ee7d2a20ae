//! Allocation discipline pinned by exact allocator counts instead of
//! wall-clock:
//!
//! - the TCP byte path (DESIGN.md §17): a bulk transfer allocates a
//!   fraction of a byte per payload byte, nothing of segment size per
//!   segment sent, and almost nothing per event once warm;
//! - the host data path (DESIGN.md §17): the Figure-3 blast allocates
//!   almost nothing per event once warm;
//! - the telemetry budget (DESIGN.md §14): on the same blast, full
//!   telemetry allocates at most a stated amount per event, in total and
//!   over the same run with telemetry off; and a second blast world on
//!   one thread records its spans into the storage the first returned,
//!   allocating a stated number of bytes per event; and a blast world
//!   whose span log fills holds it in a stated number of chunks;
//! - the PCB table (DESIGN.md §16): connection churn at a steady table
//!   size allocates nothing once the table has grown to that size;
//! - connection storage (DESIGN.md §17): a warm HTTP connect / request /
//!   close cycle allocates well under one allocation and a few hundred
//!   bytes, on 4.4BSD and NI-LRP alike, so no table grows per
//!   connection; and 200 clients connecting at once cost a stated number
//!   of allocations per fresh connection, and fewer when a second burst
//!   on the same thread builds them in the pooled boxes of the first;
//! - listener state (DESIGN.md §16): a warm cycle of opening a
//!   listener, accepting one connection and closing both allocates
//!   nothing;
//! - the statclock sample (DESIGN.md §16): a tick on a host of idle
//!   processes appends its timeline row to storage that grows by
//!   doubling, and allocates nothing per tick or per process.
//!
//! This binary has its own counting `#[global_allocator]` and a single
//! test, which waits on any thread it spawns, so the counters see the
//! simulation and nothing else.

use lrp::apps::{
    shared, HttpClient, HttpMetrics, HttpWorker, PingPongServer, Shared, SharedListener,
};
use lrp::core::telemetry::{span_chunk_stats, SPAN_LOG_CAP};
use lrp::core::{
    AppCtx, AppLogic, Architecture, CcAlgo, Host, HostConfig, SockProto, SyscallOp, SyscallRet,
    World,
};
use lrp::experiments::{fault_sweep, fig3, syn_flood, HOST_A, HOST_B};
use lrp::net::FaultPlan;
use lrp::nic::{DemuxMode, Nic, Stamp};
use lrp::sched::ProcState;
use lrp::sim::{SimDuration, SimTime};
use lrp::stack::{PcbTable, SockId};
use lrp::wire::{proto, Endpoint, FlowKey, Frame, Ipv4Addr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes moved per architecture.
const TOTAL: usize = 4 << 20;
/// The default MSS: a full segment's payload buffer, which becomes its
/// frame, is this plus 40 bytes of IP and TCP header room.
const MSS: usize = 9140;

/// The frame arena's size class that a full segment's 9 180 bytes round
/// up to: what a segment-sized allocation through the arena asks for.
const SEGMENT_CLASS: usize = 9216;

// Relaxed: the counters are statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static SEGMENT_SIZED: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if (MSS..=SEGMENT_CLASS).contains(&size) {
        SEGMENT_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator and `new_size`
        // obeys the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn bulk_transfer_allocates_per_send_not_per_segment() {
    for arch in [
        Architecture::Bsd,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let (mut world, metrics) =
            fault_sweep::build_cc(arch, CcAlgo::NewReno, FaultPlan::none(), TOTAL);
        let (bytes0, segs0) = (
            BYTES.load(Ordering::Relaxed),
            SEGMENT_SIZED.load(Ordering::Relaxed),
        );
        world.run_until(BULK_WARM_UP);
        let (allocs0, events0) = (ALLOCS.load(Ordering::Relaxed), world.events_processed());
        world.run_until(SimTime::from_secs(30));
        let steady = (ALLOCS.load(Ordering::Relaxed) - allocs0) as f64
            / (world.events_processed() - events0) as f64;
        let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
        let segment_sized = SEGMENT_SIZED.load(Ordering::Relaxed) - segs0;
        let m = metrics.borrow();
        assert!(
            m.done && m.bytes == TOTAL as u64,
            "{arch:?}: transfer incomplete"
        );

        // The world's fixed structures and the arena's warm-up read
        // 0.49-0.52 at this transfer size (release and debug alike); the
        // bound leaves 0.1 of margin. A fresh `Vec` per send (the sender's
        // 16 KiB payload before it came from the arena) or a copy into
        // one anywhere on the path (segment payload, receive-buffer read)
        // would add 1.0 each.
        let per_byte = bytes as f64 / TOTAL as f64;
        eprintln!("{arch:?}: {per_byte:.4} bytes per payload byte, {segment_sized} segment-sized allocations, {steady:.5} allocations per warm event");
        assert!(
            per_byte <= 0.62,
            "{arch:?}: {per_byte:.3} bytes allocated per payload byte delivered"
        );
        // Payload scratch and frame buffers come from the arena: a few
        // while it warms up (0-4 measured), not one per segment.
        let segments = (TOTAL / MSS) as u64;
        assert!(
            segment_sized <= 8,
            "{arch:?}: {segment_sized} segment-sized allocations for {segments} segments"
        );
        // Warm, the pair's data path reuses every buffer and list: the
        // release build reads 0.005-0.0065 per event.
        if RELEASE {
            assert!(
                steady <= 0.02,
                "{arch:?}: {steady:.4} allocations per event past the warm-up"
            );
        }
    }

    // The warm blast, and the telemetry budget on it: what full
    // telemetry adds per event, and the total it allows.
    for arch in [
        Architecture::Bsd,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let on = fig3_allocs_per_event(arch, true);
        let off = fig3_allocs_per_event(arch, false);
        eprintln!("{arch:?}: {on:.4} allocations per event with telemetry on, {off:.4} off");
        assert!(
            on - off <= TELEMETRY_ALLOC_BUDGET,
            "{arch:?}: telemetry on allocates {on:.4} per event, off {off:.4}: \
             over the {TELEMETRY_ALLOC_BUDGET} budget"
        );
        if RELEASE {
            assert!(
                on <= BLAST_ALLOCS_PER_EVENT,
                "{arch:?}: the warm blast allocates {on:.4} per event"
            );
        }
    }

    // Span-log storage outlives its world: on a thread of its own, a
    // second blast world records its spans into the chunks the first one
    // returned, so its bytes per event are what the rest of telemetry and
    // the host allocate.
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let bytes = second_fig3_bytes_per_event(arch);
        eprintln!("{arch:?}: {bytes:.3} bytes per event in a second blast world");
        if RELEASE {
            assert!(
                bytes <= SECOND_BLAST_BYTES_PER_EVENT,
                "{arch:?}: a second blast world allocates {bytes:.3} bytes per event"
            );
        }
    }

    // The span log's coded size: a blast world on a fresh thread, run
    // until its span log is full, holds it in at most a stated number of
    // 64 KiB chunks. Release only: filling the log takes about 16
    // simulated seconds, too long for a debug run.
    if RELEASE {
        let made = fig3_chunks_at_a_full_span_log(Architecture::NiLrp);
        eprintln!("NiLrp: a full span log takes {made} chunks");
        assert!(
            made <= FULL_SPAN_LOG_CHUNKS,
            "a full span log took {made} chunks"
        );
    }

    // PCB churn: each cycle retires the oldest connection (by key or by
    // socket, alternately), admits a new one and looks it up, as a busy
    // server's table does. The warm-up grows the slots and both hash
    // indexes to their working size; after it, compaction reuses them.
    let local = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
    let key = |i: u32| {
        let remote = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), i as u16);
        FlowKey::new(proto::TCP, local, remote)
    };
    let mut pcb = PcbTable::new();
    pcb.insert(FlowKey::listening(proto::TCP, local), SockId(u32::MAX))
        .expect("fresh table");
    let mut cycle = |i: u32| {
        let old = i - LIVE_PCBS;
        if old.is_multiple_of(2) {
            pcb.remove(&key(old));
        } else {
            pcb.remove_socket(SockId(old));
        }
        pcb.insert(key(i), SockId(i)).expect("fresh key");
        assert_eq!(
            pcb.lookup(proto::TCP, local, key(i).remote).sock,
            Some(SockId(i))
        );
    };
    // The first `LIVE_PCBS` cycles retire nothing: they fill the table.
    (LIVE_PCBS..20_000).for_each(&mut cycle);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    (20_000..30_000).for_each(&mut cycle);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    assert_eq!(allocs, 0, "10 000 PCB churn cycles at {LIVE_PCBS} live");

    // NI channel churn: every channel queues into the NIC's one frame
    // slab, so storage follows the frames queued at once, not the
    // channels that ever held one. The NIC first makes (and frees) a slot
    // for every channel the cycles create. Each cycle then creates a
    // channel, queues one to five frames on it, and drains the channel
    // made `LIVE_CHANNELS` cycles before; one cycle in four also destroys
    // that one, whose slot the next cycle takes again.
    let mut nic = Nic::new(DemuxMode::Ni, HOST_B, 64);
    let frame = Frame::ipv4(lrp::wire::udp::build_datagram(
        HOST_A, HOST_B, 9, 7, 1, b"hi", true,
    ));
    let stamp = Stamp {
        at: SimTime::ZERO,
        span: None,
    };
    let slots: Vec<_> = (0..11_000).map(|_| nic.create_channel(8)).collect();
    slots.into_iter().for_each(|c| nic.destroy_channel(c));
    let mut made = std::collections::VecDeque::new();
    let mut cycle = |i: usize| {
        let c = nic.create_channel(8);
        for _ in 0..=i % 5 {
            assert!(nic.channel_mut(c).enqueue(frame.clone(), stamp));
        }
        made.push_back(c);
        if made.len() > LIVE_CHANNELS {
            let old = made.pop_front().expect("a channel made before");
            while nic.channel_mut(old).dequeue().is_some() {}
            if i.is_multiple_of(4) {
                nic.destroy_channel(old);
            }
        }
    };
    (0..1_000).for_each(&mut cycle);
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    (1_000..11_000).for_each(&mut cycle);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    assert_eq!(allocs, 0, "10 000 NI channel churn cycles");
    assert_eq!(nic.check_depth_gauge(), Ok(()));

    // Connection churn: the HTTP scenario's eight closed-loop clients,
    // each cycle a connect, a 100-byte request, a 1 300-byte response and
    // a close on both hosts. Past the warm-up the connections alive at
    // once (most of them in TIME_WAIT) hold steady, so every new one is
    // built in recycled storage: its connection, its socket buffers'
    // chains, its NI channel's frames and its deadline-heap slot.
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let cfg = syn_flood::config(arch, syn_flood::Defense::None);
        let (mut world, clients) = syn_flood::build(cfg, 0.0, None);
        let cycles = || clients.iter().map(|m| m.borrow().transactions).sum::<u64>();
        world.run_until(CHURN_WARM_UP);
        let (allocs0, bytes0, cycles0) = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
            cycles(),
        );
        let mut now = CHURN_WARM_UP;
        while cycles() - cycles0 < CHURN_CYCLES {
            now += SimDuration::from_millis(1);
            world.run_until(now);
        }
        let n = cycles() - cycles0;
        let per_cycle = (ALLOCS.load(Ordering::Relaxed) - allocs0) as f64 / n as f64;
        let bytes_per_cycle = (BYTES.load(Ordering::Relaxed) - bytes0) as f64 / n as f64;
        eprintln!("{arch:?}: {per_cycle:.3} allocations, {bytes_per_cycle:.0} bytes per connection cycle over {n}");
        // Release reads 0.038 (4.4BSD) and 0.046 (NI-LRP) allocations,
        // 290 and 451 bytes. A box per connection, or a buffer grown per
        // connection, reads 1.0 allocations or more each; before
        // connection storage was recycled the cycle read 11.2 and 12.9.
        // A socket table that grows with every socket ever opened reads
        // 0.34 and 0.37 allocations, 2 857 and 3 025 bytes (slots of 312
        // bytes in a `Vec` that doubles); at 184-byte slots it would
        // still add about 740 bytes a cycle, two sockets of amortized
        // doubling.
        if RELEASE {
            assert!(
                per_cycle <= 0.15,
                "{arch:?}: {per_cycle:.3} allocations per connect/request/close cycle"
            );
            assert!(
                bytes_per_cycle <= 800.0,
                "{arch:?}: {bytes_per_cycle:.0} bytes allocated per connect/request/close cycle"
            );
        }
    }

    // Listener churn: a server opens a listener, accepts one connection,
    // closes it and the listener, and starts over, while a client dials
    // it again and again. Past the warm-up every listener's queues are
    // lists through its children's socket slots and every socket, PCB
    // entry, channel and connection is built in recycled storage, so a
    // cycle allocates nothing. A `VecDeque` per queue, as the listener
    // had, allocates two per cycle: one for the SYN's half-open entry,
    // one for the accept queue.
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let (mut world, accepted) = listen_churn(arch);
        world.run_until(CHURN_WARM_UP);
        let (allocs0, cycles0) = (ALLOCS.load(Ordering::Relaxed), *accepted.borrow());
        let mut now = CHURN_WARM_UP;
        while *accepted.borrow() - cycles0 < CHURN_CYCLES {
            now += SimDuration::from_millis(1);
            assert!(now < SimTime::from_secs(60), "{arch:?}: the churn stalled");
            world.run_until(now);
        }
        let n = *accepted.borrow() - cycles0;
        let per_cycle = (ALLOCS.load(Ordering::Relaxed) - allocs0) as f64 / n as f64;
        eprintln!("{arch:?}: {per_cycle:.3} allocations per listen/accept/close cycle over {n}");
        if RELEASE {
            assert!(
                per_cycle <= 0.05,
                "{arch:?}: {per_cycle:.3} allocations per listen/accept/close cycle"
            );
        }
    }

    // Fresh connections: 200 clients connect at once on a thread of their
    // own, whose connection pool and frame arena start empty, so every
    // connection, its socket buffers' chains, its NI channel and its
    // frames are built in new storage. A second burst world on the same
    // thread then builds its connections in the boxes the first one
    // returned when it dropped.
    for (arch, fresh_ceiling, pooled_ceiling) in [
        (Architecture::Bsd, 12.0, 6.0),
        (Architecture::NiLrp, 18.0, 7.0),
    ] {
        let (fresh, pooled) =
            std::thread::spawn(move || (burst_allocs_per_conn(arch), burst_allocs_per_conn(arch)))
                .join()
                .expect("burst thread");
        eprintln!(
            "{arch:?}: {fresh:.2} allocations per fresh connection, {pooled:.2} in pooled boxes"
        );
        // Release reads 11.46 (4.4BSD) and 15.11 (NI-LRP; each connection
        // also builds an NI channel) fresh, and 4.22 and 5.04 in pooled
        // boxes. With a 64-entry pool per host, dropped with the host, the
        // second burst read 7.30 and 9.06. Before socket buffers held
        // their first slice inline, the four chains of a client and
        // server connection (a send and a receive side on each host)
        // allocated their queues on the first append, about five more
        // allocations per connection.
        if RELEASE {
            assert!(
                fresh <= fresh_ceiling,
                "{arch:?}: {fresh:.2} allocations per fresh connection"
            );
            assert!(
                pooled <= pooled_ceiling,
                "{arch:?}: {pooled:.2} allocations per connection in pooled boxes"
            );
        }
    }

    // The statclock sample on an idle host: 256 processes blocked in
    // `recv`, nobody charged. A tick appends one row to the flat timeline
    // and to the per-row logs, which grow by doubling: 0.0006 allocations
    // per tick. A `Vec` per row, or anything process-sized, reads 1.0 or
    // more.
    let mut world = World::with_defaults();
    let mut cfg = HostConfig::new(Architecture::Bsd);
    cfg.telemetry = true;
    let mut host = Host::new(cfg, Ipv4Addr::new(10, 0, 0, 2));
    for i in 0..IDLE_PROCS {
        host.spawn_app("idle", 0, 0, Box::new(PingPongServer::new(7000 + i)));
    }
    world.add_host(host);
    world.run_until(SimTime::from_secs(1));
    let host = &mut world.hosts[0];
    let procs = host.sched.procs();
    assert_eq!(procs.len(), IDLE_PROCS as usize);
    assert!(
        procs
            .iter()
            .all(|p| matches!(p.state, ProcState::Sleeping(_))),
        "every process blocked"
    );
    let mut now = world.now;
    let mut tick = || {
        now += SimDuration::from_millis(10);
        host.on_tick(now);
    };
    (0..1_000).for_each(|_| tick());
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    (0..IDLE_TICKS).for_each(|_| tick());
    let per_tick = (ALLOCS.load(Ordering::Relaxed) - allocs0) as f64 / IDLE_TICKS as f64;
    eprintln!("{per_tick:.4} allocations per tick with {IDLE_PROCS} idle processes");
    assert!(
        per_tick <= 0.01,
        "{per_tick:.3} allocations per tick with {IDLE_PROCS} idle processes"
    );
}

/// Simulated time before the blast counts as warm.
const BLAST_WARM_UP: SimTime = SimTime::from_millis(200);

/// Simulated time before a bulk transfer counts as warm.
const BULK_WARM_UP: SimTime = SimTime::from_millis(50);

/// Simulated time before connection churn counts as warm: past the
/// first connections' 500 ms TIME_WAIT.
const CHURN_WARM_UP: SimTime = SimTime::from_secs(2);

/// Connect/request/close cycles measured once warm.
const CHURN_CYCLES: u64 = 1_000;

/// Clients that connect at once in the fresh-connection burst.
const BURST_CLIENTS: usize = 200;

/// Processes on the idle host, and the ticks measured on it.
const IDLE_PROCS: u16 = 256;
const IDLE_TICKS: u32 = 10_000;

/// Connections alive at once in the PCB churn cycles.
const LIVE_PCBS: u32 = 500;

/// Channels holding frames at once in the NI channel churn cycles.
const LIVE_CHANNELS: usize = 16;

/// Allocations per event that full telemetry may add on the warm blast.
/// Release runs read, on / off: BSD 0.0004 / 0.0000, SOFT-LRP 0.0001 /
/// 0.0001, NI-LRP 0.0001 / 0.0000; debug builds add the same to a larger
/// base (below). BSD runs first, on the test's thread with no span-log
/// chunk pooled yet, so it makes one 64 KiB chunk per 14 000 or so coded
/// span events; the later worlds record into the chunks it returned.
/// That is under a fifth of the gap measured when the bound was a ratio
/// of 1.25 (BSD 0.0557 − 0.0502 = 0.0055), and unlike a ratio it
/// neither grows with `off` nor vanishes as `off` goes to zero.
const TELEMETRY_ALLOC_BUDGET: f64 = 0.001;

/// Allocations per event on the warm blast with telemetry on.
const BLAST_ALLOCS_PER_EVENT: f64 = 0.002;

/// Bytes per event in a second blast world on one thread, telemetry on.
/// Release runs read BSD 0.65 and NI-LRP 0.49; with the telemetry logs
/// in fixed-width words they read 1.01 and 0.86, and with the span log
/// in one vector that grows by doubling from empty in every world, 27.7
/// and 54.7.
const SECOND_BLAST_BYTES_PER_EVENT: f64 = 2.0;

/// Span-log chunks made on a fresh thread by a Figure-3 blast world
/// whose span log has filled. Release runs read 74; at 16 bytes an event
/// the log took 256.
const FULL_SPAN_LOG_CHUNKS: u64 = 80;

/// The per-event pins hold under release codegen, the benchmark's.
/// Debug builds re-derive every host index each 251st event
/// (`Host::check_invariants`), whose scratch sets add 0.02-0.08 allocations
/// per event; the differences and per-byte and per-tick bounds hold in
/// both.
const RELEASE: bool = !cfg!(debug_assertions);

/// The port [`ListenCycler`] listens on.
const CHURN_PORT: u16 = 8080;

/// Opens a listener on [`CHURN_PORT`], accepts one connection, closes it
/// and the listener, and starts over; counts the connections accepted.
struct ListenCycler {
    listener: Option<SockId>,
    child: Option<SockId>,
    step: u8,
    accepted: Shared<u64>,
}

impl AppLogic for ListenCycler {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        match ret {
            SyscallRet::Socket(s) => self.listener = Some(s),
            SyscallRet::Accepted(c) => {
                self.child = Some(c);
                *self.accepted.borrow_mut() += 1;
            }
            SyscallRet::Ok => {}
            other => panic!("listen churn: {other:?}"),
        }
        let sock = self.listener.expect("socket() succeeded");
        self.step += 1;
        match self.step {
            1 => SyscallOp::Bind {
                sock,
                port: CHURN_PORT,
            },
            2 => SyscallOp::Listen { sock, backlog: 8 },
            3 => SyscallOp::Accept { sock },
            4 => SyscallOp::Close {
                sock: self.child.take().expect("accepted"),
            },
            5 => SyscallOp::Close { sock },
            _ => {
                self.step = 0;
                SyscallOp::Socket(SockProto::Tcp)
            }
        }
    }
}

/// Connects to `dst`, closes the socket whether the connect succeeded or
/// not, and dials again 2 ms later, when the listener has been opened
/// again.
struct Redialer {
    dst: Endpoint,
    sock: Option<SockId>,
    step: u8,
}

impl AppLogic for Redialer {
    fn start(&mut self, _ctx: AppCtx) -> SyscallOp {
        SyscallOp::Socket(SockProto::Tcp)
    }

    fn resume(&mut self, _ctx: AppCtx, ret: SyscallRet) -> SyscallOp {
        if let SyscallRet::Socket(s) = ret {
            self.sock = Some(s);
        }
        let sock = self.sock.expect("socket() succeeded");
        self.step += 1;
        match self.step {
            1 => SyscallOp::Connect {
                sock,
                dst: self.dst,
            },
            2 => SyscallOp::Close { sock },
            3 => SyscallOp::Sleep(SimDuration::from_millis(2)),
            _ => {
                self.step = 0;
                SyscallOp::Socket(SockProto::Tcp)
            }
        }
    }
}

/// A [`ListenCycler`] on one host and a [`Redialer`] on another, with
/// the HTTP scenario's hosts (a 500 ms TIME_WAIT); the connections
/// accepted.
fn listen_churn(arch: Architecture) -> (World, Shared<u64>) {
    let cfg = syn_flood::config(arch, syn_flood::Defense::None);
    let mut world = World::with_defaults();
    let accepted = shared::<u64>();
    let mut server = Host::new(cfg, HOST_B);
    server.spawn_app(
        "listen-cycler",
        0,
        0,
        Box::new(ListenCycler {
            listener: None,
            child: None,
            step: 0,
            accepted: accepted.clone(),
        }),
    );
    let mut client = Host::new(cfg, HOST_A);
    client.spawn_app(
        "redialer",
        0,
        0,
        Box::new(Redialer {
            dst: Endpoint::new(HOST_B, CHURN_PORT),
            sock: None,
            step: 0,
        }),
    );
    world.add_host(client);
    world.add_host(server);
    (world, accepted)
}

/// An HTTP server of eight workers, with a backlog that takes every
/// SYN, and [`BURST_CLIENTS`] closed-loop clients on a second host; the
/// clients' metrics.
fn connection_burst(arch: Architecture) -> (World, Vec<Shared<HttpMetrics>>) {
    let cfg = syn_flood::config(arch, syn_flood::Defense::None);
    let mut world = World::with_defaults();
    let mut server = Host::new(cfg, HOST_B);
    let listener: SharedListener = Rc::new(RefCell::new(None));
    for i in 0..8 {
        server.spawn_app(
            &format!("httpd-{i}"),
            0,
            64 * 1024,
            Box::new(HttpWorker::new(
                80,
                BURST_CLIENTS,
                1_300,
                SimDuration::from_micros(500),
                i == 0,
                listener.clone(),
            )),
        );
    }
    let mut client_host = Host::new(cfg, HOST_A);
    let clients: Vec<_> = (0..BURST_CLIENTS)
        .map(|i| {
            let m = shared::<HttpMetrics>();
            client_host.spawn_app(
                &format!("client-{i}"),
                0,
                0,
                Box::new(HttpClient::new(
                    Endpoint::new(HOST_B, 80),
                    100,
                    1_300,
                    m.clone(),
                )),
            );
            m
        })
        .collect();
    world.add_host(client_host);
    world.add_host(server);
    (world, clients)
}

/// Allocations per connection over one [`connection_burst`]: from the
/// first SYN until as many transactions as clients have completed.
fn burst_allocs_per_conn(arch: Architecture) -> f64 {
    let (mut world, clients) = connection_burst(arch);
    let transactions = || clients.iter().map(|m| m.borrow().transactions).sum::<u64>();
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let mut now = SimTime::ZERO;
    while transactions() < BURST_CLIENTS as u64 {
        now += SimDuration::from_millis(1);
        assert!(now < SimTime::from_secs(10), "{arch:?}: the burst stalled");
        world.run_until(now);
    }
    (ALLOCS.load(Ordering::Relaxed) - allocs0) as f64 / transactions() as f64
}

/// Bytes allocated per event while running the second of two Figure-3
/// blast worlds (as [`fig3_allocs_per_event`] builds them, telemetry on)
/// on a thread of its own, from the second world's start to its end.
fn second_fig3_bytes_per_event(arch: Architecture) -> f64 {
    let run = move || {
        let (mut world, _m) = fig3::build_seeded(arch, 12_000.0, true, 7);
        let bytes0 = BYTES.load(Ordering::Relaxed);
        world.run_until(BLAST_WARM_UP + SimDuration::from_secs(1));
        let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
        bytes as f64 / world.events_processed() as f64
    };
    std::thread::spawn(move || {
        run();
        run()
    })
    .join()
    .expect("blast thread")
}

/// Allocations per event over one simulated second of the Figure-3 blast
/// (12 000 pkts/s, Poisson, seed 7) once past [`BLAST_WARM_UP`], with
/// every host's telemetry on (as the experiment builds it) or off.
fn fig3_allocs_per_event(arch: Architecture, telemetry: bool) -> f64 {
    let (mut world, _m) = fig3::build_seeded(arch, 12_000.0, true, 7);
    if !telemetry {
        for h in &mut world.hosts {
            h.set_telemetry(false);
        }
    }
    world.run_until(BLAST_WARM_UP);
    let (allocs0, events0) = (ALLOCS.load(Ordering::Relaxed), world.events_processed());
    world.run_until(BLAST_WARM_UP + SimDuration::from_secs(1));
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    allocs as f64 / (world.events_processed() - events0) as f64
}

/// Span-log chunks this thread's pool has made once a Figure-3 blast
/// world (as [`fig3_allocs_per_event`] builds it, telemetry on), run on
/// a thread of its own, has a host whose span log holds
/// [`SPAN_LOG_CAP`] events.
fn fig3_chunks_at_a_full_span_log(arch: Architecture) -> u64 {
    let run = move || {
        let (mut world, _m) = fig3::build_seeded(arch, 12_000.0, true, 7);
        let full = |w: &World| {
            w.hosts
                .iter()
                .any(|h| h.telemetry().span_log().len() == SPAN_LOG_CAP)
        };
        let mut now = SimTime::ZERO;
        while !full(&world) {
            now += SimDuration::from_secs(1);
            assert!(
                now <= SimTime::from_secs(40),
                "{arch:?}: the span log never filled"
            );
            world.run_until(now);
        }
        span_chunk_stats().made
    };
    std::thread::spawn(run).join().expect("blast thread")
}
