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
//!   over the same run with telemetry off;
//! - the PCB table (DESIGN.md §16): connection churn at a steady table
//!   size allocates nothing once the table has grown to that size;
//! - the statclock sample (DESIGN.md §16): a tick on a host of idle
//!   processes appends its timeline row to storage that grows by
//!   doubling, and allocates nothing per tick or per process.
//!
//! This binary has its own counting `#[global_allocator]` and a single
//! test, so the counters see the simulation and nothing else.

use lrp::apps::PingPongServer;
use lrp::core::{Architecture, CcAlgo, Host, HostConfig, World};
use lrp::experiments::{fault_sweep, fig3};
use lrp::net::FaultPlan;
use lrp::sched::ProcState;
use lrp::sim::{SimDuration, SimTime};
use lrp::stack::{PcbTable, SockId};
use lrp::wire::{proto, Endpoint, FlowKey, Ipv4Addr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes moved per architecture.
const TOTAL: usize = 4 << 20;
/// The default MSS: a full segment's payload buffer, which becomes its
/// frame, is this plus 40 bytes of IP and TCP header room.
const MSS: usize = 9140;

// Relaxed: the counters are statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static SEGMENT_SIZED: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if (MSS..=MSS + 44).contains(&size) {
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

/// Processes on the idle host, and the ticks measured on it.
const IDLE_PROCS: u16 = 256;
const IDLE_TICKS: u32 = 10_000;

/// Connections alive at once in the PCB churn cycles.
const LIVE_PCBS: u32 = 500;

/// Allocations per event that full telemetry may add on the warm blast.
/// Release runs read, on / off: BSD 0.0005 / 0.0001, SOFT-LRP and NI-LRP
/// 0.0003 / 0.0001; debug builds add the same to a larger base (below).
/// That is under a fifth of the gap measured when the bound was a ratio
/// of 1.25 (BSD 0.0557 − 0.0502 = 0.0055), and unlike a ratio it
/// neither grows with `off` nor vanishes as `off` goes to zero.
const TELEMETRY_ALLOC_BUDGET: f64 = 0.001;

/// Allocations per event on the warm blast with telemetry on.
const BLAST_ALLOCS_PER_EVENT: f64 = 0.002;

/// The per-event pins hold under release codegen, the benchmark's.
/// Debug builds re-derive every host index each 251st event
/// (`Host::check_indexes`), whose scratch sets add 0.02-0.08 allocations
/// per event; the differences and per-byte and per-tick bounds hold in
/// both.
const RELEASE: bool = !cfg!(debug_assertions);

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
