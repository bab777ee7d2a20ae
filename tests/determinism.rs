//! Determinism: the repository's reproducibility claim. Identical
//! configurations must produce bit-identical results — this is what makes
//! the regenerated figures trustworthy.

use lrp::apps::{shared, BlastSink, Shared, TcpBulkMetrics, TcpBulkReceiver, TcpBulkSender};
use lrp::core::telemetry::span_chunk_stats;
use lrp::core::{Architecture, Host, World};
use lrp::experiments::syn_flood::{self, Defense};
use lrp::experiments::{
    crash_recovery, fault_sweep, fig3, fig5, host_config, smp_scaling, table2, HOST_A, HOST_B,
    HOST_C,
};
use lrp::net::{FaultPlan, Injector, Pattern};
use lrp::sim::{SimDuration, SimTime};
use lrp::stack::tcp::conn_pool_stats;
use lrp::wire::{frame_arena_stats, udp, Endpoint, Frame};

#[test]
fn fig3_point_is_bit_identical_across_runs() {
    let a = fig3::measure(Architecture::SoftLrp, 9_500.0, SimTime::from_secs(1));
    let b = fig3::measure(Architecture::SoftLrp, 9_500.0, SimTime::from_secs(1));
    assert_eq!(a.delivered.to_bits(), b.delivered.to_bits());
}

#[test]
fn fig5_point_is_bit_identical_across_runs() {
    let a = fig5::measure(Architecture::Bsd, 8_000.0, SimTime::from_secs(2));
    let b = fig5::measure(Architecture::Bsd, 8_000.0, SimTime::from_secs(2));
    assert_eq!(a.http_tps.to_bits(), b.http_tps.to_bits());
    assert_eq!(a.fail_rate.to_bits(), b.fail_rate.to_bits());
}

#[test]
fn full_host_state_identical_across_runs() {
    // Deeper than a summary statistic: every counter the kernel kept.
    let run = || {
        let (mut world, _m) = fig3::build(Architecture::NiLrp, 11_000.0, true);
        world.run_until(SimTime::from_secs(1));
        let h = &world.hosts[0];
        (
            h.stats.clone(),
            h.nic.stats(),
            h.sched.total_charged(),
            h.rx_frames(),
        )
    };
    let (s1, n1, c1, r1) = run();
    let (s2, n2, c2, r2) = run();
    assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
    assert_eq!(n1, n2);
    assert_eq!(c1, c2);
    assert_eq!(r1, r2);
}

/// Pre-SMP-refactor golden values for the Figure-3 blast scenario
/// (Poisson arrivals, 12 000 pkts/s offered, 1 s, three seeds). Captured
/// on the single-CPU host before `Vec<Cpu>` existed; an `ncpus = 1` host
/// must reproduce them bit-for-bit — same seeds, same event order.
/// Each row: (seed, arch, delivered-rate f64 bits, FNV-1a over the full
/// host state: stats, NIC stats, charged time, rx frame count).
const FIG3_GOLDEN: &[(u64, Architecture, u64, u64)] = &[
    (7, Architecture::Bsd, 0x40ab0c0000000000, 0xc7d7a13a0dd0a888),
    (
        7,
        Architecture::SoftLrp,
        0x40be100000000000,
        0xce3168dc747137aa,
    ),
    (
        7,
        Architecture::NiLrp,
        0x40c5300000000000,
        0x2ef2de8308903242,
    ),
    (
        11,
        Architecture::Bsd,
        0x40a9080000000000,
        0x7c7f96907699e4fb,
    ),
    (
        11,
        Architecture::SoftLrp,
        0x40bdbc0000000000,
        0xe48e30867580dc72,
    ),
    (
        11,
        Architecture::NiLrp,
        0x40c5310000000000,
        0x017b84eeb719f052,
    ),
    (
        23,
        Architecture::Bsd,
        0x40aca00000000000,
        0xe258b4e8907abaa3,
    ),
    (
        23,
        Architecture::SoftLrp,
        0x40be500000000000,
        0x4885ccc2f2cdf929,
    ),
    (
        23,
        Architecture::NiLrp,
        0x40c5300000000000,
        0x7e698acbf280cd9e,
    ),
];

fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Serializes the counters the goldens cover from explicit named fields,
/// with drops sorted by name. Hashing `Debug` output would silently tie
/// the goldens to `HashMap` iteration order (not stable across processes)
/// and to the exact field set of `HostStats` (which may legitimately grow).
fn host_state_string(h: &lrp::core::Host) -> String {
    let s = &h.stats;
    let mut drops: Vec<String> = s.drops.iter().map(|(k, v)| format!("{k:?}={v}")).collect();
    drops.sort();
    let n = h.nic.stats();
    format!(
        "udp={} udpB={} tcpB={} drops=[{}] hw={} soft={} ctx={} acc={} \
         nic(rx={} intr={} ring={} early={} tx={} ifq={}) charged={} rxf={}",
        s.udp_delivered,
        s.udp_delivered_bytes,
        s.tcp_delivered_bytes,
        drops.join(","),
        s.hw_chunks,
        s.soft_jobs,
        s.ctx_switches,
        s.tcp_accepted,
        n.rx_frames,
        n.interrupts,
        n.ring_drops,
        n.early_discards,
        n.tx_frames,
        n.ifq_drops,
        h.sched.total_charged(),
        h.rx_frames()
    )
}

#[test]
fn fig3_matches_pre_smp_baseline_for_three_seeds() {
    for &(seed, arch, delivered_bits, state_fnv) in FIG3_GOLDEN {
        let p = fig3::measure_seeded(arch, 12_000.0, true, seed, SimTime::from_secs(1));
        assert_eq!(
            p.delivered.to_bits(),
            delivered_bits,
            "delivered rate drifted from pre-SMP baseline (seed {seed}, {arch:?})"
        );
        let (mut world, _m) = fig3::build_seeded(arch, 12_000.0, true, seed);
        world.run_until(SimTime::from_secs(1));
        let state = host_state_string(&world.hosts[0]);
        assert_eq!(
            fnv1a(&state),
            state_fnv,
            "host state drifted from pre-SMP baseline (seed {seed}, {arch:?}): {state}"
        );
    }
}

/// The goldens above cover three architectures; this covers all four,
/// Early-Demux included: same seed, same full host state and event count.
#[test]
fn every_architecture_identical_across_runs() {
    for arch in [
        Architecture::Bsd,
        Architecture::EarlyDemux,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ] {
        let run = || {
            let (mut world, _m) = fig3::build_seeded(arch, 12_000.0, true, 7);
            world.run_until(SimTime::from_secs(1));
            (host_state_string(&world.hosts[0]), world.events_processed())
        };
        assert_eq!(run(), run(), "{arch:?} diverged between runs");
    }
}

/// Frame-arena recycling is a pure allocation strategy: a fault-heavy
/// TCP run (bursty loss, retransmissions, duplicated frames) must be
/// byte-identical on a cold arena and on one warmed by the same run.
/// This pins the fault stage's copy-free duplication — sharing one
/// buffer between both deliveries, or reusing one a previous world
/// returned, may not change what any host observes.
#[test]
fn fault_sweep_results_identical_on_cold_and_warm_frame_arena() {
    use lrp::stack::tcp::CcAlgo;
    let run = || {
        let mut plan = fault_sweep::burst_plan(0xB57, 0.02);
        plan.duplicate_p = 0.05;
        let (mut world, _m) =
            fault_sweep::build_cc(Architecture::Bsd, CcAlgo::NewReno, plan, 1 << 18);
        world.run_until(SimTime::from_secs(10));
        (
            host_state_string(&world.hosts[0]),
            host_state_string(&world.hosts[1]),
            world.events_processed(),
        )
    };
    // A fresh thread starts with an empty thread-local arena.
    let (cold, warm) = std::thread::spawn(move || (run(), run()))
        .join()
        .expect("run panicked");
    assert_eq!(cold, warm, "frame recycling changed results");
}

/// Connection boxes come from a thread-local pool that outlives every
/// world, and keep the chain and stash storage their last connection
/// grew. A SYN-flood world must be identical on a fresh thread and on
/// one whose pool an earlier flood world (another architecture and
/// defence) filled.
#[test]
fn syn_flood_identical_on_fresh_and_filled_connection_pool() {
    let run = |arch, defense| {
        let (mut world, clients) =
            syn_flood::build(syn_flood::config(arch, defense), 2_500.0, None);
        world.run_until(SimTime::from_secs(2));
        let transactions: u64 = clients.iter().map(|m| m.borrow().transactions).sum();
        (
            host_state_string(&world.hosts[0]),
            host_state_string(&world.hosts[1]),
            world.events_processed(),
            transactions,
        )
    };
    let fresh = std::thread::spawn(move || run(Architecture::NiLrp, Defense::Cookies))
        .join()
        .expect("run panicked");
    let filled = std::thread::spawn(move || {
        let _ = run(Architecture::Bsd, Defense::None);
        assert!(
            conn_pool_stats().pooled > 0,
            "the first world filled the pool"
        );
        run(Architecture::NiLrp, Defense::Cookies)
    })
    .join()
    .expect("run panicked");
    assert_eq!(fresh, filled, "pooled connection boxes changed results");
}

/// What a scenario computed: every host's state, the event count, and
/// the application's own count of work done.
type Outcome = (Vec<String>, u64, u64);

/// A scenario's name and its run on the calling thread.
type Scenario = (&'static str, fn() -> Outcome);

fn outcome(world: &World, app: u64) -> Outcome {
    let hosts = world.hosts.iter().map(host_state_string).collect();
    (hosts, world.events_processed(), app)
}

/// `flows` bulk transfers of `total` bytes, written `chunk` bytes at a
/// time, from host A to host B, with `plan` on the link into B.
fn fan_in(
    plan: FaultPlan,
    flows: u16,
    total: usize,
    chunk: usize,
) -> (World, Vec<Shared<TcpBulkMetrics>>) {
    let mut world = World::with_defaults();
    let cfg = host_config(Architecture::Bsd);
    let (mut a, mut b) = (Host::new(cfg, HOST_A), Host::new(cfg, HOST_B));
    let metrics: Vec<_> = (0..flows).map(|_| shared::<TcpBulkMetrics>()).collect();
    for (port, m) in (7000..).zip(&metrics) {
        let sender = TcpBulkSender::new(Endpoint::new(HOST_B, port), total, chunk);
        a.spawn_app("src", 0, 0, Box::new(sender));
        b.spawn_app(
            "sink",
            0,
            0,
            Box::new(TcpBulkReceiver::new(port, m.clone())),
        );
    }
    world.add_host(a);
    let bi = world.add_host(b);
    world.set_link_faults(bi, plan);
    (world, metrics)
}

/// Bursty loss, duplication and reordering on the link into B.
fn lossy_plan(rate: f64) -> FaultPlan {
    let mut plan = fault_sweep::burst_plan(0xB57, rate);
    plan.duplicate_p = 0.05;
    plan.reorder_p = 0.01;
    plan.reorder_max_delay = SimDuration::from_micros(500);
    plan
}

fn fig3_point() -> Outcome {
    let (mut world, sink) = fig3::build_seeded(Architecture::NiLrp, 12_000.0, true, 7);
    world.run_until(SimTime::from_millis(500));
    let received = sink.borrow().received;
    outcome(&world, received)
}

fn http_syn_flood() -> Outcome {
    let cfg = syn_flood::config(Architecture::NiLrp, Defense::Cookies);
    let (mut world, clients) = syn_flood::build(cfg, 2_500.0, None);
    world.run_until(SimTime::from_secs(2));
    let transactions = clients.iter().map(|m| m.borrow().transactions).sum();
    outcome(&world, transactions)
}

fn lossy_fan_in() -> Outcome {
    let (mut world, flows) = fan_in(lossy_plan(0.05), 4, 1 << 19, 16_384);
    world.run_until(SimTime::from_secs(3));
    let bytes = flows.iter().map(|m| m.borrow().bytes).sum();
    outcome(&world, bytes)
}

fn crash_and_reboot() -> Outcome {
    let (mut world, client, _) = crash_recovery::build_recovery(Architecture::NiLrp);
    world.run_until(SimTime::from_secs(1));
    let sent = client.borrow().sent;
    outcome(&world, sent)
}

fn smp_leg() -> Outcome {
    let (mut world, _, sinks) = smp_scaling::build(Architecture::NiLrp, 4, 40_000.0, 7);
    world.run_until(SimTime::from_millis(200));
    let received = sinks.iter().map(|m| m.borrow().received).sum();
    outcome(&world, received)
}

/// A world that leaves odd things in the thread's pools: UDP frames of
/// odd sizes, an undefended SYN flood cut off mid-handshake, and lossy
/// transfers written in odd chunks, cut off with bytes queued and
/// segments stashed out of order.
fn poison() {
    let mut world = World::with_defaults();
    let mut sink = Host::new(host_config(Architecture::Bsd), HOST_B);
    sink.spawn_app("sink", 0, 0, Box::new(BlastSink::new(9000, shared())));
    let b = world.add_host(sink);
    let sizes = [8, 37, 555, 1_313, 4_097, 8_999];
    let odd: Vec<_> = sizes
        .iter()
        .map(|&n| udp::Template::new(HOST_C, HOST_B, 6000, 9000, &vec![0x5A; n]))
        .collect();
    let inj = Injector::new(
        Pattern::FixedRate { pps: 5_000.0 },
        SimTime::ZERO,
        1,
        move |seq| Frame::ipv4(odd[seq as usize % odd.len()].stamp(seq as u16, seq)),
    );
    world.add_injector(b, inj);
    world.run_until(SimTime::from_millis(100));

    let cfg = syn_flood::config(Architecture::Bsd, Defense::None);
    let (mut world, _) = syn_flood::build(cfg, 5_000.0, None);
    world.run_until(SimTime::from_millis(700));

    let (mut world, _) = fan_in(lossy_plan(0.1), 4, 1 << 20, 1_013);
    world.run_until(SimTime::from_millis(300));
}

/// The thread-local pools (frame storage and boxes, connection boxes,
/// span-log chunks) outlive every world, and `lrp-exp` runs many worlds
/// per worker thread in whatever order the workers take them. Each
/// scenario must compute the same on a fresh thread and on one that
/// first ran a poisoning world and then every scenario, itself
/// included, twice over.
#[test]
fn every_scenario_is_identical_on_a_fresh_thread_and_after_all_the_others() {
    const SCENARIOS: [Scenario; 5] = [
        ("fig3 point", fig3_point),
        ("HTTP SYN flood", http_syn_flood),
        ("lossy fan-in", lossy_fan_in),
        ("crash and reboot", crash_and_reboot),
        ("SMP leg", smp_leg),
    ];
    let warm = std::thread::spawn(|| {
        poison();
        assert!(
            frame_arena_stats().boxes.pooled > 0,
            "the poison filled the box cache"
        );
        assert!(
            conn_pool_stats().pooled > 0,
            "the poison filled the connection pool"
        );
        assert!(
            span_chunk_stats().pooled > 0,
            "the poison filled the chunk pool"
        );
        let rounds = SCENARIOS.iter().chain(&SCENARIOS);
        rounds.map(|(_, run)| run()).collect::<Vec<_>>()
    });
    let fresh: Vec<Outcome> = SCENARIOS
        .iter()
        .map(|&(_, run)| std::thread::spawn(run).join().expect("fresh run panicked"))
        .collect();
    let warm = warm.join().expect("warm runs panicked");
    for (i, w) in warm.iter().enumerate() {
        let (name, _) = SCENARIOS[i % SCENARIOS.len()];
        assert_eq!(
            w,
            &fresh[i % SCENARIOS.len()],
            "{name}, round {}",
            i / SCENARIOS.len()
        );
    }
}

#[test]
fn table2_cell_is_identical_across_runs() {
    let a = table2::measure(Architecture::SoftLrp, table2::Variant::Fast);
    let b = table2::measure(Architecture::SoftLrp, table2::Variant::Fast);
    assert_eq!(a.worker_elapsed_s.to_bits(), b.worker_elapsed_s.to_bits());
    assert_eq!(a.rpc_rate.to_bits(), b.rpc_rate.to_bits());
}
