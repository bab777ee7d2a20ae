//! Determinism: the repository's reproducibility claim. Identical
//! configurations must produce bit-identical results — this is what makes
//! the regenerated figures trustworthy.

use lrp::core::Architecture;
use lrp::experiments::{fig3, fig5, table2};
use lrp::sim::SimTime;

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
    use lrp::experiments::fault_sweep;
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
    use lrp::experiments::syn_flood::{self, Defense};
    use lrp::stack::tcp::conn_pool_stats;
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

#[test]
fn table2_cell_is_identical_across_runs() {
    let a = table2::measure(Architecture::SoftLrp, table2::Variant::Fast);
    let b = table2::measure(Architecture::SoftLrp, table2::Variant::Fast);
    assert_eq!(a.worker_elapsed_s.to_bits(), b.worker_elapsed_s.to_bits());
    assert_eq!(a.rpc_rate.to_bits(), b.rpc_rate.to_bits());
}
