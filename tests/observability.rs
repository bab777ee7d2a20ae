//! Tier-1 tests for the time-resolved observability layer: the
//! simulated-cycle profiler (cross-checked against the scheduler's own
//! accounting), the CPU-charge attribution report (the paper's
//! mis-accounting claim, pinned), the metrics timeline and causal request
//! spans.

use std::collections::BTreeMap;

use lrp::core::{Architecture, HostConfig, TIMELINE_COLUMNS};
use lrp::experiments::{livelock_timeline as lt, table1};
use lrp::sim::SimTime;
use lrp::telemetry::{attribution_json, folded_stacks, span_breakdown_json, span_paths, Json};

/// The profiler is fed at the same charging choke point as the
/// scheduler's per-process accounting, so for every process the profiler's
/// per-account cycle sums must equal `CpuAccounting` exactly — under all
/// four architectures, at overload.
#[test]
fn profiler_agrees_with_scheduler_accounting() {
    for arch in lrp::experiments::all_architectures() {
        let r = lt::run_arch(arch, SimTime::from_millis(300));
        let host = &r.world.hosts[0];

        let mut per: BTreeMap<(u32, &str), u64> = BTreeMap::new();
        let mut billed_total = 0u64;
        for (k, ns) in host.telemetry().profiler().iter() {
            if let (Some(pid), Some(acct)) = (k.billed, k.account) {
                *per.entry((pid, acct)).or_default() += ns;
                billed_total += ns;
            }
        }

        for p in host.sched.procs() {
            for (acct, want) in [
                ("user", p.acct.user),
                ("system", p.acct.system),
                ("interrupt", p.acct.interrupt),
            ] {
                let got = per.get(&(p.pid.0, acct)).copied().unwrap_or(0);
                assert_eq!(
                    got,
                    want.as_nanos(),
                    "{arch:?}: pid {} ({}) {acct} cycles diverge from scheduler accounting",
                    p.pid.0,
                    p.name
                );
            }
        }
        // And nothing was billed to a pid the scheduler doesn't know.
        let t = host.sched.account_totals();
        assert_eq!(
            billed_total,
            t.user.as_nanos() + t.system.as_nanos() + t.interrupt.as_nanos(),
            "{arch:?}: profiler billed cycles outside the process table"
        );
    }
}

/// The paper's accounting claim, pinned: under Figure-3 overload BSD
/// bills a large share of protocol cycles to a process other than the
/// datagrams' receiver, while the LRP architectures bill essentially all
/// protocol cycles to the receiver.
#[test]
fn charge_attribution_pins_the_paper_claim() {
    for arch in lrp::experiments::all_architectures() {
        let r = lt::run_arch(arch, SimTime::from_secs(1));
        let attr = attribution_json(&r.world.hosts[0]);
        let receiver = attr
            .get("receiver_fraction")
            .and_then(Json::as_f64)
            .unwrap();
        match arch {
            Architecture::Bsd => assert!(
                r.misattributed > 0.20,
                "BSD misattributed only {:.1}% of protocol cycles",
                r.misattributed * 100.0
            ),
            Architecture::SoftLrp | Architecture::NiLrp => {
                assert!(
                    r.misattributed < 0.01,
                    "{arch:?} misattributed {:.1}%",
                    r.misattributed * 100.0
                );
                assert!(
                    receiver > 0.99,
                    "{arch:?} billed only {:.1}% to the receiver",
                    receiver * 100.0
                );
            }
            Architecture::EarlyDemux => {}
        }
    }
}

/// Folded flamegraph stacks of the pinned sub-run (NI-LRP, 1 simulated
/// second, seed 7 — the CI quick run) against the checked-in golden file.
/// Regenerate with:
/// `cargo run --release -p lrp-experiments --bin livelock_timeline -- --quick`
/// and copy `results/livelock_timeline-nilrp.folded` over the golden.
#[test]
fn folded_stacks_match_golden() {
    let r = lt::run_arch(Architecture::NiLrp, SimTime::from_secs(1));
    let folded = folded_stacks(&r.world.hosts[0], "nilrp");
    let golden = include_str!("golden/livelock_timeline.folded");
    assert_eq!(
        folded, golden,
        "folded stacks diverge from tests/golden/livelock_timeline.folded"
    );
}

/// Timeline sanity: rows sampled every 10 ms with strictly increasing
/// timestamps, cumulative columns monotone, per-process CPU series
/// aligned with the rows.
#[test]
fn timeline_samples_are_periodic_and_monotone() {
    let r = lt::run_arch(Architecture::NiLrp, SimTime::from_millis(500));
    let tele = r.world.hosts[0].telemetry();
    let tl = tele.timeline();
    assert_eq!(tl.columns(), TIMELINE_COLUMNS);
    let rows: Vec<_> = tl.rows().collect();
    assert!(rows.len() >= 40, "only {} samples in 500 ms", rows.len());
    assert_eq!(tl.dropped(), 0);

    let col = |name: &str| tl.columns().iter().position(|c| *c == name).unwrap();
    let cumulative = [
        col("delivered_udp"),
        col("host_dropped"),
        col("nic_ring_drops"),
        col("charged_ns"),
    ];
    for w in rows.windows(2) {
        assert!(w[0].t_ns < w[1].t_ns, "timestamps not increasing");
        for &c in &cumulative {
            assert!(
                w[0].values[c] <= w[1].values[c],
                "cumulative column {} decreased",
                tl.columns()[c]
            );
        }
    }
    // The blast delivered something and the samples saw it.
    let last = rows.last().unwrap();
    assert!(last.values[col("delivered_udp")] > 0);
    // The per-process series is rebuilt from a change log: every row
    // must still be a full snapshot. Each process's counters only grow,
    // and a row's totals sum to the same row's `charged_ns`.
    let procs = tele.timeline_proc_cpu();
    assert_eq!(procs.len(), rows.len());
    for (r, p) in rows.iter().zip(&procs) {
        let total: u64 = p.iter().map(|&(t, _)| t).sum();
        assert_eq!(total, r.values[col("charged_ns")], "at {} ns", r.t_ns);
        assert!(p.iter().all(|&(t, u)| u <= t));
    }
    for w in procs.windows(2) {
        assert!(w[0].len() <= w[1].len(), "a process vanished from a row");
        for (a, b) in w[0].iter().zip(&w[1]) {
            assert!(a.0 <= b.0 && a.1 <= b.1, "a process's CPU time decreased");
        }
    }
}

/// Causal request spans over the RTT workload: every ping-pong round is
/// one span from the client's send through the server back to the
/// client's receive, and the critical-path breakdown covers the pipeline
/// legs.
#[test]
fn rtt_spans_are_complete_per_round() {
    const ROUNDS: u64 = 20;
    let mut cfg = HostConfig::new(Architecture::NiLrp);
    cfg.telemetry = true;
    let (mut world, metrics) = table1::build_rtt(cfg, ROUNDS);
    world.run_until(SimTime::from_millis(10 * ROUNDS + 1_000));
    assert!(metrics.borrow().done, "ping-pong did not finish");

    let paths = span_paths(&world);
    assert_eq!(paths.len(), ROUNDS as usize, "one span per round");
    for p in &paths {
        assert_eq!(p.events.first().unwrap().0, "tx", "span starts at send");
        for stage in ["rx", "deliver", "recv"] {
            assert!(
                p.events.iter().any(|&(s, _)| s == stage),
                "span {:#x} missing stage {stage}: {:?}",
                p.span,
                p.events
            );
        }
        // Request and reply both traversed the wire.
        assert!(p.events.iter().filter(|&&(s, _)| s == "rx").count() >= 2);
        assert!(p.total_ns() > 0);
    }

    let b = span_breakdown_json(&world, "recv");
    assert_eq!(b.get("spans").and_then(Json::as_u64), Some(ROUNDS));
    assert_eq!(b.get("complete").and_then(Json::as_u64), Some(ROUNDS));
    assert_eq!(b.get("events_dropped").and_then(Json::as_u64), Some(0));
    let legs = b.get("legs").unwrap();
    for leg in ["tx->rx", "deliver->recv"] {
        let count = legs
            .get(leg)
            .and_then(|l| l.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(count > 0, "breakdown missing leg {leg}");
    }
    let mean = b
        .get("end_to_end")
        .and_then(|e| e.get("mean_ns"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        (100_000.0..10_000_000.0).contains(&mean),
        "implausible per-request latency: {mean} ns"
    );
}

/// Every latency stage in the committed `results/` is one histogram
/// summary: the keys `histogram_json` writes, percentiles in order.
#[test]
fn committed_results_quote_one_histogram_per_latency_stage() {
    const KEYS: [&str; 8] = ["count", "mean", "min", "p50", "p90", "p99", "p999", "max"];
    fn walk(j: &Json, stages: &mut usize) {
        match j {
            Json::Obj(members) => {
                for (k, v) in members {
                    if k != "latency_ns" {
                        walk(v, stages);
                        continue;
                    }
                    for (stage, h) in v.as_obj().expect("latency_ns is an object") {
                        let keys: Vec<&str> = h
                            .as_obj()
                            .unwrap()
                            .iter()
                            .map(|(k, _)| k.as_str())
                            .collect();
                        let u = |k: &str| h.get(k).and_then(Json::as_u64).unwrap();
                        if u("count") == 0 {
                            assert_eq!(keys, ["count"], "{stage}");
                            continue;
                        }
                        assert_eq!(keys, KEYS, "{stage}");
                        let q = ["p50", "p90", "p99", "p999", "max"].map(u);
                        assert!(q.windows(2).all(|w| w[0] <= w[1]), "{stage}: {q:?}");
                        *stages += 1;
                    }
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| walk(v, stages)),
            _ => {}
        }
    }
    let mut files = 0;
    let mut stages = 0;
    for entry in std::fs::read_dir(lrp::telemetry::results_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            walk(&doc, &mut stages);
            files += 1;
        }
    }
    assert_eq!(files, 13, "one results document per experiment");
    assert!(stages > 0, "no latency stage found");
}
