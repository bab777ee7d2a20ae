//! Figure 3 *over time*: the livelock collapse as a timeline, not a
//! single steady-state number.
//!
//! A fig3-style UDP blast (20 000 pkts/s, Poisson, seed 7) hits a server
//! running the blast sink **plus** a metered compute process — the
//! paper's background job. The per-host metrics timeline then shows, in
//! 10 ms samples, what each architecture does under sustained overload:
//!
//! - **BSD**: the delivered rate decays toward zero while drops explode,
//!   and the compute process's user-CPU line flattens (starvation) —
//!   interrupt/softirq work eats the machine.
//! - **NI-LRP / SOFT-LRP**: the delivered rate holds a flat plateau and
//!   the compute process keeps making (reduced, but steady) progress.
//!
//! The same run feeds the simulated-cycle profiler, whose
//! charge-attribution report quantifies the paper's accounting claim:
//! under BSD a large fraction of protocol cycles is billed to a process
//! other than the datagrams' receiver, while the LRP architectures bill
//! essentially all of it to the receiver.

use crate::Output;
use lrp_apps::{shared, MeteredCompute, Shared, SinkMetrics};
use lrp_core::{AnomalyKind, Architecture, Host, World};
use lrp_net::Pattern;
use lrp_sim::SimTime;
use lrp_telemetry::{
    anomalies_json, attribution_json, folded_stacks, misattributed_fraction, span_breakdown_json,
    timeline_gnuplot, timeline_json, Json,
};

/// Offered load: deep in Figure 3's livelock region.
pub const OFFERED_PPS: f64 = 20_000.0;
/// Injector seed (the same one fig3 pins).
pub const SEED: u64 = 7;

/// The timeline scenario: fig3's blast server plus a metered compute
/// process (the BSD charging victim and starvation witness). Returns the
/// world, the sink metrics and the compute slice counter.
pub fn build(arch: Architecture, seed: u64) -> (World, Shared<SinkMetrics>, Shared<u64>) {
    let pattern = Pattern::Poisson { pps: OFFERED_PPS };
    let (mut world, metrics) = crate::fig3::blast_world(crate::host_config(arch), pattern, seed);
    let slices = shared::<u64>();
    let compute = MeteredCompute::new(slices.clone());
    world.hosts[0].spawn_app("compute", 0, 0, Box::new(compute));
    (world, metrics, slices)
}

/// Results of one architecture's timeline run.
pub struct ArchRun {
    /// Architecture measured.
    pub arch: Architecture,
    /// The finished world (host 0 is the instrumented server).
    pub world: World,
    /// Datagrams the sink consumed.
    pub received: u64,
    /// 1 ms compute slices the background process completed.
    pub slices: u64,
    /// Fraction of protocol cycles billed away from the receiver.
    pub misattributed: f64,
}

/// Runs one architecture for `duration`.
pub fn run_arch(arch: Architecture, duration: SimTime) -> ArchRun {
    let (mut world, metrics, slices) = build(arch, SEED);
    world.run_until(duration);
    let received = metrics.borrow().received;
    let slices = *slices.borrow();
    let misattributed = misattributed_fraction(&world.hosts[0]);
    ArchRun {
        arch,
        world,
        received,
        slices,
        misattributed,
    }
}

/// Runs all four architectures.
pub fn run(duration: SimTime) -> Vec<ArchRun> {
    crate::all_architectures()
        .iter()
        .map(|&arch| run_arch(arch, duration))
        .collect()
}

/// Derives the delivered-rate series (pkts/s per sample interval) from a
/// host's cumulative `delivered_udp` timeline column.
pub fn delivered_rate_series(host: &Host) -> Vec<(u64, f64)> {
    let tele = host.telemetry();
    let tl = tele.timeline();
    let col = tl
        .columns()
        .iter()
        .position(|c| *c == "delivered_udp")
        .expect("delivered_udp column");
    let rows = tl.rows();
    let mut out = Vec::with_capacity(rows.len());
    let mut prev_t = 0u64;
    let mut prev_v = 0u64;
    for r in rows {
        let dt = r.t_ns.saturating_sub(prev_t);
        let dv = r.values[col].saturating_sub(prev_v);
        if dt > 0 {
            out.push((r.t_ns, dv as f64 * 1e9 / dt as f64));
        }
        prev_t = r.t_ns;
        prev_v = r.values[col];
    }
    out
}

/// The per-sample user-CPU share (0..1) of process `pid` over each
/// timeline interval.
pub fn user_cpu_share_series(host: &Host, pid: u32) -> Vec<(u64, f64)> {
    let tele = host.telemetry();
    let rows = tele.timeline().rows();
    let proc_rows = tele.timeline_proc_cpu();
    let mut out = Vec::with_capacity(rows.len());
    let mut prev_t = 0u64;
    let mut prev_user = 0u64;
    for (r, procs) in rows.zip(proc_rows) {
        let user = procs.get(pid as usize).map(|&(_, u)| u).unwrap_or(0);
        let dt = r.t_ns.saturating_sub(prev_t);
        if dt > 0 {
            let du = user.saturating_sub(prev_user);
            out.push((r.t_ns, du as f64 / dt as f64));
        }
        prev_t = r.t_ns;
        prev_user = user;
    }
    out
}

/// Mean of a series' tail (the last `frac` of samples) — the steady-state
/// value once warm-up is over.
pub fn tail_mean(series: &[(u64, f64)], frac: f64) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let skip = ((series.len() as f64) * (1.0 - frac)) as usize;
    let tail = &series[skip.min(series.len() - 1)..];
    tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64
}

/// A filesystem-friendly tag for an architecture, matching the
/// `fig3-nilrp` artifact naming convention.
pub fn arch_slug(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Bsd => "bsd",
        Architecture::EarlyDemux => "ed",
        Architecture::SoftLrp => "softlrp",
        Architecture::NiLrp => "nilrp",
    }
}

/// The pid of the metered compute process on [`build`]'s server host
/// (LRP hosts pre-spawn kernel threads, so the pid varies by
/// architecture).
pub fn compute_pid(host: &Host) -> u32 {
    host.sched
        .procs()
        .iter()
        .find(|p| p.name == "compute")
        .map(|p| p.pid.0)
        .expect("compute process")
}

/// Builds the `data` member of `results/livelock_timeline.json`: one
/// entry per architecture with the timeline, rate series, CPU-charge
/// attribution and span breakdown.
pub fn data_json(runs: &[ArchRun]) -> Json {
    Json::Arr(
        runs.iter()
            .map(|r| {
                let host = &r.world.hosts[0];
                let rates = delivered_rate_series(host);
                let shares = user_cpu_share_series(host, compute_pid(host));
                let series = |s: &[(u64, f64)]| {
                    Json::Arr(
                        s.iter()
                            .map(|&(t, v)| Json::Arr(vec![Json::U64(t), Json::F64(v)]))
                            .collect(),
                    )
                };
                Json::obj(vec![
                    ("arch", Json::str(r.arch.name())),
                    ("received", Json::U64(r.received)),
                    ("compute_slices", Json::U64(r.slices)),
                    ("delivered_pps", series(&rates)),
                    ("compute_user_share", series(&shares)),
                    ("delivered_pps_tail_mean", Json::F64(tail_mean(&rates, 0.5))),
                    (
                        "compute_user_share_tail_mean",
                        Json::F64(tail_mean(&shares, 0.5)),
                    ),
                    ("attribution", attribution_json(host)),
                    ("anomalies", anomalies_json(host)),
                    ("timeline", timeline_json(host)),
                    ("span_breakdown", span_breakdown_json(&r.world, "recv")),
                ])
            })
            .collect(),
    )
}

/// Renders the timeline experiment as text: the accounting table plus
/// delivered-rate-over-time plots.
pub fn render(runs: &[ArchRun]) -> String {
    let mut out = String::from(
        "Livelock timeline: Figure-3 dynamics over time (UDP blast, 20 kpps Poisson, seed 7)\n\n",
    );
    let header = [
        "arch",
        "received",
        "compute slices",
        "tail pkts/s",
        "tail user share",
        "misattributed",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let host = &r.world.hosts[0];
            let rates = delivered_rate_series(host);
            let shares = user_cpu_share_series(host, compute_pid(host));
            vec![
                r.arch.name().to_string(),
                r.received.to_string(),
                r.slices.to_string(),
                format!("{:.0}", tail_mean(&rates, 0.5)),
                format!("{:.3}", tail_mean(&shares, 0.5)),
                format!("{:.1}%", r.misattributed * 100.0),
            ]
        })
        .collect();
    out.push_str(&crate::plot::table(&header, &rows));
    out.push('\n');
    let markers = ['b', 'e', 's', 'n'];
    let series: Vec<crate::plot::Series<'_>> = runs
        .iter()
        .zip(markers)
        .map(|(r, m)| {
            let pts = delivered_rate_series(&r.world.hosts[0])
                .into_iter()
                .map(|(t, v)| (t as f64 / 1e9, v))
                .collect();
            (m, r.arch.name(), pts)
        })
        .collect();
    out.push_str(&crate::plot::scatter(
        "delivered rate over time",
        "t (s)",
        "pkts/s",
        &series,
        70,
        18,
    ));
    out
}

/// The registry entry: every architecture for 1 simulated second, with
/// per architecture the flamegraph folded stacks and the gnuplot
/// timeline columns of the server as sidecars.
///
/// It asserts two headline claims, so a regression fails the run. The
/// paper's accounting claim: BSD bills a large share of protocol cycles
/// to a non-receiver; the LRP architectures bill (essentially) all of
/// them to the receiver. The watchdog's: under the Figure-3 blast, BSD
/// trips receiver-livelock onset and NI-LRP never does — the detector,
/// not a human reading the timeline, distinguishes livelock from a busy
/// but healthy host.
pub fn output() -> Output {
    const SECS: u64 = 1;
    let runs = run(SimTime::from_secs(SECS));
    let mut hosts = Vec::new();
    let mut sidecars = Vec::new();
    for r in &runs {
        hosts.push(crate::report(format!("blast-{}", r.arch.name()), &r.world));
        let host = &r.world.hosts[0];
        let tag = arch_slug(r.arch);
        let stem = format!("livelock_timeline-{tag}");
        sidecars.push((format!("{stem}.folded"), folded_stacks(host, tag)));
        sidecars.push((format!("{stem}.gnuplot"), timeline_gnuplot(host)));

        match r.arch {
            Architecture::Bsd => assert!(
                r.misattributed > 0.20,
                "BSD misattributed only {:.1}% of protocol cycles",
                r.misattributed * 100.0
            ),
            Architecture::SoftLrp | Architecture::NiLrp => assert!(
                r.misattributed < 0.01,
                "{} misattributed {:.1}% of protocol cycles",
                r.arch.name(),
                r.misattributed * 100.0
            ),
            _ => {}
        }
        let onsets = host
            .telemetry()
            .anomalies()
            .iter()
            .filter(|e| e.kind == AnomalyKind::LivelockOnset)
            .count();
        match r.arch {
            Architecture::Bsd => assert!(
                onsets >= 1,
                "watchdog detected no livelock onset on BSD under the blast"
            ),
            Architecture::NiLrp => {
                assert_eq!(onsets, 0, "watchdog false-fired livelock onset on NI-LRP")
            }
            _ => {}
        }
    }
    let params = vec![
        ("duration_s", Json::U64(SECS)),
        ("offered_pps", Json::F64(OFFERED_PPS)),
        ("seed", Json::U64(SEED)),
        ("quick", Json::Bool(true)),
    ];
    let mut out = Output::new(render(&runs), params, data_json(&runs), hosts);
    out.sidecars = sidecars;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mean_basics() {
        assert_eq!(tail_mean(&[], 0.5), 0.0);
        let s = vec![(1, 0.0), (2, 0.0), (3, 10.0), (4, 10.0)];
        assert_eq!(tail_mean(&s, 0.5), 10.0);
    }

    #[test]
    fn build_spawns_sink_and_compute() {
        let (world, _, _) = build(Architecture::NiLrp, SEED);
        assert_eq!(world.hosts.len(), 1);
        // pid 0 = sink, pid 1 = compute (COMPUTE_PID).
        assert!(world.hosts[0].sched.procs().len() >= 2);
    }
}
