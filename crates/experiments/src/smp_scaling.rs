//! SMP scaling: aggregate UDP throughput versus CPU count.
//!
//! The Figure-3 blast workload, generalized to many flows so the NIC's
//! RSS hash spreads receive interrupts across CPUs: `FLOWS` sink
//! processes each own one port, and one injector per flow blasts it with
//! 14-byte datagrams. Sweeping 1/2/4 CPUs over {4.4BSD, SOFT-LRP,
//! NI-LRP} shows which architecture's overload behaviour survives the
//! move to SMP: NI-LRP's per-channel demand interrupts and lazy
//! processing scale with added CPUs, while BSD's shared IP queue and
//! eager softirq work collapse on every CPU at once under overload.

use crate::{Output, HOST_B};
use lrp_apps::{shared, BlastSink, Shared, SinkMetrics};
use lrp_core::{Architecture, Host, HostConfig, World};
use lrp_net::{Injector, Pattern};
use lrp_sim::{SimDuration, SimTime};
use lrp_telemetry::Json;
use lrp_wire::{udp, Frame, Ipv4Addr};

/// The source address blast packets claim to come from.
const BLAST_SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// First sink port; flow `i` binds `BASE_PORT + i`.
pub const BASE_PORT: u16 = 9000;
/// Number of concurrent flows (and sink processes).
pub const FLOWS: usize = 8;
/// Blast payload size (the paper uses 14 bytes).
const PAYLOAD: usize = 14;

/// One measured point of the scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Aggregate offered load, packets/second (all flows together).
    pub offered: f64,
    /// Aggregate delivered (application-consumed) packets/second.
    pub delivered: f64,
    /// Per-CPU utilization over the run, 0.0–1.0.
    pub cpu_util: Vec<f64>,
    /// Inter-processor interrupts posted (0 on a uniprocessor).
    pub ipis: u64,
    /// Per-CPU charged time sums to the scheduler's total (conservation).
    pub charge_ok: bool,
}

/// The scaling results for one `(architecture, ncpus)` cell.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Architecture measured.
    pub arch: Architecture,
    /// Simulated CPUs.
    pub ncpus: usize,
    /// One point per offered rate of [`sweep_rates`].
    pub points: Vec<ScalePoint>,
}

impl ScaleRow {
    /// Peak aggregate delivered rate over the sweep.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.delivered).fold(0.0, f64::max)
    }

    /// The livelock onset: the first offered rate (after the peak) where
    /// delivery falls below 80 % of the peak. `None` if throughput never
    /// collapses within the sweep.
    pub fn livelock_onset(&self) -> Option<f64> {
        let peak = self.peak();
        let peak_at = self
            .points
            .iter()
            .position(|p| p.delivered == peak)
            .unwrap_or(0);
        self.points[peak_at..]
            .iter()
            .find(|p| p.delivered < 0.8 * peak)
            .map(|p| p.offered)
    }
}

/// Builds the multi-flow blast scenario: `FLOWS` sinks on the server and
/// one injector per flow, each carrying `offered_pps / FLOWS`.
pub fn build(
    arch: Architecture,
    ncpus: usize,
    offered_pps: f64,
    seed: u64,
) -> (World, usize, Vec<Shared<SinkMetrics>>) {
    let mut world = World::with_defaults();
    let mut cfg = HostConfig::smp(arch, ncpus);
    cfg.telemetry = true;
    let mut server = Host::new(cfg, HOST_B);
    let mut metrics = Vec::with_capacity(FLOWS);
    for i in 0..FLOWS {
        let m = shared::<SinkMetrics>();
        server.spawn_app(
            &format!("blast-sink-{i}"),
            0,
            0,
            Box::new(BlastSink::new(BASE_PORT + i as u16, m.clone())),
        );
        metrics.push(m);
    }
    let b = world.add_host(server);
    let per_flow = offered_pps / FLOWS as f64;
    for i in 0..FLOWS {
        let (sport, port) = (6000 + i as u16, BASE_PORT + i as u16);
        let blast = udp::Template::new(BLAST_SRC, HOST_B, sport, port, &[0; PAYLOAD]);
        let inj = Injector::new(
            Pattern::Poisson { pps: per_flow },
            SimTime::from_millis(50),
            seed.wrapping_add(i as u64),
            move |seq| Frame::ipv4(blast.stamp((seq & 0xFFFF) as u16, seq)),
        );
        world.add_injector(b, inj);
    }
    (world, b, metrics)
}

/// Measures one `(arch, ncpus, offered)` point.
pub fn measure(
    arch: Architecture,
    ncpus: usize,
    offered_pps: f64,
    duration: SimTime,
) -> ScalePoint {
    let (mut world, b, metrics) = build(arch, ncpus, offered_pps, 7);
    world.run_until(duration);
    // Skip the first 5 buckets (500 ms warm-up) per flow, as in Figure 3.
    let delivered: f64 = metrics
        .iter()
        .map(|m| m.borrow().series.steady_rate(5))
        .sum();
    let host = &world.hosts[b];
    let elapsed = duration.since(SimTime::ZERO);
    let cpu_util = (0..host.ncpus())
        .map(|c| host.cpu_busy(c).as_secs_f64() / elapsed.as_secs_f64())
        .collect();
    let charged: SimDuration =
        (0..host.ncpus()).fold(SimDuration::ZERO, |acc, c| acc + host.sched.charged_on(c));
    ScalePoint {
        offered: offered_pps,
        delivered,
        cpu_util,
        ipis: host.stats.ipis,
        charge_ok: charged == host.sched.total_charged(),
    }
}

/// Aggregate offered rates swept per cell (covers the 1-CPU livelock
/// region and the 4-CPU headroom).
pub fn sweep_rates() -> Vec<f64> {
    vec![
        4_000.0, 8_000.0, 12_000.0, 16_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0,
    ]
}

/// CPU counts swept.
pub fn cpu_counts() -> Vec<usize> {
    vec![1, 2, 4]
}

/// Runs the whole experiment: {BSD, SOFT-LRP, NI-LRP} × {1, 2, 4} CPUs
/// over the offered-rate sweep.
pub fn run(duration: SimTime) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    for arch in crate::main_architectures() {
        for ncpus in cpu_counts() {
            let points = sweep_rates()
                .into_iter()
                .map(|r| measure(arch, ncpus, r, duration))
                .collect();
            rows.push(ScaleRow {
                arch,
                ncpus,
                points,
            });
        }
    }
    rows
}

/// Renders the scaling tables.
pub fn render(rows: &[ScaleRow]) -> String {
    let mut out = String::from(
        "SMP scaling: aggregate UDP throughput vs CPU count\n\
         (8 flows, 14-byte msgs, RSS-steered multi-queue RX)\n\n",
    );
    let mut header = vec!["offered pkts/s".to_string()];
    for r in rows {
        header.push(format!("{} x{}", r.arch.name(), r.ncpus));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Vec::new();
    for (i, rate) in sweep_rates().iter().enumerate() {
        let mut row = vec![format!("{rate:.0}")];
        for r in rows {
            row.push(format!("{:.0}", r.points[i].delivered));
        }
        table.push(row);
    }
    out.push_str(&crate::plot::table(&header_refs, &table));
    out.push_str("\nPer-cell summary:\n");
    for r in rows {
        let last = r.points.last().expect("non-empty sweep");
        let util: Vec<String> = last
            .cpu_util
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect();
        out.push_str(&format!(
            "  {:>9} x{}: peak {:>6.0} pkts/s, livelock onset {}, \
             util@{:.0} [{}], ipis {}, charge {}\n",
            r.arch.name(),
            r.ncpus,
            r.peak(),
            r.livelock_onset()
                .map(|r| format!("{r:.0}"))
                .unwrap_or_else(|| "none".into()),
            last.offered,
            util.join(" "),
            last.ipis,
            if last.charge_ok { "ok" } else { "LEAK" },
        ));
    }
    out
}

/// Aggregate offered rate of the representative instrumented runs.
const OVERLOAD_PPS: f64 = 40_000.0;
/// CPU count of the representative instrumented runs.
const NCPUS: usize = 4;

/// The registry entry: the sweep at 1 simulated second per point, plus
/// one instrumented 4-CPU overload run per architecture (the
/// ledger must balance even with RSS-steered multi-queue receive).
pub fn output() -> Output {
    const SECS: u64 = 1;
    let rows = run(SimTime::from_secs(SECS));
    let hosts = crate::main_architectures()
        .into_iter()
        .map(|arch| {
            let (mut world, _b, _metrics) = build(arch, NCPUS, OVERLOAD_PPS, 7);
            world.run_until(SimTime::from_secs(1));
            crate::report(format!("smp{}-{}", NCPUS, arch.name()), &world)
        })
        .collect();
    let data = crate::arr(&rows, |r| {
        let points = crate::arr(&r.points, |p| {
            Json::obj(vec![
                ("offered_pps", Json::F64(p.offered)),
                ("delivered_pps", Json::F64(p.delivered)),
                ("cpu_util", crate::arr(&p.cpu_util, |&u| Json::F64(u))),
                ("ipis", Json::U64(p.ipis)),
                ("charge_ok", Json::Bool(p.charge_ok)),
            ])
        });
        Json::obj(vec![
            ("arch", Json::str(r.arch.name())),
            ("ncpus", Json::U64(r.ncpus as u64)),
            ("peak_pps", Json::F64(r.peak())),
            (
                "livelock_onset_pps",
                r.livelock_onset().map_or(Json::Null, Json::F64),
            ),
            ("points", points),
        ])
    });
    let params = vec![
        ("duration_s", Json::U64(SECS)),
        ("overload_pps", Json::F64(OVERLOAD_PPS)),
        ("ncpus", Json::U64(NCPUS as u64)),
    ];
    Output::new(render(&rows) + "\n", params, data, hosts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_DURATION: SimTime = SimTime::from_millis(600);

    fn delivered(arch: Architecture, ncpus: usize, pps: f64) -> ScalePoint {
        measure(arch, ncpus, pps, TEST_DURATION)
    }

    #[test]
    fn uniprocessor_matches_classic_behaviour_shape() {
        // Under heavy overload one CPU of BSD delivers far less than
        // NI-LRP (the Figure 3 result, multi-flow variant).
        let bsd = delivered(Architecture::Bsd, 1, 24_000.0);
        let ni = delivered(Architecture::NiLrp, 1, 24_000.0);
        assert!(
            ni.delivered > 2.0 * bsd.delivered,
            "NI-LRP {} vs BSD {}",
            ni.delivered,
            bsd.delivered
        );
    }

    #[test]
    fn nilrp_scales_with_cpus_under_overload() {
        let one = delivered(Architecture::NiLrp, 1, 40_000.0);
        let four = delivered(Architecture::NiLrp, 4, 40_000.0);
        assert!(
            four.delivered >= 2.0 * one.delivered,
            "4 CPUs {} vs 1 CPU {}",
            four.delivered,
            one.delivered
        );
        assert!(four.ipis > 0, "cross-CPU wakeups post IPIs");
        assert_eq!(one.ipis, 0, "no IPIs on a uniprocessor");
    }

    #[test]
    fn charges_are_conserved_across_cpus() {
        for ncpus in [1, 2, 4] {
            let p = delivered(Architecture::SoftLrp, ncpus, 8_000.0);
            assert!(p.charge_ok, "ncpus={ncpus}");
            assert_eq!(p.cpu_util.len(), ncpus);
            assert!(p.cpu_util.iter().all(|u| (0.0..=1.0).contains(u)));
        }
    }
}
