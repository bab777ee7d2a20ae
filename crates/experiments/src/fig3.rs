//! Figure 3: UDP throughput versus offered load.
//!
//! A client blasts 14-byte UDP datagrams at a fixed rate at a server
//! process that receives and discards them. The paper's result: 4.4BSD
//! peaks near 7 400 pkts/s then collapses toward livelock by ~20 000;
//! NI-LRP climbs to ~11 000 and stays flat; SOFT-LRP peaks near 9 760 and
//! declines only slightly (demux overhead); Early-Demux is stable but
//! delivers only 40–65 % of SOFT-LRP.

use crate::{Output, HOST_B};
use lrp_apps::{shared, BlastSink, Shared, SinkMetrics};
use lrp_core::{Architecture, Host, HostConfig, World};
use lrp_net::{Injector, Pattern};
use lrp_sim::SimTime;
use lrp_telemetry::{span_trace_chrome, Json};
use lrp_wire::{udp, Frame, Ipv4Addr};

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Offered load, packets/second.
    pub offered: f64,
    /// Delivered (consumed by the application) packets/second.
    pub delivered: f64,
}

/// The source address blast packets claim to come from.
const BLAST_SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// The blast destination port.
const BLAST_PORT: u16 = 9000;
/// Blast payload size (the paper uses 14 bytes).
const PAYLOAD: usize = 14;

/// Builds the blast scenario and returns the world + sink metrics.
pub fn build(arch: Architecture, offered_pps: f64, poisson: bool) -> (World, Shared<SinkMetrics>) {
    build_seeded(arch, offered_pps, poisson, 7)
}

/// [`build`] with an explicit injector seed (the figure uses seed 7).
pub fn build_seeded(
    arch: Architecture,
    offered_pps: f64,
    poisson: bool,
    seed: u64,
) -> (World, Shared<SinkMetrics>) {
    blast_world(
        crate::host_config(arch),
        pattern(offered_pps, poisson),
        seed,
    )
}

/// The blast scenario on one server host built from `cfg`: a sink
/// process on the blast port, and an injector sending it 14-byte
/// datagrams under `pattern` from 50 ms on. The server is host 0; a
/// caller adds further processes to it before the first `run_until`.
pub fn blast_world(cfg: HostConfig, pattern: Pattern, seed: u64) -> (World, Shared<SinkMetrics>) {
    let mut world = World::with_defaults();
    let metrics = shared::<SinkMetrics>();
    let mut server = Host::new(cfg, HOST_B);
    server.spawn_app(
        "blast-sink",
        0,
        0,
        Box::new(BlastSink::new(BLAST_PORT, metrics.clone())),
    );
    let b = world.add_host(server);
    let blast = udp::Template::new(BLAST_SRC, HOST_B, 6000, BLAST_PORT, &[0; PAYLOAD]);
    let inj = Injector::new(pattern, SimTime::from_millis(50), seed, move |seq| {
        Frame::ipv4(blast.stamp((seq & 0xFFFF) as u16, seq))
    });
    world.add_injector(b, inj);
    (world, metrics)
}

/// The steady-state delivered rate of [`blast_world`] run for
/// `duration`, skipping the first 5 buckets (500 ms warm-up).
pub(crate) fn blast_rate(cfg: HostConfig, pattern: Pattern, seed: u64, duration: SimTime) -> f64 {
    let (mut world, metrics) = blast_world(cfg, pattern, seed);
    world.run_until(duration);
    let rate = metrics.borrow().series.steady_rate(5);
    rate
}

/// Poisson or fixed-rate arrivals at `pps`.
fn pattern(pps: f64, poisson: bool) -> Pattern {
    if poisson {
        Pattern::Poisson { pps }
    } else {
        Pattern::FixedRate { pps }
    }
}

/// Measures the delivered rate for one architecture at one offered load.
pub fn measure(arch: Architecture, offered_pps: f64, duration: SimTime) -> Point {
    measure_seeded(arch, offered_pps, false, 7, duration)
}

/// [`measure`] with an explicit arrival pattern and injector seed.
pub fn measure_seeded(
    arch: Architecture,
    offered_pps: f64,
    poisson: bool,
    seed: u64,
    duration: SimTime,
) -> Point {
    let cfg = crate::host_config(arch);
    Point {
        offered: offered_pps,
        delivered: blast_rate(cfg, pattern(offered_pps, poisson), seed, duration),
    }
}

/// The offered-load sweep of Figure 3.
pub fn sweep_rates() -> Vec<f64> {
    vec![
        1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0, 7_000.0, 8_000.0, 9_000.0, 10_000.0,
        11_000.0, 12_000.0, 14_000.0, 16_000.0, 18_000.0, 20_000.0, 22_000.0, 25_000.0,
    ]
}

/// Runs the whole figure: every architecture over the sweep.
pub fn run(duration: SimTime) -> Vec<(Architecture, Vec<Point>)> {
    crate::all_architectures()
        .into_iter()
        .map(|arch| {
            let pts = sweep_rates()
                .into_iter()
                .map(|r| measure(arch, r, duration))
                .collect();
            (arch, pts)
        })
        .collect()
}

/// Renders the figure as a table plus an ASCII plot.
pub fn render(results: &[(Architecture, Vec<Point>)]) -> String {
    let mut rows = Vec::new();
    if let Some((_, first)) = results.first() {
        for (i, p) in first.iter().enumerate() {
            let mut row = vec![format!("{:.0}", p.offered)];
            for (_, pts) in results {
                row.push(format!("{:.0}", pts[i].delivered));
            }
            rows.push(row);
        }
    }
    let mut header = vec!["offered pkts/s"];
    for (arch, _) in results {
        header.push(arch.name());
    }
    let mut out = String::from("Figure 3: throughput vs offered load (UDP, 14-byte msgs)\n\n");
    out.push_str(&crate::plot::table(&header, &rows));
    out.push('\n');
    let markers = ['b', 'e', 's', 'n'];
    let series: Vec<crate::plot::Series<'_>> = results
        .iter()
        .zip(markers)
        .map(|((arch, pts), m)| {
            (
                m,
                arch.name(),
                pts.iter().map(|p| (p.offered, p.delivered)).collect(),
            )
        })
        .collect();
    out.push_str(&crate::plot::scatter(
        "delivered vs offered",
        "offered pkts/s",
        "delivered pkts/s",
        &series,
        70,
        18,
    ));
    out
}

/// Offered rate of the representative instrumented runs: deep in the
/// livelock region of Figure 3.
const OVERLOAD_PPS: f64 = 20_000.0;

/// One architecture's representative instrumented run: 1 simulated
/// second at [`OVERLOAD_PPS`].
pub(crate) fn overload_run(arch: Architecture) -> World {
    let (mut world, _metrics) = build(arch, OVERLOAD_PPS, false);
    world.run_until(SimTime::from_secs(1));
    world
}

/// The span log of the overloaded NI-LRP run as a chrome://tracing
/// (Perfetto) trace: one slice per recorded stage, tied per request by
/// flow arrows keyed on the span id.
pub fn overload_trace() -> String {
    span_trace_chrome(&overload_run(Architecture::NiLrp))
}

/// The registry entry: the figure at 3 simulated seconds per point, plus
/// one instrumented overload run per architecture.
pub fn output() -> Output {
    const SECS: u64 = 3;
    let results = run(SimTime::from_secs(SECS));
    let hosts = crate::all_architectures()
        .into_iter()
        .map(|arch| crate::report(format!("overload-{}", arch.name()), &overload_run(arch)))
        .collect();
    let data = crate::arch_series(&results, |p| {
        Json::obj(vec![
            ("offered_pps", Json::F64(p.offered)),
            ("delivered_pps", Json::F64(p.delivered)),
        ])
    });
    let params = vec![
        ("duration_s", Json::U64(SECS)),
        ("overload_pps", Json::F64(OVERLOAD_PPS)),
    ];
    Output::new(render(&results) + "\n", params, data, hosts)
}
