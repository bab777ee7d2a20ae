//! Figure 4: round-trip latency experienced by a ping-pong client while a
//! *separate* socket on the same server receives background blast
//! traffic.
//!
//! The paper's mechanisms, all reproduced by the simulation:
//!
//! - Every background packet interrupts the ping-pong processing (fixed
//!   interrupt cost — large in BSD, small in SOFT-LRP, negligible in
//!   NI-LRP), producing a non-linear latency rise with the rate.
//! - The UNIX scheduler favours the I/O-blocked blast receiver at low
//!   rates (it wakes at kernel priority), adding context-switch delays
//!   that *disappear* at high rates once the blast receiver turns
//!   compute-bound and its decayed priority drops — the hump near
//!   6–7 k pkts/s.
//! - BSD additionally mis-charges the blast processing to the ping-pong
//!   server, depressing its priority and amplifying the hump
//!   (≈1020 µs vs ≈750 µs peak in the paper).
//!
//! Both machines run a `nice +20` compute-bound process, as in the paper,
//! to avoid idle-loop artifacts.

use crate::{Output, HOST_A, HOST_B};
use lrp_apps::{
    shared, BlastSink, ComputeHog, PingPongClient, PingPongMetrics, PingPongServer, Shared,
    SinkMetrics,
};
use lrp_core::{Architecture, Host, World};
use lrp_net::{Injector, Pattern};
use lrp_sim::SimTime;
use lrp_telemetry::Json;
use lrp_wire::{udp, Frame, Ipv4Addr};

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Background blast rate, packets/second.
    pub background_pps: f64,
    /// Mean ping-pong round-trip time, microseconds.
    pub rtt_us: f64,
    /// 99th percentile RTT, microseconds.
    pub p99_us: f64,
}

const BLAST_SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const PP_PORT: u16 = 6000;
const BLAST_PORT: u16 = 9000;

/// Builds the two-host scenario: ping-pong pair plus background blast
/// aimed at a separate socket on the server. Returns the world and the
/// client's ping-pong metrics.
pub fn build(
    arch: Architecture,
    background_pps: f64,
    rounds: u64,
) -> (World, Shared<PingPongMetrics>) {
    let mut world = World::with_defaults();
    let pp = shared::<PingPongMetrics>();
    let blast = shared::<SinkMetrics>();

    let mut a = Host::new(crate::host_config(arch), HOST_A);
    a.spawn_app(
        "pp-client",
        0,
        0,
        Box::new(PingPongClient::new(
            lrp_wire::Endpoint::new(HOST_B, PP_PORT),
            14,
            rounds,
            pp.clone(),
        )),
    );
    a.spawn_app("bg-hog", 20, 0, Box::new(ComputeHog));

    let mut b = Host::new(crate::host_config(arch), HOST_B);
    b.spawn_app("pp-server", 0, 0, Box::new(PingPongServer::new(PP_PORT)));
    b.spawn_app(
        "blast-sink",
        0,
        0,
        Box::new(BlastSink::new(BLAST_PORT, blast.clone())),
    );
    b.spawn_app("bg-hog", 20, 0, Box::new(ComputeHog));

    world.add_host(a);
    let bidx = world.add_host(b);
    if background_pps > 0.0 {
        let frames = udp::Template::new(BLAST_SRC, HOST_B, 6001, BLAST_PORT, &[0; 14]);
        let inj = Injector::new(
            Pattern::FixedRate {
                pps: background_pps,
            },
            SimTime::from_millis(20),
            11,
            move |seq| Frame::ipv4(frames.stamp((seq & 0xFFFF) as u16, seq)),
        );
        world.add_injector(bidx, inj);
    }
    (world, pp)
}

/// Measures the client RTT at one background rate.
pub fn measure(arch: Architecture, background_pps: f64, rounds: u64) -> Point {
    let (mut world, pp) = build(arch, background_pps, rounds);
    // Bounded by rounds; generous cap for heavily loaded runs.
    world.run_until(SimTime::from_secs(30));
    let m = pp.borrow();
    Point {
        background_pps,
        rtt_us: m.mean_rtt_us(),
        p99_us: m.rtt.quantile(0.99) as f64 / 1_000.0,
    }
}

/// The background-rate sweep of Figure 4.
pub fn sweep_rates() -> Vec<f64> {
    vec![
        0.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0, 7_000.0, 8_000.0, 10_000.0,
        12_000.0, 14_000.0,
    ]
}

/// Runs the figure for the three systems the paper shows.
pub fn run(rounds: u64) -> Vec<(Architecture, Vec<Point>)> {
    crate::main_architectures()
        .into_iter()
        .map(|arch| {
            let pts = sweep_rates()
                .into_iter()
                .map(|r| measure(arch, r, rounds))
                .collect();
            (arch, pts)
        })
        .collect()
}

/// Renders the figure.
pub fn render(results: &[(Architecture, Vec<Point>)]) -> String {
    let mut rows = Vec::new();
    if let Some((_, first)) = results.first() {
        for (i, p) in first.iter().enumerate() {
            let mut row = vec![format!("{:.0}", p.background_pps)];
            for (_, pts) in results {
                row.push(format!("{:.0}", pts[i].rtt_us));
            }
            rows.push(row);
        }
    }
    let mut header = vec!["background pkts/s"];
    for (arch, _) in results {
        header.push(arch.name());
    }
    let mut out = String::from(
        "Figure 4: ping-pong RTT (us) vs background blast rate to a separate socket\n\n",
    );
    out.push_str(&crate::plot::table(&header, &rows));
    out.push('\n');
    let markers = ['b', 's', 'n'];
    let series: Vec<crate::plot::Series<'_>> = results
        .iter()
        .zip(markers)
        .map(|((arch, pts), m)| {
            (
                m,
                arch.name(),
                pts.iter().map(|p| (p.background_pps, p.rtt_us)).collect(),
            )
        })
        .collect();
    out.push_str(&crate::plot::scatter(
        "RTT vs background rate",
        "background pkts/s",
        "RTT us",
        &series,
        70,
        16,
    ));
    out
}

/// Background blast rate of the representative instrumented runs (the
/// top of the paper's latency hump).
const BACKGROUND_PPS: f64 = 8_000.0;

/// The registry entry: the figure at 2 000 ping-pong rounds per point,
/// plus one instrumented run per architecture at 8 000 pkts/s of
/// background.
pub fn output() -> Output {
    const ROUNDS: u64 = 2_000;
    let results = run(ROUNDS);
    let hosts = crate::main_architectures()
        .into_iter()
        .map(|arch| {
            let (mut world, _pp) = build(arch, BACKGROUND_PPS, 500);
            world.run_until(SimTime::from_secs(2));
            crate::report(format!("background-{}", arch.name()), &world)
        })
        .collect();
    let data = crate::arch_series(&results, |p| {
        Json::obj(vec![
            ("background_pps", Json::F64(p.background_pps)),
            ("rtt_us", Json::F64(p.rtt_us)),
            ("p99_us", Json::F64(p.p99_us)),
        ])
    });
    let params = vec![
        ("rounds", Json::U64(ROUNDS)),
        ("background_pps", Json::F64(BACKGROUND_PPS)),
    ];
    Output::new(render(&results) + "\n", params, data, hosts)
}
