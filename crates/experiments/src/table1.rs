//! Table 1: baseline round-trip latency, UDP throughput and TCP
//! throughput for SunOS+Fore / 4.4BSD / NI-LRP / SOFT-LRP.
//!
//! Demonstrates the paper's point that LRP's overload robustness costs
//! nothing at low load.

use crate::{Output, HOST_A, HOST_B};
use lrp_apps::{
    shared, PingPongClient, PingPongMetrics, PingPongServer, Shared, UdpWindowMetrics,
    UdpWindowSink, UdpWindowSource,
};
use lrp_core::{Architecture, Host, HostConfig, World};
use lrp_net::FaultPlan;
use lrp_sim::SimTime;
use lrp_telemetry::{span_breakdown_json, Json};
use lrp_wire::Endpoint;

/// One measured row of Table 1.
#[derive(Clone, Debug)]
pub struct Row {
    /// System label.
    pub system: &'static str,
    /// Mean UDP round-trip latency in microseconds.
    pub rtt_us: f64,
    /// UDP sliding-window goodput, Mbit/s.
    pub udp_mbps: f64,
    /// TCP bulk-transfer goodput, Mbit/s.
    pub tcp_mbps: f64,
}

/// The configurations of Table 1's four systems.
pub fn systems() -> Vec<(&'static str, HostConfig)> {
    let sunos = {
        let mut c = HostConfig::sunos_fore();
        c.telemetry = true;
        c
    };
    vec![
        ("SunOS+Fore", sunos),
        ("4.4BSD", crate::host_config(Architecture::Bsd)),
        ("NI-LRP", crate::host_config(Architecture::NiLrp)),
        ("SOFT-LRP", crate::host_config(Architecture::SoftLrp)),
    ]
}

/// Builds the UDP round-trip scenario (`rounds` 1-byte ping-pongs):
/// client on A, server on B. Returns the world and the client metrics.
pub fn build_rtt(cfg: HostConfig, rounds: u64) -> (World, Shared<PingPongMetrics>) {
    let mut world = World::with_defaults();
    let metrics = shared::<PingPongMetrics>();
    let mut a = Host::new(cfg, HOST_A);
    a.spawn_app(
        "pp-client",
        0,
        0,
        Box::new(PingPongClient::new(
            Endpoint::new(HOST_B, 6000),
            1,
            rounds,
            metrics.clone(),
        )),
    );
    let mut b = Host::new(cfg, HOST_B);
    b.spawn_app("pp-server", 0, 0, Box::new(PingPongServer::new(6000)));
    world.add_host(a);
    world.add_host(b);
    (world, metrics)
}

/// Measures the UDP round-trip latency via [`build_rtt`].
pub fn measure_rtt(cfg: HostConfig, rounds: u64) -> f64 {
    let (mut world, metrics) = build_rtt(cfg, rounds);
    // Generous bound: rounds x 10 ms each.
    world.run_until(SimTime::from_millis(10 * rounds + 1_000));
    let m = metrics.borrow();
    assert!(m.done, "ping-pong did not finish: {} rounds", m.count);
    m.mean_rtt_us()
}

/// Builds the sliding-window UDP transfer scenario (checksums off, 8 KB
/// datagrams) used by the throughput column. Returns the world and the
/// sink's metrics.
pub fn build_udp(cfg: HostConfig, datagrams: u64) -> (World, Shared<UdpWindowMetrics>) {
    let mut world = World::with_defaults();
    let metrics = shared::<UdpWindowMetrics>();
    let mut a = Host::new(cfg, HOST_A);
    a.spawn_app(
        "udp-src",
        0,
        0,
        Box::new(UdpWindowSource::new(
            Endpoint::new(HOST_B, 6300),
            8_000,
            datagrams,
            // Window of 5: 40 KB outstanding fits the 41.6 KB socket
            // buffer, so the unreliable window never deadlocks on a
            // sockbuf drop, while still covering the pipe's
            // bandwidth-delay product.
            5,
        )),
    );
    let mut b = Host::new(cfg, HOST_B);
    b.spawn_app(
        "udp-sink",
        0,
        0,
        Box::new(UdpWindowSink::new(6300, datagrams, metrics.clone())),
    );
    world.add_host(a);
    world.add_host(b);
    (world, metrics)
}

/// Measures sliding-window UDP goodput via [`build_udp`].
pub fn measure_udp_mbps(cfg: HostConfig, datagrams: u64) -> f64 {
    let (mut world, metrics) = build_udp(cfg, datagrams);
    world.run_until(SimTime::from_secs(60));
    let m = metrics.borrow();
    assert!(m.done, "udp window transfer incomplete: {}", m.count);
    m.mbps()
}

/// Measures TCP bulk goodput (24 MB, 32 KB socket buffers).
pub fn measure_tcp_mbps(cfg: HostConfig, total: usize) -> f64 {
    let (mut world, metrics) = crate::fault_sweep::bulk_world(cfg, FaultPlan::none(), total);
    world.run_until(SimTime::from_secs(120));
    let m = metrics.borrow();
    assert!(m.done, "tcp transfer incomplete: {} bytes", m.bytes);
    m.mbps()
}

/// Runs the table: 10 000 ping-pong rounds, 3 000 datagrams and a
/// 24 MiB TCP transfer per system.
pub fn run() -> Vec<Row> {
    systems()
        .into_iter()
        .map(|(name, cfg)| Row {
            system: name,
            rtt_us: measure_rtt(cfg, 10_000),
            udp_mbps: measure_udp_mbps(cfg, 3_000),
            tcp_mbps: measure_tcp_mbps(cfg, 24 << 20),
        })
        .collect()
}

/// Renders the table with the paper's values alongside.
pub fn render(rows: &[Row]) -> String {
    let paper = [
        ("SunOS+Fore", 1006, 64, 63),
        ("4.4BSD", 855, 82, 69),
        ("NI-LRP", 840, 92, 67),
        ("SOFT-LRP", 864, 86, 66),
    ];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let p = paper.iter().find(|p| p.0 == r.system);
            vec![
                r.system.to_string(),
                format!("{:.0}", r.rtt_us),
                p.map(|p| p.1.to_string()).unwrap_or_default(),
                format!("{:.0}", r.udp_mbps),
                p.map(|p| p.2.to_string()).unwrap_or_default(),
                format!("{:.0}", r.tcp_mbps),
                p.map(|p| p.3.to_string()).unwrap_or_default(),
            ]
        })
        .collect();
    let mut out = String::from("Table 1: latency and throughput (paper values in parentheses)\n\n");
    out.push_str(&crate::plot::table(
        &[
            "system", "RTT us", "(paper)", "UDP Mb/s", "(paper)", "TCP Mb/s", "(paper)",
        ],
        &table_rows,
    ));
    out
}

/// Ping-pong rounds of the instrumented span-breakdown run.
const SPAN_ROUNDS: u64 = 100;

/// The registry entry: the table, plus per system one instrumented
/// sliding-window UDP transfer and one instrumented RTT run whose
/// per-request (span) critical path goes into the row: every ping-pong
/// datagram carries a span id from the client's send through the
/// server's receive and reply back to the client, and the breakdown
/// reports the mean/max latency of each pipeline leg.
pub fn output() -> Output {
    let rows = run();
    let mut hosts = Vec::new();
    let mut breakdowns = Vec::new();
    for (name, cfg) in systems() {
        let (mut world, metrics) = build_udp(cfg, 300);
        world.run_until(SimTime::from_secs(60));
        assert!(metrics.borrow().done, "udp transfer incomplete: {name}");
        hosts.push(crate::report(format!("udp-{name}"), &world));

        let (mut world, metrics) = build_rtt(cfg, SPAN_ROUNDS);
        world.run_until(SimTime::from_millis(10 * SPAN_ROUNDS + 1_000));
        assert!(metrics.borrow().done, "rtt run incomplete: {name}");
        hosts.push(crate::report(format!("rtt-{name}"), &world));
        breakdowns.push(span_breakdown_json(&world, "recv"));
    }
    let data = Json::Arr(
        rows.iter()
            .zip(breakdowns)
            .map(|(r, breakdown)| {
                Json::obj(vec![
                    ("system", Json::str(r.system)),
                    ("rtt_us", Json::F64(r.rtt_us)),
                    ("udp_mbps", Json::F64(r.udp_mbps)),
                    ("tcp_mbps", Json::F64(r.tcp_mbps)),
                    ("rtt_span_breakdown", breakdown),
                ])
            })
            .collect(),
    );
    let params = vec![("quick", Json::Bool(false))];
    Output::new(render(&rows) + "\n", params, data, hosts)
}
