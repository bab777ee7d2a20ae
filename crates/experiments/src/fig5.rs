//! Figure 5: HTTP server throughput under a SYN flood to a different
//! port.
//!
//! Eight closed-loop clients saturate an HTTP server (≈1300-byte
//! document). A flood of TCP connection-establishment requests (SYNs) is
//! aimed at a *dummy* server on another port of the same machine, which
//! never accepts, so its backlog stays exhausted.
//!
//! Paper results: the BSD-based server collapses to livelock near
//! 10 000 SYN/s (SYN processing in software-interrupt context starves the
//! server processes; above 6 400/s the shared IP queue also drops real
//! HTTP traffic). The SOFT-LRP server declines only with the demux
//! overhead and still delivers ≈50 % of its maximum at 20 000 SYN/s;
//! flood traffic is discarded at the dummy socket's NI channel and never
//! interferes with HTTP traffic.
//!
//! Controls from the paper, all applied: TIME_WAIT shortened to 500 ms,
//! and the LRP kernel performs a redundant PCB lookup to remove the
//! demux-efficiency bias.

use crate::{Output, HOST_B};
use lrp_apps::{DummyListener, HttpMetrics, Shared};
use lrp_core::{Architecture, HostConfig, World};
use lrp_net::{Injector, Pattern};
use lrp_sim::{SimDuration, SimTime};
use lrp_telemetry::Json;
use lrp_wire::{tcp, Frame, Ipv4Addr};

const FLOOD_SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const DUMMY_PORT: u16 = 81;

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// SYN flood rate, packets/second.
    pub syn_pps: f64,
    /// Completed HTTP transactions/second.
    pub http_tps: f64,
    /// Client-visible connect failures/second.
    pub fail_rate: f64,
}

/// Host configuration with the paper's controls: TIME_WAIT shortened to
/// 500 ms, and a redundant PCB lookup on LRP.
pub fn config(arch: Architecture) -> HostConfig {
    let mut cfg = crate::host_config(arch);
    cfg.tcp.time_wait = SimDuration::from_millis(500);
    cfg.redundant_pcb_lookup = arch.is_lrp();
    cfg
}

/// Builds the scenario; returns the world and the per-client metrics.
pub fn build(arch: Architecture, syn_pps: f64) -> (World, Vec<Shared<HttpMetrics>>) {
    build_with_config(config(arch), syn_pps)
}

/// The paper's informal observation: under the flood "the server console
/// appears dead" on BSD but stays responsive under LRP. Measures an
/// interactive console process on the server: `(mean scheduling lag µs,
/// wakeups served)`. A console that never gets the CPU serves ~zero
/// wakeups — it is dead, whatever its "lag" claims.
pub fn measure_console_lag(arch: Architecture, syn_pps: f64, duration: SimTime) -> (f64, u64) {
    let (mut world, _m) = build(arch, syn_pps);
    let lag = lrp_apps::shared::<lrp_sim::Welford>();
    // The console runs on the server host (index 1 in build()).
    world.hosts[1].spawn_app(
        "console",
        0,
        0,
        Box::new(lrp_apps::Console::new(lag.clone())),
    );
    world.run_until(duration);
    let l = lag.borrow();
    (l.mean(), l.count())
}

/// Builds the scenario from an explicit host configuration (used by the
/// ablations): the HTTP service of [`crate::syn_flood::build`] without
/// its attacker, plus the dummy listener on the server and the flood
/// aimed at it.
pub fn build_with_config(cfg: HostConfig, syn_pps: f64) -> (World, Vec<Shared<HttpMetrics>>) {
    let (mut world, metrics) = crate::syn_flood::build(cfg, 0.0, None);
    let dummy = DummyListener::new(DUMMY_PORT, 5);
    world.hosts[1].spawn_app("dummy", 0, 0, Box::new(dummy));
    if syn_pps > 0.0 {
        let inj = Injector::new(
            Pattern::FixedRate { pps: syn_pps },
            SimTime::from_millis(100),
            23,
            move |seq| {
                // Fake SYNs from rotating source ports (never completed).
                let h = tcp::TcpHeader {
                    src_port: 1024 + (seq % 60_000) as u16,
                    dst_port: DUMMY_PORT,
                    seq: (seq as u32).wrapping_mul(2_654_435_761),
                    ack: 0,
                    flags: tcp::flags::SYN,
                    window: 8_192,
                    mss: Some(1_460),
                };
                Frame::ipv4(tcp::build_datagram(
                    FLOOD_SRC,
                    HOST_B,
                    &h,
                    (seq & 0xFFFF) as u16,
                    &[],
                ))
            },
        );
        world.add_injector(1, inj);
    }
    (world, metrics)
}

/// Measures HTTP throughput at one flood rate.
pub fn measure(arch: Architecture, syn_pps: f64, duration: SimTime) -> Point {
    let (mut world, metrics) = build(arch, syn_pps);
    world.run_until(duration);
    let span = duration.as_secs_f64() - 0.5;
    let mut tx = 0u64;
    let mut fails = 0u64;
    for m in &metrics {
        let m = m.borrow();
        tx += m.transactions;
        fails += m.failures;
    }
    Point {
        syn_pps,
        http_tps: tx as f64 / span,
        fail_rate: fails as f64 / span,
    }
}

/// The SYN-rate sweep of Figure 5.
pub fn sweep_rates() -> Vec<f64> {
    vec![
        0.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0, 14_000.0, 16_000.0, 18_000.0,
        20_000.0,
    ]
}

/// Runs the figure: 4.4BSD and SOFT-LRP as in the paper.
pub fn run(duration: SimTime) -> Vec<(Architecture, Vec<Point>)> {
    [Architecture::Bsd, Architecture::SoftLrp]
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

/// Renders the figure.
pub fn render(results: &[(Architecture, Vec<Point>)]) -> String {
    let mut rows = Vec::new();
    if let Some((_, first)) = results.first() {
        for (i, p) in first.iter().enumerate() {
            let mut row = vec![format!("{:.0}", p.syn_pps)];
            for (_, pts) in results {
                row.push(format!("{:.0}", pts[i].http_tps));
            }
            rows.push(row);
        }
    }
    let mut header = vec!["SYN pkts/s"];
    for (arch, _) in results {
        header.push(arch.name());
    }
    let mut out = String::from(
        "Figure 5: HTTP transactions/s vs SYN-flood rate to a dummy port\n\
         (8 closed-loop clients, ~1300-byte document, TIME_WAIT=500ms)\n\n",
    );
    out.push_str(&crate::plot::table(&header, &rows));
    out.push('\n');
    let markers = ['b', 's'];
    let series: Vec<crate::plot::Series<'_>> = results
        .iter()
        .zip(markers)
        .map(|((arch, pts), m)| {
            (
                m,
                arch.name(),
                pts.iter()
                    .map(|p| (p.syn_pps.max(1.0), p.http_tps))
                    .collect(),
            )
        })
        .collect();
    out.push_str(&crate::plot::scatter(
        "HTTP throughput vs SYN rate",
        "SYN pkts/s",
        "HTTP transactions/s",
        &series,
        70,
        16,
    ));
    out
}

/// SYN-flood rate of the console measurement and the representative
/// instrumented runs.
const FLOOD_PPS: f64 = 10_000.0;

/// The registry entry: the figure at 10 simulated seconds per point, plus
/// at 10 000 SYN/s the console responsiveness of 4.4BSD and SOFT-LRP and
/// one instrumented run per architecture.
pub fn output() -> Output {
    const SECS: u64 = 10;
    let results = run(SimTime::from_secs(SECS));
    let mut text = render(&results);
    text.push_str(
        "\nConsole responsiveness at 10k SYN/s (mean scheduling lag of an\n\
         interactive process on the server; the paper: BSD console dead,\n\
         LRP console responsive):\n",
    );
    let mut console = Vec::new();
    for arch in [Architecture::Bsd, Architecture::SoftLrp] {
        let (lag, served) = measure_console_lag(arch, FLOOD_PPS, SimTime::from_secs(3));
        let name = arch.name();
        // ~300 wakeups expected over 3 s at a 10 ms period.
        text += &if served < 30 {
            format!("  {name:9}: DEAD ({served} of ~300 wakeups served)\n")
        } else {
            format!("  {name:9}: responsive, mean lag {lag:>6.0} us ({served} wakeups)\n")
        };
        console.push(Json::obj(vec![
            ("arch", Json::str(name)),
            ("mean_lag_us", Json::F64(lag)),
            ("wakeups_served", Json::U64(served)),
        ]));
    }
    let hosts = results
        .iter()
        .map(|&(arch, _)| {
            let (mut world, _metrics) = build(arch, FLOOD_PPS);
            world.run_until(SimTime::from_secs(1));
            crate::report(format!("flood-{}", arch.name()), &world)
        })
        .collect();
    let series = crate::arch_series(&results, |p| {
        Json::obj(vec![
            ("syn_pps", Json::F64(p.syn_pps)),
            ("http_tps", Json::F64(p.http_tps)),
            ("fail_rate", Json::F64(p.fail_rate)),
        ])
    });
    let data = Json::obj(vec![("series", series), ("console", Json::Arr(console))]);
    let params = vec![
        ("duration_s", Json::U64(SECS)),
        ("flood_pps", Json::F64(FLOOD_PPS)),
    ];
    Output::new(text, params, data, hosts)
}
