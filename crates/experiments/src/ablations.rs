//! Ablations over the design choices DESIGN.md calls out (A1–A6).
//!
//! These go beyond the paper's own figures: each one isolates one LRP
//! mechanism and shows what breaks without it.

use crate::{fault_sweep, fig3, Output};
use lrp_core::{Architecture, Host, World};
use lrp_net::{FaultPlan, Injector, Pattern};
use lrp_sim::{SimDuration, SimTime};
use lrp_telemetry::Json;
use lrp_wire::{tcp, udp, Frame, Ipv4Addr};

/// A generic named series of (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Label.
    pub name: String,
    /// Points.
    pub points: Vec<(f64, f64)>,
}

/// A1 — lazy processing vs eager-with-early-demux: the Figure 3 overload
/// delivered-rate of SOFT-LRP vs Early-Demux, as a ratio per offered load.
pub fn a1_lazy_vs_eager(duration: SimTime) -> Vec<Series> {
    let rates = [10_000.0, 14_000.0, 18_000.0, 22_000.0];
    let mut out = Vec::new();
    for arch in [Architecture::SoftLrp, Architecture::EarlyDemux] {
        let points = rates
            .iter()
            .map(|&r| {
                let p = fig3::measure(arch, r, duration);
                (r, p.delivered)
            })
            .collect();
        out.push(Series {
            name: arch.name().to_string(),
            points,
        });
    }
    out
}

/// A2 — NI channel queue depth: delivered rate under overload as the
/// per-channel limit varies (the early-discard feedback lever).
pub fn a2_queue_depth(duration: SimTime) -> Series {
    let points = [2usize, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|depth| {
            let mut cfg = crate::host_config(Architecture::NiLrp);
            cfg.channel_limit = depth;
            let pattern = Pattern::Poisson { pps: 14_000.0 };
            (depth as f64, fig3::blast_rate(cfg, pattern, 77, duration))
        })
        .collect();
    Series {
        name: "NI-LRP delivered @14k Poisson vs channel depth".into(),
        points,
    }
}

/// A3 — soft-demux cost sensitivity: SOFT-LRP delivered rate at a fixed
/// overload as the per-packet demux cost grows (when does SOFT-LRP
/// approach livelock?).
pub fn a3_demux_cost(duration: SimTime) -> Series {
    let points = [2u64, 6, 12, 20, 30, 45]
        .into_iter()
        .map(|demux_us| {
            let mut cfg = crate::host_config(Architecture::SoftLrp);
            cfg.cost.demux_per_pkt = SimDuration::from_micros(demux_us);
            let rate = fig3::blast_rate(cfg, Pattern::FixedRate { pps: 20_000.0 }, 78, duration);
            (demux_us as f64, rate)
        })
        .collect();
    Series {
        name: "SOFT-LRP delivered @20k vs demux cost (us)".into(),
        points,
    }
}

/// A4 — TCP asynchronous protocol processing (APP) on/off: without it a
/// bulk transfer still streams as fast (its segments and ACKs are
/// processed lazily in the blocked `send`/`recv` calls) but never ends
/// cleanly: once the sender stops making socket calls, nothing processes
/// the final ACK/FIN exchange (§3.4's argument for why TCP cannot be
/// fully lazy).
pub fn a4_app_thread() -> Vec<Series> {
    let mut out = Vec::new();
    for app in [true, false] {
        let mut cfg = crate::host_config(Architecture::SoftLrp);
        cfg.tcp_app_processing = app;
        // Bounded run: without APP the transfer may never complete (once
        // the sending application stops making socket calls, nobody
        // processes incoming ACKs — exactly the paper's §3.4 argument).
        let (mut world, metrics) = fault_sweep::bulk_world(cfg, FaultPlan::none(), 8 << 20);
        let window = SimTime::from_secs(10);
        world.run_until(window);
        let m = metrics.borrow();
        // x=0: mid-stream goodput; x=1: 1 if the stream terminated cleanly
        // (EOF delivered). Without APP the final FIN exchange wedges once
        // the sender stops making socket calls: nothing processes the
        // peer's ACKs — the paper's §3.4 argument in one bit.
        out.push(Series {
            name: format!(
                "SOFT-LRP TCP bulk: [x=0] Mb/s, [x=1] clean EOF; APP thread {}",
                if app { "on" } else { "off" }
            ),
            points: vec![(0.0, m.mbps()), (1.0, if m.done { 1.0 } else { 0.0 })],
        });
    }
    out
}

/// A5 — why demux + early discard alone is not enough (§3): a flood of
/// *control* packets (SYNs to a backlogged port) against Early-Demux vs
/// SOFT-LRP. Early-Demux's only feedback is the data socket queue, which
/// SYNs never fill, so it keeps paying eager processing; LRP disables
/// listener processing and discards at the channel.
pub fn a5_control_flood(duration: SimTime) -> Vec<Series> {
    let mut out = Vec::new();
    for arch in [Architecture::EarlyDemux, Architecture::SoftLrp] {
        let mut points = Vec::new();
        for rate in [4_000.0f64, 8_000.0, 12_000.0, 16_000.0, 20_000.0] {
            // A UDP sink measures surviving application throughput, fed
            // steady traffic at a modest rate, while the SYN flood hits a
            // dummy TCP listener on the same host.
            let pattern = Pattern::FixedRate { pps: 4_000.0 };
            let (mut world, metrics) = fig3::blast_world(crate::host_config(arch), pattern, 79);
            let dummy = lrp_apps::DummyListener::new(81, 5);
            world.hosts[0].spawn_app("dummy", 0, 0, Box::new(dummy));
            let syn = Injector::new(
                Pattern::FixedRate { pps: rate },
                SimTime::from_millis(60),
                80,
                move |seq| {
                    let h = tcp::TcpHeader {
                        src_port: 1024 + (seq % 60_000) as u16,
                        dst_port: 81,
                        seq: seq as u32,
                        ack: 0,
                        flags: tcp::flags::SYN,
                        window: 8_192,
                        mss: None,
                    };
                    Frame::ipv4(tcp::build_datagram(
                        Ipv4Addr::new(10, 0, 0, 4),
                        crate::HOST_B,
                        &h,
                        (seq & 0xFFFF) as u16,
                        &[],
                    ))
                },
            );
            world.add_injector(0, syn);
            world.run_until(duration);
            points.push((rate, metrics.borrow().series.steady_rate(5)));
        }
        out.push(Series {
            name: format!("{}: UDP app tput under SYN control-flood", arch.name()),
            points,
        });
    }
    out
}

/// A6 — NI-LRP channel usage with and without TIME_WAIT reclamation, under
/// connection churn.
pub fn a6_time_wait_reclaim(duration: SimTime) -> Vec<Series> {
    let mut out = Vec::new();
    for reclaim in [true, false] {
        let mut cfg = crate::host_config(Architecture::NiLrp);
        cfg.time_wait_channel_reclaim = reclaim;
        cfg.tcp.time_wait = SimDuration::from_secs(5);
        let (mut world, _metrics) = crate::fig5::build_with_config(cfg, 0.0);
        let mut points = Vec::new();
        let mut t = SimDuration::from_millis(500);
        while SimTime::ZERO + t <= duration {
            world.run_until(SimTime::ZERO + t);
            let b = &world.hosts[1];
            points.push((t.as_secs_f64(), b.nic.channel_count() as f64));
            t += SimDuration::from_millis(500);
        }
        out.push(Series {
            name: format!(
                "NI channels in use ({} TIME_WAIT reclaim)",
                if reclaim { "with" } else { "without" }
            ),
            points,
        });
    }
    out
}

/// A7 — the IP forwarding daemon's priority bounds forwarding resources
/// (§3.5, footnote 9). A gateway forwards a blast while running a local
/// compute job; the daemon's niceness trades forwarding throughput
/// against local CPU. Under BSD, forwarding runs in softirq context and
/// the knob does not exist: the local job always pays.
pub fn a7_forwarding_priority(duration: SimTime) -> Vec<Series> {
    const D: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 9);
    let mut out = Vec::new();
    for (label, arch, nice) in [
        ("SOFT-LRP ipfwd nice -10", Architecture::SoftLrp, -10i8),
        ("SOFT-LRP ipfwd nice 0", Architecture::SoftLrp, 0),
        ("SOFT-LRP ipfwd nice +20", Architecture::SoftLrp, 20),
        ("4.4BSD (softirq forwarding)", Architecture::Bsd, 0),
    ] {
        let mut world = World::with_defaults();
        let mut gw = Host::new(crate::host_config(arch), crate::HOST_B);
        gw.enable_forwarding(nice);
        let slices = lrp_apps::shared::<u64>();
        gw.spawn_app(
            "local-compute",
            0,
            0,
            Box::new(lrp_apps::MeteredCompute::new(slices.clone())),
        );
        let sink = lrp_apps::shared::<lrp_apps::SinkMetrics>();
        let mut hd = Host::new(crate::host_config(arch), D);
        hd.spawn_app(
            "sink",
            0,
            0,
            Box::new(lrp_apps::BlastSink::new(7000, sink.clone())),
        );
        let g = world.add_host(gw);
        world.add_host(hd);
        world.add_route_via(D, g);
        // Blast toward D at 12k pkts/s: more than the gateway can forward
        // while also running the local job.
        let inj = Injector::new(
            Pattern::FixedRate { pps: 12_000.0 },
            SimTime::from_millis(20),
            99,
            move |seq| {
                Frame::ipv4(udp::build_datagram(
                    Ipv4Addr::new(10, 0, 0, 3),
                    D,
                    6000,
                    7000,
                    (seq & 0xFFFF) as u16,
                    &[0u8; 14],
                    false,
                ))
            },
        );
        world.add_injector(g, inj);
        world.run_until(duration);
        let forwarded = sink.borrow().series.steady_rate(5);
        let local_ms_per_s = *slices.borrow() as f64 / duration.as_secs_f64();
        out.push(Series {
            name: format!("{label}: [x=0] fwd pkts/s, [x=1] local compute ms/s"),
            points: vec![(0.0, forwarded), (1.0, local_ms_per_s)],
        });
    }
    out
}

/// A8 — the technology trend (the paper's introduction: "this problem
/// ... will grow worse as networks increase in speed"). For CPUs 1x/2x/4x
/// the SPARCstation-20, find BSD's livelock onset (offered rate where
/// delivered throughput falls below half its peak) and express it as a
/// fraction of what a link of the era could deliver in small packets.
/// CPUs got faster, but links got faster *more*: the vulnerable region
/// grows.
pub fn a8_technology_trend(duration: SimTime) -> Vec<Series> {
    // Small-packet capacity per era: ATM-155 ≈ 183 kpps (2 cells/pkt);
    // gigabit Ethernet ≈ 1 488 kpps (64-byte frames); 10 GigE ≈
    // 14 880 kpps. Per-core CPU speed grew far more slowly than that.
    let mut out = Vec::new();
    for (cpu_scale, link_kpps) in [(1.0f64, 183.0f64), (4.0, 1_488.0), (8.0, 14_880.0)] {
        let mut cfg = crate::host_config(Architecture::Bsd);
        cfg.cost = cfg.cost.scaled(1.0 / cpu_scale);
        // Find the half-peak collapse point with a coarse upward sweep.
        let mut peak: f64 = 0.0;
        let mut onset = f64::NAN;
        let mut rate = 4_000.0 * cpu_scale;
        while rate < 40_000.0 * cpu_scale {
            let delivered = fig3::blast_rate(cfg, Pattern::FixedRate { pps: rate }, 101, duration);
            peak = peak.max(delivered);
            if delivered < peak / 2.0 {
                onset = rate;
                break;
            }
            rate += 2_000.0 * cpu_scale;
        }
        let pct_of_link = onset / (link_kpps * 1_000.0) * 100.0;
        // (A NaN onset would mean no collapse inside the sweep; the BSD
        // path always collapses well before 40k x scale.)
        out.push(Series {
            name: format!(
                "CPU {cpu_scale}x vs link of its era ({link_kpps:.0} kpps small pkts):                  [x=0] livelock onset pps, [x=1] % of link capacity"
            ),
            points: vec![(0.0, onset), (1.0, pct_of_link)],
        });
    }
    out
}

/// Renders a set of series as tables.
pub fn render(title: &str, series: &[Series]) -> String {
    let mut out = format!("{title}\n");
    for s in series {
        out.push('\n');
        out.push_str(&s.name);
        out.push('\n');
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|(x, y)| vec![format!("{x:.0}"), format!("{y:.0}")])
            .collect();
        out.push_str(&crate::plot::table(&["x", "y"], &rows));
    }
    out
}

/// The registry entry: A1–A8, each table under its title and its series
/// under its key, plus Figure 3's overload run per architecture (the
/// workload most ablations perturb) as a conservation spot-check.
pub fn output() -> Output {
    let d = SimTime::from_secs(2);
    let sections = [
        (
            "A1: lazy vs eager (delivered pkts/s under overload)",
            "a1_lazy_vs_eager",
            a1_lazy_vs_eager(d),
        ),
        (
            "A2: channel queue depth",
            "a2_queue_depth",
            vec![a2_queue_depth(d)],
        ),
        (
            "A3: soft-demux cost sensitivity",
            "a3_demux_cost",
            vec![a3_demux_cost(d)],
        ),
        (
            "A4: TCP APP thread on/off (Mb/s)",
            "a4_app_thread",
            a4_app_thread(),
        ),
        (
            "A5: control-packet flood vs early discard",
            "a5_control_flood",
            a5_control_flood(d),
        ),
        (
            "A6: NI channel TIME_WAIT reclamation (channels in use)",
            "a6_time_wait_reclaim",
            a6_time_wait_reclaim(SimTime::from_secs(6)),
        ),
        (
            "A7: forwarding daemon priority (gateway under 12k pkts/s transit)",
            "a7_forwarding_priority",
            a7_forwarding_priority(SimTime::from_secs(3)),
        ),
        (
            "A8: technology trend — BSD livelock onset vs link capacity",
            "a8_technology_trend",
            a8_technology_trend(SimTime::from_secs(2)),
        ),
    ];
    let text = sections
        .iter()
        .map(|(title, _, series)| render(title, series))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let series_json = |series: &[Series]| {
        crate::arr(series, |s| {
            let points = crate::arr(&s.points, |&(x, y)| {
                Json::Arr(vec![Json::F64(x), Json::F64(y)])
            });
            Json::obj(vec![
                ("name", Json::str(s.name.clone())),
                ("points", points),
            ])
        })
    };
    let data = Json::Obj(
        sections
            .iter()
            .map(|(_, key, series)| (key.to_string(), series_json(series)))
            .collect(),
    );
    let hosts = crate::all_architectures()
        .into_iter()
        .map(|arch| {
            crate::report(
                format!("overload-{}", arch.name()),
                &fig3::overload_run(arch),
            )
        })
        .collect();
    Output::new(text, vec![("duration_s", Json::U64(2))], data, hosts)
}
