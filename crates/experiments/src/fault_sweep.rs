//! Fault sweep: graceful degradation under deterministic link faults.
//!
//! TCP bulk goodput is measured for every architecture under three fault
//! profiles — independent (Bernoulli) loss, bursty (Gilbert–Elliott)
//! loss, and payload corruption — at increasing fault rates, recording
//! the retransmission machinery's response (retransmits, fast
//! retransmits, RTO timeouts, checksum drops). A Figure-3-style UDP
//! blast under bursty loss rounds out the picture: LRP keeps delivering
//! at its saturation rate while 4.4BSD wastes the same lossy arrivals in
//! interrupt context.

use crate::{Output, HOST_A, HOST_B};
use lrp_apps::{shared, Shared, TcpBulkMetrics, TcpBulkReceiver, TcpBulkSender};
use lrp_core::{Architecture, CcAlgo, DropPoint, Host, HostConfig, World};
use lrp_net::FaultPlan;
use lrp_sim::SimTime;
use lrp_telemetry::Json;
use lrp_wire::Endpoint;

/// One measured cell of the TCP sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Architecture under test.
    pub arch: Architecture,
    /// Congestion controller the sender ran (NewReno in the classic
    /// sweep; varied by `cc_sweep`).
    pub cc: CcAlgo,
    /// Fault profile name (`bernoulli`, `burst`, `corrupt`).
    pub profile: &'static str,
    /// Target fault rate (stationary loss or corruption probability).
    pub rate: f64,
    /// Receiver-side goodput, Mbit/s.
    pub goodput_mbps: f64,
    /// Bytes the receiver consumed.
    pub bytes: u64,
    /// The transfer finished within the time cap.
    pub done: bool,
    /// Sender RTO retransmissions.
    pub retransmits: u64,
    /// Sender fast retransmissions (3 dup ACKs).
    pub fast_retransmits: u64,
    /// Sender RTO timer expirations.
    pub timeouts: u64,
    /// Receiver frames dropped by IP/TCP checksum verification.
    pub checksum_drops: u64,
    /// Both hosts' packet ledgers balanced.
    pub conserved: bool,
}

/// TCP port of the bulk transfer.
const PORT: u16 = 6400;
/// Mean residence in the Gilbert–Elliott bad state, in frames.
const BURST_LEN: f64 = 16.0;
/// Loss probability while the bad state holds. Deliberately below 1.0 so
/// a long burst cannot eat `max_retries` consecutive retransmissions and
/// kill the connection outright.
const BAD_LOSS: f64 = 0.6;

/// Independent loss at rate `rate`.
pub fn bernoulli_plan(seed: u64, rate: f64) -> FaultPlan {
    if rate == 0.0 {
        FaultPlan::none()
    } else {
        FaultPlan::bernoulli(seed, rate)
    }
}

/// Bursty loss with stationary rate `rate`: mean bad-state residence
/// 16 frames, in-burst loss 0.6.
pub fn burst_plan(seed: u64, rate: f64) -> FaultPlan {
    if rate == 0.0 {
        return FaultPlan::none();
    }
    let p_bg = 1.0 / BURST_LEN;
    // Stationary loss = pi_bad * BAD_LOSS with pi_bad = p_gb/(p_gb+p_bg).
    let pi_bad = (rate / BAD_LOSS).min(0.9);
    let p_gb = p_bg * pi_bad / (1.0 - pi_bad);
    FaultPlan::gilbert_elliott(seed, p_gb, p_bg, 0.0, BAD_LOSS)
}

/// Single-bit corruption at rate `rate` (no loss): every corrupted frame
/// must die at checksum verification, never reach the application.
pub fn corrupt_plan(seed: u64, rate: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if rate > 0.0 {
        plan.seed = seed;
        plan.corrupt_p = rate;
    }
    plan
}

/// A fault profile: name plus a `(seed, rate) -> FaultPlan` builder.
pub type Profile = (&'static str, fn(u64, f64) -> FaultPlan);

/// The sweep's fault profiles: name and plan builder.
pub fn profiles() -> [Profile; 3] {
    [
        ("bernoulli", bernoulli_plan),
        ("burst", burst_plan),
        ("corrupt", corrupt_plan),
    ]
}

/// The fault rates each profile is swept over.
pub fn sweep_rates() -> [f64; 4] {
    [0.0, 0.02, 0.05, 0.10]
}

/// Builds the bulk-transfer world with `plan` installed on the
/// receiver's link. Host 0 is the sender (A), host 1 the receiver (B).
pub fn build(arch: Architecture, plan: FaultPlan, total: usize) -> (World, Shared<TcpBulkMetrics>) {
    build_cc(arch, CcAlgo::NewReno, plan, total)
}

/// [`build`] with both hosts running the given congestion controller.
pub fn build_cc(
    arch: Architecture,
    cc: CcAlgo,
    plan: FaultPlan,
    total: usize,
) -> (World, Shared<TcpBulkMetrics>) {
    let mut cfg = crate::host_config(arch);
    cfg.tcp.cc = cc;
    bulk_world(cfg, plan, total)
}

/// The bulk-transfer scenario on two hosts built from `cfg`: the sender
/// (host 0, A) writes `total` bytes in 16 KiB writes to the receiver
/// (host 1, B), with `plan` installed on the receiver's link. An inert
/// plan installs no fault stage.
pub fn bulk_world(
    cfg: HostConfig,
    plan: FaultPlan,
    total: usize,
) -> (World, Shared<TcpBulkMetrics>) {
    let mut world = World::with_defaults();
    let metrics = shared::<TcpBulkMetrics>();
    let mut a = Host::new(cfg, HOST_A);
    a.spawn_app(
        "tcp-src",
        0,
        0,
        Box::new(TcpBulkSender::new(
            Endpoint::new(HOST_B, PORT),
            total,
            16_384,
        )),
    );
    let mut b = Host::new(cfg, HOST_B);
    b.spawn_app(
        "tcp-sink",
        0,
        0,
        Box::new(TcpBulkReceiver::new(PORT, metrics.clone())),
    );
    world.add_host(a);
    let bi = world.add_host(b);
    world.set_link_faults(bi, plan);
    (world, metrics)
}

/// Measures one sweep cell: run the transfer under `plan` until it
/// completes or `cap` elapses.
pub fn measure(
    arch: Architecture,
    profile: &'static str,
    plan: FaultPlan,
    rate: f64,
    total: usize,
    cap: SimTime,
) -> SweepPoint {
    measure_cc(arch, CcAlgo::NewReno, profile, plan, rate, total, cap)
}

/// [`measure`] with the sender and receiver running the given congestion
/// controller.
pub fn measure_cc(
    arch: Architecture,
    cc: CcAlgo,
    profile: &'static str,
    plan: FaultPlan,
    rate: f64,
    total: usize,
    cap: SimTime,
) -> SweepPoint {
    measure_cc_world(arch, cc, profile, plan, rate, total, cap).0
}

/// [`measure_cc`], also handing back the finished world so callers can
/// mine its telemetry (`cc_sweep` extracts the cwnd timeline).
pub fn measure_cc_world(
    arch: Architecture,
    cc: CcAlgo,
    profile: &'static str,
    plan: FaultPlan,
    rate: f64,
    total: usize,
    cap: SimTime,
) -> (SweepPoint, World) {
    let (mut world, metrics) = build_cc(arch, cc, plan, total);
    world.run_until(cap);
    let m = metrics.borrow();
    let tcp = world.hosts[0].tcp_totals();
    let point = SweepPoint {
        arch,
        cc,
        profile,
        rate,
        goodput_mbps: m.mbps(),
        bytes: m.bytes,
        done: m.done,
        retransmits: tcp.retransmits,
        fast_retransmits: tcp.fast_retransmits,
        timeouts: tcp.timeouts,
        checksum_drops: world.hosts[1].stats.dropped(DropPoint::BadPacket),
        conserved: world.hosts[0].packet_ledger().conserved()
            && world.hosts[1].packet_ledger().conserved(),
    };
    drop(m);
    (point, world)
}

/// Runs the sweep: every architecture x profile x rate, a 4 MiB transfer
/// capped at 180 simulated seconds per cell.
pub fn run() -> Vec<SweepPoint> {
    let (total, cap) = (4 << 20, SimTime::from_secs(180));
    let mut out = Vec::new();
    for arch in crate::all_architectures() {
        for (pi, (name, mk)) in profiles().into_iter().enumerate() {
            for (ri, rate) in sweep_rates().into_iter().enumerate() {
                // One fixed seed per (profile, rate) cell: every
                // architecture faces the identical fault sequence.
                let seed = 0xFA00 + 0x100 * pi as u64 + ri as u64;
                out.push(measure(arch, name, mk(seed, rate), rate, total, cap));
            }
        }
    }
    out
}

/// One architecture's delivered rate in the UDP blast under burst loss.
#[derive(Clone, Copy, Debug)]
pub struct UdpBurstPoint {
    /// Architecture under test.
    pub arch: Architecture,
    /// Offered load, packets/second.
    pub offered: f64,
    /// Steady-state delivered rate, packets/second.
    pub delivered: f64,
    /// Frames the link's fault stage dropped.
    pub link_dropped: u64,
}

/// Offered rate of the UDP burst-loss run: past 4.4BSD's saturation
/// point, inside LRP's stable region (Figure 3).
pub const UDP_BURST_PPS: f64 = 12_000.0;

/// The `udp_livelock`-style companion run: a fixed-rate blast through a
/// 10% Gilbert–Elliott lossy link. The loss thins the arrival stream,
/// but the paper's contrast survives: LRP's delivered rate tracks the
/// surviving arrivals while 4.4BSD stays degraded.
pub fn run_udp_burst(duration: SimTime) -> Vec<UdpBurstPoint> {
    crate::all_architectures()
        .into_iter()
        .map(|arch| {
            let (mut world, metrics) = crate::fig3::build(arch, UDP_BURST_PPS, false);
            world.set_link_faults(0, burst_plan(0xB1A5, 0.10));
            world.run_until(duration);
            let delivered = metrics.borrow().series.steady_rate(5);
            let fs = *world.link_fault_stats(0).expect("plan installed");
            UdpBurstPoint {
                arch,
                offered: UDP_BURST_PPS,
                delivered,
                link_dropped: fs.dropped,
            }
        })
        .collect()
}

/// Renders the TCP sweep cells as a text table. `show_cc` adds the
/// controller column and switches the retransmission labels from the
/// classic NewReno-assuming names (`fastrtx` reads as Reno fast
/// retransmit) to controller-neutral ones (`dup3-rtx`: retransmissions
/// triggered by three duplicate ACKs, whatever the controller did to the
/// window). `cc_sweep` reuses this builder; the classic sweep renders
/// without the column, byte-identical to the pre-modular report.
pub fn tcp_table(points: &[SweepPoint], show_cc: bool) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = Vec::new();
            if show_cc {
                row.push(p.cc.name().to_string());
            }
            row.extend([
                p.profile.to_string(),
                format!("{:.2}", p.rate),
                p.arch.name().to_string(),
                format!("{:.1}", p.goodput_mbps),
                if p.done { "yes" } else { "no" }.to_string(),
                p.retransmits.to_string(),
                p.fast_retransmits.to_string(),
                p.timeouts.to_string(),
                p.checksum_drops.to_string(),
            ]);
            row
        })
        .collect();
    let headers: &[&str] = if show_cc {
        &[
            "cc", "profile", "rate", "arch", "Mb/s", "done", "retx", "dup3-rtx", "rto", "csumdrop",
        ]
    } else {
        &[
            "profile", "rate", "arch", "Mb/s", "done", "retx", "fastrtx", "rto", "csumdrop",
        ]
    };
    crate::plot::table(headers, &rows)
}

/// Renders the sweep and the UDP burst run as text tables.
pub fn render(points: &[SweepPoint], udp: &[UdpBurstPoint]) -> String {
    let mut out = String::from(
        "Fault sweep: TCP bulk goodput vs link-fault rate (faults on the data path)\n\n",
    );
    out.push_str(&tcp_table(points, false));
    out.push_str("\nUDP blast through a 10% burst-lossy link (offered 12000 pkts/s)\n\n");
    let udp_rows: Vec<Vec<String>> = udp
        .iter()
        .map(|p| {
            vec![
                p.arch.name().to_string(),
                format!("{:.0}", p.offered),
                format!("{:.0}", p.delivered),
                p.link_dropped.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::plot::table(
        &["arch", "offered pkts/s", "delivered pkts/s", "link drops"],
        &udp_rows,
    ));
    out
}

/// The JSON fields of one TCP sweep cell, in document order.
pub(crate) fn point_fields(p: &SweepPoint) -> Vec<(&'static str, Json)> {
    vec![
        ("arch", Json::str(p.arch.name())),
        ("profile", Json::str(p.profile)),
        ("rate", Json::F64(p.rate)),
        ("goodput_mbps", Json::F64(p.goodput_mbps)),
        ("bytes", Json::U64(p.bytes)),
        ("done", Json::Bool(p.done)),
        ("retransmits", Json::U64(p.retransmits)),
        ("fast_retransmits", Json::U64(p.fast_retransmits)),
        ("timeouts", Json::U64(p.timeouts)),
        ("checksum_drops", Json::U64(p.checksum_drops)),
        ("conserved", Json::Bool(p.conserved)),
    ]
}

/// The registry entry: the sweep, the UDP burst run at 5 simulated
/// seconds, plus one instrumented run per architecture under bursty loss
/// at 5%: every injected fault must be attributed and both ledgers must
/// balance.
pub fn output() -> Output {
    const UDP_SECS: u64 = 5;
    let points = run();
    let udp = run_udp_burst(SimTime::from_secs(UDP_SECS));
    let hosts = crate::all_architectures()
        .into_iter()
        .map(|arch| {
            let (mut world, _metrics) = build(arch, burst_plan(0xFA05, 0.05), 256 << 10);
            world.run_until(SimTime::from_secs(30));
            crate::report(format!("burst05-{}", arch.name()), &world)
        })
        .collect();
    let udp_json = crate::arr(&udp, |p| {
        Json::obj(vec![
            ("arch", Json::str(p.arch.name())),
            ("offered_pps", Json::F64(p.offered)),
            ("delivered_pps", Json::F64(p.delivered)),
            ("link_dropped", Json::U64(p.link_dropped)),
        ])
    });
    let data = Json::obj(vec![
        ("tcp", crate::arr(&points, |p| Json::obj(point_fields(p)))),
        ("udp_burst", udp_json),
    ]);
    let params = vec![
        ("quick", Json::Bool(false)),
        ("udp_duration_s", Json::U64(UDP_SECS)),
    ];
    Output::new(render(&points, &udp) + "\n", params, data, hosts)
}
