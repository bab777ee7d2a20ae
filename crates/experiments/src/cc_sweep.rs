//! Congestion-controller sweep: every pluggable controller × every
//! architecture × the fault-sweep loss profiles.
//!
//! The modular-TCP seam (`CongestionControl` behind `HostConfig::tcp.cc`)
//! makes the controller a first-class experimental variable. This sweep
//! reruns the fault-sweep bulk transfer with NewReno, Cubic and BBR-lite
//! under identical deterministic fault sequences — per (profile) cell the
//! seed is fixed, so every controller and every architecture faces the
//! same loss pattern — and records goodput, the retransmission machinery's
//! response, and the congestion-window evolution sampled onto the metrics
//! timeline (`tcp_cwnd` / `tcp_ssthresh` columns).
//!
//! The architectural point mirrors the paper's: the controller changes
//! *when* data enters the pipe, the architecture changes *where receiver
//! processing runs*; the sweep shows the two compose — controller ranking
//! is stable across architectures because LRP's lazy receiver processing
//! is transparent to the sender's control loop.

use crate::fault_sweep::{self, SweepPoint};
use crate::Output;
use lrp_core::{Architecture, CcAlgo, World};
use lrp_sim::SimTime;
use lrp_telemetry::Json;

/// One measured cell: the sweep point plus the sender's cwnd evolution.
#[derive(Clone, Debug)]
pub struct CcCell {
    /// Goodput and retransmission counters (includes the controller).
    pub point: SweepPoint,
    /// Peak sender cwnd observed on the timeline, bytes.
    pub cwnd_max: u64,
    /// Mean sender cwnd over samples with a live connection, bytes.
    pub cwnd_mean: f64,
    /// Final sampled slow-start threshold, bytes.
    pub ssthresh_last: u64,
    /// Sender cwnd timeline, `(t_ns, cwnd_bytes)`, subsampled to at most
    /// [`TIMELINE_POINTS`] points.
    pub cwnd_timeline: Vec<(u64, u64)>,
}

/// Upper bound on emitted cwnd-timeline points per cell.
pub const TIMELINE_POINTS: usize = 64;

/// The fault rate every profile runs at: high enough that the controllers
/// separate, low enough that every transfer completes.
pub const RATE: f64 = 0.05;

/// Extracts the sender-side cwnd/ssthresh evolution from the finished
/// world's metrics timeline.
fn cwnd_stats(world: &World) -> (u64, f64, u64, Vec<(u64, u64)>) {
    let tl = world.hosts[0].telemetry().timeline();
    let col = |name: &str| {
        tl.columns()
            .iter()
            .position(|c| *c == name)
            .expect("timeline column")
    };
    let (ci, si) = (col("tcp_cwnd"), col("tcp_ssthresh"));
    let live: Vec<(u64, u64)> = tl
        .rows()
        .map(|r| (r.t_ns, r.values[ci]))
        .filter(|&(_, w)| w > 0)
        .collect();
    let cwnd_max = live.iter().map(|&(_, w)| w).max().unwrap_or(0);
    let cwnd_mean = if live.is_empty() {
        0.0
    } else {
        live.iter().map(|&(_, w)| w).sum::<u64>() as f64 / live.len() as f64
    };
    let ssthresh_last = tl
        .rows()
        .map(|r| r.values[si])
        .filter(|&s| s > 0)
        .last()
        .unwrap_or(0);
    let stride = live.len().div_ceil(TIMELINE_POINTS).max(1);
    let timeline = live.into_iter().step_by(stride).collect();
    (cwnd_max, cwnd_mean, ssthresh_last, timeline)
}

/// Measures one (controller, architecture, profile) cell.
pub fn measure_cell(
    arch: Architecture,
    cc: CcAlgo,
    profile: &'static str,
    seed: u64,
    total: usize,
    cap: SimTime,
) -> CcCell {
    let mk = fault_sweep::profiles()
        .into_iter()
        .find(|(name, _)| *name == profile)
        .expect("known profile")
        .1;
    let (point, world) =
        fault_sweep::measure_cc_world(arch, cc, profile, mk(seed, RATE), RATE, total, cap);
    let (cwnd_max, cwnd_mean, ssthresh_last, cwnd_timeline) = cwnd_stats(&world);
    CcCell {
        point,
        cwnd_max,
        cwnd_mean,
        ssthresh_last,
        cwnd_timeline,
    }
}

/// Runs the sweep: controller × architecture × fault profile, all at
/// [`RATE`], a 1 MiB transfer capped at 60 simulated seconds per cell.
pub fn run() -> Vec<CcCell> {
    let (total, cap) = (1 << 20, SimTime::from_secs(60));
    let mut out = Vec::new();
    for cc in CcAlgo::all() {
        for arch in crate::all_architectures() {
            for (name, seed) in profile_seeds() {
                out.push(measure_cell(arch, cc, name, seed, total, cap));
            }
        }
    }
    out
}

/// One fixed seed per profile: every controller and architecture faces
/// the identical fault sequence. The burst seed is chosen so the
/// 1 MiB transfer actually traverses a Gilbert–Elliott bad state — burst
/// onsets are rare (≈0.8 expected per transfer at the stationary rate),
/// and a seed whose run is loss-free would make the profile vacuous.
pub fn profile_seeds() -> [(&'static str, u64); 3] {
    [
        ("bernoulli", 0xCC00),
        ("burst", 0xCC1B),
        ("corrupt", 0xCC02),
    ]
}

/// Renders the sweep as text tables: the goodput table (shared with the
/// fault sweep, controller column on) plus the cwnd summary.
pub fn render(cells: &[CcCell]) -> String {
    let points: Vec<SweepPoint> = cells.iter().map(|c| c.point.clone()).collect();
    let mut out = String::from(
        "CC sweep: congestion controller x architecture x fault profile \
         (identical fault sequences per profile)\n\n",
    );
    out.push_str(&fault_sweep::tcp_table(&points, true));
    out.push_str("\nSender congestion-window evolution (timeline-sampled)\n\n");
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.point.cc.name().to_string(),
                c.point.arch.name().to_string(),
                c.point.profile.to_string(),
                c.cwnd_max.to_string(),
                format!("{:.0}", c.cwnd_mean),
                c.ssthresh_last.to_string(),
                c.cwnd_timeline.len().to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::plot::table(
        &[
            "cc",
            "arch",
            "profile",
            "cwnd max",
            "cwnd mean",
            "ssthresh last",
            "samples",
        ],
        &rows,
    ));
    out
}

/// The registry entry: the sweep, plus one instrumented run per
/// controller (SOFT-LRP under bursty loss at 5%): every injected fault
/// must be attributed and both ledgers must balance whatever the
/// controller.
pub fn output() -> Output {
    let cells = run();
    let hosts = CcAlgo::all()
        .into_iter()
        .map(|cc| {
            let plan = fault_sweep::burst_plan(0xCC05, 0.05);
            let (mut world, _metrics) =
                fault_sweep::build_cc(Architecture::SoftLrp, cc, plan, 256 << 10);
            world.run_until(SimTime::from_secs(30));
            crate::report(format!("burst05-softlrp-{}", cc.name()), &world)
        })
        .collect();
    let cells_json = crate::arr(&cells, |c| {
        let mut fields = vec![("cc", Json::str(c.point.cc.name()))];
        fields.extend(fault_sweep::point_fields(&c.point));
        let timeline = crate::arr(&c.cwnd_timeline, |&(t_ns, cwnd)| {
            Json::obj(vec![("t_ns", Json::U64(t_ns)), ("cwnd", Json::U64(cwnd))])
        });
        fields.extend([
            ("cwnd_max", Json::U64(c.cwnd_max)),
            ("cwnd_mean", Json::F64(c.cwnd_mean)),
            ("ssthresh_last", Json::U64(c.ssthresh_last)),
            ("cwnd_timeline", timeline),
        ]);
        Json::obj(fields)
    });
    let params = vec![("quick", Json::Bool(true)), ("rate", Json::F64(RATE))];
    let data = Json::obj(vec![("cells", cells_json)]);
    Output::new(render(&cells), params, data, hosts)
}
