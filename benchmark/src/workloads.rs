//! The four workloads: which worlds a rep builds, how long each runs,
//! and what is read off a finished world.
//!
//! Every leg is built from `lrp-experiments`' public builders (or, for
//! `tcp_fanin_lossy`, from the same public pieces those builders use);
//! the simulator under test sees only the worlds built here.

use lrp_apps::{
    shared, HttpMetrics, Shared, SinkMetrics, TcpBulkMetrics, TcpBulkReceiver, TcpBulkSender,
};
use lrp_core::{Architecture, Host, World};
use lrp_experiments::syn_flood::{self, Defense};
use lrp_experiments::{fault_sweep, fig3, smp_scaling, HOST_A, HOST_B};
use lrp_net::FaultPlan;
use lrp_sim::SimDuration;
use lrp_stack::tcp::CcAlgo;
use lrp_wire::Endpoint;

/// Offered load of the Figure-3 blast legs, packets/second: past every
/// architecture's peak, so each leg runs its overload path.
const BLAST_PPS: f64 = 12_000.0;
/// Aggregate offered load of the 4-CPU blast leg.
const SMP_PPS: f64 = 40_000.0;
/// Bytes moved by one `tcp_bulk` leg.
const BULK_BYTES: usize = 512 << 20;
/// Flows of `tcp_fanin_lossy`.
pub const FANIN_FLOWS: usize = 256;
/// Bytes per fan-in flow.
const FANIN_BYTES: usize = 512 << 10;
/// First receiver port of the fan-in flows.
const FANIN_BASE_PORT: u16 = 7000;
/// Spoofed SYNs/second of the `ni-lrp.synflood` leg.
const FLOOD_PPS: f64 = 2_500.0;

static UDP_BLAST_LEGS: [LegSpec; 5] = [
    LegSpec::new("bsd", Architecture::Bsd, 40),
    LegSpec::new("soft-lrp", Architecture::SoftLrp, 40),
    LegSpec::new("ni-lrp", Architecture::NiLrp, 40),
    LegSpec::new("early-demux", Architecture::EarlyDemux, 40),
    LegSpec::new("ni-lrp.smp4", Architecture::NiLrp, 20),
];
static TCP_BULK_LEGS: [LegSpec; 3] = [
    LegSpec::new("bsd", Architecture::Bsd, 600),
    LegSpec::new("soft-lrp", Architecture::SoftLrp, 600),
    LegSpec::new("ni-lrp", Architecture::NiLrp, 600),
];
static TCP_FANIN_LEGS: [LegSpec; 2] = [
    LegSpec::new("bsd", Architecture::Bsd, 120),
    LegSpec::new("ni-lrp", Architecture::NiLrp, 120),
];
static HTTP_CHURN_LEGS: [LegSpec; 3] = [
    LegSpec::new("bsd", Architecture::Bsd, 10),
    LegSpec::new("ni-lrp", Architecture::NiLrp, 10),
    LegSpec::new("ni-lrp.synflood", Architecture::NiLrp, 10),
];

/// A workload: a name, the reason it exists, and its legs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Smallest-packet UDP blast on all four architectures plus 4-CPU.
    UdpBlast,
    /// One 512 MiB TCP flow to completion.
    TcpBulk,
    /// 256 TCP flows through a lossy, reordering link.
    TcpFaninLossy,
    /// One-connection-per-request HTTP, with and without a SYN flood.
    HttpChurn,
}

impl Workload {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::UdpBlast,
        Workload::TcpBulk,
        Workload::TcpFaninLossy,
        Workload::HttpChurn,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UdpBlast => "udp_blast",
            Workload::TcpBulk => "tcp_bulk",
            Workload::TcpFaninLossy => "tcp_fanin_lossy",
            Workload::HttpChurn => "http_churn",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The legs of one rep, in run order.
    pub fn legs(self) -> &'static [LegSpec] {
        match self {
            Workload::UdpBlast => &UDP_BLAST_LEGS,
            Workload::TcpBulk => &TCP_BULK_LEGS,
            Workload::TcpFaninLossy => &TCP_FANIN_LEGS,
            Workload::HttpChurn => &HTTP_CHURN_LEGS,
        }
    }

    /// Builds one leg's world fresh. `seed` feeds every injector and
    /// fault-plan seed the leg has; `bytes_div` shrinks the byte-counted
    /// transfers for `--smoke` (1 = full size).
    pub fn build(self, leg: &LegSpec, seed: u64, bytes_div: usize) -> Leg {
        let (world, apps) = match self {
            Workload::UdpBlast if leg.name == "ni-lrp.smp4" => {
                let (world, _, sinks) = smp_scaling::build(leg.arch, 4, SMP_PPS, seed);
                (world, Apps::Sinks(sinks))
            }
            Workload::UdpBlast => {
                let (world, sink) = fig3::build_seeded(leg.arch, BLAST_PPS, true, seed);
                (world, Apps::Sinks(vec![sink]))
            }
            Workload::TcpBulk => {
                let total = BULK_BYTES / bytes_div;
                let (world, m) =
                    fault_sweep::build_cc(leg.arch, CcAlgo::NewReno, FaultPlan::none(), total);
                (world, Apps::Bulk(vec![m], total as u64))
            }
            Workload::TcpFaninLossy => {
                let total = FANIN_BYTES / bytes_div;
                let plan = self.fault_plan(seed).expect("the fan-in link is lossy");
                let (world, ms) = build_fanin(leg.arch, plan, total);
                (world, Apps::Bulk(ms, total as u64))
            }
            Workload::HttpChurn => {
                // No random input: closed-loop clients, and the library's
                // flood is fixed-rate from a fixed seed.
                let (defense, syn_pps) = if leg.name == "ni-lrp.synflood" {
                    (Defense::Cookies, FLOOD_PPS)
                } else {
                    (Defense::None, 0.0)
                };
                let (world, clients) =
                    syn_flood::build(syn_flood::config(leg.arch, defense), syn_pps, None);
                (world, Apps::Http(clients))
            }
        };
        Leg { world, apps }
    }

    /// The fault plan on the link into the receiving host, if the
    /// workload has one.
    pub fn fault_plan(self, seed: u64) -> Option<FaultPlan> {
        (self == Workload::TcpFaninLossy).then(|| {
            let mut plan = fault_sweep::burst_plan(seed ^ 0xB57, 0.02);
            plan.reorder_p = 0.01;
            plan.reorder_max_delay = SimDuration::from_micros(500);
            plan
        })
    }

    /// True if the legs end when their transfers complete (checked
    /// between slices) instead of at the cap.
    pub fn runs_to_completion(self) -> bool {
        matches!(self, Workload::TcpBulk | Workload::TcpFaninLossy)
    }
}

/// One leg of a workload: a label, the architecture and the simulated
/// end (a cap, for legs that run to completion).
#[derive(Debug)]
pub struct LegSpec {
    /// Label, unique within the workload.
    pub name: &'static str,
    /// Architecture of every host in the leg.
    pub arch: Architecture,
    /// Simulated seconds to run (or cap).
    pub sim_secs: u64,
}

impl LegSpec {
    const fn new(name: &'static str, arch: Architecture, sim_secs: u64) -> Self {
        LegSpec {
            name,
            arch,
            sim_secs,
        }
    }
}

/// A built leg: the world and the handles to its applications' metrics.
pub struct Leg {
    /// The world, not yet started.
    pub world: World,
    /// Application-side metrics.
    pub apps: Apps,
}

/// Application metrics of a leg, by application kind.
pub enum Apps {
    /// `BlastSink`s.
    Sinks(Vec<Shared<SinkMetrics>>),
    /// `TcpBulkReceiver`s and the byte count each expects.
    Bulk(Vec<Shared<TcpBulkMetrics>>, u64),
    /// `HttpClient`s.
    Http(Vec<Shared<HttpMetrics>>),
}

impl Apps {
    /// True once every transfer of a run-to-completion leg has ended
    /// (completed or aborted).
    pub fn all_finished(&self) -> bool {
        match self {
            Apps::Bulk(ms, _) => ms.iter().all(|m| {
                let m = m.borrow();
                m.done || m.aborted
            }),
            _ => false,
        }
    }
}

/// 256 senders on host A to 256 receiver ports on host B, with `plan`
/// on the link into B.
fn build_fanin(
    arch: Architecture,
    plan: FaultPlan,
    total: usize,
) -> (World, Vec<Shared<TcpBulkMetrics>>) {
    let mut world = World::with_defaults();
    let cfg = lrp_experiments::host_config(arch);
    let mut a = Host::new(cfg, HOST_A);
    let mut b = Host::new(cfg, HOST_B);
    let mut metrics = Vec::with_capacity(FANIN_FLOWS);
    for i in 0..FANIN_FLOWS {
        let port = FANIN_BASE_PORT + i as u16;
        a.spawn_app(
            &format!("src-{i}"),
            0,
            0,
            Box::new(TcpBulkSender::new(Endpoint::new(HOST_B, port), total, 4096)),
        );
        let m = shared::<TcpBulkMetrics>();
        b.spawn_app(
            &format!("sink-{i}"),
            0,
            0,
            Box::new(TcpBulkReceiver::new(port, m.clone())),
        );
        metrics.push(m);
    }
    world.add_host(a);
    let bi = world.add_host(b);
    world.set_link_faults(bi, plan);
    (world, metrics)
}
