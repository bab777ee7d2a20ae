//! Table 2: the synthetic RPC server workload.
//!
//! Three server processes share the server machine: a *worker* whose
//! single RPC needs ≈11.5 s of CPU and touches 35 % of the L2 cache
//! (350 KB working set), plus two RPC servers doing short computations
//! per request ("Fast" / "Medium" / "Slow"). Clients keep the RPC servers
//! loaded at all times. The paper's findings, reproduced here:
//!
//! - Total server throughput is lowest under BSD, higher under SOFT-LRP,
//!   highest under NI-LRP (fewer interrupts/context switches, better
//!   locality).
//! - The worker's CPU *share* is ≈ the fair 1/3 under LRP (29–33 %) but
//!   only 23–26 % under BSD, because BSD charges the interrupt-time of
//!   the RPC traffic to whoever runs — usually the worker — depressing
//!   its priority.

use crate::{Output, HOST_A, HOST_B, HOST_C};
use lrp_apps::{shared, PacedRpcClient, RpcClient, RpcMetrics, RpcServer, Shared};
use lrp_core::{Architecture, Host, Pid, World};
use lrp_sim::{SimDuration, SimTime};
use lrp_telemetry::Json;
use lrp_wire::Endpoint;

/// The per-request computation of the two RPC servers for each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Short requests.
    Fast,
    /// Medium requests.
    Medium,
    /// Long requests.
    Slow,
}

impl Variant {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Fast => "Fast",
            Variant::Medium => "Medium",
            Variant::Slow => "Slow",
        }
    }

    /// Per-request CPU of each RPC server.
    pub fn work(self) -> SimDuration {
        match self {
            Variant::Fast => SimDuration::from_micros(40),
            Variant::Medium => SimDuration::from_micros(120),
            Variant::Slow => SimDuration::from_micros(320),
        }
    }

    /// Calibration request interval: deliberately past saturation; the
    /// real run paces at 93 % of the measured capacity, the paper's
    /// "maximal throughput rate of the server" without overload.
    pub fn calibration_gap(self) -> SimDuration {
        match self {
            Variant::Fast => SimDuration::from_micros(300),
            Variant::Medium => SimDuration::from_micros(450),
            Variant::Slow => SimDuration::from_micros(800),
        }
    }
}

/// One measured row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Request-size variant.
    pub variant: Variant,
    /// System label.
    pub system: &'static str,
    /// Worker RPC elapsed time, seconds.
    pub worker_elapsed_s: f64,
    /// Combined RPC completion rate of the two servers, RPCs/second.
    pub rpc_rate: f64,
    /// Worker CPU share: charged CPU time / elapsed time.
    pub worker_share: f64,
}

/// Worker CPU demand (the paper's ≈11.5 s).
pub const WORKER_CPU: SimDuration = SimDuration::from_micros(11_500_000);
/// Worker cache working set: 35 % of the 1 MB L2.
pub const WORKER_WS: usize = 350 * 1024;

/// The built RPC-workload scenario, with handles for the measurements.
pub struct Setup {
    /// The three-machine world.
    pub world: World,
    /// Completion metrics for the worker's single long RPC.
    pub worker_metrics: Shared<RpcMetrics>,
    /// Server-side completion metrics of the two short-RPC servers.
    pub rpc_metrics: [Shared<RpcMetrics>; 2],
    /// The worker process on the server host.
    pub worker_pid: Pid,
    /// Index of the server host within [`Setup::world`].
    pub server_host: usize,
}

/// Builds one cell's scenario: worker plus two RPC servers on machine B,
/// paced clients on machines A and C issuing a request every `gap`.
pub fn build(arch: Architecture, variant: Variant, gap: SimDuration) -> Setup {
    let mut world = World::with_defaults();
    let worker_metrics = shared::<RpcMetrics>();
    let rpc_metrics = [shared::<RpcMetrics>(), shared::<RpcMetrics>()];

    let mut b = Host::new(crate::host_config(arch), HOST_B);
    let worker_pid = b.spawn_app(
        "worker",
        0,
        WORKER_WS,
        Box::new(RpcServer::new(7100, WORKER_CPU)),
    );
    // The two RPC servers have modest working sets (64 KB); completions
    // are recorded server-side because the paced clients discard replies.
    b.spawn_app(
        "rpc-1",
        0,
        64 * 1024,
        Box::new(RpcServer::new(7101, variant.work()).with_metrics(rpc_metrics[0].clone())),
    );
    b.spawn_app(
        "rpc-2",
        0,
        64 * 1024,
        Box::new(RpcServer::new(7102, variant.work()).with_metrics(rpc_metrics[1].clone())),
    );

    // Two client machines, one per RPC server, so the clients never
    // become the bottleneck (the paper's single client machine had to
    // sustain both flows; splitting preserves "requests outstanding at
    // all times" without a client-side CPU ceiling).
    let mut a = Host::new(crate::host_config(arch), HOST_A);
    a.spawn_app(
        "cl-worker",
        0,
        0,
        Box::new(RpcClient::new(
            Endpoint::new(HOST_B, 7100),
            7200,
            1,
            Some(1),
            worker_metrics.clone(),
        )),
    );
    a.spawn_app(
        "cl-rpc1",
        0,
        0,
        Box::new(PacedRpcClient::new(Endpoint::new(HOST_B, 7101), 7201, gap)),
    );
    let mut c = Host::new(crate::host_config(arch), HOST_C);
    c.spawn_app(
        "cl-rpc2",
        0,
        0,
        Box::new(PacedRpcClient::new(Endpoint::new(HOST_B, 7102), 7202, gap)),
    );
    world.add_host(a);
    world.add_host(c);
    let server_host = world.add_host(b);
    Setup {
        world,
        worker_metrics,
        rpc_metrics,
        worker_pid,
        server_host,
    }
}

/// Measures the per-server RPC capacity (requests/s) under saturation.
fn calibrate(arch: Architecture, variant: Variant) -> f64 {
    let mut s = build(arch, variant, variant.calibration_gap());
    s.world.run_until(SimTime::from_secs(8));
    let rate: f64 = s.rpc_metrics.iter().map(|m| m.borrow().rate()).sum();
    rate / 2.0
}

/// Runs one cell of the table.
pub fn measure(arch: Architecture, variant: Variant) -> Row {
    // Phase 1: find this system's capacity. Phase 2: drive it at 93 % of
    // that — "the maximal throughput rate of the server", no overload.
    let capacity = calibrate(arch, variant);
    let gap = SimDuration::from_secs_f64(1.0 / (capacity * 0.93));
    let mut s = build(arch, variant, gap);
    // Run until the worker RPC completes (bounded at 120 s).
    let step = SimTime::from_secs(1);
    let mut t = step;
    while s.worker_metrics.borrow().elapsed.is_none() && t <= SimTime::from_secs(120) {
        s.world.run_until(t);
        t += SimDuration::from_secs(1);
    }
    let elapsed = s
        .worker_metrics
        .borrow()
        .elapsed
        .expect("worker RPC must complete within 120 s")
        .as_secs_f64();
    let rate: f64 = s.rpc_metrics.iter().map(|m| m.borrow().rate()).sum();
    // The paper's "CPU share" is the worker's useful computation over its
    // elapsed time (11.5 s / elapsed): mis-charged interrupt time inflates
    // the kernel's own accounting, so raw charged time would hide exactly
    // the effect being measured.
    let _ = s.worker_pid;
    let _ = s.server_host;
    Row {
        variant,
        system: arch.name(),
        worker_elapsed_s: elapsed,
        rpc_rate: rate,
        worker_share: WORKER_CPU.as_secs_f64() / elapsed,
    }
}

/// Runs the whole table.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for variant in [Variant::Fast, Variant::Medium, Variant::Slow] {
        for arch in crate::main_architectures() {
            rows.push(measure(arch, variant));
        }
    }
    rows
}

/// Renders the table with the paper's values.
pub fn render(rows: &[Row]) -> String {
    let paper = [
        ("Fast", "4.4BSD", 49.7, 3120),
        ("Fast", "SOFT-LRP", 38.7, 3133),
        ("Fast", "NI-LRP", 34.6, 3410),
        ("Medium", "4.4BSD", 47.1, 2712),
        ("Medium", "SOFT-LRP", 37.9, 2759),
        ("Medium", "NI-LRP", 34.1, 2783),
        ("Slow", "4.4BSD", 43.9, 2045),
        ("Slow", "SOFT-LRP", 38.5, 2134),
        ("Slow", "NI-LRP", 35.7, 2208),
    ];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let p = paper
                .iter()
                .find(|p| p.0 == r.variant.name() && p.1 == r.system);
            vec![
                r.variant.name().to_string(),
                r.system.to_string(),
                format!("{:.1}", r.worker_elapsed_s),
                p.map(|p| format!("{:.1}", p.2)).unwrap_or_default(),
                format!("{:.0}", r.rpc_rate),
                p.map(|p| p.3.to_string()).unwrap_or_default(),
                format!("{:.0}%", r.worker_share * 100.0),
            ]
        })
        .collect();
    let mut out = String::from(
        "Table 2: synthetic RPC server workload (paper values in parentheses)\n\
         worker: 11.5 s CPU, 350 KB working set; ideal worker share = 33%\n\n",
    );
    out.push_str(&crate::plot::table(
        &[
            "variant", "system", "worker s", "(paper)", "RPC/s", "(paper)", "share",
        ],
        &table_rows,
    ));
    out
}

/// The registry entry: the table, plus one instrumented Medium-variant
/// run per system, driven at the calibration rate for a bounded window.
pub fn output() -> Output {
    let rows = run();
    let hosts = crate::main_architectures()
        .into_iter()
        .map(|arch| {
            let variant = Variant::Medium;
            let mut s = build(arch, variant, variant.calibration_gap());
            s.world.run_until(SimTime::from_secs(2));
            crate::report(format!("rpc-medium-{}", arch.name()), &s.world)
        })
        .collect();
    let data = crate::arr(&rows, |r| {
        Json::obj(vec![
            ("variant", Json::str(r.variant.name())),
            ("system", Json::str(r.system)),
            ("worker_elapsed_s", Json::F64(r.worker_elapsed_s)),
            ("rpc_rate", Json::F64(r.rpc_rate)),
            ("worker_share", Json::F64(r.worker_share)),
        ])
    });
    Output::new(render(&rows) + "\n", Vec::new(), data, hosts)
}
