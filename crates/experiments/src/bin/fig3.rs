//! Regenerates Figure 3 and emits `results/fig3.json`.
//!
//! Usage: `fig3 [SECONDS] [--trace]`
//!
//! `--trace` additionally exports the span log of the representative
//! overloaded NI-LRP run as `results/fig3-nilrp.trace.json`, a
//! chrome://tracing (Perfetto) trace: one slice per recorded stage, tied
//! per request by flow arrows keyed on the span id. Traces are an
//! on-demand debugging aid, not a checked-in result, so the default run
//! does not write them.

use lrp_experiments::fig3;
use lrp_sim::SimTime;
use lrp_telemetry::{
    experiment_json, report_and_check, span_trace_chrome, write_artifact, write_results, Json,
};

/// Offered rate of the representative instrumented runs: deep in the
/// livelock region of Figure 3.
const OVERLOAD_PPS: f64 = 20_000.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let secs: u64 = args
        .iter()
        .find(|a| *a != "--trace")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let results = fig3::run(SimTime::from_secs(secs));
    println!("{}", fig3::render(&results));

    // One instrumented overload run per architecture: conservation check,
    // per-host report, and (for NI-LRP, with --trace) the span trace.
    let mut hosts = Vec::new();
    for arch in lrp_experiments::all_architectures() {
        let (mut world, _metrics) = fig3::build(arch, OVERLOAD_PPS, false);
        world.run_until(SimTime::from_secs(1));
        let label = format!("overload-{}", arch.name());
        let report = report_and_check(&world, &label);
        if trace && arch == lrp_core::Architecture::NiLrp {
            let path = write_artifact("fig3-nilrp.trace", "json", &span_trace_chrome(&world))
                .expect("write fig3 trace");
            eprintln!("wrote {}", path.display());
        }
        hosts.push((label, report));
    }

    let data = Json::Arr(
        results
            .iter()
            .map(|(arch, pts)| {
                Json::obj(vec![
                    ("arch", Json::str(arch.name())),
                    (
                        "points",
                        Json::Arr(
                            pts.iter()
                                .map(|p| {
                                    Json::obj(vec![
                                        ("offered_pps", Json::F64(p.offered)),
                                        ("delivered_pps", Json::F64(p.delivered)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let doc = experiment_json(
        "fig3",
        vec![
            ("duration_s", Json::U64(secs)),
            ("overload_pps", Json::F64(OVERLOAD_PPS)),
        ],
        data,
        hosts,
    );
    let path = write_results("fig3", &doc).expect("write fig3.json");
    eprintln!("wrote {}", path.display());
}
