//! Experiment telemetry output: hand-rolled JSON ([`Json`]), report
//! builders over [`lrp_core::Host`] telemetry ([`host_report`],
//! [`world_report`]), the packet-conservation self-check
//! ([`report_and_check`]), the observability exports ([`observe`]), and
//! a minimal schema validator ([`schema::validate`]) used by CI.
//!
//! Every experiment's results document is an [`experiment_json`]: the
//! numeric data plus a per-host report from a representative instrumented
//! run — after [`report_and_check`] has verified that every frame the NIC
//! accepted is accounted for exactly once (DESIGN.md §7).

#![warn(missing_docs)]

pub mod json;
pub mod observe;
pub mod report;
pub mod schema;

pub use json::Json;
pub use observe::{
    attribution_json, folded_stacks, misattributed_fraction, profiler_json, span_breakdown_json,
    span_paths, span_trace_chrome, timeline_gnuplot, timeline_json, SpanPath,
};
pub use report::{
    anomalies_json, conservation_errors, histogram_json, host_report, ledger_json,
    report_and_check, sock_stats_json, world_report,
};

use std::path::{Path, PathBuf};

/// The repository's `results/` directory (resolved relative to this
/// crate, so binaries work from any working directory).
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Assembles the standard experiment document: name, parameters, the
/// figure/table data, and per-label host reports.
pub fn experiment_json(
    name: &str,
    params: Vec<(&str, Json)>,
    data: Json,
    hosts: Vec<(String, Json)>,
) -> Json {
    Json::obj(vec![
        ("experiment", Json::str(name)),
        ("params", Json::obj(params)),
        ("data", data),
        ("hosts", Json::Obj(hosts)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_json_shape() {
        let doc = experiment_json(
            "demo",
            vec![("duration_s", Json::U64(3))],
            Json::Arr(vec![]),
            vec![(
                "bsd".into(),
                Json::obj(vec![("conserved", Json::Bool(true))]),
            )],
        );
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("demo"));
        assert_eq!(
            doc.get("params")
                .unwrap()
                .get("duration_s")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert!(doc.get("hosts").unwrap().get("bsd").is_some());
    }
}
