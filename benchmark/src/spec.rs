//! `BENCHMARK.json`, compiled in: the one place that names the
//! workloads and metrics and fixes each end-to-end metric's bound.

use lrp_telemetry::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the baseline by which an end-to-end metric may worsen
    /// (absent for per-layer metrics).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in order.
    #[cfg(test)]
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the file is not the shape the contract fixes: that is
    /// a defect of this package, caught by its tests.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("a list");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .expect("a string")
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            #[cfg(test)]
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}
