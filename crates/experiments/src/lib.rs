//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each module exposes a `run*` function returning structured rows, a
//! `render` helper producing the table/plot as text, and an `output`
//! function that builds everything the experiment writes under
//! `results/` with the configuration the committed files come from.
//! [`EXPERIMENTS`] registers those functions by name; the one binary,
//! `lrp-exp`, runs them and writes the files. See `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]

pub mod ablations;
pub mod cc_sweep;
pub mod crash_recovery;
pub mod fault_sweep;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod livelock_timeline;
pub mod mlfrr;
pub mod plot;
pub mod smp_scaling;
pub mod syn_flood;
pub mod table1;
pub mod table2;

use lrp_core::{Architecture, HostConfig, World};
use lrp_telemetry::{experiment_json, report_and_check, Json};
use lrp_wire::Ipv4Addr;

/// One registered experiment.
pub struct Experiment {
    /// The file stem under `results/`, and the driver's argument.
    pub name: &'static str,
    /// Builds the experiment's output in memory; writes nothing.
    pub run: fn() -> Output,
}

const fn entry(name: &'static str, run: fn() -> Output) -> Experiment {
    Experiment { name, run }
}

/// Every experiment whose files `results/` holds, longest-running first
/// so that `lrp-exp all` finishes soonest on a few worker threads.
pub const EXPERIMENTS: [Experiment; 13] = [
    entry("fig4", fig4::output),
    entry("table2", table2::output),
    entry("ablations", ablations::output),
    entry("fig5", fig5::output),
    entry("smp_scaling", smp_scaling::output),
    entry("fig3", fig3::output),
    entry("syn_flood", syn_flood::output),
    entry("mlfrr", mlfrr::output),
    entry("fault_sweep", fault_sweep::output),
    entry("table1", table1::output),
    entry("crash_recovery", crash_recovery::output),
    entry("cc_sweep", cc_sweep::output),
    entry("livelock_timeline", livelock_timeline::output),
];

/// Everything one experiment writes, built in memory.
pub struct Output {
    /// The rendered tables and plots, verbatim as `<name>.txt`.
    text: String,
    /// The `params` member of the results document.
    params: Vec<(&'static str, Json)>,
    /// The `data` member of the results document.
    data: Json,
    /// Per-host reports of the instrumented runs, by label.
    hosts: Vec<(String, Json)>,
    /// Further files, as (file name, contents).
    sidecars: Vec<(String, String)>,
}

impl Output {
    fn new(
        text: String,
        params: Vec<(&'static str, Json)>,
        data: Json,
        hosts: Vec<(String, Json)>,
    ) -> Output {
        Output {
            text,
            params,
            data,
            hosts,
            sidecars: Vec::new(),
        }
    }

    /// The files of experiment `name` under `results/`, as (file name,
    /// contents): `<name>.txt`, `<name>.json` and the sidecars.
    pub fn files(self, name: &str) -> Vec<(String, String)> {
        let doc = experiment_json(name, self.params, self.data, self.hosts);
        let mut files = vec![
            (format!("{name}.txt"), self.text),
            (format!("{name}.json"), doc.render()),
        ];
        files.extend(self.sidecars);
        files
    }
}

/// The labelled host report of an instrumented run, after its
/// packet-conservation self-check (which panics on a violation).
fn report(label: String, world: &World) -> (String, Json) {
    let report = report_and_check(world, &label);
    (label, report)
}

/// A JSON array with one element per item.
fn arr<T>(items: &[T], f: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(f).collect())
}

/// One `{"arch", "points"}` object per architecture's series.
fn arch_series<P>(results: &[(Architecture, Vec<P>)], point: impl Fn(&P) -> Json) -> Json {
    arr(results, |(arch, pts)| {
        Json::obj(vec![
            ("arch", Json::str(arch.name())),
            ("points", arr(pts, &point)),
        ])
    })
}

/// The standard host configuration for an experiment: the requested
/// architecture with the telemetry layer enabled. Experiments always run
/// instrumented — the determinism goldens in `tests/determinism.rs` pin
/// results produced this way, which enforces that telemetry never
/// perturbs the simulation.
pub fn host_config(arch: Architecture) -> HostConfig {
    let mut cfg = HostConfig::new(arch);
    cfg.telemetry = true;
    cfg
}

/// Machine A (client) in the paper's three-machine setup.
pub const HOST_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Machine B (server).
pub const HOST_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Machine C (background traffic source).
pub const HOST_C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

/// The four architectures in the paper's presentation order.
pub fn all_architectures() -> [lrp_core::Architecture; 4] {
    use lrp_core::Architecture::*;
    [Bsd, EarlyDemux, SoftLrp, NiLrp]
}

/// The three architectures of Figure 4 / Tables 1–2 (without Early-Demux).
pub fn main_architectures() -> [lrp_core::Architecture; 3] {
    use lrp_core::Architecture::*;
    [Bsd, SoftLrp, NiLrp]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_lists() {
        assert_eq!(all_architectures().len(), 4);
        assert_eq!(main_architectures().len(), 3);
        assert!(!main_architectures().contains(&lrp_core::Architecture::EarlyDemux));
    }

    #[test]
    fn fig3_sweep_is_monotone() {
        let rates = fig3::sweep_rates();
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
        assert!(rates.contains(&20_000.0), "covers the livelock region");
    }

    #[test]
    fn table1_has_four_systems() {
        let names: Vec<&str> = table1::systems().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["SunOS+Fore", "4.4BSD", "NI-LRP", "SOFT-LRP"]);
    }

    #[test]
    fn table2_variants_ordered_by_work() {
        use table2::Variant::*;
        assert!(Fast.work() < Medium.work());
        assert!(Medium.work() < Slow.work());
    }

    #[test]
    fn fig4_and_fig5_sweeps_cover_paper_range() {
        assert!(fig4::sweep_rates().iter().any(|&r| r >= 14_000.0));
        assert!(fig5::sweep_rates().iter().any(|&r| r >= 20_000.0));
        assert!(fig5::sweep_rates().contains(&0.0), "baseline point");
    }
}
