//! The experiment registry against the committed `results/` files: one
//! entry per results document, and an entry's in-memory output equal to
//! the files it was committed as.

use std::collections::BTreeSet;
use std::path::Path;

use lrp_experiments::{Experiment, EXPERIMENTS};
use lrp_telemetry::{results_dir, Json};

/// The file names in `dir` that end in `suffix`, with the suffix cut.
fn stems(dir: &Path, suffix: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter_map(|name| name.strip_suffix(suffix).map(str::to_string))
        .collect()
}

/// Every committed results document has a registry entry and every entry
/// a committed document; every per-experiment data schema names an entry.
#[test]
fn registry_names_the_committed_results() {
    let names: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate registry names");
    let documents: BTreeSet<String> = stems(&results_dir(), ".json")
        .into_iter()
        .filter(|stem| !stem.ends_with(".trace")) // `lrp-exp --trace` exports
        .collect();
    assert_eq!(names, documents);
    let schemas = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas");
    let pinned = stems(&schemas, ".data.schema.json");
    assert!(!pinned.is_empty());
    for stem in pinned {
        assert!(
            names.contains(&stem),
            "schemas/{stem}.data.schema.json has no entry"
        );
    }
}

/// The registry entry called `name`.
fn entry(name: &str) -> &'static Experiment {
    EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
}

/// Runs entry `name` in process and checks that it writes `count` files,
/// each equal to the committed bytes; returns the files.
fn assert_committed(name: &str, count: usize) -> Vec<(String, String)> {
    let files = (entry(name).run)().files(name);
    assert_eq!(files.len(), count);
    assert_eq!(files[0].0, format!("{name}.txt"));
    assert_eq!(files[1].0, format!("{name}.json"));
    for (file, contents) in &files {
        let committed = std::fs::read_to_string(results_dir().join(file)).unwrap();
        assert!(*contents == committed, "{file} differs from results/{file}");
    }
    files
}

/// The cheapest entry, which writes the most files, run in process: its
/// text, results document and eight folded-stack and gnuplot sidecars
/// equal the committed bytes.
#[test]
fn livelock_timeline_output_is_the_committed_bytes() {
    assert_committed("livelock_timeline", 10);
}

/// The congestion-control sweep's fixed configuration (the short run)
/// reproduces its committed text and document.
#[test]
fn cc_sweep_output_is_the_committed_bytes() {
    assert_committed("cc_sweep", 2);
}

/// The crash-recovery entry's fixed configuration reproduces its
/// committed text and document.
#[test]
fn crash_recovery_output_is_the_committed_bytes() {
    assert_committed("crash_recovery", 2);
}

/// Table 1, all four systems, reproduces its committed text and
/// document.
#[test]
fn table1_output_is_the_committed_bytes() {
    assert_committed("table1", 2);
}

/// `lrp-exp all` runs entries on several threads at once: the same entry
/// run concurrently on two threads gives the same files, so which worker
/// runs an entry, and what runs beside it, cannot change its output.
#[test]
fn concurrent_runs_of_an_entry_are_identical() {
    let run = || (entry("livelock_timeline").run)().files("livelock_timeline");
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(run);
        let b = s.spawn(run);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(a == b, "concurrent runs differ");
}

/// The keys of a JSON object, in document order.
fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The `data.<member>` array of the committed `results/<name>.json`.
fn cells(name: &str, member: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(results_dir().join(format!("{name}.json"))).unwrap();
    let doc = Json::parse(&text).unwrap();
    let data = doc.get("data").and_then(|d| d.get(member));
    data.and_then(Json::as_arr).unwrap().to_vec()
}

/// A TCP sweep cell is spelled one way in both documents that hold one:
/// `cc_sweep` puts `"cc"` in front of `fault_sweep`'s fields and its
/// congestion-window fields after them.
#[test]
fn sweep_cells_share_one_spelling() {
    let fault = cells("fault_sweep", "tcp");
    assert!(!fault.is_empty());
    let fields = keys(&fault[0]);
    assert_eq!(fields.len(), 11);
    assert!(fault.iter().all(|c| keys(c) == fields));
    let cc = cells("cc_sweep", "cells");
    assert!(!cc.is_empty());
    for cell in &cc {
        let cc_fields = keys(cell);
        assert_eq!(cc_fields[0], "cc");
        assert_eq!(cc_fields[1..12], fields[..]);
        assert_eq!(
            cc_fields[12..],
            ["cwnd_max", "cwnd_mean", "ssthresh_last", "cwnd_timeline"]
        );
    }
}
