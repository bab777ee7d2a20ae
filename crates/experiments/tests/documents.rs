//! Each committed results document against `schemas/`, one test per
//! registry entry: the document names its experiment, conforms to the
//! envelope schema and to the experiment's data schema where one exists,
//! and every host report in it passed the packet-conservation
//! self-check. Beside them: every file in `schemas/` is the envelope or
//! the data schema of a registry entry, and the livelock timeline shows
//! the paper's headline asymmetry as detected anomalies. CI regenerates
//! the documents and requires them byte-identical to the committed ones,
//! so these gates hold for the regenerated files too.

use std::path::{Path, PathBuf};

use lrp_telemetry::{results_dir, schema, Json};

fn schemas_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas")
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check_document(name: &str) {
    let doc = load(&results_dir().join(format!("{name}.json")));
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some(name),
        "results/{name}.json names another experiment"
    );
    let envelope = load(&schemas_dir().join("results.schema.json"));
    let errs = schema::validate(&doc, &envelope, "$");
    assert!(errs.is_empty(), "results/{name}.json: {errs:#?}");
    let pin = schemas_dir().join(format!("{name}.data.schema.json"));
    if pin.exists() {
        let data = doc.get("data").expect("pinned document has data");
        let errs = schema::validate(data, &load(&pin), "$.data");
        assert!(errs.is_empty(), "results/{name}.json: {errs:#?}");
    }
    let hosts = doc.get("hosts").and_then(Json::as_obj).unwrap();
    assert!(!hosts.is_empty(), "results/{name}.json has no host report");
    for (label, reports) in hosts {
        for host in reports.as_arr().unwrap() {
            assert_eq!(
                host.get("conserved").and_then(Json::as_bool),
                Some(true),
                "results/{name}.json: host report {label} not conserved"
            );
        }
    }
    let text = std::fs::read_to_string(results_dir().join(format!("{name}.txt"))).unwrap();
    assert!(!text.trim().is_empty(), "results/{name}.txt is empty");
}

macro_rules! documents {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_document(stringify!($name));
            }
        )*

        /// The list above is the registry, so no entry goes unchecked.
        #[test]
        fn every_registry_entry_is_checked() {
            let names: Vec<&str> = lrp_experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
            assert_eq!(names, [$(stringify!($name)),*]);
        }
    };
}

documents! {
    fig4,
    table2,
    ablations,
    fig5,
    smp_scaling,
    fig3,
    syn_flood,
    mlfrr,
    fault_sweep,
    table1,
    crash_recovery,
    cc_sweep,
    livelock_timeline,
}

/// Every file in `schemas/` is the envelope or the data schema of a
/// registry entry with a committed document: a schema added without its
/// experiment, left behind by a renamed one, or misnamed would otherwise
/// silently stop being checked.
#[test]
fn every_schema_belongs_to_a_document() {
    let names: Vec<&str> = lrp_experiments::EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .collect();
    let mut errs = Vec::new();
    for entry in std::fs::read_dir(schemas_dir()).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        if file == "results.schema.json" {
            continue;
        }
        match file.strip_suffix(".data.schema.json") {
            Some(exp)
                if names.contains(&exp) && results_dir().join(format!("{exp}.json")).exists() => {}
            Some(_) => errs.push(format!(
                "schemas/{file}: orphan, no registry entry's document"
            )),
            None => errs.push(format!(
                "schemas/{file}: neither results.schema.json nor <exp>.data.schema.json"
            )),
        }
    }
    assert!(errs.is_empty(), "{errs:#?}");
}

/// `livelock_onset` anomalies the watchdog recorded for `arch` in the
/// livelock timeline document.
fn livelock_onsets(doc: &Json, arch: &str) -> usize {
    let entry = doc
        .get("data")
        .and_then(Json::as_arr)
        .and_then(|d| {
            d.iter()
                .find(|e| e.get("arch").and_then(Json::as_str) == Some(arch))
        })
        .unwrap_or_else(|| panic!("livelock_timeline has no {arch} entry"));
    let events = entry
        .get("anomalies")
        .and_then(|a| a.get("events"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("livelock_timeline: no anomaly events for {arch}"));
    events
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("livelock_onset"))
        .count()
}

/// The paper's headline as the watchdog sees it: under the blast 4.4BSD
/// trips livelock onset, NI-LRP never does.
#[test]
fn the_watchdog_sees_bsd_livelock_and_ni_lrp_never() {
    let doc = load(&results_dir().join("livelock_timeline.json"));
    assert!(
        livelock_onsets(&doc, "4.4BSD") > 0,
        "4.4BSD shows no livelock_onset"
    );
    assert_eq!(
        livelock_onsets(&doc, "NI-LRP"),
        0,
        "NI-LRP shows livelock_onset"
    );
}
