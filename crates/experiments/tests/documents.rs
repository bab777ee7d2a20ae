//! Each committed results document against `schemas/`, one test per
//! registry entry: the document names its experiment, conforms to the
//! envelope schema and to the experiment's data schema where one exists,
//! and every host report in it passed the packet-conservation
//! self-check. CI's `validate_results` applies the same gates to the
//! freshly regenerated files; here they hold for the committed ones.

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
