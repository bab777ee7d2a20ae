//! CI gate over the emitted experiment results, driven entirely by the
//! contents of `schemas/`:
//!
//! - `schemas/results.schema.json` — the envelope schema; every
//!   `results/*.json` document (except the `*.trace.json` span-log
//!   export `fig3 --trace` writes) must conform to it.
//! - `schemas/<exp>.data.schema.json` — an experiment-specific pin; the
//!   `data` member of `results/<exp>.json` must conform to it. A data
//!   schema whose result file does not exist is an **orphan** and fails
//!   validation, as does any schema file matching neither pattern — so
//!   adding a schema without wiring its experiment (or renaming an
//!   experiment without its schema) cannot silently stop being checked.
//!
//! Beyond schema conformance, every host report must have passed the
//! packet-conservation self-check (`"conserved": true`).
//!
//! Exits non-zero (listing every violation) if any document is missing,
//! malformed, schema-invalid, unconserved, or any schema is orphaned.

use lrp_telemetry::{results_dir, schema, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn schemas_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas")
}

/// Collects `results/*.json`, skipping the `*.trace.json` exports (the
/// span log as a chrome://tracing event array, a different shape).
fn result_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".json") && !n.ends_with(".trace.json"))
        })
        .collect();
    files.sort();
    files
}

fn load_json(path: &Path, what: &str, errs: &mut Vec<String>) -> Option<Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errs.push(format!("{what}: unreadable: {e}"));
            return None;
        }
    };
    match Json::parse(&text) {
        Ok(d) => Some(d),
        Err(e) => {
            errs.push(format!("{what}: invalid JSON: {e}"));
            None
        }
    }
}

/// Discovered schemas: the envelope and `(experiment, schema)` data pins.
struct Schemas {
    envelope: Json,
    data: Vec<(String, Json)>,
}

/// Walks `schemas/`, classifying every `*.schema.json` file. Unknown
/// schema names are reported as errors so nothing is silently skipped.
fn discover_schemas(errs: &mut Vec<String>) -> Option<Schemas> {
    let dir = schemas_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
        .collect();
    names.sort();

    let mut envelope = None;
    let mut data = Vec::new();
    for name in names {
        if !name.ends_with(".schema.json") {
            errs.push(format!(
                "schemas/{name}: unrecognized file (expected results.schema.json or <exp>.data.schema.json)"
            ));
            continue;
        }
        let doc = load_json(&dir.join(&name), &format!("schemas/{name}"), errs);
        if name == "results.schema.json" {
            envelope = doc;
        } else if let Some(exp) = name.strip_suffix(".data.schema.json") {
            if let Some(doc) = doc {
                data.push((exp.to_string(), doc));
            }
        } else {
            errs.push(format!(
                "schemas/{name}: unrecognized schema (expected results.schema.json or <exp>.data.schema.json)"
            ));
        }
    }
    match envelope {
        Some(envelope) => Some(Schemas { envelope, data }),
        None => {
            errs.push("schemas/results.schema.json: missing".into());
            None
        }
    }
}

fn check_file(path: &Path, schemas: &Schemas, errs: &mut Vec<String>) {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
    let Some(doc) = load_json(path, name, errs) else {
        return;
    };
    for e in schema::validate(&doc, &schemas.envelope, "$") {
        errs.push(format!("{name}: {e}"));
    }
    // Experiment-specific pins: the "data" member carries the numbers the
    // paper comparison rests on, so experiments with a data schema get it
    // enforced here.
    let exp = doc.get("experiment").and_then(Json::as_str).unwrap_or("");
    if let Some((_, data_schema)) = schemas.data.iter().find(|(e, _)| e == exp) {
        match doc.get("data") {
            Some(data) => {
                for e in schema::validate(data, data_schema, "$.data") {
                    errs.push(format!("{name}: {e}"));
                }
            }
            None => errs.push(format!("{name}: missing data member (pinned by schema)")),
        }
    }
    // The conservation gate: schema conformance says the key exists;
    // here it must also be true.
    let hosts = doc.get("hosts").and_then(Json::as_obj);
    for (label, report) in hosts.into_iter().flatten() {
        for (i, host) in report.as_arr().into_iter().flatten().enumerate() {
            if host.get("conserved").and_then(Json::as_bool) != Some(true) {
                errs.push(format!(
                    "{name}: hosts.{label}[{i}]: packet conservation violated"
                ));
            }
        }
    }
    // The watchdog gate: the livelock timeline must show the paper's
    // headline asymmetry as detected anomalies — 4.4BSD trips livelock
    // onset under the blast, NI-LRP never does.
    if exp == "livelock_timeline" {
        check_livelock_anomalies(name, &doc, errs);
    }
}

/// Counts `livelock_onset` anomaly events in one architecture's data
/// entry of the livelock timeline document.
fn livelock_onsets(doc: &Json, arch: &str) -> Option<u64> {
    let entry = doc
        .get("data")
        .and_then(Json::as_arr)?
        .iter()
        .find(|e| e.get("arch").and_then(Json::as_str) == Some(arch))?;
    let events = entry
        .get("anomalies")?
        .get("events")
        .and_then(Json::as_arr)?;
    Some(
        events
            .iter()
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some("livelock_onset"))
            .count() as u64,
    )
}

fn check_livelock_anomalies(name: &str, doc: &Json, errs: &mut Vec<String>) {
    match livelock_onsets(doc, "4.4BSD") {
        Some(0) => errs.push(format!(
            "{name}: 4.4BSD shows no livelock_onset anomaly — the watchdog must detect the blast"
        )),
        Some(_) => {}
        None => errs.push(format!("{name}: no anomalies section for 4.4BSD")),
    }
    match livelock_onsets(doc, "NI-LRP") {
        Some(0) => {}
        Some(n) => errs.push(format!(
            "{name}: NI-LRP shows {n} livelock_onset anomalies — LRP must not livelock"
        )),
        None => errs.push(format!("{name}: no anomalies section for NI-LRP")),
    }
}

fn main() -> ExitCode {
    let mut errs = Vec::new();
    let schemas = discover_schemas(&mut errs);

    let files = result_files();
    if files.is_empty() {
        errs.push(format!(
            "no result documents found under {}",
            results_dir().display()
        ));
    }
    if let Some(schemas) = &schemas {
        // Orphan check: every data schema must have its result document.
        for (exp, _) in &schemas.data {
            let expected = results_dir().join(format!("{exp}.json"));
            if !files.contains(&expected) {
                errs.push(format!(
                    "schemas/{exp}.data.schema.json: orphan schema — results/{exp}.json does not exist"
                ));
            }
        }
        for path in &files {
            check_file(path, schemas, &mut errs);
        }
    }
    if errs.is_empty() {
        let schemas = schemas.as_ref().expect("schemas present when no errors");
        println!(
            "validated {} result document(s) against the envelope schema + {} data pin(s): all conform, all conserved",
            files.len(),
            schemas.data.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("error: {e}");
        }
        eprintln!("{} validation error(s)", errs.len());
        ExitCode::FAILURE
    }
}
