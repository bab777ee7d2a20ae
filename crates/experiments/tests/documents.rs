//! Each committed results document against `schemas/`, one test per
//! registry entry: the document names its experiment, conforms to the
//! envelope schema and to the experiment's data schema where one exists,
//! and every host report in it passed the packet-conservation
//! self-check. Beside them: every file in `schemas/` is the envelope or
//! the data schema of a registry entry, the livelock timeline shows the
//! paper's headline asymmetry as detected anomalies, and DESIGN.md names
//! only files and declarations that exist. CI regenerates
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

/// The repository root.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, build output and hidden directories
/// skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `Type::member` (trailing call arguments dropped) as its two halves,
/// if `span` names a member of a type: a capitalised identifier, `::`,
/// an identifier.
fn type_member(span: &str) -> Option<(&str, &str)> {
    let span = span.find('(').map_or(span, |i| &span[..i]);
    let (ty, member) = span.split_once("::")?;
    let ident = |s: &str| !s.is_empty() && s.chars().all(is_ident);
    (ty.starts_with(|c: char| c.is_ascii_uppercase()) && ident(ty) && ident(member))
        .then_some((ty, member))
}

/// True if some line of `src` declares `member`: a function, constant,
/// field or variant of that name at the start of the line, after any
/// `pub`, `const` or `fn`.
fn declares_member(src: &str, member: &str) -> bool {
    src.lines().any(|line| {
        let mut rest = line.trim_start();
        while let Some(r) = ["pub(crate) ", "pub ", "const ", "fn "]
            .iter()
            .find_map(|p| rest.strip_prefix(p))
        {
            rest = r;
        }
        rest.strip_prefix(member)
            .is_some_and(|r| r.is_empty() || r.starts_with(['(', '<', ':', ',', ' ']))
    })
}

/// True if `src` defines a struct, enum, trait or type alias `ty`.
fn declares_type(src: &str, ty: &str) -> bool {
    ["struct ", "enum ", "trait ", "type "].iter().any(|kw| {
        let key = format!("{kw}{ty}");
        src.match_indices(&key)
            .any(|(i, _)| !src[i + key.len()..].starts_with(is_ident))
    })
}

/// DESIGN.md names only what exists: every backticked `….rs` path is a
/// file of the repository (by its path from the root, or as the tail of
/// one, for the short `host/cpu.rs` form), and every backticked
/// `Type::member` is a type and a member declared somewhere in
/// `crates/`. A renamed file or a deleted function, field or variant
/// fails here until the document follows.
#[test]
fn design_names_only_what_exists() {
    let root = repo_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    let files: Vec<String> = files
        .iter()
        .map(|f| {
            f.strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    let mut crates_src = String::new();
    for f in files.iter().filter(|f| f.starts_with("crates/")) {
        crates_src += &std::fs::read_to_string(root.join(f)).unwrap();
        crates_src.push('\n');
    }
    let mut fenced = false;
    let prose: Vec<&str> = design
        .lines()
        .filter(|line| {
            fenced ^= line.starts_with("```");
            !fenced && !line.starts_with("```")
        })
        .collect();
    let prose = prose.join("\n");
    let mut errs = Vec::new();
    for span in prose.split('`').skip(1).step_by(2) {
        if span.ends_with(".rs") && !span.contains(char::is_whitespace) {
            let tail = format!("/{span}");
            if !files.iter().any(|f| f == span || f.ends_with(&tail)) {
                errs.push(format!("`{span}`: no such file"));
            }
        } else if let Some((ty, member)) = type_member(span) {
            if !declares_type(&crates_src, ty) || !declares_member(&crates_src, member) {
                errs.push(format!("`{span}`: not declared under crates/"));
            }
        }
    }
    assert!(errs.is_empty(), "DESIGN.md: {errs:#?}");
}

/// DESIGN.md's crate table and README.md's architecture tree list the
/// workspace as it is: a ``| `<package>` | `crates/<dir>` |`` row and a
/// `<dir>/` line for every directory under `crates/`, and none for a
/// directory that does not exist.
#[test]
fn crate_tables_list_every_crate() {
    let root = repo_root();
    let mut crates: Vec<(String, String)> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let package = manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
                .unwrap();
            let name = dir.file_name().unwrap().to_string_lossy();
            (name.into_owned(), package.to_string())
        })
        .collect();
    crates.sort();

    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let mut rows: Vec<(String, String)> = design
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let package = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            let dir = cells.next()?.strip_prefix("`crates/")?.strip_suffix('`')?;
            Some((dir.to_string(), package.to_string()))
        })
        .collect();
    rows.sort();
    assert_eq!(rows, crates, "DESIGN.md's crate table against crates/");

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let mut tree: Vec<&str> = readme
        .lines()
        .skip_while(|line| *line != "crates/")
        .skip(1)
        .take_while(|line| line.starts_with(' '))
        .filter_map(|line| {
            let entry = line.strip_prefix("  ")?;
            let (dir, _) = entry.split_once('/')?;
            (!dir.is_empty() && !dir.contains(' ')).then_some(dir)
        })
        .collect();
    tree.sort_unstable();
    let dirs: Vec<&str> = crates.iter().map(|(dir, _)| dir.as_str()).collect();
    assert_eq!(tree, dirs, "README.md's architecture tree against crates/");
}
