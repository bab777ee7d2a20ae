//! The repo's one benchmark: host wall-clock per workload, host cost per
//! layer. See `README.md` beside this package for what is measured and
//! why; `BENCHMARK.json` at the repo root for the declared metrics.

mod alloc;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod watchdog;
mod workloads;
mod yardstick;

use layers::ReplayInputs;
use lrp_sim::SimDuration;
use lrp_telemetry::json::Json;
use report::{Metric, Traced};
use run::{LegOutcome, RepMode};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use watchdog::Watchdog;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Host seconds one leg may take before the run is failed.
const LEG_LIMIT: Duration = Duration::from_secs(120);
/// Timed reps when neither `--reps` nor `--seconds` says otherwise.
const DEFAULT_REPS: usize = 5;
/// Fewest timed reps a `--seconds` run reports a median over.
const MIN_REPS: usize = 3;
/// `--smoke` divides simulated durations and transfer sizes by this.
const SMOKE_DIV: u64 = 20;
/// `--selftest` allows the allocation counts this relative gap.
const ALLOC_GAP_LIMIT: f64 = 0.02;

const USAGE: &str = "usage: lrp-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--reps N] [--trace 0|1] [--smoke] [--selftest] [--out DIR]

  --workload  udp_blast | tcp_bulk | tcp_fanin_lossy | http_churn | all (default)
  --seed      feeds every injector and fault plan (default 7)
  --seconds   keep adding timed reps until this much host time is measured (at least 3)
  --reps      exactly this many timed reps (default 5)
  --trace     0: end-to-end metrics only; 1: one timed rep, then the traced rep and the
              per-layer metrics; absent: both
  --smoke     1/20 of every simulated duration and transfer, 1 rep, no traced rep
  --selftest  run the whole set twice; fail if the two disagree beyond the bounds
  --out       where result-<workload>.json and trace-<workload>.json go";

#[derive(Clone, Debug)]
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: Option<bool>,
    /// Divides simulated durations and transfer sizes (`--smoke`: 20).
    scale_div: u64,
    selftest: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 7,
        seconds: None,
        reps: None,
        trace: None,
        scale_div: 1,
        selftest: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                opts.workload = match v {
                    "all" => None,
                    name => Some(Workload::from_name(name).ok_or_else(|| bad(v))?),
                };
            }
            "--seed" => opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(v));
                }
                opts.seconds = Some(s);
            }
            "--reps" => {
                let v = value()?;
                let n: usize = v.parse().map_err(|_| bad(v))?;
                if n == 0 {
                    return Err(bad(v));
                }
                opts.reps = Some(n);
            }
            "--trace" => {
                opts.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--smoke" => {
                // 1/20 scale, one rep, no traced rep, unless told otherwise.
                opts.scale_div = SMOKE_DIV;
                opts.reps.get_or_insert(1);
                opts.trace.get_or_insert(false);
            }
            "--selftest" => opts.selftest = true,
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.selftest && opts.workload.is_some() {
        return Err("--selftest runs every workload; drop --workload".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("lrp-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload {
        Some(w) => run_workload(w, &opts, start),
        None => run_all(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lrp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kb| kb / 1e3)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The checks of one run: per leg per rep, every host's packet ledger
/// balanced (`conservation_errors` empty), the digest equal to the same
/// leg's in every other rep, and the workload's sanity line. (The fourth,
/// the watchdog, ends the process when it fails.)
fn check_reps(workload: Workload, reps: &[&[LegOutcome]]) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    for (r, legs) in reps.iter().enumerate() {
        let sane = run::sanity(workload, legs);
        for (i, leg) in legs.iter().enumerate() {
            let at = format!("{}/{} rep {r}", workload.name(), leg.name);
            failures.extend(leg.conservation_errors.iter().map(|e| format!("{at}: {e}")));
            if leg.digest != reps[0][i].digest {
                failures.push(format!(
                    "{at}: sim_digest {:#018x} differs from rep 0's {:#018x}",
                    leg.digest, reps[0][i].digest
                ));
            }
            failures.extend(sane[i].clone().map(|why| format!("rep {r}: {why}")));
        }
    }
    let attempted = reps.iter().map(|legs| legs.len() as u64 * 4).sum();
    (attempted, failures)
}

/// What measuring one workload produced.
struct Measured {
    workload: Workload,
    /// Digest and event count per leg, in leg order.
    legs: Vec<LegOutcome>,
    timed_reps: usize,
    end_to_end: Vec<Metric>,
    /// Empty unless the traced rep ran.
    per_layer: Vec<Metric>,
    spans: Vec<trace::Span>,
    checks_attempted: u64,
    failures: Vec<String>,
}

/// Runs one workload in this process: warm-up rep, timed reps, and (if
/// asked) the traced rep with its replays.
fn measure(workload: Workload, opts: &Opts, start: Instant) -> Result<Measured, String> {
    let watchdog = Watchdog::start(LEG_LIMIT, |leg| {
        eprintln!("watchdog: {leg} exceeded {LEG_LIMIT:?} of host time; giving up");
        println!("{}", report::contract_line(1, 1, &[]));
        std::process::exit(1);
    });
    let mode = RepMode {
        seed: opts.seed,
        scale_div: opts.scale_div,
        telemetry: true,
    };

    // Warm-up: fills the thread-local frame arena and the allocator.
    let warmup = run::run_rep(workload, mode, None, &watchdog);
    // Process start to here, the warm-up's `run_until` time counted at
    // the reference core like the timed reps'.
    let setup_s =
        start.elapsed().as_secs_f64() + warmup.iter().map(|l| l.wall_s - l.wall_raw_s).sum::<f64>();

    let mut timed: Vec<Vec<LegOutcome>> = Vec::new();
    let mut peak_heap_mb = 0.0;
    let t_timed = Instant::now();
    loop {
        timed.push(run::run_rep(workload, mode, None, &watchdog));
        if timed.len() == 1 {
            // After the warm-up and one timed rep, however many follow:
            // the frame arena keeps a little more from every rep.
            peak_heap_mb = alloc::peak_bytes() as f64 / 1e6;
        }
        let enough = match (opts.reps, opts.seconds) {
            (Some(n), _) => timed.len() >= n,
            // The traced run spends its time on the traced rep.
            _ if opts.trace == Some(true) => true,
            (None, Some(s)) => timed.len() >= MIN_REPS && t_timed.elapsed().as_secs_f64() >= s,
            (None, None) => timed.len() >= DEFAULT_REPS,
        };
        if enough {
            break;
        }
    }
    let end_to_end = report::end_to_end(&timed, setup_s, peak_heap_mb);

    let mut extra_reps: Vec<Vec<LegOutcome>> = Vec::new();
    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    if opts.trace != Some(false) {
        let mut tracer = Tracer::new(timed.len() as u32 + 1);
        let legs = run::run_rep(workload, mode, Some(&mut tracer), &watchdog);
        // One more untimed rep with telemetry off where telemetry is a
        // visible part of the cost.
        let telemetry_off_wall_s = matches!(workload, Workload::UdpBlast | Workload::HttpChurn)
            .then(|| {
                let off = RepMode {
                    telemetry: false,
                    ..mode
                };
                let legs = run::run_rep(workload, off, None, &watchdog);
                let wall = legs.iter().map(|l| l.wall_s).sum();
                extra_reps.push(legs);
                wall
            });
        let costs = layers::replay(&replay_inputs(workload, opts.seed, &legs), &mut tracer);
        per_layer = report::per_layer(
            &timed,
            &Traced {
                legs: &legs,
                costs,
                telemetry_off_wall_s,
                peak_rss_mb: peak_rss_mb()?,
            },
        );
        extra_reps.push(legs);
        spans = tracer.spans().to_vec();
    }
    drop(watchdog);

    let all_reps: Vec<&[LegOutcome]> = std::iter::once(&warmup)
        .chain(&timed)
        .chain(&extra_reps)
        .map(Vec::as_slice)
        .collect();
    let (checks_attempted, failures) = check_reps(workload, &all_reps);
    let timed_reps = timed.len();
    Ok(Measured {
        workload,
        legs: timed.swap_remove(0),
        timed_reps,
        end_to_end,
        per_layer,
        spans,
        checks_attempted,
        failures,
    })
}

/// The metrics of the contract's last line: with `--trace 0` every
/// end-to-end metric, with `--trace 1` every per-layer metric
/// `BENCHMARK.json` names (0 for a layer this workload bypasses: no work
/// done there), with neither flag everything measured.
fn contract_metrics(m: &Measured, trace: Option<bool>, spec: &Spec) -> Vec<Metric> {
    match trace {
        Some(false) => m.end_to_end.clone(),
        Some(true) => spec
            .per_layer
            .iter()
            .map(|s| {
                m.per_layer
                    .iter()
                    .find(|metric| metric.name == s.name)
                    .cloned()
                    .unwrap_or_else(|| Metric::bypassed(s))
            })
            .collect(),
        None => m.end_to_end.iter().chain(&m.per_layer).cloned().collect(),
    }
}

/// Measures one workload, prints every metric by name, writes the result
/// document and the trace, and ends with the contract's line.
/// `Ok(false)` = a check failed.
fn run_workload(workload: Workload, opts: &Opts, start: Instant) -> Result<bool, String> {
    let m = measure(workload, opts, start)?;
    let name = workload.name();
    println!(
        "== {name} (seed {}, {} timed reps) ==",
        opts.seed, m.timed_reps
    );
    for leg in &m.legs {
        println!(
            "sim_digest {name}/{} {:#018x}  events {}",
            leg.name, leg.digest, leg.events
        );
    }
    for metric in m.end_to_end.iter().chain(&m.per_layer) {
        println!("{}", metric.line());
    }
    println!(
        "checks_failed {} of checks_attempted {}",
        m.failures.len(),
        m.checks_attempted
    );
    for f in &m.failures {
        println!("FAILED {f}");
    }

    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let write = |file: String, doc: &Json| {
        let path = opts.out.join(file);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
    };
    if !m.spans.is_empty() {
        write(format!("trace-{name}.json"), &trace::chrome_trace(&m.spans))?;
    }
    write(format!("result-{name}.json"), &document(&m, opts))?;
    println!(
        "{}",
        report::contract_line(
            m.checks_attempted,
            m.failures.len() as u64,
            &contract_metrics(&m, opts.trace, &Spec::load())
        )
    );
    Ok(m.failures.is_empty())
}

/// What the layer replays take from the traced rep.
fn replay_inputs(workload: Workload, seed: u64, legs: &[LegOutcome]) -> ReplayInputs {
    // The receiver that saw the most captured frames, over all legs.
    let (local, _) = legs
        .iter()
        .filter_map(|l| l.captured.as_ref())
        .max_by_key(|(_, frames)| frames.len())
        .expect("the traced rep captures on every leg");
    let frames = legs
        .iter()
        .filter_map(|l| l.captured.as_ref())
        .filter(|(addr, _)| addr == local)
        .flat_map(|(_, frames)| frames.iter().cloned())
        .collect();
    let max = |f: fn(&run::Counts) -> u64| legs.iter().map(|l| f(&l.counts)).max().unwrap_or(0);
    let events: u64 = legs.iter().map(|l| l.events).sum();
    let sim_s: f64 = legs.iter().map(|l| l.sim_s).sum();
    ReplayInputs {
        frames,
        local: *local,
        demux_entries: max(|c| c.demux_entries) as usize,
        procs: max(|c| c.procs) as usize,
        queue_depth: max(|c| c.queue_depth) as usize,
        event_gap: SimDuration::from_secs_f64(sim_s / events.max(1) as f64),
        tcp: legs.iter().any(|l| l.counts.tcp_segments_in > 0),
        fault_plan: workload.fault_plan(seed),
    }
}

/// The result document (`schema.json` beside this package).
fn document(m: &Measured, opts: &Opts) -> Json {
    let metrics =
        |ms: &[Metric]| Json::Obj(ms.iter().map(|m| (m.name.clone(), m.json())).collect());
    let legs = m
        .legs
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("name", Json::str(l.name)),
                ("arch", Json::str(l.arch.name())),
                ("sim_s", Json::F64(l.sim_s)),
                ("events", Json::U64(l.events)),
                ("frames", Json::U64(l.counts.frames)),
                ("payload_bytes", Json::U64(l.counts.payload_bytes)),
                ("sim_digest", Json::str(format!("{:#018x}", l.digest))),
                ("apps", Json::str(format!("{:?}", l.apps))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema_version", Json::U64(1)),
        ("workload", Json::str(m.workload.name())),
        ("seed", Json::U64(opts.seed)),
        ("scale_div", Json::U64(opts.scale_div)),
        ("timed_reps", Json::U64(m.timed_reps as u64)),
        ("checks_attempted", Json::U64(m.checks_attempted)),
        ("checks_failed", Json::U64(m.failures.len() as u64)),
        (
            "failures",
            Json::Arr(m.failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
        ("legs", Json::Arr(legs)),
        ("end_to_end", metrics(&m.end_to_end)),
        ("per_layer", metrics(&m.per_layer)),
        (
            "span_self_time_ms",
            Json::Obj(
                trace::self_time_ms(&m.spans)
                    .into_iter()
                    .map(|(name, ms)| (name, Json::F64(ms)))
                    .collect(),
            ),
        ),
    ])
}

/// Runs every workload, each in a process of its own so `peak_heap_mb`
/// is the workload's and not the set's; with `--selftest`, twice, and
/// compares the two sets.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sets = if opts.selftest { 2 } else { 1 };
    let mut ok = true;
    let mut docs: Vec<Vec<Json>> = Vec::new();
    for set in 0..sets {
        let out = if opts.selftest {
            opts.out.join(format!("set{}", set + 1))
        } else {
            opts.out.clone()
        };
        let mut set_docs = Vec::new();
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &opts.seed.to_string()]);
            cmd.arg("--out").arg(&out);
            if let Some(s) = opts.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if let Some(n) = opts.reps {
                cmd.args(["--reps", &n.to_string()]);
            }
            if let Some(t) = opts.trace {
                cmd.args(["--trace", if t { "1" } else { "0" }]);
            }
            if opts.scale_div == SMOKE_DIV {
                cmd.arg("--smoke");
            }
            // `status` waits for the child to end.
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
            let path = out.join(format!("result-{}.json", w.name()));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            set_docs.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        docs.push(set_docs);
    }
    if opts.selftest {
        ok &= compare_sets(&Spec::load(), &docs[0], &docs[1]);
    }
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// Prints every end-to-end metric's relative gap between the two sets;
/// false if one exceeds its bound, or a digest, event count or
/// allocation count (beyond 2 %) differs.
fn compare_sets(spec: &Spec, first: &[Json], second: &[Json]) -> bool {
    let mut ok = true;
    println!("== selftest: set 2 against set 1 ==");
    for (a, b) in first.iter().zip(second) {
        let workload = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let value =
            |doc: &Json, name: &str| doc.get("end_to_end")?.get(name)?.get("value")?.as_f64();
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (value(a, &m.name), value(b, &m.name)) else {
                println!("{workload:<16} {:<24} missing", m.name);
                ok = false;
                continue;
            };
            let gap = (vb - va) / va;
            let limit = if m.name.starts_with("alloc") {
                ALLOC_GAP_LIMIT
            } else {
                m.bound.unwrap_or(0.0)
            };
            let verdict = if gap.abs() <= limit { "ok" } else { "EXCEEDS" };
            ok &= gap.abs() <= limit;
            println!(
                "{workload:<16} {:<24} {va:>16.6} {vb:>16.6} {:>+8.3}%  (limit {:.0}%) {verdict}",
                m.name,
                gap * 100.0,
                limit * 100.0
            );
        }
        let legs = |doc: &Json| -> Vec<(String, u64)> {
            doc.get("legs")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|l| {
                    (
                        l.get("sim_digest")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        l.get("events").and_then(Json::as_u64).unwrap_or(0),
                    )
                })
                .collect()
        };
        let same = legs(a) == legs(b);
        ok &= same;
        println!(
            "{workload:<16} sim_digest and event count per leg: {}",
            if same { "identical" } else { "DIFFER" }
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_telemetry::schema;

    fn digests(workload: Workload, seed: u64) -> Vec<u64> {
        let mode = RepMode {
            seed,
            scale_div: 100,
            telemetry: true,
        };
        let idle = Watchdog::start(LEG_LIMIT, |_| {});
        run::run_rep(workload, mode, None, &idle)
            .iter()
            .map(|l| l.digest)
            .collect()
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            assert_eq!(digests(w, 7), digests(w, 7), "{}", w.name());
            // `tcp_bulk` and `http_churn` have no random input (closed-loop
            // applications, clean link, fixed-rate flood): the seed has
            // nothing to feed there.
            if matches!(w, Workload::UdpBlast | Workload::TcpFaninLossy) {
                assert_ne!(digests(w, 7), digests(w, 11), "{}", w.name());
            }
        }
    }

    #[test]
    fn documents_validate_and_carry_every_declared_metric() {
        let spec = Spec::load();
        let schema = Json::parse(include_str!("../schema.json")).expect("schema.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names, "BENCHMARK.json names the workloads");
        let opts = Opts {
            scale_div: SMOKE_DIV,
            reps: Some(1),
            ..parse_args(&[]).unwrap()
        };
        let mut seen_per_layer = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            let m = measure(w, &opts, Instant::now()).unwrap();
            assert_eq!(m.failures, Vec::<String>::new(), "{}", w.name());
            let doc = document(&m, &opts);
            assert_eq!(schema::validate(&doc, &schema, "$"), Vec::<String>::new());
            // The written form parses back to the same document.
            assert_eq!(Json::parse(&doc.render()).unwrap(), doc);

            for metric in m.end_to_end.iter().chain(&m.per_layer) {
                let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(
                    !metric.name.is_empty() && metric.name.chars().all(legal),
                    "metric name {:?}",
                    metric.name
                );
                assert!(metric.value.is_finite(), "{} is not finite", metric.name);
            }
            // `--trace 0`: exactly the declared end-to-end metrics, units too.
            let declared = |specs: &[spec::MetricSpec]| -> Vec<(String, String)> {
                specs
                    .iter()
                    .map(|s| (s.name.clone(), s.unit.clone()))
                    .collect()
            };
            let printed = |ms: &[Metric]| -> Vec<(String, String)> {
                ms.iter()
                    .map(|m| (m.name.clone(), m.unit.clone()))
                    .collect()
            };
            assert_eq!(
                printed(&contract_metrics(&m, Some(false), &spec)),
                declared(&spec.end_to_end)
            );
            // `--trace 1`: exactly the declared per-layer metrics.
            assert_eq!(
                printed(&contract_metrics(&m, Some(true), &spec)),
                declared(&spec.per_layer)
            );
            // A measured per-layer metric keeps its declared unit.
            for s in &spec.per_layer {
                if let Some(found) = m.per_layer.iter().find(|x| x.name == s.name) {
                    assert_eq!(found.unit, s.unit, "{}", s.name);
                    seen_per_layer.insert(s.name.clone());
                }
            }
            // Bypassed layers are absent, not zero.
            let has = |name: &str| m.per_layer.iter().any(|x| x.name == name);
            assert_eq!(has("net.fault.ns_per_frame"), w == Workload::TcpFaninLossy);
            assert_eq!(has("stack.tcp.ns_per_segment"), w != Workload::UdpBlast);
            assert!(has("core.residual_share"));
            let line = report::contract_line(1, 0, &contract_metrics(&m, Some(true), &spec));
            assert!(!line.contains('\n'));
            let parsed = Json::parse(&line).unwrap();
            let keys: Vec<&str> = parsed
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        // Every declared per-layer metric is measured by some workload.
        assert_eq!(seen_per_layer.len(), spec.per_layer.len());
    }

    #[test]
    fn frames_rebuild_from_their_summaries() {
        use lrp_wire::{tcp, udp, Frame, Ipv4Addr};
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let u = Frame::ipv4(udp::build_datagram(a, b, 6000, 9000, 3, &[0xBB; 14], false));
        let h = tcp::TcpHeader {
            src_port: 1025,
            dst_port: 80,
            seq: 77,
            ack: 99,
            flags: tcp::flags::ACK | tcp::flags::PSH,
            window: 4096,
            mss: None,
        };
        let t = Frame::ipv4(tcp::build_datagram(a, b, &h, 5, &[0xBB; 100]));
        for f in [u, t] {
            let rebuilt = run::frame_from_summary(&f.describe(), 0).unwrap();
            assert_eq!(rebuilt.describe(), f.describe());
            assert_eq!(rebuilt.len(), f.len());
        }
        assert!(run::frame_from_summary("ARP 28 bytes", 0).is_none());
    }

    #[test]
    fn arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload tcp_bulk --seed 11 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::TcpBulk), 11, Some(10.0), Some(false))
        );
        let o = parse_args(&args("--smoke")).unwrap();
        assert_eq!(
            (o.scale_div, o.reps, o.trace),
            (SMOKE_DIV, Some(1), Some(false))
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--reps 0",
            "--trace 2",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(parse_args(&args("--selftest --workload tcp_bulk")).is_err());
    }
}
