//! `lrp-exp`: regenerates the committed `results/` files from the
//! experiment registry, [`lrp_experiments::EXPERIMENTS`].
//!
//! Usage: `lrp-exp [--trace] (all | NAME...)`
//!
//! `all` runs every registered experiment; names run only those. The
//! experiments run on as many worker threads as the machine offers, and
//! each writes `results/<name>.txt`, `results/<name>.json` and its
//! sidecar files. `--trace` also exports the span log of Figure 3's
//! overloaded NI-LRP run as `results/fig3-nilrp.trace.json`, a
//! chrome://tracing (Perfetto) trace; traces are an on-demand debugging
//! aid, not a committed result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lrp_experiments::{fig3, Experiment, EXPERIMENTS};
use lrp_telemetry::results_dir;

fn write(file: &str, contents: &str) {
    let path = results_dir().join(file);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--trace")
        .collect();
    let selected: Option<Vec<&Experiment>> = match names[..] {
        [] => None,
        ["all"] => Some(EXPERIMENTS.iter().collect()),
        _ => names
            .iter()
            .map(|n| EXPERIMENTS.iter().find(|e| e.name == *n))
            .collect(),
    };
    let Some(selected) = selected else {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("usage: lrp-exp [--trace] (all | NAME...)");
        eprintln!("names: {}", known.join(" "));
        std::process::exit(2);
    };

    // Workers take the next experiment in registry order until none is
    // left; the index publishes no data, so `Relaxed` suffices. Each
    // experiment builds its own worlds, so which thread runs it cannot
    // change what it writes.
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..workers.min(selected.len()) {
            s.spawn(|| {
                while let Some(exp) = selected.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let start = Instant::now();
                    for (file, contents) in (exp.run)().files(exp.name) {
                        write(&file, &contents);
                    }
                    eprintln!("{}: {:.1} s", exp.name, start.elapsed().as_secs_f64());
                }
            });
        }
    });
    if trace {
        write("fig3-nilrp.trace.json", &fig3::overload_trace());
    }
}
