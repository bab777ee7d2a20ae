//! The `lrp-exp` command line: an argument list that names no experiment,
//! or names one the registry lacks, prints the usage and the registered
//! names and exits 2 before running anything.

use std::process::{Command, Output};

use lrp_experiments::EXPERIMENTS;

fn lrp_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lrp-exp"))
        .args(args)
        .output()
        .expect("lrp-exp runs")
}

/// Exit status 2, the usage and every registered name on stderr, and no
/// experiment run (a run prints its wall time as `<name>: <secs> s`).
fn assert_usage(args: &[&str]) {
    let out = lrp_exp(args);
    assert_eq!(out.status.code(), Some(2), "lrp-exp {args:?}");
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.starts_with("usage: lrp-exp [--trace] (all | NAME...)\n"),
        "{err}"
    );
    let names = err.lines().nth(1).unwrap().strip_prefix("names: ").unwrap();
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.split(' ').collect::<Vec<_>>(), registered);
    assert_eq!(err.lines().count(), 2, "{err}");
}

#[test]
fn no_arguments_print_the_usage() {
    assert_usage(&[]);
}

#[test]
fn an_unknown_name_prints_the_usage() {
    assert_usage(&["fig6"]);
}

/// One unknown name among known ones runs none of them.
#[test]
fn a_known_name_beside_an_unknown_one_runs_nothing() {
    assert_usage(&["livelock_timeline", "fig6"]);
}

/// `all` stands alone: beside a name it is read as a name, and no entry
/// has it.
#[test]
fn all_beside_a_name_prints_the_usage() {
    assert_usage(&["all", "livelock_timeline"]);
}

/// `--trace` is a flag, not an experiment: on its own it selects nothing.
#[test]
fn trace_alone_prints_the_usage() {
    assert_usage(&["--trace"]);
}
