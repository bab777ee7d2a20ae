#!/bin/sh
# Everything the root CI does for its workspace, for this standalone one
# (the root's `--workspace` steps do not see it): format, lints, unit
# tests, and a smoke run of all four workloads.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --locked --all-targets -- -D warnings
cargo test --offline --locked
cargo run --release --offline --locked --quiet -- --smoke
