#!/bin/sh
# Regenerates every committed file under results/. Each experiment binary
# writes its results/<name>.json (and any sidecars) itself; its stdout
# becomes results/<name>.txt. The list below is the one set of arguments
# the committed files come from, so a change that must not alter simulated
# behaviour is checked with:
#
#     results/regen.sh && git diff --exit-code results/
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --locked -q -p lrp-experiments --bins
while read -r name args; do
    echo "regen: $name $args" >&2
    # shellcheck disable=SC2086 # $args is a word list on purpose
    cargo run --release --offline --locked -q -p lrp-experiments --bin "$name" -- $args \
        </dev/null >"results/$name.txt"
done <<'EOF'
fig3 3
fig4 2000
fig5 10
table1
table2
mlfrr 2
smp_scaling 1
ablations
fault_sweep
cc_sweep --quick
livelock_timeline --quick
crash_recovery --quick
syn_flood
EOF
