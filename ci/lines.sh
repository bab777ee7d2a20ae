#!/bin/sh
# Counts the non-test lines of every crate under crates/ and checks each
# count against its budget. A line counts when it is in a .rs file outside
# tests/ and benches/ and is neither blank nor a `//` comment (doc comments
# included); in-file #[cfg(test)] modules count. Prints one row per crate
# and exits non-zero if a crate is over its budget or has no budget row.
#
# The table below is the one set of budgets. A change that grows a crate
# raises its row and says why; a change that shrinks one lowers it.
#
#     ci/lines.sh
set -eu
cd "$(dirname "$0")/.."

count() {
    find "crates/$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -exec cat {} + | grep -cv '^[[:space:]]*\(//\|$\)' || true
}

status=0
total=0
listed=" "
while read -r crate budget; do
    n=$(count "$crate")
    total=$((total + n))
    listed="$listed$crate "
    if [ "$n" -gt "$budget" ]; then
        echo "lines: $crate $n > budget $budget" >&2
        status=1
    fi
    printf '%-16s %6d / %6d\n' "$crate" "$n" "$budget"
done <<'EOF'
apps 1704
bench 0
core 5801
criterion-shim 126
demux 427
experiments 3818
mbuf 366
net 672
nic 694
proptest-shim 448
sched 1055
sim 1528
stack 4214
telemetry 1481
wire 1793
EOF
printf '%-16s %6d\n' total "$total"
for dir in crates/*/; do
    crate=$(basename "$dir")
    case "$listed" in
    *" $crate "*) ;;
    *)
        echo "lines: $crate has no budget row" >&2
        status=1
        ;;
    esac
done
exit "$status"
