#!/bin/sh
# Counts the non-test lines of every crate under crates/ and checks each
# count against its budget. A line counts when it is in a .rs file outside
# tests/ and benches/ and is neither blank nor a `//` comment (doc comments
# included); in-file #[cfg(test)] modules count. Prints one row per crate
# and exits non-zero if a crate's count differs from its budget or a crate
# has no budget row.
#
# The table below is the one set of budgets, and a ratchet: a change that
# grows a crate raises its row and says why; a change that shrinks one
# must lower it, so a saving cannot be spent later without a visible edit
# here.
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
    elif [ "$n" -lt "$budget" ]; then
        echo "lines: $crate $n < budget $budget; lower its row" >&2
        status=1
    fi
    printf '%-16s %6d / %6d\n' "$crate" "$n" "$budget"
done <<'EOF'
apps 1701
bench 0
core 6624
criterion-shim 126
demux 427
experiments 3518
mbuf 383
net 666
nic 913
proptest-shim 450
sched 1050
sim 1749
stack 4372
telemetry 1275
wire 1887
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
