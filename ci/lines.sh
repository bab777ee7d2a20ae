#!/bin/sh
# Counts the non-test lines of every crate under crates/ and checks each
# count against its budget. A line counts when it is in a .rs file outside
# tests/ and benches/ and is neither blank nor a `//` comment (doc comments
# included); in-file #[cfg(test)] modules count. Prints one row per crate
# and exits non-zero if a crate's count differs from its budget or a crate
# has no budget row. DESIGN.md's line count (every line) is checked the
# same way against its own row, so documentation growth is a visible edit
# too.
#
# The budgets below are a ratchet: a change that grows a crate or
# DESIGN.md raises its row and says why; a change that shrinks one must
# lower it, so a saving cannot be spent later without a visible edit
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

# check NAME COUNT BUDGET: prints the row; a count off its budget fails.
check() {
    if [ "$2" -gt "$3" ]; then
        echo "lines: $1 $2 > budget $3" >&2
        status=1
    elif [ "$2" -lt "$3" ]; then
        echo "lines: $1 $2 < budget $3; lower its row" >&2
        status=1
    fi
    printf '%-16s %6d / %6d\n' "$1" "$2" "$3"
}

total=0
listed=" "
while read -r crate budget; do
    n=$(count "$crate")
    total=$((total + n))
    listed="$listed$crate "
    check "$crate" "$n" "$budget"
done <<'EOF'
apps 1701
core 6594
demux 427
experiments 3324
net 666
nic 910
proptest-shim 450
sched 1030
sim 1748
stack 4350
telemetry 1275
wire 2310
EOF
printf '%-16s %6d\n' total "$total"
check DESIGN.md "$(wc -l <DESIGN.md)" 1547
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
