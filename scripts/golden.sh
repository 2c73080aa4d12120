#!/bin/sh
# Golden-output check: regenerate every committed results/*.txt from
# the release binaries and diff each against the committed file, so a
# change that moves any figure, table or report byte fails loudly.
#
# Usage:
#   scripts/golden.sh          # every results/*.txt except suite_paper.txt
#   scripts/golden.sh --full   # also suite_paper.txt (the §5.4 paper suite)
#
# Each results/<name>.txt is the stdout of the binary <name>, at default
# scale. Exceptions: suite_paper.txt is `suite` with
# PCIE_BENCH_SUITE=paper, <bench>_quick.txt is `<bench> --quick`, and
# fig6 runs with PCIE_BENCH_OUT=results/raw (gitignored) so its export
# lines are reproduced. Host-timing lines (`# BENCH ...`, `# N tests in
# ...s`, `# sequential-equivalent ...`) are filtered from both sides
# before diffing.
#
# Exits 1 if any file differs, 2 on a bad argument.

set -eu
cd "$(dirname "$0")/.."

FULL=0
for arg in "$@"; do
    case $arg in
    --full) FULL=1 ;;
    *)
        echo "golden.sh: unknown argument '$arg'" >&2
        exit 2
        ;;
    esac
done

cargo build --release --workspace --quiet

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# untimed <file> — the file minus its host-timing lines.
untimed() {
    grep -v -e '^# BENCH ' -e '^# [0-9]* tests in ' -e '^# sequential-equivalent ' "$1" || true
}

# regen <name> — the stdout that results/<name>.txt records.
regen() {
    case $1 in
    suite_paper) PCIE_BENCH_SUITE=paper ./target/release/suite ;;
    fig6_latency_cdf) PCIE_BENCH_OUT=results/raw ./target/release/fig6_latency_cdf ;;
    *_quick) "./target/release/${1%_quick}" --quick ;;
    *) "./target/release/$1" ;;
    esac
}

FAILED=""
for want in results/*.txt; do
    name=$(basename "$want" .txt)
    [ "$name" != suite_paper ] || [ "$FULL" = 1 ] || continue
    t0=$(date +%s%N)
    if ! regen "$name" >"$TMP/got.txt"; then
        echo "==> $name: binary exited non-zero"
        FAILED="$FAILED $name"
        continue
    fi
    t1=$(date +%s%N)
    untimed "$want" >"$TMP/want.txt"
    untimed "$TMP/got.txt" >"$TMP/got.untimed.txt"
    secs=$(awk "BEGIN{printf \"%.1f\", ($t1-$t0)/1e9}" </dev/null)
    if cmp -s "$TMP/want.txt" "$TMP/got.untimed.txt"; then
        echo "==> $name: identical (${secs}s)"
    else
        echo "==> $name: DIFFERS (${secs}s)"
        diff "$TMP/want.txt" "$TMP/got.untimed.txt" | head -n 20 || true
        FAILED="$FAILED $name"
    fi
done

if [ -n "$FAILED" ]; then
    echo "golden.sh: regenerated output differs from results/ for:$FAILED" >&2
    exit 1
fi
echo "==> golden outputs identical"
