#!/bin/sh
# Offline verification: build, test, docs, lint, golden outputs and
# the benchmark's correctness check. Must pass with zero network
# access — the workspace has no external dependencies.
#
# Usage: scripts/verify.sh
# Exits non-zero on the first failure. Clippy and rustfmt are skipped
# (with a note) when the component is not installed.

set -eu
cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The fast paths' equivalence pins again under the optimised codegen
# the benchmark runs: table-driven Toeplitz against the bit-serial
# definition and the once-per-run Pareto sampler against the per-draw
# formula (pcie-flows, pcie-nic), the memoised BER corruption
# probability against a per-call `powf` (pcie-fault), and the O(1)
# IO-TLB against the linear-scan LRU (pcie-host).
echo "==> cargo test --release -q -p pcie-flows -p pcie-nic -p pcie-fault -p pcie-host"
cargo test --release -q -p pcie-flows -p pcie-nic -p pcie-fault -p pcie-host

echo "==> cargo doc --no-deps (warnings are errors, unconditionally)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --all-targets (warnings are errors)"
    cargo clippy --all-targets --quiet -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint"
fi

echo "==> scripts/golden.sh (results/*.txt regenerate byte-identically)"
sh scripts/golden.sh

# The benchmark's workloads (BENCHMARK.json) as a correctness check:
# each runs for one second and compares every cell with the committed
# golden digests in simbench/golden/. Together with golden.sh's
# results/ext_{drivers,flows,rpc}_quick.txt pins (stage means and the
# threads:1 vs threads:4 fingerprints), these are the byte-exactness
# checks on the DriverSim, FlowEngine and RpcEngine runs. Timings are
# not gated here.
echo "==> simbench: every BENCHMARK.json workload against its golden digests"
cargo build --release --quiet --manifest-path simbench/Cargo.toml
WORKLOADS=$(awk '/"workloads"/ { w = 1 } w && /\]/ { w = 0 }
    w && /"name"/ { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json)
for w in $WORKLOADS; do
    if ! out=$(simbench/target/release/simbench --workload "$w" --seed 1 --seconds 1 --trace 0); then
        echo "simbench $w exited non-zero" >&2
        exit 1
    fi
    if ! printf '%s\n' "$out" | grep -q '"correct": true'; then
        printf '%s\n' "$out" | tail -n 1 >&2
        echo "simbench $w: results differ from simbench/golden/$w.txt" >&2
        exit 1
    fi
    echo "==>   $w: correct"
done

# Non-fatal perf datapoint: quick suite (sequential vs parallel) and
# per-figure regeneration timings into BENCH_sim.json, so every PR
# records the simulator's own performance trajectory.
echo "==> scripts/bench.sh --quick (non-fatal)"
if ! sh scripts/bench.sh --quick; then
    echo "==> bench.sh failed (non-fatal, continuing)"
fi

echo "==> OK"
