#!/usr/bin/env bash
# Full local gate: configure, build, test, smoke the parallel
# experiment harness (2-point sweep on 2 lanes must match --jobs=1
# byte for byte, in every table sweep_all writes), then regenerate
# every committed results/ file and compare it byte for byte.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

# Static analysis first: the determinism contract is cheaper to check
# than to build, and a finding fails the gate immediately.
python3 tools/anoc_lint/anoc_lint.py --quiet

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Parallel-sweep smoke: 2 benchmarks x 1 scheme, --jobs=2, and the
# determinism contract against a serial run.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
"./$BUILD_DIR/bench/sweep_all" \
    --benchmarks=blackscholes,swaptions --schemes=FP-VAXX \
    --max-records=1500 --jobs=2 --csv-dir="$SMOKE/j2" >/dev/null
"./$BUILD_DIR/bench/sweep_all" \
    --benchmarks=blackscholes,swaptions --schemes=FP-VAXX \
    --max-records=1500 --jobs=1 --csv-dir="$SMOKE/j1" >/dev/null
for t in fig09_latency_breakdown fig10_compression fig11_flit_reduction \
         fig15_power sweep_points; do
    cmp "$SMOKE/j1/$t.csv" "$SMOKE/j2/$t.csv"
    cmp "$SMOKE/j1/$t.json" "$SMOKE/j2/$t.json"
done

scripts/check_results.sh "$BUILD_DIR"

echo "check_build: OK (build + tests + parallel sweep determinism + results)"
