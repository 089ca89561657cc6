#!/usr/bin/env bash
# Regenerate every committed file under results/ with one build and
# compare each, byte for byte, with the committed copy. Fails on any
# difference and on any committed file that no harness regenerated.
#
#   scripts/check_results.sh [build-dir]   (default: $BUILD_DIR or build)
#
# Every harness that simulates runs at --jobs=$JOBS (default: nproc);
# the tables are byte-identical at any job count. area_overhead and
# ablation_codec run no simulation and take no --jobs.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="$(cd "${1:-${BUILD_DIR:-build}}" && pwd)"
JOBS="${JOBS:-$(nproc)}"

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

for h in sweep_all sweep_sensitivity fig12_throughput fig16_app_output \
         fig17_bodytrack ablation_flit_width ablation_pmt_size \
         closed_loop_latency; do
    "$BUILD/bench/$h" --jobs="$JOBS" --csv-dir="$OUT/results" >/dev/null
done
for h in area_overhead ablation_codec; do
    "$BUILD/bench/$h" --csv-dir="$OUT/results" >/dev/null
done
# image_transmission writes ./results/, so it runs inside the temp dir.
(cd "$OUT" && "$BUILD/examples/image_transmission" >/dev/null)

status=0
for f in results/*; do
    if [ ! -e "$OUT/$f" ]; then
        echo "check_results: $f was not regenerated" >&2
        status=1
    elif ! cmp -s "$f" "$OUT/$f"; then
        echo "check_results: $f differs from the regenerated copy" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] || exit "$status"
echo "check_results: OK ($(ls results | wc -l) files reproduced)"
