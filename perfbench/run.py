#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload paper_grid --seed 1 \\
        --seconds 10 --trace 0

Builds perfbench/ (a Release build of the simulator libraries plus the
anoc_perfbench program) under .bench_build/, runs the workload for the
given time budget, checks its outputs and prints, as the last line of
standard output, one JSON object:

    {"correct": true, "attempted": 80, "failed": 0,
     "metrics": {"wall_s": {"value": 9.2, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. Exits non-zero when any operation fails a check.
See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_grid", "mesh_busy", "codec_churn")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build anoc_perfbench; return its path or None."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", "-DANOC_WERROR=OFF"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", str(build_dir), "--target", "anoc_perfbench",
           "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = build_dir / "anoc_perfbench"
    return exe if exe.exists() else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference-dir", default=str(ROOT / "results"),
                    help="committed figure tables paper_grid is checked against")
    ap.add_argument("--kernels", default="",
                    help="paper_grid subset, comma-separated (checker tests)")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="count one codec mismatch on the first operation "
                         "(checker tests)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("run.py: BENCHMARK.json not found at", spec_path)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe = build()
    if exe is None:
        log("run.py: build failed")
        return 2

    out = ROOT / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    result = out / ("result_trace.json" if args.trace else "result.json")
    if result.exists():
        result.unlink()
    cmd = [str(exe), "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + str(out), "--result=" + str(result),
           "--reference-dir=" + args.reference_dir]
    if args.kernels:
        cmd.append("--kernels=" + args.kernels)
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    with open(out / "program.log", "w") as program_log:
        try:
            proc = subprocess.run(cmd, stdout=program_log, stderr=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("run.py: anoc_perfbench timed out")
            return 2
    if not result.exists():
        log("run.py: anoc_perfbench exited %d without a result" % proc.returncode)
        return 2

    res = json.loads(result.read_text())
    metrics = {}
    missing = []
    for m in wanted:
        if m["name"] in res["metrics"]:
            metrics[m["name"]] = {"value": res["metrics"][m["name"]],
                                  "unit": m["unit"]}
        else:
            missing.append(m["name"])
    attempted = max(1, int(res["attempted"]))
    failed = min(attempted, int(res["failed"]))
    for f in res["failures"]:
        log("run.py: FAILED", f)
    if missing:
        log("run.py: metrics missing from the program's result:", missing)
    correct = proc.returncode == 0 and failed == 0 and not missing

    print("provenance:", json.dumps(res["provenance"], sort_keys=True))
    print("simulated:", json.dumps(res["summary"], sort_keys=True),
          "failed_ratio: %g" % (failed / attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
