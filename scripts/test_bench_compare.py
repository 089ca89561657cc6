#!/usr/bin/env python3
"""Self-test for bench_compare.py using synthetic bench JSONs.

Exercises the exit-code contract the CI perf gate relies on:
exit 0 when within threshold, exit 1 on a regression, exit 0 under
--report-only even with a regression, exit 2 on malformed input. For
two directories of perfbench results it checks pairing by seed, the
--claim rule (ten pairs, 9/10 wins, a median gap beyond the parent's
IQR, in the metric's better direction, on every workload present),
using the repository's BENCHMARK.json, and exit 2 naming a malformed
file. Registered as a ctest (bench_compare_selftest).
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")
SPEC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def bench_json(path, **words_per_sec):
    data = {
        "schema": "approxnoc-micro-codec-bench-v1",
        "results": {s: {"words_per_sec": w, "ns_per_word": 1e9 / w}
                    for s, w in words_per_sec.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)


def result_dir(path, workload, runs):
    """One perfbench result.json per seed: runs maps seed -> metrics."""
    os.makedirs(path)
    for seed, metrics in runs.items():
        with open(os.path.join(path, f"result_{seed}.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"workload": workload, "seed": seed, "attempted": 80,
                       "failed": 0, "metrics": metrics}, f)
    return path


def run(*argv):
    p = subprocess.run([sys.executable, SCRIPT, *argv],
                       capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def main():
    failures = []

    def check(name, got, want, output):
        if got != want:
            failures.append(f"{name}: exit {got}, wanted {want}\n{output}")
            print(f"FAIL {name}")
        else:
            print(f"ok   {name}")

    with tempfile.TemporaryDirectory() as d:
        old = os.path.join(d, "old.json")
        bench_json(old, baseline=1e8, di_vaxx=1.2e7, fp_vaxx=1.9e7)

        # Identical results: no regression.
        same = os.path.join(d, "same.json")
        bench_json(same, baseline=1e8, di_vaxx=1.2e7, fp_vaxx=1.9e7)
        rc, out = run(old, same)
        check("identical", rc, 0, out)

        # Within the 15% noise threshold (10% drop): still passes.
        noisy = os.path.join(d, "noisy.json")
        bench_json(noisy, baseline=0.9e8, di_vaxx=1.08e7, fp_vaxx=1.71e7)
        rc, out = run(old, noisy)
        check("within-threshold", rc, 0, out)

        # Injected >15% regression on one scheme: fails.
        slow = os.path.join(d, "slow.json")
        bench_json(slow, baseline=1e8, di_vaxx=0.9e7, fp_vaxx=1.9e7)
        rc, out = run(old, slow)
        check("regression", rc, 1, out)
        if "di_vaxx" not in out:
            failures.append(f"regression: di_vaxx not named\n{out}")

        # Same regression in report-only mode: passes.
        rc, out = run(old, slow, "--report-only")
        check("report-only", rc, 0, out)

        # Tighter threshold turns the 10% noise case into a failure.
        rc, out = run(old, noisy, "--threshold", "0.05")
        check("tight-threshold", rc, 1, out)

        # A scheme missing from the new run counts as a regression.
        missing = os.path.join(d, "missing.json")
        bench_json(missing, baseline=1e8, fp_vaxx=1.9e7)
        rc, out = run(old, missing)
        check("missing-scheme", rc, 1, out)

        # Improvements never fail.
        fast = os.path.join(d, "fast.json")
        bench_json(fast, baseline=2e8, di_vaxx=4e7, fp_vaxx=4e7)
        rc, out = run(old, fast)
        check("improvement", rc, 0, out)

        # Malformed input: exit 2.
        junk = os.path.join(d, "junk.json")
        with open(junk, "w", encoding="utf-8") as f:
            f.write("not json")
        rc, out = run(old, junk)
        check("malformed", rc, 2, out)

        empty = os.path.join(d, "empty.json")
        with open(empty, "w", encoding="utf-8") as f:
            f.write("{}")
        rc, out = run(old, empty)
        check("no-results", rc, 2, out)

        bad_wps = os.path.join(d, "bad_wps.json")
        with open(bad_wps, "w", encoding="utf-8") as f:
            json.dump({"results": {"a": {"words_per_sec": 0}}}, f)
        rc, out = run(old, bad_wps)
        check("bad-words-per-sec", rc, 2, out)

        # A file with no results section is malformed input with a
        # clear message naming the sections it does have — never a
        # KeyError traceback.
        other = os.path.join(d, "other.json")
        with open(other, "w", encoding="utf-8") as f:
            json.dump({"config": {"reps": 3}, "provenance": {}}, f)
        rc, out = run(old, other)
        check("results-missing", rc, 2, out)
        if "config" not in out or "Traceback" in out:
            failures.append(
                f"results-missing: want a message listing the present "
                f"sections, no traceback\n{out}")

        paired_cases(d, check, failures)

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("all bench_compare self-tests passed")
    return 0


def paired_cases(d, check, failures):
    with open(SPEC, "rb") as f:
        spec_bytes = f.read()
    seeds = range(1001, 1011)
    # Parent: RSS 58.0-58.9 MB (IQR about 0.45), wall 1.70-1.79 s.
    parent = result_dir(os.path.join(d, "parent"), "paper_grid", {
        s: {"wall_s": 1.70 + (s % 10) / 100, "peak_rss_mb": 58.0 + (s % 10) / 10,
            "packets_per_s": 1e5} for s in seeds})
    # Change: RSS 34 MB in every run; wall unchanged; rate 9/10 higher.
    change = result_dir(os.path.join(d, "change"), "paper_grid", {
        s: {"wall_s": 1.70 + (s % 10) / 100, "peak_rss_mb": 34.0,
            "packets_per_s": 1e5 if s == 1001 else 2e5} for s in seeds})

    rc, out = run(parent, change)
    check("paired-table", rc, 0, out)
    for want in ("paper_grid: 10 pairs", "peak_rss_mb", "10/10", "MB"):
        if want not in out:
            failures.append(f"paired-table: '{want}' not printed\n{out}")

    rc, out = run(parent, change, "--claim", "peak_rss_mb")
    check("claim-holds", rc, 0, out)

    # 9/10 wins on a higher-is-better metric is enough.
    rc, out = run(parent, change, "--claim", "packets_per_s")
    check("claim-higher-better", rc, 0, out)

    # Equal medians: no wins, no gap.
    rc, out = run(parent, change, "--claim", "wall_s")
    check("claim-no-gain", rc, 1, out)

    # The claimed direction counts: the parent is lower than the change.
    rc, out = run(change, parent, "--claim", "peak_rss_mb")
    check("claim-wrong-direction", rc, 1, out)

    # 8/10 wins fails the rule even with a wide median gap.
    eight = result_dir(os.path.join(d, "eight"), "paper_grid", {
        s: {"peak_rss_mb": 60.0 if s in (1001, 1002) else 34.0}
        for s in seeds})
    rc, out = run(parent, eight, "--claim", "peak_rss_mb")
    check("claim-eight-wins", rc, 1, out)

    # 10/10 wins inside the parent's IQR is no claim.
    close = result_dir(os.path.join(d, "close"), "paper_grid", {
        s: {"peak_rss_mb": 58.0 + (s % 10) / 10 - 0.05} for s in seeds})
    rc, out = run(parent, close, "--claim", "peak_rss_mb")
    check("claim-inside-iqr", rc, 1, out)

    # Fewer than ten pairs cannot carry a claim.
    few = result_dir(os.path.join(d, "few"), "paper_grid", {
        s: {"peak_rss_mb": 34.0} for s in range(1001, 1006)})
    rc, out = run(parent, few, "--claim", "peak_rss_mb")
    check("claim-few-pairs", rc, 1, out)
    if "5 pairs" not in out or "unpaired: 1006" not in out:
        failures.append(f"claim-few-pairs: want 5 pairs and the "
                        f"unpaired seeds listed\n{out}")

    # No seed on both sides, and an unknown metric: malformed input.
    other = result_dir(os.path.join(d, "other"), "paper_grid", {
        7: {"peak_rss_mb": 34.0}})
    rc, out = run(parent, other)
    check("no-pairs", rc, 2, out)
    rc, out = run(parent, change, "--claim", "rss")
    check("claim-unknown-metric", rc, 2, out)

    # A malformed result file exits 2 naming it.
    broken = result_dir(os.path.join(d, "broken"), "paper_grid", {
        s: {"peak_rss_mb": 34.0} for s in seeds})
    bad = os.path.join(broken, "result_1004.json")
    with open(bad, "w", encoding="utf-8") as f:
        f.write("{\"workload\": \"paper_grid\", \"seed\":")
    rc, out = run(parent, broken)
    check("malformed-result", rc, 2, out)
    if "result_1004.json" not in out or "Traceback" in out:
        failures.append(f"malformed-result: want the file named, no "
                        f"traceback\n{out}")
    with open(bad, "w", encoding="utf-8") as f:
        json.dump({"workload": "paper_grid", "metrics": {}}, f)
    rc, out = run(parent, broken)
    check("result-without-seed", rc, 2, out)
    if "result_1004.json" not in out:
        failures.append(f"result-without-seed: file not named\n{out}")

    # A claim holds only if it holds on every workload in the
    # directories: mesh_busy's unchanged RSS fails paper_grid's claim.
    mixed_old = result_dir(os.path.join(d, "mixed_old"), "paper_grid", {
        s: {"peak_rss_mb": 58.0 + (s % 10) / 10} for s in seeds})
    mixed_new = result_dir(os.path.join(d, "mixed_new"), "paper_grid", {
        s: {"peak_rss_mb": 34.0} for s in seeds})
    for side in (mixed_old, mixed_new):
        for s in seeds:
            with open(os.path.join(side, f"mesh_{s}.json"), "w",
                      encoding="utf-8") as f:
                json.dump({"workload": "mesh_busy", "seed": s,
                           "metrics": {"peak_rss_mb": 12.0}}, f)
    rc, out = run(mixed_old, mixed_new, "--claim", "peak_rss_mb")
    check("claim-every-workload", rc, 1, out)
    for want in ("on paper_grid: holds", "on mesh_busy: NOT MET"):
        if want not in out:
            failures.append(f"claim-every-workload: '{want}' not "
                            f"printed\n{out}")

    # A directory beside a file is neither mode.
    rc, out = run(parent, SPEC)
    check("dir-and-file", rc, 2, out)

    with open(SPEC, "rb") as f:
        if f.read() != spec_bytes:
            failures.append("bench_compare wrote to the benchmark spec")


if __name__ == "__main__":
    sys.exit(main())
