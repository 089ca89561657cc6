#!/usr/bin/env python3
"""Self-test for bench_compare.py using synthetic bench JSONs.

Exercises the exit-code contract the CI perf gate relies on:
exit 0 when within threshold, exit 1 on a regression, exit 0 under
--report-only even with a regression, exit 2 on malformed input.
Registered as a ctest (bench_compare_selftest).
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def bench_json(path, **words_per_sec):
    data = {
        "schema": "approxnoc-micro-codec-bench-v1",
        "results": {s: {"words_per_sec": w, "ns_per_word": 1e9 / w}
                    for s, w in words_per_sec.items()},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)


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

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("all bench_compare self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
