#!/usr/bin/env python3
"""Compare two benchmark runs: micro_codec files or perfbench run pairs.

Usage:
    bench_compare.py OLD.json NEW.json [--threshold FRAC] [--report-only]
    bench_compare.py OLD_DIR NEW_DIR [--claim METRIC]

Two files: compares results.<scheme>.words_per_sec of two micro_codec
--bench-out files. A scheme whose new throughput falls below
(1 - threshold) * old throughput is a regression; a scheme present in
OLD but missing from NEW is treated as one too. A file with no
`results` section is malformed input and names the sections it does
have — never a KeyError traceback. Exit codes: 0 = no regression (or
--report-only), 1 = regression detected, 2 = malformed input.

The default threshold (15%) is a noise floor, not a precision claim:
single-machine medians wobble by several percent, so only sustained
drops should trip the gate. CI enforces with a wider --threshold=0.5
because the checked-in seed baseline comes from a different machine
class than the shared runners — the gate is tuned to catch structural
regressions (a match scan the compiler does not vectorize runs DI-VAXX
and DI-COMP below 0.4x of the seed), not scheduler noise (see
docs/perf.md).

Two directories: each holds perfbench `result.json` files (any
*.json), one per run, for example from alternating
`perfbench/run.py --workload W --seed N` runs of the parent and the
change. Runs pair by workload and seed. For every end-to-end metric of
the repository's BENCHMARK.json (read, never written; its units and
directions) the table gives each side's median and quartiles, the
change's wins (ties count for neither side) and the median of the
per-pair new/old ratios. --claim METRIC exits 1 unless, on every
workload in the directories, at least ten pairs ran, the change wins
at least 9 of every 10 and its median beats the parent's by more than
the parent's interquartile range; so a claim about one workload is
checked on a parent/change directory pair that holds that workload's
runs only. Quartiles interpolate linearly between order statistics.
Exit codes: 0 = compared (claim holds), 1 = claim not met, 2 =
malformed input.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path


METRIC_KEY = "words_per_sec"
MIN_CLAIM_PAIRS = 10
SECTION = "results"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict) or SECTION not in data:
        have = ", ".join(sorted(k for k, v in data.items()
                                if isinstance(v, dict))) \
            if isinstance(data, dict) else ""
        print(f"bench_compare: {path} has no '{SECTION}' section "
              f"(sections present: {have or 'none'})", file=sys.stderr)
        sys.exit(2)
    results = data[SECTION]
    if not isinstance(results, dict) or not results:
        print(f"bench_compare: {path}: '{SECTION}' is not a non-empty "
              f"object", file=sys.stderr)
        sys.exit(2)
    out = {}
    for scheme, entry in results.items():
        if not isinstance(entry, dict):
            continue
        wps = entry.get(METRIC_KEY)
        if not isinstance(wps, (int, float)) or wps <= 0:
            print(f"bench_compare: {path}: no positive {METRIC_KEY} for "
                  f"'{SECTION}.{scheme}'", file=sys.stderr)
            sys.exit(2)
        out[scheme] = float(wps)
    if not out:
        print(f"bench_compare: {path}: '{SECTION}' has no per-scheme "
              f"entries", file=sys.stderr)
        sys.exit(2)
    return out


def compare_micro_codec(args):
    if not (0.0 <= args.threshold < 1.0):
        print("bench_compare: --threshold must be in [0, 1)", file=sys.stderr)
        return 2

    old = load_results(args.old)
    new = load_results(args.new)

    regressions = []
    width = max(len(s) for s in old) + 2
    print(f"{'scheme':<{width}} {'old w/s':>14} {'new w/s':>14} "
          f"{'ratio':>8}  verdict")
    for scheme in old:
        if scheme not in new:
            print(f"{scheme:<{width}} {old[scheme]:>14.3e} {'-':>14} "
                  f"{'-':>8}  MISSING")
            regressions.append(scheme)
            continue
        ratio = new[scheme] / old[scheme]
        if ratio < 1.0 - args.threshold:
            verdict = f"REGRESSION (-{(1 - ratio) * 100:.1f}%)"
            regressions.append(scheme)
        elif ratio > 1.0 + args.threshold:
            verdict = f"improved (+{(ratio - 1) * 100:.1f}%)"
        else:
            verdict = "ok"
        print(f"{scheme:<{width}} {old[scheme]:>14.3e} {new[scheme]:>14.3e} "
              f"{ratio:>8.2f}  {verdict}")
    for scheme in new:
        if scheme not in old:
            print(f"{scheme:<{width}} {'-':>14} {new[scheme]:>14.3e} "
                  f"{'-':>8}  new scheme")

    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s): "
              f"{', '.join(regressions)}", file=sys.stderr)
        if args.report_only:
            print("bench_compare: --report-only, exiting 0", file=sys.stderr)
            return 0
        return 1
    print("bench_compare: no regressions")
    return 0


def fail_input(message):
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(path):
    """End-to-end metrics of BENCHMARK.json: name -> (unit, better)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            spec = json.load(f)
        metrics = {m["name"]: (m["unit"], m["better"])
                   for m in spec["end_to_end"]}
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        fail_input(f"cannot read end_to_end metrics from {path}: {e!r}")
    for name, (_, better) in metrics.items():
        if better not in ("lower", "higher"):
            fail_input(f"{path}: metric {name} has better={better!r}, "
                       f"not lower or higher")
    return metrics


def load_runs(directory):
    """(workload, seed) -> metrics of every perfbench result in a dir."""
    runs = {}
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        fail_input(f"{directory} holds no *.json result files")
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as f:
                res = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail_input(f"cannot read {path}: {e}")
        if not isinstance(res, dict):
            fail_input(f"{path} is not a perfbench result object")
        workload, seed = res.get("workload"), res.get("seed")
        metrics = res.get("metrics")
        if not isinstance(workload, str) or not isinstance(seed, int) \
                or isinstance(seed, bool):
            fail_input(f"{path} has no string 'workload' and integer "
                       f"'seed'")
        if not isinstance(metrics, dict) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in metrics.values()):
            fail_input(f"{path} has no 'metrics' object of numbers")
        if (workload, seed) in runs:
            fail_input(f"{path} repeats {workload} seed {seed} of "
                       f"{runs[(workload, seed)][0]}")
        runs[(workload, seed)] = (path, metrics)
    return {key: metrics for key, (_, metrics) in runs.items()}


def quartiles(values):
    """(q1, median, q3), interpolating between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare_pairs(name, unit, better, pairs):
    """The row of one metric over (old, new) pairs, as a dict."""
    olds = [o for o, _ in pairs]
    news = [n for _, n in pairs]
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    ratios = [n / o for o, n in pairs if o != 0]
    oq1, omed, oq3 = quartiles(olds)
    nq1, nmed, nq3 = quartiles(news)
    return {"name": name, "unit": unit, "better": better,
            "old": (omed, oq1, oq3), "new": (nmed, nq1, nq3),
            "wins": wins, "pairs": len(pairs),
            "ratio": statistics.median(ratios) if ratios else None,
            # choosing-metrics section 8: at least ten pairs, 9/10
            # wins, and a median gap in the better direction wider
            # than the parent's interquartile range.
            "claim": len(pairs) >= MIN_CLAIM_PAIRS
                     and wins * 10 >= 9 * len(pairs)
                     and sign * (nmed - omed) > oq3 - oq1}


def compare_runs(args):
    spec = load_spec(SPEC)
    if args.claim is not None and args.claim not in spec:
        fail_input(f"--claim {args.claim} is not an end-to-end metric of "
                   f"{SPEC} ({', '.join(spec)})")
    old, new = load_runs(args.old), load_runs(args.new)
    workloads = sorted({w for w, _ in old} | {w for w, _ in new})
    claimed = []
    for workload in workloads:
        seeds = sorted({s for w, s in old if w == workload} &
                       {s for w, s in new if w == workload})
        alone = sorted({s for w, s in list(old) + list(new)
                        if w == workload} - set(seeds))
        if not seeds:
            fail_input(f"{workload}: no seed has a run on both sides")
        print(f"{workload}: {len(seeds)} pairs, seeds "
              f"{', '.join(map(str, seeds))}"
              + (f" (unpaired: {', '.join(map(str, alone))})"
                 if alone else ""))
        print(f"  {'metric':<20} {'unit':<9} {'better':<6} "
              f"{'old median [q1, q3]':>34} {'new median [q1, q3]':>34} "
              f"{'wins':>7} {'ratio':>7}")
        for name, (unit, better) in spec.items():
            pairs = [(old[(workload, s)][name], new[(workload, s)][name])
                     for s in seeds
                     if name in old[(workload, s)]
                     and name in new[(workload, s)]]
            if not pairs:
                continue
            row = compare_pairs(name, unit, better, pairs)
            cells = ["%.6g [%.6g, %.6g]" % row[side]
                     for side in ("old", "new")]
            ratio = "-" if row["ratio"] is None else "%.3f" % row["ratio"]
            print(f"  {name:<20} {unit:<9} {better:<6} {cells[0]:>34} "
                  f"{cells[1]:>34} {row['wins']:>3}/{row['pairs']:<3} "
                  f"{ratio:>7}")
            if name == args.claim:
                claimed.append((workload, row))
    if args.claim is None:
        return 0
    if not claimed:
        fail_input(f"--claim {args.claim}: no pair reports it")
    held = True
    for workload, row in claimed:
        verdict = "holds" if row["claim"] else "NOT MET"
        omed, oq1, oq3 = row["old"]
        few = (f", fewer than {MIN_CLAIM_PAIRS} pairs"
               if row["pairs"] < MIN_CLAIM_PAIRS else "")
        print(f"claim {args.claim} on {workload}: {verdict} "
              f"({row['wins']}/{row['pairs']} wins, median "
              f"{omed:.6g} -> {row['new'][0]:.6g}, parent IQR "
              f"{oq3 - oq1:.6g}{few})")
        held = held and row["claim"]
    return 0 if held else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare two micro_codec bench JSON files, or two "
                    "directories of perfbench result.json runs.")
    ap.add_argument("old", help="baseline bench JSON or result directory")
    ap.add_argument("new", help="candidate bench JSON or result directory")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="files: allowed fractional throughput drop "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--report-only", action="store_true",
                    help="files: print the comparison but always exit 0")
    ap.add_argument("--claim", metavar="METRIC",
                    help="directories: exit 1 unless METRIC improved by "
                         "the 9/10-wins and beyond-IQR rule")
    args = ap.parse_args(argv)
    dirs = [os.path.isdir(p) for p in (args.old, args.new)]
    if all(dirs):
        return compare_runs(args)
    if any(dirs):
        fail_input("give two files or two directories, not one of each")
    return compare_micro_codec(args)


if __name__ == "__main__":
    sys.exit(main())
