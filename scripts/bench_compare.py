#!/usr/bin/env python3
"""Diff two micro_codec --bench-out JSON files for regressions.

Usage:
    bench_compare.py OLD.json NEW.json [--threshold FRAC] [--report-only]

Compares results.<scheme>.words_per_sec between the two files. A
scheme whose new throughput falls below
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
"""

import argparse
import json
import sys


METRIC_KEY = "words_per_sec"
SECTION = "results"


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


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare two micro_codec bench JSON files.")
    ap.add_argument("old", help="baseline bench JSON")
    ap.add_argument("new", help="candidate bench JSON")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional throughput drop "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--report-only", action="store_true",
                    help="print the comparison but always exit 0")
    args = ap.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
