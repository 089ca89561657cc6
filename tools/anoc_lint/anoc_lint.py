#!/usr/bin/env python3
"""anoc-lint driver.

Usage:
    python3 tools/anoc_lint/anoc_lint.py [--root DIR] [--json OUT]
                                         [--list-rules] [paths...]

Exit codes: 0 clean (suppressed-with-reason findings are clean),
1 unsuppressed findings, 2 internal/usage error — mirroring the
bench_compare.py gate contract so CI treats them uniformly.

Run from anywhere; --root defaults to the repository this file lives
in. `paths` restricts the scan to repo-relative files or directories.
See docs/static-analysis.md for the rule catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):
    # Allow `python3 tools/anoc_lint/anoc_lint.py` without -m.
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from anoc_lint import model, rules  # type: ignore
else:
    from . import model, rules

# Directories holding C++ sources worth scanning at all.
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")

# Determinism (D-rule) scope seeds: the paths whose artifacts must be
# byte-identical at any job count. Scope propagates to every repo
# header these files (transitively) include — see model.Tree.
SCOPED_DIRS = (
    "src/sim/", "src/noc/", "src/compression/", "src/approx/",
    "src/tcam/", "src/cache/", "src/core/", "src/telemetry/",
    "src/harness/",
)


def default_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="anoc-lint",
        description="machine-checked determinism & API contracts")
    ap.add_argument("--root", default=default_root(),
                    help="repository root (default: this checkout)")
    ap.add_argument("--json", dest="json_out", metavar="OUT",
                    help="write a machine-readable findings report")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--quiet", action="store_true",
                    help="summary line only")
    ap.add_argument("paths", nargs="*",
                    help="repo-relative files/dirs to restrict the scan")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, desc in rules.RULES.items():
            print(f"{rid:4} {desc}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"anoc-lint: error: no src/ under root {root}",
              file=sys.stderr)
        return 2

    try:
        tree = model.Tree(root, SCOPED_DIRS, SOURCE_DIRS)
        findings = rules.run_all(tree, args.paths or None)
    except OSError as e:
        print(f"anoc-lint: error: {e}", file=sys.stderr)
        return 2

    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    if args.json_out:
        report = {
            "schema": "anoc-lint-v1",
            "root": root,
            "rules": rules.RULES,
            "findings": [f.to_json() for f in findings],
            "counts": {
                "active": len(active),
                "suppressed": len(suppressed),
                "files_scanned": len(tree.files),
            },
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    if not args.quiet:
        for f in active:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    print(f"anoc-lint: {len(active)} finding(s), "
          f"{len(suppressed)} suppressed, "
          f"{len(tree.files)} files scanned")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
