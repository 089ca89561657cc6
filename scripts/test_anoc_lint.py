#!/usr/bin/env python3
"""Self-test for anoc-lint (tools/anoc_lint) using fixture trees.

Exercises the contract the lint CI job relies on, one fixture per rule:
a positive match for D1/D2/C2/S1, suppression honored (exit 0),
suppression-without-reason rejected (SUP + the finding stays active),
scope propagation through the include graph, the JSON report shape,
and the exit-code contract (0 clean / 1 findings / 2 bad root). Registered as a ctest
(anoc_lint_selftest).
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "tools", "anoc_lint", "anoc_lint.py")


def make_tree(root, files):
    """Write {relpath: text} under root, creating directories."""
    for rel, text in files.items():
        full = os.path.join(root, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(text)


def run(root, *argv):
    p = subprocess.run([sys.executable, SCRIPT, "--root", root, *argv],
                       capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


CLEAN_CC = """
int clean_fn(int x) { return x + 1; }
"""


def main():
    failures = []

    def check(name, cond, detail=""):
        if not cond:
            failures.append(f"{name}: {detail}")
            print(f"FAIL {name}")
        else:
            print(f"ok   {name}")

    def check_exit(name, got, want, output):
        check(name, got == want, f"exit {got}, wanted {want}\n{output}")

    # --- clean tree: exit 0 ------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {"src/sim/clean.cc": CLEAN_CC})
        rc, out = run(d)
        check_exit("clean-tree", rc, 0, out)

    # --- D1: nondeterminism sources, in and out of scope -------------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/sim/clock.cc":
                "#include <chrono>\n"
                "long t() { return std::chrono::steady_clock::now()"
                ".time_since_epoch().count(); }\n",
            "src/sim/entropy.cc":
                "#include <cstdlib>\n"
                "int r() { return rand(); }\n",
            # Same sins outside the determinism scope: not flagged.
            "tools/offline.cc":
                "#include <cstdlib>\n"
                "int r() { return rand(); }\n",
        })
        rc, out = run(d)
        check_exit("d1-positive", rc, 1, out)
        check("d1-clock-named", "clock.cc" in out and "[D1]" in out, out)
        check("d1-rand-named", "entropy.cc" in out, out)
        check("d1-out-of-scope", "offline.cc" not in out, out)

    # --- D1 scope propagation through the include graph --------------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            # Helper lives outside the scoped dirs...
            "src/util/seedless.h": "inline int bad() { return rand(); }\n",
            # ...but a scoped file includes it, pulling it into scope.
            "src/sim/uses.cc": '#include "util/seedless.h"\n',
        })
        rc, out = run(d)
        check_exit("d1-include-scope", rc, 1, out)
        check("d1-include-scope-file", "seedless.h" in out, out)

    # --- D2: unordered-container iteration ---------------------------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/telemetry/walk.cc":
                "#include <unordered_map>\n"
                "#include <string>\n"
                "std::unordered_map<int, std::string> tbl;\n"
                "void dump() {\n"
                "    for (auto &kv : tbl) { (void)kv; }\n"
                "    auto it = tbl.begin(); (void)it;\n"
                "}\n",
        })
        rc, out = run(d)
        check_exit("d2-positive", rc, 1, out)
        check("d2-both-sites", out.count("[D2]") == 2, out)

    # --- C2: double probe, notify_delay ------------------------------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/compression/probe.cc":
                "int f(Tcam &pmt, unsigned w) {\n"
                "    auto hit = pmt.search(w);\n"
                "    auto all = pmt.searchAll(w);\n"
                "    return (int)(hit && !all.empty());\n"
                "}\n",
            "src/sim/cfg.cc":
                "struct C { int notify_delay; };\n"
                "C make() { C c; c.notify_delay = 0; return c; }\n",
        })
        rc, out = run(d)
        check_exit("c2-positive", rc, 1, out)
        check("c2-double-probe", "double probe" in out, out)
        check("c2-notify-delay", "notify_delay" in out, out)

    # --- S1: AVX2 guards need a scalar twin and a named test ---------
    s1_test_cc = ("void TEST_HELPER();\n"
                  "TEST(SimdDiff, KernelMatches) {}\n")
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            # No #else: the SIMD path has no portable fallback.
            "src/tcam/noelse.cc":
                "// anoc-simd-test: SimdDiff.KernelMatches\n"
                "#if defined(__AVX2__)\n"
                "int simd_path();\n"
                "#endif\n",
            "tests/test_simd_fixture.cc": s1_test_cc,
        })
        rc, out = run(d)
        check_exit("s1-missing-else", rc, 1, out)
        check("s1-missing-else-msg",
              "[S1]" in out and "scalar #else" in out, out)

    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            # #else twin present, but nothing names the test that
            # exercises the pair.
            "src/tcam/nomarker.cc":
                "#if defined(__AVX2__)\n"
                "int simd_path();\n"
                "#else\n"
                "int scalar_path();\n"
                "#endif\n",
            "tests/test_simd_fixture.cc": s1_test_cc,
        })
        rc, out = run(d)
        check_exit("s1-missing-marker", rc, 1, out)
        check("s1-missing-marker-msg", "anoc-simd-test" in out, out)

    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            # Marker names a test nobody wrote.
            "src/tcam/ghost.cc":
                "#if defined(__AVX2__)\n"
                "// anoc-simd-test: SimdDiff.DoesNotExist\n"
                "int simd_path();\n"
                "#else\n"
                "int scalar_path();\n"
                "#endif\n",
            "tests/test_simd_fixture.cc": s1_test_cc,
        })
        rc, out = run(d)
        check_exit("s1-ghost-test", rc, 1, out)
        check("s1-ghost-test-named", "SimdDiff.DoesNotExist" in out, out)

    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            # Twin + marker + real test, with a wrapped condition and a
            # nested #if inside the guarded block: clean.
            "src/tcam/kern.cc":
                "#if defined(__AVX2__) || \\\n"
                "    defined(SIMULATE_AVX2)\n"
                "// anoc-simd-test: SimdDiff.KernelMatches\n"
                "#if defined(__GNUC__)\n"
                "int simd_path();\n"
                "#endif\n"
                "#else\n"
                "int scalar_path();\n"
                "#endif\n",
            "tests/test_simd_fixture.cc": s1_test_cc,
        })
        rc, out = run(d)
        check_exit("s1-clean", rc, 0, out)

    # --- suppressions: honored with a reason, rejected without -------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/sim/ok.cc":
                "#include <cstdlib>\n"
                "// anoc-lint: allow(D1) -- test vector generation,"
                " replayed from a recorded seed\n"
                "int r() { return rand(); }\n",
        })
        rc, out = run(d)
        check_exit("suppression-honored", rc, 0, out)
        check("suppression-counted", "1 suppressed" in out, out)

    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/sim/bad.cc":
                "#include <cstdlib>\n"
                "// anoc-lint: allow(D1)\n"
                "int r() { return rand(); }\n",
        })
        rc, out = run(d)
        check_exit("reasonless-rejected", rc, 1, out)
        check("reasonless-sup-finding", "[SUP]" in out, out)
        check("reasonless-keeps-finding", "[D1]" in out, out)

    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/sim/unknown.cc":
                "// anoc-lint: allow(Z9) -- no such rule\n"
                "int x;\n",
        })
        rc, out = run(d)
        check_exit("unknown-rule-rejected", rc, 1, out)
        check("unknown-rule-named", "Z9" in out, out)

    # --- JSON report --------------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/sim/entropy.cc": "int r() { return rand(); }\n",
        })
        report = os.path.join(d, "lint.json")
        rc, out = run(d, "--json", report)
        check_exit("json-exit", rc, 1, out)
        with open(report, encoding="utf-8") as f:
            rep = json.load(f)
        check("json-schema", rep.get("schema") == "anoc-lint-v1", rep)
        check("json-counts", rep["counts"]["active"] == 1, rep)
        check("json-finding-shape",
              rep["findings"][0]["rule"] == "D1"
              and rep["findings"][0]["file"] == "src/sim/entropy.cc",
              rep)

    # --- path restriction ---------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        make_tree(d, {
            "src/sim/entropy.cc": "int r() { return rand(); }\n",
            "src/noc/clean.cc": CLEAN_CC,
        })
        rc, out = run(d, "src/noc")
        check_exit("paths-restrict", rc, 0, out)
        rc, out = run(d, "src/sim")
        check_exit("paths-hit", rc, 1, out)

    # --- bad root: exit 2 ---------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        rc, out = run(os.path.join(d, "nowhere"))
        check_exit("bad-root", rc, 2, out)

    # --- the real tree stays clean ------------------------------------
    rc, out = run(REPO)
    check_exit("real-tree-clean", rc, 0, out)

    if failures:
        print("\n".join(["", *failures]), file=sys.stderr)
        return 1
    print("anoc_lint selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
