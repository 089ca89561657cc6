#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

A perturbed committed-table row, or one injected codec mismatch, must
make run.py exit non-zero and report the operation as failed; the
untouched tables must pass. Runs paper_grid on one kernel (two passes
of 5 points) and codec_churn for its minimum of three rounds.

    python3 perfbench/test_checker.py
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIGS = ("fig09_latency_breakdown", "fig10_compression",
        "fig11_flit_reduction", "fig15_power")


def run_bench(*extra):
    """Run run.py; return (exit code, parsed last stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1",
         "--seconds", "0", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def failed_ratio(result):
    return result["failed"] / result["attempted"]


class CheckerTest(unittest.TestCase):
    def setUp(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
        for fig in FIGS:
            shutil.copy(ROOT / "results" / (fig + ".csv"), self.tmp)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def grid(self, *extra):
        return run_bench("--workload", "paper_grid", "--kernels", "swaptions",
                         "--reference-dir", str(self.tmp), *extra)

    def test_committed_rows_pass(self):
        code, result = self.grid()
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], 10)  # two passes of 5 points

    def test_perturbed_row_fails(self):
        path = self.tmp / "fig11_flit_reduction.csv"
        text = path.read_text()
        row = "swaptions,FP-VAXX,6703,"
        self.assertIn(row, text)
        path.write_text(text.replace(row, "swaptions,FP-VAXX,6704,"))
        code, result = self.grid()
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)  # the row, in each pass
        self.assertGreater(failed_ratio(result), 0)

    def test_injected_mismatch_fails_grid(self):
        code, result = self.grid("--inject-mismatch")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(failed_ratio(result), 0)

    def test_injected_mismatch_fails_synthetic(self):
        code, result = run_bench("--workload", "codec_churn",
                                 "--inject-mismatch")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(failed_ratio(result), 0)


if __name__ == "__main__":
    unittest.main()
