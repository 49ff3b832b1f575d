"""Tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in workloads.WORKLOADS.values():
            self.assertEqual(workloads.generate(w, 11), workloads.generate(w, 11), w.name)

    def test_other_seed_other_bytes(self):
        w = workloads.WORKLOADS["queries"]
        self.assertNotEqual(workloads.generate(w, 11), workloads.generate(w, 12))

    def test_universal_bounds_hold_for_every_weaving(self):
        rng = np.random.default_rng(3)
        stack = workloads.family_stack(rng, 3, 6, 2, 0.02)
        lo, hi = workloads.universal_bounds(stack)
        for word in itertools.product(range(3), repeat=6):
            w = np.linalg.eigvalsh(oracle.weaving_operator(stack, word))
            self.assertLessEqual(lo, w[0] + 1e-12)
            self.assertGreaterEqual(hi, w[-1] - 1e-12)


def _report(lower, upper, witness, woven=True) -> bytes:
    result = {
        "woven": woven,
        "universal_lower": lower,
        "universal_upper": upper,
        "witness_partition": list(witness),
    }
    return json.dumps({"result": result}).encode()


class ScanOracle(unittest.TestCase):
    def setUp(self):
        self.stack = workloads.family_stack(np.random.default_rng(5), 2, 7, 3, 0.3)
        spectra = {
            word: np.linalg.eigvalsh(oracle.weaving_operator(self.stack, word))
            for word in itertools.product(range(2), repeat=7)
        }
        self.witness = min(spectra, key=lambda word: spectra[word][0])
        self.lower = float(spectra[self.witness][0])
        self.upper = float(max(s[-1] for s in spectra.values()))
        self.extrema = oracle.exhaustive_extrema(self.stack, chunk=16)

    def test_extrema_match_brute_force(self):
        self.assertAlmostEqual(self.extrema[0], self.lower, places=12)
        self.assertAlmostEqual(self.extrema[1], self.upper, places=12)

    def test_accepts_true_report(self):
        report = _report(self.lower, self.upper, self.witness)
        self.assertEqual(oracle.check_scan_report(report, 0, self.stack, self.extrema), [])

    def test_rejects_wrong_lower_bound(self):
        report = _report(self.lower * (1 + 1e-6), self.upper, self.witness)
        self.assertTrue(oracle.check_scan_report(report, 0, self.stack, self.extrema))

    def test_rejects_wrong_witness(self):
        other = tuple(1 - x for x in self.witness)
        report = _report(self.lower, self.upper, other)
        problems = oracle.check_scan_report(report, 0, self.stack, self.extrema)
        self.assertTrue(any("witness" in p for p in problems))

    def test_sampled_report_needs_consistent_witness(self):
        other = tuple(1 - x for x in self.witness)
        self.assertTrue(oracle.check_scan_report(_report(self.lower, self.upper, other), 0, self.stack))
        self.assertEqual(oracle.check_scan_report(_report(self.lower, self.upper, self.witness), 0, self.stack), [])

    def test_rejects_wrong_exit_code(self):
        report = _report(self.lower, self.upper, self.witness)
        self.assertTrue(oracle.check_scan_report(report, 1, self.stack, self.extrema))


def span(name, start, end, parent=None, op=0, shape=None):
    return [name, start, end, parent, op, shape]


class SpanArithmetic(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertAlmostEqual(spans.covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(spans.covered([]), 0.0)

    def test_self_time_of_nested_tree(self):
        tree = [
            span("cli.main", 0.0, 10.0),
            span("io.parse_frame_file", 0.5, 1.5, 0),
            span("weaving.exhaustive_woven_check", 2.0, 9.0, 0),
            # two pool threads: overlapping children are subtracted once
            span("linalg.jacobi_eigh_batch", 2.5, 6.0, 2, shape=[10, 4, 4]),
            span("linalg.jacobi_eigh_batch", 3.0, 7.0, 2, shape=[6, 4, 4]),
            span("linalg.zero_threshold", 8.0, 8.5, 2),
        ]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[0], 10.0 - 1.0 - 7.0)
        self.assertAlmostEqual(selfs[2], 7.0 - 4.5 - 0.5)
        self.assertAlmostEqual(selfs[3], 3.5)

        m = spans.layer_metrics(tree, ops=1, op_wall_s=10.0, n=5)
        self.assertEqual(m["linalg.eig_batch_calls"], 2)
        self.assertEqual(m["linalg.eig_batch_matrices"], 16)
        self.assertAlmostEqual(m["linalg.eig_batch_s"], 7.5)
        self.assertAlmostEqual(m["linalg.eig_share"], 4.5 / 7.0)
        self.assertAlmostEqual(m["weaving.scan_self_s"], 2.0)
        self.assertEqual(m["weaving.chunk_bytes_computed"], 10 * 5 * 16 * 8)
        self.assertEqual(m["linalg.single_calls"], 1)
        self.assertAlmostEqual(m["io.parse_s"], 1.0)
        self.assertAlmostEqual(m["cli.self_s"], 2.0)

    def test_linalg_calling_itself_counts_once(self):
        tree = [
            span("frames.frame_bounds", 0.0, 4.0),
            span("linalg.sym_eig_bounds", 0.5, 3.5, 0),
            span("linalg.sym_eig", 0.6, 3.4, 1),
            span("linalg.jacobi_eigh_batch", 1.0, 3.0, 2, shape=[1, 8, 8]),
        ]
        m = spans.layer_metrics(tree, ops=1, op_wall_s=4.0, n=8)
        self.assertEqual(m["linalg.single_calls"], 1)
        self.assertAlmostEqual(m["linalg.single_s"], 3.0)
        self.assertEqual(m["linalg.eig_batch_calls"], 0)
        self.assertAlmostEqual(m["frames.bounds_ms"], 4000.0)
        self.assertEqual(spans.single_calls_by_op(tree), {0: 1})

    def test_every_metric_has_a_unit(self):
        m = spans.layer_metrics([span("cli.main", 0.0, 1.0)], ops=1, op_wall_s=1.0, n=1)
        self.assertEqual(set(m) | {"trace.overhead_ratio"}, set(spans.PER_LAYER))


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(run.percentile_line("t_pXX_ms", list(range(100)), 1.0, "ms").startswith("t_p90_ms 89.1 ms"))
        self.assertIn("n/a", run.percentile_line("t_pXX_ms", list(range(99)), 1.0, "ms"))
        self.assertTrue(run.percentile_line("t_pXX_ms", list(range(1000)), 1.0, "ms").startswith("t_p99_ms"))


if __name__ == "__main__":
    unittest.main()
