"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check must pass the committed reference outputs and fail a corrupted
copy: a corrupted exponent row, a blank or missing cell, a shifted error
count, a wrong bin mean.
Needs only the standard library and the files under bench/.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import checks
import run

REF = Path(__file__).resolve().parent / "reference"


def _set(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


class CurveChecks(unittest.TestCase):
    def setUp(self):
        self.sweep = run.CurveSweep(run.DEFAULT_SEED)
        self.label, self.probs, ry, self.symmetric = self.sweep.SOURCES[1]
        self.grid = [(rx, r) for r in ry for rx in self.sweep.rx_grid()]
        self.text = (REF / f"curve-sweep-{self.label}.csv").read_text()

    def check(self, text):
        return (checks.check_curve(text, self.probs, self.grid, self.symmetric)
                + checks.compare_reference(text, self.text))

    def test_reference_passes(self):
        for label, probs, ry, symmetric in self.sweep.SOURCES:
            text = (REF / f"curve-sweep-{label}.csv").read_text()
            grid = [(rx, r) for r in ry for rx in self.sweep.rx_grid()]
            self.assertEqual(checks.check_curve(text, probs, grid, symmetric), [])
            self.assertEqual(checks.compare_reference(text, text), [])

    def test_corrupted_exponent_fails(self):
        value = float(checks.parse_csv(self.text)[4]["e_sw_y"])
        bad = _set(self.text, 4, "e_sw_y", repr(value + 2e-6))
        self.assertTrue(checks.compare_reference(bad, self.text))

    def test_positive_exponent_outside_region_fails(self):
        outside = [i for i, r in enumerate(checks.parse_csv(self.text))
                   if r["gamma_star"] == ""]
        self.assertTrue(outside)
        bad = _set(self.text, outside[0], "e_sw_x", "0.01")
        self.assertTrue(checks.check_curve(bad, self.probs, self.grid, self.symmetric))

    def test_streaming_above_block_fails(self):
        value = float(checks.parse_csv(self.text)[5]["e_block_x"])
        bad = _set(self.text, 5, "e_sw_x", repr(value + 1e-3))
        self.assertTrue(checks.check_curve(bad, self.probs, self.grid, self.symmetric))

    def test_blank_cell_fails(self):
        bad = _set(self.text, 5, "e_sw_x", "")
        self.assertTrue(checks.check_curve(bad, self.probs, self.grid, self.symmetric))
        self.assertTrue(checks.compare_reference(bad, self.text))

    def test_short_row_fails(self):
        lines = self.text.splitlines()
        lines[6] = lines[6].rsplit(",", 2)[0]
        bad = "\n".join(lines) + "\n"
        self.assertTrue(checks.check_curve(bad, self.probs, self.grid, self.symmetric))
        self.assertTrue(checks.compare_reference(bad, self.text))

    def test_missing_row_fails(self):
        bad = "\n".join(self.text.splitlines()[:-1]) + "\n"
        self.assertTrue(self.check(bad))


class StatsChecks(unittest.TestCase):
    TRIALS = 10000

    def setUp(self):
        self.ref = json.loads((REF / "mc-delay0.json").read_text())["mc-si-ml"]
        p = self.ref["errors"]["errors_x"] / self.ref["trials"]
        k0 = round(p * self.TRIALS)
        self.counts = [k0, k0 // 2, k0 // 4, k0 // 8, k0 // 16]

    def stats(self, counts, trials=TRIALS):
        lines = ["delta,trials,errors_x,errors_y,errors_joint,rate_x_err,lo95,hi95"]
        for d, k in zip((0, 2, 4, 6, 8), counts):
            lines.append(f"{d},{trials},{k},0,{k},{k / trials:.9g},0,1")
        return "\n".join(lines) + "\n"

    def test_consistent_stats_pass(self):
        self.assertEqual(checks.check_stats(self.stats(self.counts), self.TRIALS,
                                            self.ref), [])

    def test_shifted_delay0_count_fails(self):
        shifted = [self.counts[0] + 300] + self.counts[1:]
        self.assertTrue(checks.check_stats(self.stats(shifted), self.TRIALS, self.ref))

    def test_count_rising_with_delay_fails(self):
        shifted = list(self.counts)
        shifted[2] = shifted[1] + 1
        self.assertTrue(checks.check_stats(self.stats(shifted), self.TRIALS, self.ref))

    def test_aborted_trials_fail(self):
        text = self.stats(self.counts, trials=self.TRIALS - 3)
        self.assertTrue(checks.check_stats(text, self.TRIALS, self.ref))


class BinChecks(unittest.TestCase):
    # sizes spread like final bins at n=16, 1 bit/step: mean 9
    SIZES = [5, 7, 8, 9, 9, 10, 11, 13] * 50

    def test_closed_form_mean_passes(self):
        self.assertEqual(checks.check_bin_mean(self.SIZES, 9.0), [])

    def test_wrong_bin_mean_fails(self):
        self.assertTrue(checks.check_bin_mean([s + 1 for s in self.SIZES], 9.0))

    def test_closed_form(self):
        from trace_layers import expected_bin_size

        class OneBit:
            def total_bits(self, steps):
                return steps

        self.assertAlmostEqual(expected_bin_size(16, 2, OneBit()), 9.0)
        self.assertAlmostEqual(expected_bin_size(10, 2, OneBit()), 6.0)


if __name__ == "__main__":
    unittest.main()
