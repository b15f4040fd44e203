#!/usr/bin/env python3
"""Self-tests of the compare verdicts: python3 perfbench/test_compare.py"""

import statistics
import unittest

from compare import quartiles, verdict


class Quartiles(unittest.TestCase):
    def test_matches_exclusive_method(self):
        self.assertEqual(quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(quartiles([4.0, 1.0, 3.0, 2.0]), tuple(statistics.quantiles([1, 2, 3, 4], n=4)))


class Verdict(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_identical_runs_are_the_same(self):
        self.assertEqual(verdict(self.parent, list(self.parent), "lower", 0.1), "same")

    def test_a_clear_gain_is_better(self):
        change = [v * 0.9 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "better")
        self.assertEqual(verdict(self.parent, change, "higher", 0.1), "same")

    def test_a_gain_needs_nine_of_ten_pairs(self):
        change = [v * 0.9 for v in self.parent]
        change[0] = change[1] = 200.0
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "same")

    def test_a_loss_beyond_the_bound_is_worse(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1), "worse")
        self.assertEqual(verdict(self.parent, change, "lower", 0.25), "same")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        self.assertEqual(verdict(noisy, list(reversed(noisy)), "lower", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()
