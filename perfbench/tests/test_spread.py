"""Quartile-spread arithmetic of perfbench/spread.py.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spread import quartile_spread  # noqa: E402


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # statistics.quantiles(n=4, method="exclusive") of 1..10 gives
        # q1 = 2.75 and q3 = 8.25; the median is 5.5.
        med, spread = quartile_spread([float(v) for v in range(10, 0, -1)])
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(spread, (8.25 - 2.75) / 5.5)

    def test_identical_values_have_no_spread(self):
        med, spread = quartile_spread([3.0] * 10)
        self.assertEqual(med, 3.0)
        self.assertEqual(spread, 0.0)

    def test_one_outlier_moves_the_spread_little(self):
        _, steady = quartile_spread([100.0] * 9 + [101.0])
        _, outlier = quartile_spread([100.0] * 9 + [1000.0])
        self.assertLess(steady, 0.01)
        self.assertLess(outlier, 0.01)

    def test_zero_median_is_infinite(self):
        _, spread = quartile_spread([0.0, 0.0, 0.0, 1.0])
        self.assertEqual(spread, float("inf"))


if __name__ == "__main__":
    unittest.main()
