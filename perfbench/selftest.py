"""Self-tests of the benchmark's own arithmetic (perfbench/benchlib.py).

Run: python3 perfbench/selftest.py   (perfbench/run.py also runs them before every run)
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402


def span(name, start, end, parent=-1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent}


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartiles_match_the_statistics_module(self):
        values = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q3))
        self.assertEqual(benchlib.quartiles(list(range(1, 11))), (2.75, 8.25))

    def test_percentile_interpolates(self):
        values = list(range(0, 101))  # 101 samples, percentile p is exactly p
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile([0, 10], 25), 2.5)
        self.assertEqual(benchlib.percentile([5], 99), 5)


class TailRule(unittest.TestCase):
    def test_p90_needs_a_hundred_samples(self):
        p, value, n = benchlib.tail_percentile(list(range(100)))
        self.assertEqual((p, n), (90.0, 100))
        self.assertAlmostEqual(value, 89.1)

    def test_fewer_samples_fall_down_the_ladder(self):
        # 99 samples: p90 has 9.9 beyond it, p75 has 24.75.
        p, _, n = benchlib.tail_percentile(list(range(99)))
        self.assertEqual((p, n), (75.0, 99))
        # 39 samples: p75 has 9.75 beyond it, so only the median remains.
        self.assertEqual(benchlib.tail_percentile(list(range(39)))[0], 50.0)

    def test_many_samples_never_exceed_the_wanted_percentile(self):
        p, _, n = benchlib.tail_percentile(list(range(100000)), wanted=90.0)
        self.assertEqual((p, n), (90.0, 100000))
        p, _, _ = benchlib.tail_percentile(list(range(100000)), wanted=99.9)
        self.assertEqual(p, 99.9)

    def test_ten_beyond_is_inclusive(self):
        # 1000 samples: p99 has exactly 10 beyond it and qualifies.
        self.assertEqual(benchlib.tail_percentile(list(range(1000)), 99.9)[0], 99.0)


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(benchlib.union_length([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(benchlib.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(benchlib.union_length([(5, 5), (7, 6)]), 0)
        self.assertEqual(benchlib.union_length([]), 0)

    def test_children_on_overlapping_lanes_count_once(self):
        # A 100 ns drive; lane 0 screens 0-60, lane 1 screens 10-70 and 80-90, the fold
        # runs 92-100. Covered: 0-70, 80-90, 92-100 = 88 ns, so drive self time is 12.
        spans = [span("drive", 0, 100),
                 span("screen", 0, 60, 0), span("screen", 10, 70, 0),
                 span("screen", 80, 90, 0), span("fold", 92, 100, 0)]
        self.assertEqual(benchlib.self_times(spans), [12, 60, 60, 10, 8])

    def test_children_are_clipped_to_their_parent(self):
        spans = [span("root", 10, 20), span("child", 0, 15, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 5)

    def test_grandchildren_do_not_reduce_the_grandparent(self):
        spans = [span("root", 0, 100), span("mid", 0, 50, 0), span("leaf", 0, 50, 1)]
        self.assertEqual(benchlib.self_times(spans), [50, 0, 50])

    def test_self_time_by_name_sums_durations_and_self(self):
        spans = [span("drive", 0, 100),
                 span("screen", 0, 60, 0), span("screen", 10, 70, 0)]
        table = benchlib.self_time_by_name(spans)
        self.assertEqual(table["drive"], (100, 30, 1))
        self.assertEqual(table["screen"], (120, 120, 2))


class OpenLoop(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # Request 0 on time; request 1 due at 20 but the generator stalled until 35.
        requests = [{"due_ns": 0, "start_ns": 0, "end_ns": 5},
                    {"due_ns": 20, "start_ns": 35, "end_ns": 40}]
        latencies, lateness = benchlib.open_loop(requests)
        self.assertEqual(latencies, [5, 20])
        self.assertEqual(lateness, [0, 15])

    def test_lateness_never_negative(self):
        _, lateness = benchlib.open_loop([{"due_ns": 10, "start_ns": 9, "end_ns": 12}])
        self.assertEqual(lateness, [0])


class Finite(unittest.TestCase):
    def test_rejects_inf_nan_and_bool(self):
        self.assertTrue(benchlib.finite(1.5))
        self.assertTrue(benchlib.finite(0))
        for bad in (float("inf"), float("-inf"), float("nan"), True, None, "1"):
            self.assertFalse(benchlib.finite(bad))


def run_quietly():
    """Runs every test without output; returns True when all pass."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
