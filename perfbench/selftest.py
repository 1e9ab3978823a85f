"""Self-test of the benchmark's arithmetic on synthetic inputs whose
answers are known exactly (no measurement noise involved).

    python3 perfbench/selftest.py

run.py also runs it before every measurement and reports a failure as an
incorrect run.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

MS = 1_000_000  # ns


class MedianAndQuartiles(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(metrics.median([5, 1, 3]), 3)

    def test_even_count(self):
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_of_one_to_nine(self):
        # statistics.quantiles' exclusive method: positions (n+1)/4 * k.
        self.assertEqual(metrics.quartiles(range(1, 10)), (2.5, 5.0, 7.5))

    def test_relative_spread(self):
        self.assertEqual(metrics.relative_spread(range(1, 10)), 1.0)

    def test_spread_of_constant_values_is_zero(self):
        self.assertEqual(metrics.relative_spread([7.0] * 10), 0.0)


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        values = list(range(101))  # percentile p is exactly p
        for p in (0, 25, 50, 99, 100):
            self.assertEqual(metrics.percentile(values, p), p)
        self.assertEqual(metrics.percentile([0, 10], 25), 2.5)

    def test_support_floor(self):
        self.assertEqual(metrics.support_floor(50), 20)
        self.assertEqual(metrics.support_floor(90), 100)
        self.assertEqual(metrics.support_floor(99), 1000)
        self.assertEqual(metrics.support_floor(99.9), 10000)

    def test_highest_supported_percentile(self):
        self.assertIsNone(metrics.highest_supported_percentile(19))
        self.assertEqual(metrics.highest_supported_percentile(20), 50)
        self.assertEqual(metrics.highest_supported_percentile(999), 90)
        self.assertEqual(metrics.highest_supported_percentile(1000), 99)
        self.assertEqual(metrics.highest_supported_percentile(10000), 99.9)


def session(submit, marks, cpu=None):
    """A session whose CPU clock ran with the wall clock unless cpu says
    otherwise."""
    return {"submit_ns": submit, "marks_ns": marks,
            "cpu_ns": marks if cpu is None else cpu}


class FrameTimes(unittest.TestCase):
    def test_intervals_from_publication_stream(self):
        marks = [0, 8 * MS, 16 * MS, 30 * MS]
        self.assertEqual(metrics.frame_intervals_ms(marks), [8.0, 8.0, 14.0])

    def test_skipped_vsync_splits_an_interval(self):
        # The third displayed frame comes two vsyncs after the second:
        # its 24 ms of host time advanced two intervals of 12 ms each.
        v = metrics.VSYNC_NS
        marks = [0, 8 * MS, 16 * MS, 40 * MS]
        virtual = [0, round(v), round(2 * v), round(4 * v)]
        self.assertEqual(metrics.frame_intervals_ms(marks, virtual),
                         [8.0, 8.0, 12.0, 12.0])

    def test_missing_virtual_time_is_rejected(self):
        with self.assertRaises(ValueError):
            metrics.frame_intervals_ms([0, 1, 2], [0, 1])

    def test_end_to_end_of_one_session(self):
        # Set-up ends at 100 ms with the first frame; 9 frames follow, one
        # every 10 ms except a 50 ms spike.
        marks = [100 * MS + 10 * MS * i for i in range(9)] + [230 * MS]
        batch = {"end_ns": 240 * MS, "cpu_first_ns": 0, "cpu_end_ns": 90 * MS,
                 "sessions": [session(0, marks)]}
        e2e = metrics.end_to_end([batch])
        self.assertEqual(e2e["frames"], 9)
        self.assertAlmostEqual(e2e["run_s"], 0.13, places=12)
        self.assertAlmostEqual(e2e["frames_per_s"], 9 / 0.13, places=9)
        self.assertEqual(e2e["frame_ms_p50"], 10.0)
        self.assertAlmostEqual(e2e["frame_ms_p99"], 10.0 + 0.92 * 40.0,
                               places=9)
        self.assertEqual(e2e["cpu_ms_per_frame"], 10.0)
        self.assertEqual(e2e["setup_s"], 0.1)

    def test_concurrent_sessions_add_their_rates(self):
        # Two concurrent sessions at 100 frames/s each on their threads'
        # clocks make 200 frames/s, whatever the wall clock says;
        # set-up is the median per session.
        a = session(0, [10 * MS, 25 * MS, 30 * MS], [0, 10 * MS, 20 * MS])
        b = session(0, [30 * MS, 40 * MS, 60 * MS], [5, 5 + 10 * MS,
                                                    5 + 20 * MS])
        batch = {"end_ns": 50 * MS, "cpu_first_ns": 5,
                 "cpu_end_ns": 5 + 40 * MS, "sessions": [a, b]}
        e2e = metrics.end_to_end([batch])
        self.assertEqual(e2e["frames"], 4)
        self.assertAlmostEqual(e2e["frames_per_s"], 200.0, places=9)
        self.assertEqual(e2e["frame_ms_p50"], 10.0)
        self.assertAlmostEqual(e2e["setup_s"], 0.02, places=12)
        self.assertEqual(e2e["cpu_ms_per_frame"], 10.0)

    def test_lone_session_rate_on_cpu_clock_intervals_on_wall_clock(self):
        # The host took the vCPU away for 30 ms during the second frame:
        # the rate on the process CPU clock leaves it out, the vsync
        # intervals (wall clock) keep it. Set-up is wall clock.
        wall = [100 * MS, 110 * MS, 150 * MS]
        cpu = [7 * MS, 17 * MS, 27 * MS]
        lone = session(0, wall, cpu)
        lone["virtual_ns"] = [0, round(metrics.VSYNC_NS),
                              round(2 * metrics.VSYNC_NS)]
        batch = {"end_ns": 150 * MS, "cpu_first_ns": 0, "cpu_end_ns": 20 * MS,
                 "sessions": [lone]}
        e2e = metrics.end_to_end([batch])
        self.assertAlmostEqual(e2e["frames_per_s"], 100.0, places=9)
        self.assertEqual(e2e["frame_ms_p50"], 25.0)
        self.assertEqual(e2e["setup_s"], 0.1)
        wall = metrics.end_to_end(metrics.on_wall_clock([batch]))
        self.assertAlmostEqual(wall["frames_per_s"], 40.0, places=9)
        # Standalone frames (no virtual time) stay on the CPU clock.
        del lone["virtual_ns"]
        self.assertEqual(metrics.end_to_end([batch])["frame_ms_p50"], 10.0)


def constant_batch(value_ms, n):
    """A one-session batch of n frames, each value_ms apart."""
    marks = [i * value_ms * MS for i in range(n + 1)]
    return {"end_ns": marks[-1], "cpu_first_ns": 0,
            "cpu_end_ns": n * value_ms * MS,
            "sessions": [session(0, marks)]}


class Windows(unittest.TestCase):
    def test_remainder_joins_the_last_window(self):
        # 500 intervals per batch: windows of 1000 are [b0, b1] and
        # [b2, b3], and b4's 500 join the second.
        parts = [metrics.batch_frames(constant_batch(10, 500))] * 5
        sizes = [len(g) for g in metrics.windows(parts)]
        self.assertEqual(sizes, [2, 3])

    def test_median_over_windows(self):
        # Windows of 10 ms, 20 ms and 40 ms frames: every windowed metric
        # is the middle window's, not the pooled value.
        batches = [constant_batch(ms, 1000) for ms in (10, 40, 20)]
        e2e = metrics.end_to_end(batches)
        self.assertEqual(e2e["windows"], 3)
        self.assertEqual(e2e["frame_ms_p50"], 20.0)
        self.assertEqual(e2e["frame_ms_p99"], 20.0)
        self.assertAlmostEqual(e2e["frames_per_s"], 50.0, places=9)
        self.assertEqual(e2e["cpu_ms_per_frame"], 20.0)
        self.assertEqual(e2e["frames"], 3000)


OPS = ["bench.session", "runtime.run", "render.frame", "slam.vio",
       "sensors.preload"]


class SpanArithmetic(unittest.TestCase):
    # Thread 0: session [0, 100) holds preload [0, 10) and run [10, 90);
    # run holds render [10, 40) and vio [50, 70). Thread 1 repeats the
    # session shape in parallel at half the length.
    SPANS = [
        [0, 0, 0, 100, 0],
        [4, 0, 0, 10, 0],
        [1, 0, 10, 90, 0],
        [2, 0, 10, 40, 0],
        [3, 0, 50, 70, 1],
        [0, 1, 0, 50, 0],
        [1, 1, 5, 45, 0],
        [2, 1, 5, 25, 0],
    ]

    def test_self_times(self):
        self.assertEqual(metrics.self_times(self.SPANS),
                         [10, 10, 30, 30, 20, 10, 20, 20])

    def test_waterfall(self):
        fall = metrics.layer_waterfall(OPS, self.SPANS)
        layers = fall["layers"]
        self.assertEqual(fall["wall_ms"], 150 / MS)
        # Unaccounted: the root self times, 10 + 10 of 150.
        self.assertAlmostEqual(fall["unaccounted_pct"], 100 * 20 / 150,
                               places=12)
        self.assertEqual(layers["render.frame"]["calls"], 2)
        self.assertAlmostEqual(layers["render.frame"]["busy_pct"],
                               100 * 50 / 150, places=12)
        self.assertEqual(layers["runtime.run"]["busy_ms"], 50 / MS)
        self.assertEqual(layers["slam.vio"]["errors"], 1)
        self.assertAlmostEqual(layers["render.frame"]["call_ms_p50"], 25 / MS,
                               places=15)
        total = sum(entry["busy_pct"] for entry in layers.values())
        self.assertAlmostEqual(total, 100.0, places=9)

    def test_overlap_without_nesting_is_rejected(self):
        with self.assertRaises(ValueError):
            metrics.self_times([[0, 0, 0, 10, 0], [1, 0, 5, 15, 0]])

    def test_trace_overhead(self):
        self.assertAlmostEqual(metrics.trace_overhead_pct(110.0, 100.0),
                               10.0, places=12)


if __name__ == "__main__":
    unittest.main()
