"""Self-tests of the benchmark harness: python3 benchmarks/selftest.py

They need numpy and scipy but not the program.
"""

from __future__ import annotations

import sys
import time
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import inputs  # noqa: E402
from tracing import NO_PARENT, Tracer  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for k in range(6):
            self.assertEqual(inputs.sweep_job(7, k), inputs.sweep_job(7, k))
            self.assertEqual(inputs.cli_job(7, k, "x"), inputs.cli_job(7, k, "x"))
        a, b = inputs.calibrate_job(7, 1), inputs.calibrate_job(7, 1)
        self.assertEqual((a.fit_csv, a.segment_csv, a.truth, a.probe_triples),
                         (b.fit_csv, b.segment_csv, b.truth, b.probe_triples))
        self.assertEqual(inputs.oracle_series(7), inputs.oracle_series(7))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(inputs.sweep_job(7, 0), inputs.sweep_job(8, 0))
        self.assertNotEqual(inputs.calibrate_job(7, 0).fit_csv,
                            inputs.calibrate_job(8, 0).fit_csv)

    def test_class_mix_does_not_depend_on_seed(self):
        for k in range(6):
            self.assertEqual(inputs.calibrate_job(1, k).free, inputs.calibrate_job(2, k).free)
            self.assertEqual(inputs.cli_job(1, k, "x").kind, inputs.cli_job(2, k, "x").kind)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        t = Tracer()
        root = t.add_span("a.root", 0.0, 10.0, NO_PARENT, 0)
        t.add_span("b.left", 1.0, 4.0, root, 0)
        right = t.add_span("b.right", 5.0, 9.0, root, 0)
        t.add_span("a.leaf", 6.0, 7.0, right, 0)
        t.add_span("a.root", 20.0, 22.0, NO_PARENT, 1)
        self.assertEqual(t.self_times(),
                         {"a.root": 3.0 + 2.0, "b.left": 3.0, "b.right": 3.0, "a.leaf": 1.0})

    def test_wrappers_record_spans_counts_and_restore(self):
        owner = types.ModuleType("owner")

        def leaf(x):
            return x + 1

        def outer(x):
            return owner.leaf(x) + owner.leaf(x)

        owner.leaf, owner.outer = leaf, outer
        t = Tracer(("leaves",))
        t.install([(owner, "outer", "m.outer", lambda a, r: r)], [(owner, "leaf", "leaves")])
        self.assertEqual(owner.outer(1), 4)
        t.uninstall()
        self.assertIs(owner.outer, outer)
        self.assertEqual((len(t), t.name(0), t.tag[0], t.span_counts["leaves"][0]),
                         (1, "m.outer", 4, 2))


class FailureCountTest(unittest.TestCase):
    class Flaky:
        """Job 2 raises, job 4 fails its check and the per-run check raises."""

        name = "flaky"
        batch = 6

        def __init__(self):
            self.jobs = []

        def job(self, k):
            self.jobs.append(k)
            return k

        def run(self, k):
            if k == 2:
                raise RuntimeError("injected")
            return k

        def check(self, k, out):
            return "wrong output" if k == 4 else None

        def run_checks(self):
            raise RuntimeError("oracle broke")

    class NoSetup:
        def due(self, k, batch):
            pass

        def result(self):
            return {}

    def test_injected_failures_are_counted(self):
        outcome = harness.Outcome()
        wl = self.Flaky()
        harness.timed_run(wl, self.NoSetup(), 0.0, outcome)
        self.assertEqual(len(outcome.durations), 6)
        self.assertEqual(outcome.attempted, 8)  # warm-up, six timed jobs, per-run check
        self.assertEqual(len(outcome.failures), 3)
        self.assertIn("RuntimeError: injected", outcome.failures[0])
        self.assertIn("RuntimeError: oracle broke", outcome.failures[2])
        self.assertEqual(wl.jobs, [harness.WARMUP_JOB, 0, 1, 2, 3, 4, 5])


class TimedPhaseTest(unittest.TestCase):
    class Sleepy:
        name = "sleepy"
        batch = 2

        def job(self, k):
            return k

        def run(self, k):
            time.sleep(0.01)

        def check(self, k, out):
            return None

        def run_checks(self):
            return []

    def test_whole_batches_until_seconds(self):
        outcome = harness.Outcome()
        harness.timed_run(self.Sleepy(), FailureCountTest.NoSetup(), 0.05, outcome)
        batches = harness.batch_times(2, outcome.durations)
        self.assertEqual(len(outcome.durations), 2 * len(batches))
        self.assertGreaterEqual(sum(batches), 0.05)
        self.assertLess(sum(batches[:-1]), 0.05)

    def test_setup_samples_alternate_with_first_batch(self):
        for batch, before_last in ((8, 10), (20, 11), (300, 11)):
            sampler = harness.SetupSampler(None)
            sampler._sample = lambda: sampler.walls.append(0.0)
            taken = []
            for k in range(batch):
                sampler.due(k, batch)
                taken.append(len(sampler.walls))
            self.assertEqual(taken[0], 1)
            self.assertEqual(taken[-1], before_last)
            self.assertTrue(all(b - a <= 2 for a, b in zip(taken, taken[1:])))

    def test_batch_times_sum_each_batch(self):
        self.assertEqual(harness.batch_times(2, [1.0, 1.0, 2.0, 2.0, 3.0, 0.5]),
                         [2.0, 4.0, 3.5])


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(harness.tail_percentile(1000), 99.0)
        self.assertEqual(harness.tail_percentile(300), 95.0)
        self.assertEqual(harness.tail_percentile(100), 90.0)
        self.assertEqual(harness.tail_percentile(12), 50.0)


if __name__ == "__main__":
    unittest.main()
