"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Kept out of the package's test suite on purpose (the file name does not
match test_*.py): they test the benchmark, not qpcrkin.
"""

from __future__ import annotations

import sys
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from run import tail_rank  # noqa: E402
from tracer import Target, Tracer, bound_wrappers  # noqa: E402


class FakeClock:
    """Advances only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(clock):
    """Package fakepkg with outer -> inner -> leaf, each spending known time."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    sys.modules["fakepkg"] = pkg
    sys.modules["fakepkg.mod"] = mod

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 1.0
        mod.leaf()
        clock.now += 2.0

    def outer():
        clock.now += 3.0
        mod.inner()
        mod.inner()
        clock.now += 4.0

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    pkg.outer = outer  # a second binding of the same function
    return mod


class TracerTest(unittest.TestCase):
    def tearDown(self):
        for name in ("fakepkg", "fakepkg.mod"):
            sys.modules.pop(name, None)

    def test_self_time_of_nested_calls(self):
        clock = FakeClock()
        mod = _fake_package(clock)
        tracer = Tracer(clock=clock)
        tracer.install([Target("fakepkg.mod", "outer", "a"),
                        Target("fakepkg.mod", "inner", "b"),
                        Target("fakepkg.mod", "leaf", "c", aggregate=True)],
                       "fakepkg")
        try:
            tracer.begin_op(7)
            sys.modules["fakepkg"].outer()  # through the second binding
            tracer.end_op()
        finally:
            tracer.uninstall()
        outer, first, second = tracer.spans
        self.assertEqual(outer.name, "mod.outer")
        self.assertEqual((first.parent, second.parent), (0, 0))
        self.assertEqual({s.op for s in tracer.spans}, {7})
        self.assertEqual(outer.duration, 14.0)
        self.assertEqual(outer.self_time, 7.0)
        self.assertEqual(first.duration, 3.5)
        self.assertEqual(first.self_time, 3.0)
        leaf = tracer.aggregates["mod.leaf"]
        self.assertEqual((leaf.calls, leaf.seconds), (2, 1.0))
        self.assertEqual(bound_wrappers("fakepkg"), [])
        self.assertFalse(hasattr(mod.outer, "__wrapped__"))

    def test_calls_outside_an_op_are_not_recorded(self):
        clock = FakeClock()
        mod = _fake_package(clock)
        tracer = Tracer(clock=clock)
        tracer.install([Target("fakepkg.mod", "inner", "b")], "fakepkg")
        try:
            mod.outer()
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.spans, [])

    def test_no_wrapper_left_after_a_traced_run(self):
        import qpcrkin
        from qpcrkin import inference, limit_law, streams

        originals = (limit_law.sample_limit, inference.sample_limit,
                     qpcrkin.sample_limit, streams.ReusableStream.reset)
        tracer = Tracer()
        tracer.install(layers.TARGETS, "qpcrkin")
        try:
            self.assertTrue(bound_wrappers("qpcrkin"))
            self.assertIsNot(inference.sample_limit, originals[1])
            tracer.begin_op(0)
            inference.sample_limit(0.5, z=2, count=20, seed=3)
            tracer.end_op()
        finally:
            tracer.uninstall()
        self.assertEqual(bound_wrappers("qpcrkin"), [])
        self.assertEqual((limit_law.sample_limit, inference.sample_limit,
                          qpcrkin.sample_limit, streams.ReusableStream.reset),
                         originals)
        (span,) = tracer.spans
        self.assertEqual(span.counts["draws"], 20)
        self.assertEqual(tracer.aggregates["streams.ReusableStream.reset"].calls, 20)


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS.values():
            for index in (0, 1, 13):
                a = workload.make_op(5, index, "out")
                b = workload.make_op(5, index, "out")
                c = workload.make_op(6, index, "out")
                self.assertEqual(repr(a), repr(b), workload.name)
                self.assertNotEqual(repr(a), repr(c), workload.name)

    def test_raising_op_counts_as_failed(self):
        class Broken(workloads.Curves):
            def run(self, op):
                raise ValueError("boom")

        with tempfile.TemporaryDirectory() as tmp:
            results = worker.run_phase(Broken(), 1, 0.05,
                                       str(Path(tmp) / "out.json"))
        report = worker.summarize(results)
        self.assertGreater(report["attempted"], 0)
        self.assertEqual(report["failed"], report["attempted"])
        self.assertEqual(report["kinds"], [])
        self.assertIn("ValueError: boom", report["errors"][0])

    def test_failed_check_counts_as_failed(self):
        class Wrong(workloads.Curves):
            def run(self, op):
                out = super().run(op)
                out[("G", 0.5)] = out[("G", 0.5)] + 1e-6
                return out

        wrong = Wrong()
        result = workloads.run_op(wrong, wrong.make_op(1, 0, "unused"), "unused",
                                  FakeClock())
        self.assertFalse(result.ok)
        self.assertIn("criterion 3", result.error)

    def test_tail_rank_keeps_ten_ops_beyond(self):
        self.assertEqual(tail_rank(200), 180)
        self.assertEqual(tail_rank(100), 90)
        self.assertEqual(tail_rank(40), 30)
        self.assertEqual(tail_rank(12), 7)
        self.assertEqual(tail_rank(13), 7)


class ReferenceTest(unittest.TestCase):
    def test_op_is_scaled_by_the_kernel_timings_around_it(self):
        # warm-up, before op 1, after op 1 (= before op 2), after op 2
        timings = iter([1.0, 0.02, 0.04, 0.03])
        with mock.patch.object(reference, "timed", lambda: next(timings)):
            scaler = reference.Scaler()
            first, second = scaler.scale(1.0), scaler.scale(2.0)
        self.assertAlmostEqual(first, reference.SECONDS / 0.03)
        self.assertAlmostEqual(second, 2.0 * reference.SECONDS / 0.035)


if __name__ == "__main__":
    unittest.main()
