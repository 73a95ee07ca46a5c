"""Self-test of the perf ledger's own machinery.

    python3 perf/run.py --self-test

Outside tier-1 ``testpaths`` on purpose: these check the benchmark, not
the program.  Covered: the percentile helper, self time on synthetic
span trees, the tracer's wrapping (methods, classmethods, coroutines,
``from module import name`` copies) and its loud failures, that
BENCHMARK.json names exactly the metrics ``run.py`` emits, and that a
wrong oracle turns into a non-zero exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import types
import unittest

import measure
import run
import trace


def span(name, parent, start, end, note=None):
    return [name, parent, start, end, note]


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(measure.percentile(values, 0.0), 1.0)
        self.assertEqual(measure.percentile(values, 0.5), 2.5)
        self.assertEqual(measure.percentile(values, 0.75), 3.25)
        self.assertEqual(measure.percentile(values, 1.0), 4.0)

    def test_small_samples(self):
        self.assertEqual(measure.percentile([7.0], 0.75), 7.0)
        self.assertEqual(measure.percentile([2.0, 4.0], 0.75), 3.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            measure.percentile([], 0.5)
        with self.assertRaises(ValueError):
            measure.percentile([1.0], 1.5)

    def test_summary_states_the_sample(self):
        self.assertEqual(
            measure.summary([1.0, 2.0, 3.0, 4.0, 5.0]),
            {"n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0},
        )


class SelfTimeTest(unittest.TestCase):
    def tree(self):
        root = span("root", None, 0.0, 10.0)
        a = span("a", root, 1.0, 4.0)
        a1 = span("leaf", a, 2.0, 3.0)
        b = span("b", root, 5.0, 9.0)
        b1 = span("leaf", b, 5.0, 6.0)
        b2 = span("leaf", b, 7.0, 9.0)
        return [a1, a, b1, b2, b, root]  # completion order, as the tracer appends

    def test_self_time_is_duration_minus_child_cover(self):
        spans = self.tree()
        by_name = dict(zip(["a1", "a", "b1", "b2", "b", "root"], trace.self_times(spans)))
        self.assertEqual(by_name["root"], 10.0 - 3.0 - 4.0)
        self.assertEqual(by_name["a"], 2.0)
        self.assertEqual(by_name["b"], 1.0)
        self.assertEqual(by_name["b2"], 2.0)

    def test_overlapping_children_are_covered_once(self):
        self.assertEqual(trace.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]), 5.0)
        self.assertEqual(trace.covered(0.0, 10.0, [(8.0, 12.0)]), 2.0)
        self.assertEqual(trace.covered(0.0, 10.0, []), 0.0)

    def test_layer_table_sums_to_the_root(self):
        table = trace.layer_table(self.tree())
        self.assertEqual(table["leaf"], {"calls": 3, "self_s": 4.0, "total_s": 4.0})
        self.assertEqual(table["root"]["total_s"], 10.0)
        self.assertAlmostEqual(sum(r["self_s"] for r in table.values()), 10.0)

    def test_layer_table_rejects_a_tree_that_does_not_add_up(self):
        root = span("root", None, 0.0, 10.0)
        escaped = span("child", root, 5.0, 15.0)  # outlives its parent
        with self.assertRaises(trace.TraceError):
            trace.layer_table([escaped, root])

    def test_spans_beneath_an_opaque_span_are_dropped(self):
        root = span("root", None, 0.0, 10.0)
        setup = span("core.system.setup", root, 1.0, 6.0)
        inner = span("runtime.backends.ring_multiply", setup, 2.0, 5.0)
        deeper = span("leaf", inner, 3.0, 4.0)
        table = trace.layer_table([deeper, inner, setup, root])
        self.assertNotIn("runtime.backends.ring_multiply", table)
        self.assertNotIn("leaf", table)
        self.assertEqual(table["core.system.setup"]["self_s"], 5.0)
        self.assertEqual(table["root"]["self_s"], 5.0)


class Sample:
    def method(self, x):
        return helper(x) + 1

    @classmethod
    def build(cls, x):
        return cls().method(x)

    async def wait(self, x):
        await asyncio.sleep(0)
        return helper(x)


def helper(x):
    return x * 2


class TracerTest(unittest.TestCase):
    def setUp(self):
        # A throwaway module standing in for the program, plus a second
        # one that copied ``helper`` with ``from ... import``.
        self.module = types.ModuleType("repro._perf_selftest")
        self.module.Sample, self.module.helper = Sample, helper
        self.copier = types.ModuleType("repro._perf_selftest_copier")
        self.copier.helper = helper
        trace.sys.modules[self.module.__name__] = self.module
        trace.sys.modules[self.copier.__name__] = self.copier
        self.targets = (
            trace.Target("t.method", self.module.__name__, "Sample", "method"),
            trace.Target("t.build", self.module.__name__, "Sample", "build"),
            trace.Target("t.wait", self.module.__name__, "Sample", "wait"),
            trace.Target("t.helper", self.module.__name__, None, "helper"),
        )

    def tearDown(self):
        del trace.sys.modules[self.module.__name__]
        del trace.sys.modules[self.copier.__name__]

    def test_wraps_and_restores(self):
        tracer = trace.Tracer(self.targets, observers={"t.method": lambda a, r: r})
        originals = dict(vars(Sample))
        with tracer:
            self.assertIsNot(self.copier.helper, helper)
            # Sample.method looks ``helper`` up in this file's globals,
            # which the tracer does not own: call the wrapped copies.
            self.assertEqual(Sample.build(3), 7)
            self.assertEqual(self.copier.helper(4), 8)
            self.assertEqual(asyncio.run(Sample().wait(5)), 10)
        self.assertIs(self.copier.helper, helper)
        self.assertIs(self.module.helper, helper)
        for attr in ("method", "build", "wait"):
            self.assertIs(vars(Sample)[attr], originals[attr])
        names = [s[trace.NAME] for s in tracer.spans]
        self.assertEqual(names, ["t.method", "t.build", "t.helper", "t.wait"])
        method, build = tracer.spans[0], tracer.spans[1]
        self.assertIs(method[trace.PARENT], build)
        self.assertIsNone(build[trace.PARENT])
        self.assertEqual(method[trace.NOTE], 7)
        self.assertEqual(trace.notes(tracer.spans, "t.method"), [7])
        self.assertEqual(len(tracer.drain()), 4)
        self.assertEqual(tracer.spans, [])

    def test_span_closes_when_the_callable_raises(self):
        def boom(x):
            raise KeyError(x)

        self.module.helper = boom
        tracer = trace.Tracer(self.targets[3:])
        with tracer, self.assertRaises(KeyError):
            self.module.helper(1)
        self.assertEqual(len(tracer.spans), 1)
        self.assertGreaterEqual(tracer.spans[0][trace.END], tracer.spans[0][trace.START])

    def test_missing_target_is_named(self):
        gone = (trace.Target("t.gone", self.module.__name__, "Sample", "renamed"),)
        with self.assertRaisesRegex(trace.TraceError, "t.gone.*Sample.renamed"):
            trace.Tracer(gone).install()
        absent = (trace.Target("t.absent", "repro._no_such_module", None, "f"),)
        with self.assertRaisesRegex(trace.TraceError, "t.absent"):
            trace.Tracer(absent).install()

    def test_silent_layer_is_named(self):
        table = {"a": {"calls": 3}, "b": {"calls": 0}}
        trace.require_calls(table, frozenset({"a"}), "w")
        with self.assertRaisesRegex(trace.TraceError, "w: .*b, c"):
            trace.require_calls(table, frozenset({"a", "b", "c"}), "w")

    def test_real_by_name_import_is_rebound(self):
        # repro.crypto.aead holds its own copy of chacha20_xor.
        from repro.crypto import aead

        target = tuple(t for t in trace.TARGETS if t.span == "crypto.chacha20.chacha20_xor")
        tracer = trace.Tracer(target)
        with tracer:
            aead.senc(b"k" * 32, 1, b"payload")
        self.assertEqual([s[trace.NAME] for s in tracer.spans], [target[0].span])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_emits(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = [m["name"] for m in spec["per_layer"]]
        emitted = [
            f"{name}.{field}" for name in trace.SPAN_NAMES for field in ("calls", "self_s")
        ] + list(run.DERIVED_METRICS)
        self.assertEqual(sorted(per_layer), sorted(emitted))
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["query_s", "query_p75_s", "origins_per_s", "setup_s", "peak_rss_mb"],
        )
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(run.WORKLOAD_CLASSES)
        )

    def test_wrong_oracle_exits_non_zero(self):
        honest = run.oracle_counts

        def off_by_one(system, query, graph):
            counts = honest(system, query, graph)
            return [tuple(c + 1.0 for c in counts[0])] + counts[1:]

        run.oracle_counts = off_by_one
        output, complaints = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(complaints):
                status = run.main(
                    ["--workload", "exec_fanout", "--seed", "5", "--seconds", "0"]
                )
        finally:
            run.oracle_counts = honest
        self.assertNotEqual(status, 0)
        self.assertIn("oracle says", complaints.getvalue())
        self.assertNotIn('"correct": true', output.getvalue())


def main() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromModule(__import__(__name__))
    outcome = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if outcome.wasSuccessful() else 1
