"""Self-tests of the benchmark harness (no program run needed).

Run from the repository root::

    python3 -m unittest perfbench.selftest
"""

from __future__ import annotations

import json
import os
import types
import unittest

from perfbench.layers import LAYER_MAP
from perfbench.run import ROOT, Checks, gate_identity
from perfbench.tracing import Tracer, TooFewSamples, percentile, self_times, totals

END_TO_END = {
    "cell_s",
    "setup_s",
    "exchanges_per_s",
    "exchange_ok_share",
    "exchange_ms_p50",
    "peak_rss_mb",
}


class PercentileTest(unittest.TestCase):
    def test_reports_value_and_sample_count(self):
        value, count = percentile(list(range(1, 1101)), 99)
        self.assertEqual(count, 1100)
        self.assertEqual(value, 1089)

    def test_refuses_with_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(TooFewSamples):
            percentile(list(range(100)), 99)
        # 1000 samples leave exactly 10 beyond p99: allowed
        self.assertEqual(percentile(list(range(1000)), 99), (989, 1000))

    def test_median_needs_twenty_samples(self):
        with self.assertRaises(TooFewSamples):
            percentile(list(range(19)), 50)
        self.assertEqual(percentile(list(range(20)), 50), (9, 20))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            ["cycle", 0.0, 10.0, -1, 0],
            ["observer", 1.0, 3.0, 0, 0],
            ["views", 2.0, 5.0, 0, 0],  # overlaps the observer: union is 1..5
            ["graph", 2.5, 4.5, 2, 0],  # grandchild: only views loses it
            ["late", 9.0, 12.0, 0, 0],  # clipped to the parent's end
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 3.0 - 2.0)
        self.assertAlmostEqual(own[3], 2.0)
        t = totals(spans)
        self.assertEqual(t["cycle"]["calls"], 1)
        self.assertAlmostEqual(t["cycle"]["self"], 5.0)

    def test_tracer_nests_and_restores(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        module = types.SimpleNamespace(inner=lambda x: x + 1)

        class Owner:
            @classmethod
            def build(cls, x):
                return module.inner(x) * 2

        original_inner = module.inner
        tracer.patch(module, "inner", "inner")
        tracer.patch(Owner, "build", "build")
        self.assertEqual(Owner.build(1), 4)
        self.assertEqual([s[0] for s in tracer.spans], ["build", "inner"])
        self.assertEqual(tracer.spans[1][3], 0)
        self.assertEqual(self_times(tracer.spans), [2.0, 1.0])
        tracer.restore()
        self.assertIs(module.inner, original_inner)
        self.assertIsInstance(Owner.__dict__["build"], classmethod)
        self.assertEqual(Owner.build(1), 4)
        self.assertEqual(len(tracer.spans), 2)


class GateTest(unittest.TestCase):
    def test_digest_gate_fires_on_wrong_expected_value(self):
        checks = Checks()
        got = {"digest": "ab" * 32, "completed": 10}
        gate_identity(checks, "pinned", got, {"digest": "ab" * 32, "completed": 10})
        self.assertEqual((checks.attempted, checks.failed), (1, 0))
        gate_identity(checks, "pinned", got, {"digest": "cd" * 32, "completed": 10})
        self.assertEqual((checks.attempted, checks.failed), (2, 1))
        self.assertIn("digest", checks.errors[0])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        self.assertEqual({m["name"] for m in bench["end_to_end"]}, END_TO_END)
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
        self.assertEqual(
            declared, {name: spec[:2] for name, spec in LAYER_MAP.items()}
        )
        with open(os.path.join(ROOT, "perfbench", "expected.json")) as handle:
            pinned = json.load(handle)
        self.assertEqual(
            {w["name"] for w in bench["workloads"]}, set(pinned)
        )


if __name__ == "__main__":
    unittest.main()
