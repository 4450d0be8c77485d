"""Tests for the benchmark's own code: tracer, output checks, input generator.

Run from the repository root:
    python3 -m unittest discover -s bench/tests
"""

import random
import resource
import sys
import time
import unittest
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dyck  # noqa: E402
import gauge  # noqa: E402
import tracer  # noqa: E402
from run import end_to_end_metrics, judge, metric_units, per_layer_metrics, run_pass  # noqa: E402
from worker import PREVIOUS, run_ops  # noqa: E402
from workloads import WORKLOADS, load_digests  # noqa: E402


class GaugeTest(unittest.TestCase):
    def test_median_tick_time(self):
        g = gauge.Gauge(clock=FakeClock([0, 3, 3, 4, 4, 6]))
        for _ in range(3):
            g._on_timer(None, None)
        self.assertEqual(g.samples, [3, 1, 2])
        self.assertEqual(g.median_s(), 2)

    def test_a_short_pass_still_gets_a_sample(self):
        g = gauge.Gauge()
        g.start()
        g.stop()
        self.assertEqual(len(g.samples), 1)
        self.assertGreater(g.median_s(), 0)

    def test_ticks_are_taken_during_a_pass(self):
        g = gauge.Gauge()
        g.start()
        end = time.perf_counter() + 5 * gauge.INTERVAL_S
        while time.perf_counter() < end:
            pass
        g.stop()
        self.assertGreaterEqual(len(g.samples), 3)


class RunPassTest(unittest.TestCase):
    def test_pass_reports_its_own_peak_rss(self):
        ballast = b"\1" * (64 * 2**20)  # written, so resident in this process
        runner_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reply = run_pass([])
        del ballast
        self.assertLess(reply["peak_rss_mb"], runner_mb - 32)
        self.assertGreater(reply["gauge_s"], 0)


class FakeClock:
    """Returns the given times in order, one per call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # cli [0, 10] holds oracle [1, 7] and series [8, 9];
        # oracle holds perms [2, 5] and perms [5.5, 6.5]
        t = tracer.Tracer(clock=FakeClock([0, 1, 2, 5, 5.5, 6.5, 7, 8, 9, 10]))
        cli = t.enter("cli.main")
        oracle = t.enter("oracle.enumerate_class")
        t.exit(t.enter("perms.lis_length"))
        t.exit(t.enter("perms.lis_length"))
        t.exit(oracle)
        t.exit(t.enter("series.sqrt"))
        t.exit(cli)

        self.assertEqual(list(t.parent), [-1, 0, 1, 1, 0])
        own = tracer.self_times(t.start, t.end, t.parent)
        self.assertEqual(own, [3.0, 2.0, 3.0, 1.0, 1.0])

        summary = t.summary()
        self.assertEqual(summary["cli.self_s"], 3.0)
        self.assertEqual(summary["oracle.self_s"], 2.0)
        self.assertEqual(summary["perms.self_s"], 4.0)
        self.assertEqual(summary["series.self_s"], 1.0)
        self.assertEqual(summary["oracle.busy_s"], 6.0)
        layers = sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS)
        self.assertEqual(layers, 10.0)

    def test_parents(self):
        t = tracer.Tracer(clock=FakeClock(range(8)))
        a = t.enter("cli.main")
        b = t.enter("tables.build_table")
        t.exit(t.enter("series.sqrt"))
        t.exit(b)
        t.exit(a)
        self.assertEqual(list(t.parent), [-1, 0, 1])
        self.assertEqual(t.names, ["cli.main", "tables.build_table", "series.sqrt"])

    def test_generator_spans_cover_resumptions_only(self):
        def gen():
            yield 1
            yield 2

        # each next() reads the clock twice; the consumer's gaps are unseen
        t = tracer.Tracer(clock=FakeClock([0, 1, 10, 12, 20, 21]))
        wrapped = t._wrap(gen, "paths.enumerate_prefixes", "verify")
        self.assertEqual(list(wrapped()), [1, 2])
        self.assertEqual(len(t), 3)
        self.assertEqual(tracer.self_times(t.start, t.end, t.parent), [1, 2, 1])
        self.assertEqual(t.counts["paths.enumerate_prefixes@verify"], 1)
        self.assertEqual(t.counts["paths.enumerate_prefixes.items"], 2)

    def test_same_layer_calls_are_counted_without_spans(self):
        t = tracer.Tracer(clock=FakeClock(range(4)))
        inner = t._wrap(lambda: 7, "perms.lis_length", "perms")
        outer = t._wrap(lambda: inner(), "perms.contains_pattern", "bijection")
        self.assertEqual(outer(), 7)
        self.assertEqual(len(t), 1)
        self.assertEqual(t.summary()["perms.calls"], 2)


class InstallTest(unittest.TestCase):
    def test_install_traces_layers_and_uninstall_restores(self):
        import censym.cli
        import censym.oracle
        import censym.perms
        import censym.series

        modules = [sys.modules[f"censym.{layer}"] for layer in tracer.LAYERS]
        before = [dict(vars(m)) for m in modules]
        classes = [
            value
            for m in modules
            for value in vars(m).values()
            if isinstance(value, type) and value.__module__ == m.__name__
        ]
        classes_before = [dict(vars(cls)) for cls in classes]

        t = tracer.Tracer()
        t.install()
        self.assertIsNot(censym.oracle.word_contains_pattern, censym.perms.word_contains_pattern)
        ops = [
            ["table", "--family", "q", "--max-n", "3", "--source", "oracle"],
            ["table", "--family", "t", "--max-n", "3", "--source", "series"],
            ["phi-inv", "UUDU"],
        ]
        try:
            results = run_ops(censym.cli, ops)
        finally:
            t.uninstall()

        self.assertTrue(all(r["code"] == 0 for r in results))
        summary = t.summary()
        self.assertGreaterEqual(summary["cli.calls"], 3)
        self.assertEqual(summary["oracle.members"], 1 + 2 + 4 + 8)
        self.assertGreater(summary["oracle.tests_per_member"], 0)
        self.assertGreater(summary["series.ops"], 0)
        self.assertEqual(summary["bijection.steps"], 4)
        self.assertGreater(len(t), 0)
        self.assertEqual([dict(vars(m)) for m in modules], before)
        self.assertEqual([dict(vars(cls)) for cls in classes], classes_before)

    def test_classes_count_under_their_own_layer(self):
        import censym.cli

        t = tracer.Tracer()
        t.install()
        try:
            results = run_ops(censym.cli, [["phi-inv", "UUDUUD"]])
        finally:
            t.uninstall()

        self.assertEqual(results[0]["code"], 0)
        summary = t.summary()
        self.assertGreater(summary["paths.calls"], 0)
        self.assertGreater(summary["paths.self_s"], 0)
        self.assertGreater(t.counts["paths.LatticePath.__init__@paths"], 0)
        self.assertGreater(t.counts["perms.Permutation.__init__@perms"], 0)
        self.assertIn("paths.LatticePath.__init__", t.names)


class MetricNamesTest(unittest.TestCase):
    def test_every_listed_metric_is_computed(self):
        # the host ran at half the reference speed: times are halved
        plain = [{"wall_s": 4.0, "scale": 0.5, "items": 10, "setup_s": 0.2, "peak_rss_mb": 20.0}]
        values = end_to_end_metrics(plain, [0.1])
        self.assertEqual(set(values), set(metric_units("end_to_end")))
        self.assertEqual(values["wall_s"], 2.0)
        self.assertEqual(values["items_per_s"], 5.0)

        traced = [
            {
                "wall_s": 6.0,
                "scale": 0.5,
                "setup_s": 0.2,
                "stdout_bytes": 7,
                "trace": tracer.Tracer().summary(),
            }
        ]
        values = per_layer_metrics(plain, traced)
        self.assertLessEqual(set(metric_units("per_layer")), set(values))
        self.assertEqual(values["trace.wall_s"], 3.0)
        self.assertEqual(values["trace.overhead_s"], 1.0)
        self.assertAlmostEqual(values["trace.unattributed_s"], 5.8)


def corrupt_cell(csv_text, n, delta):
    lines = csv_text.splitlines()
    cells = lines[n + 1].split(",")
    cells[1] = str(int(cells[1]) + delta)
    lines[n + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import censym.cli

        cls.cli = censym.cli
        cls.digests = load_digests()

    def reply(self, ops, outputs, codes=None):
        codes = codes or [0] * len(ops)
        return {
            "results": [
                {"code": c, "stdout": o, "stderr": "", "error": None}
                for o, c in zip(outputs, codes)
            ]
        }

    def test_closed_form_tables_pass_and_corruptions_fail(self):
        workload = WORKLOADS["closed_forms"]
        ops = workload.ops(0)[:2]  # q by recurrence and by series
        outputs = [r["stdout"] for r in run_ops(self.cli, ops)]
        failures, items = judge(workload, ops, self.reply(ops, outputs), self.digests, 0)
        self.assertEqual(failures, [])
        self.assertGreater(items, 0)

        # one changed cell breaks the row sum
        bad = [corrupt_cell(outputs[0], 5, 1), outputs[1]]
        failures, _ = judge(workload, ops, self.reply(ops, bad), self.digests, 0)
        self.assertEqual(len(failures), 1)

        # moving one member between cells keeps the row sum; the digest catches it
        moved = corrupt_cell(outputs[0], 5, 1).splitlines()
        cells = moved[6].split(",")
        cells[-1] = str(int(cells[-1]) - 1)
        moved[6] = ",".join(cells)
        bad = ["\n".join(moved) + "\n", outputs[1]]
        failures, _ = judge(workload, ops, self.reply(ops, bad), self.digests, 0)
        self.assertEqual(len(failures), 1)
        self.assertIn("digest", failures[0])

    def test_oracle_table_with_one_changed_cell_fails(self):
        workload = WORKLOADS["oracle_tables"]
        ops = workload.ops(0)[:1]  # q through n = 6
        outputs = [r["stdout"] for r in run_ops(self.cli, ops)]
        self.assertEqual(judge(workload, ops, self.reply(ops, outputs), self.digests, 0)[0], [])
        bad = [corrupt_cell(outputs[0], 6, -1)]
        failures, _ = judge(workload, ops, self.reply(ops, bad), self.digests, 0)
        self.assertEqual(len(failures), 1)
        self.assertIn("row 6", failures[0])

    def test_bijection_round_trip_and_wrong_paths(self):
        workload = WORKLOADS["bijection_long"]
        path = "UUDUUDDU"
        ops = [["phi-inv", path], ["phi", PREVIOUS]]
        outputs = [r["stdout"] for r in run_ops(self.cli, ops)]
        failures, items = judge(workload, ops, self.reply(ops, outputs), self.digests, -1)
        self.assertEqual((failures, items), ([], len(path)))

        wrong_path = [outputs[0], "UUDUUDUD\n"]
        failures, _ = judge(workload, ops, self.reply(ops, wrong_path), self.digests, -1)
        self.assertEqual(len(failures), 1)

        not_member = ["1 2 3 4 5 6 7 8\n", outputs[1]]
        failures, _ = judge(workload, ops, self.reply(ops, not_member), self.digests, -1)
        self.assertEqual(len(failures), 1)

    def test_bijection_frozen_digest(self):
        workload = WORKLOADS["bijection_long"]
        ops = workload.ops(0)[:2]
        digests = {"bijection_long": {"0": "0" * 64}}
        outputs = [r["stdout"] for r in run_ops(self.cli, [["phi-inv", ops[0][1]]])]
        outputs.append(ops[0][1] + "\n")
        failures, _ = judge(workload, ops, self.reply(ops, outputs), digests, 0)
        self.assertEqual(len(failures), 1)
        self.assertIn("digest", failures[0])

    def test_verify_verdict(self):
        workload = WORKLOADS["verify_all"]
        ops = [["verify"]]
        good = "PASS a (1 checked)\nall suites passed\n"
        self.assertEqual(judge(workload, ops, self.reply(ops, [good]), {}, 0)[0], [])
        for bad in ("FAIL a (1 checked)\nall suites passed\n", "PASS a (1 checked)\n"):
            self.assertEqual(len(judge(workload, ops, self.reply(ops, [bad]), {}, 0)[0]), 1)
        self.assertEqual(len(judge(workload, ops, self.reply(ops, [good], [1]), {}, 0)[0]), 1)
        crashed = {"results": [{"code": None, "stdout": "", "stderr": "", "error": "boom"}]}
        self.assertEqual(len(judge(workload, ops, crashed, {}, 0)[0]), 1)


class DyckTest(unittest.TestCase):
    @staticmethod
    def is_prefix(word):
        height = 0
        for step in word:
            height += 1 if step == "U" else -1
            if height < 0:
                return False
        return True

    def test_same_seed_same_valid_prefixes(self):
        first = dyck.random_prefixes(7, 5, 300)
        self.assertEqual(first, dyck.random_prefixes(7, 5, 300))
        self.assertNotEqual(first, dyck.random_prefixes(8, 5, 300))
        for word in first:
            self.assertEqual(len(word), 300)
            self.assertLessEqual(set(word), {"U", "D"})
            self.assertTrue(self.is_prefix(word))

    def test_completion_counts(self):
        for r, h in product(range(9), range(6)):
            brute = sum(
                self.is_prefix("U" * h + "".join(w)) for w in product("UD", repeat=r)
            )
            self.assertEqual(dyck.completions(r, h), brute, (r, h))

    def test_every_draw_uses_the_exact_count(self):
        class Recording(random.Random):
            def randrange(self, n):
                self.seen.append(n)
                return super().randrange(n)

        for length in (1, 2, 7, 40, 161):
            rng = Recording(length)
            rng.seen = []
            word = dyck.random_prefix(rng, length)
            expected, height = [], 0
            for i, step in enumerate(word):
                if height:
                    expected.append(dyck.completions(length - i, height))
                height += 1 if step == "U" else -1
            self.assertEqual(rng.seen, expected)

    def test_all_prefixes_reachable(self):
        rng = random.Random(0)
        seen = {dyck.random_prefix(rng, 6) for _ in range(2000)}
        self.assertEqual(len(seen), 20)


if __name__ == "__main__":
    unittest.main()
