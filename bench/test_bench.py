"""Tests of the benchmark itself (not of plumbcalc).  From the checkout root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from plumbcalc import intmat, plumbing, sl2, strings  # noqa: E402
from plumbcalc.plumbing import canonical_key  # noqa: E402


def _run(*args, cwd=ROOT):
    """The command BENCHMARK.json declares, run from ``cwd`` with ``args``."""
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.run([*command, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


class SameSeedSameInputs(unittest.TestCase):
    def test_generation_is_a_function_of_the_seed(self):
        cli = W.Cli(run.WORK, run.SRC)
        run.WORK.mkdir(parents=True, exist_ok=True)
        for workload in (W.Words(), W.Forms(), W.Dense(), cli):
            first = workload.generate(run.round_rng(workload.name, 7, 1), 1)
            again = workload.generate(run.round_rng(workload.name, 7, 1), 1)
            other = workload.generate(run.round_rng(workload.name, 8, 1), 1)
            self.assertEqual(first, again, workload.name)
            self.assertNotEqual(first, other, workload.name)

    def test_every_round_has_the_same_shape(self):
        for workload in (W.Words(), W.Forms(), W.Dense()):
            shapes = {
                tuple((op.name, op.rung) for op in workload.build(
                    workload.generate(run.round_rng(workload.name, seed, 0), 0)))
                for seed in (1, 2, 3)
            }
            self.assertEqual(len(shapes), 1, workload.name)


class OraclesAgreeWithPlumbcalc(unittest.TestCase):
    """On inputs small enough that plumbcalc finishes, every operation the
    workloads issue must be judged correct."""

    def setUp(self):
        self.previous = {sig: signal.signal(sig, run._on_alarm)
                         for sig in (signal.SIGALRM, signal.SIGPROF)}

    def tearDown(self):
        for sig, handler in self.previous.items():
            signal.signal(sig, handler)

    def assert_all_correct(self, ops):
        for op in ops:
            record = run.run_op(op, 5.0, None, 0)
            self.assertIsNone(record["kind"], f"{op.name} {op.rung}")

    def test_words(self):
        rng = random.Random(1)
        specs = [W._word_spec(O.family_word(k, xs), 1, (k, xs))
                 for k, xs in ((1, (0, 0, 0)), (1, (1, 0, 2)), (2, (0, 3, 1, 0, 2)))]
        specs += [W._word_spec(W._hyperbolic_coeffs(rng, n), 1) for n in (2, 5, 9)]
        specs += [W._word_spec((2,) * n, -1) for n in (2, 5)]
        for s in specs:
            self.assert_all_correct(W.Words._ops(s))

    def test_forms_graphs(self):
        rng = random.Random(2)
        graphs = [W._cycle_spec(rng, n) for n in (3, 6, 11)] + [W._cycle_spec(rng, 6, parabolic=True)]
        graphs += [W._tree_spec(rng, shape, n) for shape in ("path", "star", "caterpillar", "random")
                   for n in (1, 4, 8)]
        for g in graphs:
            self.assert_all_correct(W.Forms._graph_ops(g))

    def test_forms_constructions(self):
        rng = random.Random(3)
        spec = {
            "graphs": [],
            "selfjoins": [W._selfjoin_spec(rng, (4, 7)) for _ in range(4)],
            "chains": [W._join_chain_spec(rng, steps, (3, 5), [f"T{i}" for i in range(steps + 1)],
                                          [None] + [f"J{i}" for i in range(1, steps + 1)])
                       for steps in (1, 2, 3)],
        }
        self.assert_all_correct(W.Forms().build(spec))

    def test_dense(self):
        rng = random.Random(4)
        for kind in ("random", "udv", "sym", "e8"):
            for n in ((8, 10) if kind == "e8" else (2, 4, 5)):
                self.assert_all_correct(W.Dense._ops(W._dense_spec(rng, kind, n)))

    def test_oracles_directly(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            m = intmat.IntMatrix.from_rows(rows)
            self.assertEqual(O.det_exact(rows), intmat.det(m))
            if O.det_exact(rows):
                self.assertEqual(O.invariant_factors(rows), intmat.smith_diagonal(m))
        for _ in range(50):
            a = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 8)))
            w = sl2.word_to_matrix(sl2.MonodromyWord(a, -1))
            self.assertEqual(O.word_matrix(a, -1), (w.a, w.b, w.c, w.d))
            self.assertTrue(O.is_dual_pair(a, strings.dual_string(a)))
        g = W._tree_spec(rng, "random", 9)
        self.assertEqual(O.canonical_key(g["vertices"], g["edges"]),
                         canonical_key(plumbing.PlumbingGraph(g["vertices"], g["edges"])))


class Spans(unittest.TestCase):
    def test_spans_from_several_workers_keep_their_parents(self):
        from tracing import Tracer, layer_totals

        worker = [["intmat.det", 0.0, 1.0, -1, 0, 0], ["sl2.classify", 0.2, 0.5, 0, 0, 0]]
        tracer = Tracer()
        tracer.extend(worker)
        tracer.extend(worker)
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, -1, 2])
        totals = layer_totals(tracer.closed())
        self.assertAlmostEqual(totals["intmat"]["self_s"], 2 * 0.7)
        self.assertAlmostEqual(totals["sl2"]["busy_s"], 2 * 0.3)


class Output(unittest.TestCase):
    def test_every_metric_in_benchmark_json_is_printed(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = {
            "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        self.assertEqual(expected["0"], dict(run.END_TO_END))
        self.assertEqual(expected["1"], dict(run.per_layer_names()))
        for workload in ("words", "cli"):
            for trace in ("0", "1"):
                out = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 expected[trace], (workload, trace))

    def test_refuses_to_run_without_the_sources(self):
        bare = run.WORK / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = _run("--workload", "words", "--seconds", "1", cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("{", out.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
