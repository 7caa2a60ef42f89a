"""Tests of the benchmark itself (not of homct).

    python3 -m unittest discover -s perfbench/tests -p 'check_*.py'

The file name keeps these out of the library's default pytest collection:
they launch every workload twice under the tracer, about two minutes.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7  # any seed: every oracle and count is seed-invariant

# per-layer metric -> workloads on which it must be nonzero (perfbench/README.md)
FIRES = {
    "exactla.self_s": list(WORKLOADS),
    "algmod.self_s": list(WORKLOADS),
    "resolve.self_s": list(WORKLOADS),
    "derived.self_s": ["a2-compare", "c3c3-compare", "c2x4-tor", "a2-pcomp"],
    "completion.self_s": ["a2-compare", "c3c3-compare"],
    "stablecmp.self_s": ["a2-compare", "c3c3-compare", "a2-pcomp"],
    "cohom.self_s": ["a2-pcomp"],
    "exactla.elim": ["a2-pcomp", "c2x4-tor", "c3c3-compare"],
    "exactla.matmul": ["a2-compare"],
    "exactla.vec": ["a2-compare", "a2-pcomp"],
    "exactla.solve": ["a2-compare", "a2-pcomp"],
    "exactla.matrix_new": ["c3c3-compare"],
    "algmod.radical": ["c2x4-tor"],
    "algmod.radical_submodule": ["c2x4-tor"],
    "algmod.tensor": ["c3c3-compare"],
    "algmod.hom": ["a2-compare", "a2-pcomp"],
    "algmod.validate": ["c2x4-tor"],
    "resolve.cover": ["c2x4-tor"],
    "resolve.resolution": ["c3c3-compare", "a2-compare"],
    "resolve.complete": ["c3c3-compare"],
    "resolve.periodicity": ["a2-compare"],
    "derived.homology": ["c3c3-compare"],
    "derived.connecting": ["c3c3-compare"],
    "derived.chain": ["c3c3-compare"],
    "completion.tower": ["c3c3-compare", "a2-compare"],
    "completion.limit": ["c3c3-compare", "a2-compare"],
    "stablecmp.duality": ["a2-compare", "a2-pcomp"],
    "stablecmp.vanishing": ["c3c3-compare"],
    "stablecmp.copure": ["c3c3-compare"],
    "cohom.segment": ["a2-pcomp"],
    "cohom.cotower_limit": ["a2-pcomp"],
    "schemas.parse": list(WORKLOADS),
    "schemas.report_hash": list(WORKLOADS),
    "cli.run_compute": ["a2-compare", "c3c3-compare", "c2x4-tor"],
}


def _owner(metric: str) -> str:
    """The FIRES key covering a metric: a layer self time or its group."""
    return metric if metric in FIRES else metric.rsplit(".", 1)[0]


class TracedRuns(unittest.TestCase):
    """Two traced samples of every workload, shared by the tests below."""

    layers: dict[str, list[dict]] = {}

    @classmethod
    def setUpClass(cls):
        for name in WORKLOADS:
            runner = run.Runner(name, SEED)
            runner.generate()
            samples = [runner.sample(traced=True) for _ in range(2)]
            for s in samples:
                assert not s.problems, (name, s.problems)
            cls.layers[name] = [{k: v["value"] for k, v in s.layers.items()} for s in samples]

    def test_every_metric_is_reported(self):
        for name, (first, _) in self.layers.items():
            self.assertEqual(list(first), tracer.layer_metric_names(), name)

    def test_every_metric_fires_on_its_workload(self):
        for metric in tracer.layer_metric_names():
            if metric == "trace.spans":
                continue
            self.assertIn(_owner(metric), FIRES, metric)
            for name in FIRES[_owner(metric)]:
                self.assertGreater(self.layers[name][0][metric], 0, f"{metric} on {name}")

    def test_counts_repeat_exactly(self):
        for name, (first, second) in self.layers.items():
            for metric, value in first.items():
                if tracer.unit_of(metric) != "s":
                    self.assertEqual(value, second[metric], f"{metric} on {name}")


class Generator(unittest.TestCase):
    def test_seed_zero_reproduces_the_a2_fixtures(self):
        with tempfile.TemporaryDirectory() as out:
            paths = gen.write_inputs("a2", 0, out)
            for path in paths.values():
                fixture = os.path.join(ROOT, "fixtures", os.path.basename(path))
                self.assertTrue(filecmp.cmp(path, fixture, shallow=False), path)

    def test_deterministic_for_a_seed(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for name in gen.ALGEBRAS:
                first = gen.write_inputs(name, SEED, a)
                second = gen.write_inputs(name, SEED, b)
                for key in first:
                    self.assertTrue(filecmp.cmp(first[key], second[key], shallow=False))

    def test_group_relabeling_changes_the_inputs(self):
        self.assertNotEqual(gen.permutation(16, 0), gen.permutation(16, SEED))
        self.assertEqual(sorted(gen.permutation(16, SEED)), list(range(16)))


class Aggregate(unittest.TestCase):
    def test_self_time_subtracts_children_and_nested_calls_count_once(self):
        meta = {"targets": ["algmod:radical_submodule", "exactla:rref"],
                "groups": ["algmod.radical_submodule", "exactla.elim"],
                "group_of": [0, 1]}
        cols = {  # radical_submodule [0, 10] calls rref [2, 5], which nests rref [3, 4]
            "target": [0, 1, 1], "parent": [-1, 0, 1], "outer": [1, 1, 0],
            "start": [0.0, 2.0, 3.0], "end": [10.0, 5.0, 4.0],
            "x": [6, 4, 2], "y": [0, 1, 1],
        }
        import numpy as np

        out = tracer.aggregate(meta, {k: np.array(v) for k, v in cols.items()})
        self.assertEqual(out["algmod.self_s"], 7.0)
        self.assertEqual(out["exactla.self_s"], 3.0)
        self.assertEqual(out["exactla.elim.calls"], 2)
        self.assertEqual(out["exactla.elim.entries"], 6)
        self.assertEqual(out["exactla.elim.nnz_frac"], 2 / 6)
        self.assertEqual(out["algmod.radical_submodule.s"], 10.0)
        self.assertEqual(out["algmod.radical_submodule.rows"], 6)


class Install(unittest.TestCase):
    def test_patches_every_binding_of_a_function(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from tracer import Tracer; "
            "Tracer().install(); "
            "from homct import cli, completion, derived, stablecmp, exactla; "
            "assert derived.tor is cli.tor is completion.tor is stablecmp.tor; "
            "assert hasattr(derived.tor, '__wrapped__'); "
            "assert hasattr(exactla.Matrix.__matmul__, '__wrapped__'); "
            "assert hasattr(exactla.Subspace.__init__, '__wrapped__')"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run([sys.executable, "-c", code, BENCH], env=env, check=True, timeout=60)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "a2-compare", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertFalse(line.startswith("{"), line)

    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         tracer.layer_metric_names() + ["trace.overhead_s", "trace.overhead_frac"])
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
