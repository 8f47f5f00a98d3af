"""Self-tests for the benchmark itself (not part of the library's test suite).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py            # tiny inputs, about half a minute
    python3 perfbench/selftest.py --full     # also repeat full-size traced runs

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that tampered answers are counted as failures, and that the exact counts
of a traced run repeat for the same seed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import contexts  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FULL = "--full" in sys.argv


def bench(workload, seed, trace, size="tiny", seconds=1):
    """Run the benchmark once; (result line, run record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    suffix = "-tiny" if size == "tiny" else ""
    record = json.loads((ROOT / ".perfbench" /
                         f"{workload}-seed{seed}-trace{trace}{suffix}.json").read_text())
    return result, record


class MetricsEmitted(unittest.TestCase):
    def test_tiny_runs_emit_every_declared_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench(workload, 3, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, declared)

    def test_declared_metrics_match_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        per_layer = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
        per_layer.update({"trace.overhead_ratio": "ratio", "trace.elapsed_s": "s"})
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, per_layer)


class TamperedAnswersFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ideal = contexts.member_ideal()
        cls.client = contexts.member_ideal()
        stream = iter(workloads.MemberQueries(cls.client, 5, tiny=True))
        cls.cases = {}
        while len(cls.cases) < 3:
            _shape, kind, query, grade1 = next(stream)
            cls.cases.setdefault(kind, (query, grade1, cls.ideal.membership(query)))

    def check(self, kind, verdict=None):
        query, grade1, real = self.cases[kind]
        return workloads.check_membership(self.client, query, grade1, verdict or real)

    def test_true_answers_pass(self):
        for kind in self.cases:
            self.assertIsNone(self.check(kind), kind)

    def test_tampered_witness_coefficient_fails(self):
        for kind in ("sum", "single"):
            verdict = self.cases[kind][2]
            first, *rest = verdict.witness
            bad = dataclasses.replace(first, coeff=first.coeff + 1)
            tampered = dataclasses.replace(verdict, witness=[bad, *rest])
            self.assertIsNotNone(self.check(kind, tampered), kind)

    def test_tampered_residual_fails(self):
        verdict = self.cases["nonmember"][2]
        tampered = dataclasses.replace(verdict, residual=verdict.residual.scale(2))
        self.assertIsNotNone(self.check("nonmember", tampered))

    def test_wrong_status_fails(self):
        query, grade1, verdict = self.cases["nonmember"]
        flipped = dataclasses.replace(verdict, status="member", witness=[])
        self.assertIsNotNone(workloads.check_membership(self.client, query, grade1, flipped))

    def test_tampered_cli_output_fails(self):
        import contextlib
        import io
        from dcubed import cli

        check = workloads.CliChecker()
        calls = workloads.cli_calls(7, tiny=True)
        for _ in range(9):  # every preset and format
            argv, expr, preset, k, fmt = next(calls)
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            output = buffer.getvalue()
            self.assertIsNone(check(expr, preset, k, fmt, code, output), argv)
            self.assertIsNotNone(check(expr, preset, k, fmt, 1, output), argv)
            if fmt == "json":
                tampered = output.replace('"a": "1"', '"a": "2"', 1)
            else:
                tampered = output.replace("x1", "x2", 1)
            if tampered != output:
                self.assertIsNotNone(check(expr, preset, k, fmt, code, tampered), argv)


class CountsRepeat(unittest.TestCase):
    sizes = ("tiny", "full") if FULL else ("tiny",)

    def test_same_seed_same_counts(self):
        for size in self.sizes:
            for workload in WORKLOADS:
                with self.subTest(workload=workload, size=size):
                    first, _ = bench(workload, 11, 1, size)
                    second, _ = bench(workload, 11, 1, size)
                    counts = [name for name, metric in first["metrics"].items()
                              if metric["unit"] == "count"]
                    self.assertEqual(
                        {n: first["metrics"][n]["value"] for n in counts},
                        {n: second["metrics"][n]["value"] for n in counts})

    def test_member_shapes_do_not_depend_on_seed(self):
        for size in self.sizes:
            shapes = [bench("member-bounded", seed, 1, size)[1]["trace_detail"]["system_shapes"]
                      for seed in (21, 22)]
            self.assertEqual(shapes[0], shapes[1], size)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + [a for a in sys.argv[1:] if a != "--full"])
