"""Self-test of the benchmark's own files.

    python3 perfbench/selftest.py

Checks that the eval-warm generator never emits an input outside the word
cap or the degree window, that two traced runs with one seed give identical
call counts, that BENCHMARK.json names exactly the metrics the benchmark
prints, how reference-host units are derived, and that the benchmark refuses
to run outside a pcqm checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import exprgen  # noqa: E402
import run  # noqa: E402

EXACT_UNITS = ("count", "flop", "B")


def run_benchmark(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class GeneratorLimits(unittest.TestCase):
    def test_tracked_bounds_stay_within_cap_and_window(self):
        for seed in range(40):
            for _, node in exprgen.stream(seed, 100):
                self.assertTrue(exprgen.within_limits(node), node.text)

    def test_actual_products_stay_within_cap_and_window(self):
        # The oracle's scalars enforce the default degree window themselves;
        # the word cap is checked here on the factors' actual words.
        ref = exprgen.Reference()

        def longest(node):
            return max((len(w) for w in ref.value(node)), default=0)

        def walk(node):
            if node.op in ("comm", "prod"):
                self.assertLessEqual(sum(longest(a) for a in node.args), exprgen.WORD_CAP,
                                     node.text)
            if node.op == "pow":
                self.assertLessEqual(longest(node.args[0]) * node.args[1], exprgen.WORD_CAP)
            for a in node.args:
                if isinstance(a, exprgen.Node):
                    walk(a)

        for seed in range(3):
            for _, node in exprgen.stream(seed, 60):
                walk(node)

    def test_program_accepts_every_input(self):
        from pcqm.expr import evaluate_text

        for seed in range(3):
            for _, node in exprgen.stream(seed, 60):
                evaluate_text(node.text)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.per_layer_names())
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]), m["name"])
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)

    def test_reference_units_scale_times_and_rates(self):
        res = run.Result(walls=[1.0, 2.0, 3.0], cpus=[1.0, None, 3.0], scales=[0.5, 0.5, 2.0],
                         rss_kb=[2048], attempted=3)
        setup = [(0.2, 0.5), (0.4, 0.5), (0.1, 2.0)]
        ref = run.end_to_end(res, setup, reference=True)
        here = run.end_to_end(res, setup, reference=False)
        self.assertEqual(ref["latency_p50_s"], 1.0)
        self.assertEqual(ref["throughput_rps"], 3 / 7.5)
        self.assertEqual(ref["cpu_per_req_s"], 3.25)
        self.assertEqual(ref["setup_s"], 0.2)
        self.assertEqual(here["latency_p50_s"], 2.0)
        self.assertEqual(here["throughput_rps"], 0.5)
        self.assertEqual(ref["peak_rss_mb"], 2.0)

    def test_refuses_to_run_outside_a_checkout(self):
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run_benchmark("--workload", "cli-numeric", "--seed", "1",
                                        "--seconds", "1", cwd=Path(tmp))
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


class TracedCounts(unittest.TestCase):
    def test_two_traced_runs_repeat_counts(self):
        runs = []
        for _ in range(2):
            code, lines = run_benchmark("--workload", "verify-cold", "--seed", "7",
                                        "--seconds", "1", "--trace", "1")
            self.assertEqual(code, 0)
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), run.per_layer_names())
            runs.append({k: m["value"] for k, m in result["metrics"].items()
                         if m["unit"] in EXACT_UNITS})
        self.assertEqual(runs[0], runs[1])
        self.assertEqual(runs[0]["verify-cold.operators.multiply.calls"], 1862)
        self.assertEqual(runs[0]["verify-cold.operators.commutator.calls"], 586)
        self.assertEqual(runs[0]["verify-cold.reports.checks"], 530)


if __name__ == "__main__":
    unittest.main()
