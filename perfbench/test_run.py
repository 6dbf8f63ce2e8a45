#!/usr/bin/env python3
"""Tests of the benchmark itself, at a seconds-long size (--quick inputs).

    python3 perfbench/test_run.py

Builds the runner like run.py does, then checks that every metric of
BENCHMARK.json is printed with its unit, that the output check fails on a
wrong expected hash, and that both city workloads hash their outputs
alike.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Metrics each workload's runner must measure itself; every other
# per-layer metric belongs to a layer the workload does not load.
LAYERS = {
    "cell_mix": ("sim.", "core.", "geodb.", "fault.", "audit.", "scenario.",
                 "obs."),
    "city_serial": ("shard.", "sim.", "core.", "audit.", "scenario.", "obs."),
    "city_parallel": ("shard.", "sim.", "core.", "audit.", "scenario.",
                      "obs."),
    "sift_signal": ("phy.", "sift.", "obs."),
}
# Only the single-cell stack can attach a phase profiler.
PROFILER_ONLY = {"sim.medium_deliver_us_mean", "core.mcham_evaluate_us_mean"}


def run_main(*args):
    """run.main() with captured stdout; returns (exit code, last line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def runner_report(workload, seed, trace=0):
    command = [run.build(), "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--quick"]
    proc = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(run.BENCHMARK) as f:
            cls.benchmark = json.load(f)

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_main("--workload", workload, "--seed",
                                            "1", "--seconds", "0.2",
                                            "--trace", str(trace), "--quick")
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"]
                              for m in self.benchmark[kind]}
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        wanted)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float))
                        if kind == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)

    def test_runner_measures_the_layers_each_workload_loads(self):
        names = [m["name"] for m in self.benchmark["per_layer"]]
        for workload, prefixes in LAYERS.items():
            with self.subTest(workload=workload):
                measured = runner_report(workload, 1, trace=1)["metrics"]
                for name in names:
                    loads = name.startswith(prefixes)
                    if workload != "cell_mix" and name in PROFILER_ONLY:
                        loads = False
                    self.assertEqual(name in measured, loads, name)

    def test_corrupted_expected_hash_fails_the_check(self):
        with open(run.EXPECTED) as f:
            expected = json.load(f)
        corrupted = dict(expected)
        corrupted["quick/cell_mix"] = "0" * 16
        path = os.path.join(run.build_dir(), "expected-corrupted.json")
        with open(path, "w") as f:
            json.dump(corrupted, f)
        saved = run.EXPECTED
        try:
            code, result = run_main("--workload", "cell_mix", "--seed", "1",
                                    "--seconds", "0.2", "--quick")
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            run.EXPECTED = path
            code, result = run_main("--workload", "cell_mix", "--seed", "1",
                                    "--seconds", "0.2", "--quick")
            self.assertEqual(code, 0)
            self.assertFalse(result["correct"])
        finally:
            run.EXPECTED = saved

    def test_check_rejects_unrepeatable_and_uncovered_outputs(self):
        report = runner_report("sift_signal", 1)
        with open(run.EXPECTED) as f:
            expected = json.load(f)
        self.assertEqual(run.check([report, report], 1, expected), [])
        bad = [
            [dict(report, repeatable=False)],
            [dict(report, coverage={"sift.every_cell_present": False})],
            [report, dict(report, hash="0" * 16)],
            [report, dict(report, failed=report["failed"] + 1)],
        ]
        for reports in bad:
            self.assertNotEqual(run.check(reports, 1, expected), [])

    def test_city_workloads_agree_on_their_hash(self):
        with open(run.EXPECTED) as f:
            expected = json.load(f)
        for seed in (1, 7):
            with self.subTest(seed=seed):
                serial = runner_report("city_serial", seed)
                parallel = runner_report("city_parallel", seed)
                self.assertEqual(serial["hash"], parallel["hash"])
                self.assertGreater(parallel["host"]["workers"], 0)
                if seed == run.DEFAULT_SEED:
                    self.assertEqual(serial["hash"], expected["quick/city"])

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(run.BENCHMARK, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cell_mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
