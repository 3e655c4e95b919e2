#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, on short runs of each workload.

Run from the root of a checkout (builds e2ebench first if needed):

    python3 e2ebench/test_e2ebench.py

Checks that every metric BENCHMARK.json names is printed with its unit and
a well-formed name, that a traced run's spans nest and their self times
fit in the wall time, that count metrics and kernel_tflops repeat exactly
for a seed, that one deliberately corrupted output is counted as a
failure, that the benchmark refuses to run where it cannot be valid, and
that the compiler defect serve's traffic steps around still shows.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SCRATCH = ROOT / ".bench_build" / "test"
TRACES = ROOT / ".bench_build" / "traces"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 5
SECONDS = "0.5"
# Metrics a seed fixes exactly (counts over a seed-fixed prefix of work).
DETERMINISTIC = ["pass.rewrites", "pass.ops_after", "sim.racy_kernels",
                 "tuner.rounds", "tuner.pipelines_run", "tuner.pruned",
                 "tuner.cost_cache_hits", "tuner.quarantined",
                 "tuner.compile_errors", "lowered.instances",
                 "lowered.stalls", "emit.bytes", "sim.block_cycles"]


def run(workload, trace, *extra, env=None, script=RUN):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
         *extra],
        cwd=script.parent.parent, capture_output=True, text=True, env=env,
        timeout=600)
    return done


def result(done):
    if done.returncode != 0:
        raise AssertionError(f"run failed ({done.returncode}):\n"
                             f"{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class WorkloadRuns:
    """Runs each workload once per configuration and caches the results."""
    cache = {}

    @classmethod
    def get(cls, workload, trace, repeat=0, *extra):
        key = (workload, trace, repeat, extra)
        if key not in cls.cache:
            cls.cache[key] = result(run(workload, trace, *extra))
        return cls.cache[key]


class BenchmarkTest(unittest.TestCase):
    workloads = [w["name"] for w in BENCHMARK["workloads"]]

    def check_shape(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertGreaterEqual(res["attempted"], 1)
        # A subtest, so a failing output still lets the shape be checked.
        with self.subTest(check="no failures"):
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in declared])
        for metric in declared:
            self.assertRegex(metric["name"], NAME)
            printed = res["metrics"][metric["name"]]
            self.assertEqual(set(printed), {"value", "unit"})
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_every_metric_printed_with_its_unit(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                untraced = WorkloadRuns.get(workload, 0)
                self.check_shape(untraced, BENCHMARK["end_to_end"])
                for name, metric in untraced["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.check_shape(WorkloadRuns.get(workload, 1),
                                 BENCHMARK["per_layer"])

    def test_spans_nest_and_self_times_fit_the_wall(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                WorkloadRuns.get(workload, 1)
                trace = json.loads(
                    (TRACES / f"{workload}-seed{SEED}.json").read_text())
                threads = {}
                for event in trace["traceEvents"]:
                    threads.setdefault(event["tid"], {})[
                        event["args"]["id"]] = event
                self.assertTrue(threads)
                for spans in threads.values():
                    child_time = {}
                    for span in spans.values():
                        parent = span["args"]["parent"]
                        if parent < 0:
                            continue
                        outer = spans[parent]
                        # Timestamps are printed to the nanosecond.
                        self.assertGreaterEqual(span["ts"] + 1e-3,
                                                outer["ts"])
                        self.assertLessEqual(
                            span["ts"] + span["dur"],
                            outer["ts"] + outer["dur"] + 1e-3)
                        child_time[parent] = (child_time.get(parent, 0.0)
                                              + span["dur"])
                    self_times = [s["dur"] - child_time.get(i, 0.0)
                                  for i, s in spans.items()]
                    self.assertGreaterEqual(min(self_times), -1e-3)
                    wall = (max(s["ts"] + s["dur"] for s in spans.values())
                            - min(s["ts"] for s in spans.values()))
                    self.assertLessEqual(sum(self_times), wall + 1e-3)

    def test_unattributed_time_is_small(self):
        for workload in ("serve", "verify"):
            with self.subTest(workload=workload):
                metrics = WorkloadRuns.get(workload, 1)["metrics"]
                self.assertLessEqual(
                    metrics["trace.unattributed_frac"]["value"], 0.05)

    def test_counts_and_kernel_tflops_repeat_for_a_seed(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first = WorkloadRuns.get(workload, 1)["metrics"]
                second = WorkloadRuns.get(workload, 1, 1)["metrics"]
                for name in DETERMINISTIC:
                    self.assertEqual(first[name], second[name], name)
                self.assertEqual(
                    WorkloadRuns.get(workload, 0)["metrics"]["kernel_tflops"],
                    WorkloadRuns.get(workload, 0, 1)["metrics"]
                    ["kernel_tflops"])

    def test_corrupted_output_is_a_failure(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                res = WorkloadRuns.get(workload, 0, 0, "--inject-corruption")
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)

    def test_unequal_kv_depths_still_race(self):
        """Serve draws attention points with equal K and V pipeline depths
        only, because some unequal-depth points compile into racy kernels
        (NOTES.md, Findings). This run lets them back in and expects the
        races. When it fails because they are gone, the compiler is fixed:
        drop the restriction in Serve.cpp and this test."""
        res = WorkloadRuns.get("serve", 1, 0, "--unequal-kv-depths")
        racy = res["metrics"]["sim.racy_kernels"]["value"]
        self.assertGreater(racy, 0)
        self.assertEqual(res["failed"], 2 * racy)  # untraced + traced window

    def test_refuses_fault_injection_and_ir_dumps(self):
        for var in ("CYPRESS_FAULT_SPEC", "CYPRESS_PRINT_IR_AFTER_ALL"):
            with self.subTest(var=var):
                env = dict(os.environ, **{var: "1"})
                done = run("serve", 0, env=env)
                self.assertNotEqual(done.returncode, 0)
                self.assertEqual(done.stdout.strip(), "")
                self.assertIn(var, done.stderr)

    def test_fails_without_the_library_sources(self):
        alone = SCRATCH / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, alone / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        done = run("serve", 0, script=alone / HERE.name / RUN.name)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
