#!/usr/bin/env python3
"""Builds and runs the Cypress end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload serve|tune|verify --seed N \
        --seconds S --trace 0|1

The first run configures and builds e2ebench (a CMake project of its own
that compiles the library from ../src) into .bench_build/e2ebench; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Its metrics are checked
against BENCHMARK.json and printed in the order declared there: a traced
run's per-layer metrics that a workload's layers do not produce read 0. A
traced run also writes a Chrome trace to
.bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
# A run must end within 180 s; leave the rest for start-up and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Either variable makes the library a different program (injected faults,
# IR dumps after every pass), so a timed run refuses to start under them.
REFUSED_ENV = ("CYPRESS_FAULT_SPEC", "CYPRESS_PRINT_IR_AFTER_ALL")


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / "e2ebench"


def declared_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    return spec["per_layer" if trace == "1" else "end_to_end"]


def no_duplicates(pairs):
    names = [name for name, _ in pairs]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"metric {name} reported twice")
    return dict(pairs)


def complete(result, declared, trace):
    """Orders the result's metrics as declared. Unknown names and wrong
    units are errors; a missing per-layer metric is a layer the workload
    does not run and reads 0, a missing end-to-end metric is an error."""
    printed = result["metrics"]
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = printed.pop(name, None)
        if value is None:
            if trace != "1":
                fail(f"metric {name} was not reported")
            value = {"value": 0.0, "unit": unit}
        if value["unit"] != unit:
            fail(f"metric {name} reported in {value['unit']}, not {unit}")
        metrics[name] = value
    if printed:
        fail(f"metric {next(iter(printed))} is not declared in "
             "BENCHMARK.json")
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "tune", "verify"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--inject-corruption", action="store_true",
                        help="test hook: corrupt one checked output")
    parser.add_argument("--unequal-kv-depths", action="store_true",
                        help="test hook: let serve draw attention points "
                             "whose K and V pipeline depths differ")
    args = parser.parse_args()

    for var in REFUSED_ENV:
        if var in os.environ:
            fail(f"refusing to time a run with {var} set; unset it and run "
                 "again")

    declared = declared_metrics(args.trace)
    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.inject_corruption:
        command.append("--inject-corruption")
    if args.unequal_kv_depths:
        command.append("--unequal-kv-depths")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(done.returncode)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except (IndexError, ValueError) as err:
        fail(f"no result from the run: {err}")
    print(json.dumps(complete(result, declared, args.trace)))


if __name__ == "__main__":
    main()
