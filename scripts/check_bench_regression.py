#!/usr/bin/env python3
"""Gate benchmark wall times against the committed bench/baselines snapshot.

Usage: check_bench_regression.py <baseline_dir> <fresh_dir> [tolerance]

Loads each BENCH_*.json that exists in both directories, extracts its
wall-time metrics, and fails (exit 1) when any fresh value exceeds the
baseline by more than `tolerance` (default 0.25 = +25%, overridable by the
third argument or the CYPRESS_BENCH_TOLERANCE environment variable).

The baselines were recorded on one machine and CI lands on another, so raw
ratios mix code regressions with hardware speed. To factor the hardware
out, every ratio is normalized by the smallest ratio observed across all
gated metrics (clamped to >= 1): a slower runner slows compile passes and
simulator runs roughly uniformly, while a code regression moves some
metrics and not others. The gated set spans two independent subsystems
(simulator us_per_run and compiler pipeline totals), so the blind spot —
one change slowing both subsystems by the same factor — is far rarer than
runner drift. Getting *faster* never fails; refresh the snapshot (re-run the
benches with CYPRESS_BENCH_JSON=bench/baselines and commit) when an
intentional change moves the numbers, in either direction, so the gate
keeps teeth.
"""

import json
import os
import sys


def metrics_sim_hotpath(doc):
    # us_per_run values sit below the noise floor numerically, but each is
    # an average over batches of 200 runs (10+ ms measured, best of 5
    # batches) — the most stable metrics in the suite and the ones guarding
    # the simulator hot path. Gate them explicitly.
    for kernel in doc.get("kernels", []):
        yield f"kernel {kernel['kernel']} us_per_run", (
            kernel["us_per_run"], True)
    sweep = doc.get("sweep")
    if sweep:
        # The sweep is recorded warmup-plus-best-of-N (BenchUtil.h's shared
        # quiet-window methodology), which makes its wall time and summed
        # per-kernel simulation time stable enough to gate: they guard the
        # end-to-end tuning path (session + tuner + compile + simulate)
        # that the per-run metrics above cannot see.
        yield "sweep wall_ms", (sweep["wall_ms"], True)
        if "sim_us" in sweep:
            yield "sweep sim_us", (sweep["sim_us"], True)
        if "compile_us" in sweep:
            # Summed per-candidate compile times inflate under worker-pool
            # contention independent of code changes; report only.
            yield "sweep compile_us", (sweep["compile_us"], False)
    guided = doc.get("guided")
    if guided:
        # The tune-sized guided sample and its expansion share: reported,
        # not gated, until repeated runs show how widely they spread.
        yield "guided us_per_run", (guided["us_per_run"], False)
        yield "guided expand_us", (guided["expand_us"], False)


def metrics_compile_time(doc):
    # Warmup-plus-best-of-N single-threaded pipeline totals. Explicitly
    # gated even below the generic noise floor: PR 5's worklist mid-end
    # pushed the gemm total under 100us, and these are the metrics that
    # keep that speedup from being silently given back.
    for kernel in doc.get("kernels", []):
        yield f"kernel {kernel['kernel']} total_us", (
            kernel["total_us"], True)


def metrics_autotune(doc):
    # Summed per-candidate times are measured under worker-pool concurrency
    # and inflate with contention as core count grows, independent of code
    # changes — report them for the log, never gate on them.
    for sweep in doc.get("sweeps", []):
        stats = sweep.get("stats", {})
        if "sim_us_total" in stats:
            yield (f"sweep {sweep['kernel']} sim_us_total",
                   (stats["sim_us_total"], False))
        compile_us = sum(
            row.get("compile_us", 0.0) for row in sweep.get("candidates", [])
        )
        if compile_us:
            yield f"sweep {sweep['kernel']} compile_us", (compile_us, False)


def metrics_autotune_guided(doc):
    # The guided search is deterministic and simulated: the best-found
    # TFLOP/s at the largest budget must reproduce *exactly* on any
    # machine at any worker count, so it is gated with the "exact"
    # convention — raw comparison, no drift normalization, zero
    # tolerance. Gated as inverse throughput so that a drop in TFLOP/s
    # shows up as a ratio above 1 like every wall-time regression. The
    # per-budget wall-clock curves are single-shot search walls measured
    # under worker-pool concurrency — report only.
    for kernel in doc.get("kernels", []):
        runs = kernel.get("runs", [])
        if not runs:
            continue
        largest = max(runs, key=lambda run: run.get("budget_evals", 0))
        best = largest.get("best") or {}
        if best.get("tflops"):
            yield (f"guided {kernel['kernel']} best inverse-tflops",
                   (1e6 / best["tflops"], True, "exact"))
        for run in runs:
            curve = run.get("curve", [])
            if curve:
                yield (f"guided {kernel['kernel']} "
                       f"budget{run.get('budget_evals', 0)} wall_ms",
                       (curve[-1]["ms"], False))


def metrics_emit(doc):
    # Emission is a one-shot latency (~20us per kernel, best of 5 batches
    # of 200): stable enough to report, but a string-building loop is much
    # more allocator-sensitive than the simulator hot path, so keep it
    # informational rather than gated.
    for kernel in doc.get("kernels", []):
        yield f"kernel {kernel['kernel']} us_per_emit", (
            kernel["us_per_emit"], False)


EXTRACTORS = {
    "BENCH_sim_hotpath.json": metrics_sim_hotpath,
    "BENCH_compile_time.json": metrics_compile_time,
    "BENCH_autotune.json": metrics_autotune,
    "BENCH_autotune_guided.json": metrics_autotune_guided,
    "BENCH_emit.json": metrics_emit,
}

# Sub-100us single-shot metrics are dominated by timer and scheduler
# noise; a relative gate on them would flake, so metrics without an
# explicit gate flag are only gated above this floor. Extractors that know
# a metric integrates many runs tag it (value, True) to gate regardless.
NOISE_FLOOR_US = 100.0


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    baseline_dir, fresh_dir = sys.argv[1], sys.argv[2]
    tolerance = float(
        sys.argv[3]
        if len(sys.argv) > 3
        else os.environ.get("CYPRESS_BENCH_TOLERANCE", "0.25")
    )

    rows = []  # (file, key, baseline, fresh, ratio, gated, exact)
    failures = []
    for name, extract in EXTRACTORS.items():
        baseline_path = os.path.join(baseline_dir, name)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(baseline_path) or not os.path.exists(fresh_path):
            print(f"-- {name}: skipped (missing on one side)")
            continue
        with open(baseline_path) as f:
            baseline = dict(extract(json.load(f)))
        with open(fresh_path) as f:
            fresh = dict(extract(json.load(f)))
        for key, entry in baseline.items():
            if not isinstance(entry, tuple):
                entry = (entry, None)
            base_value, forced = entry[0], entry[1]
            # Third tuple element "exact" marks a deterministic metric:
            # gated raw (no drift division, no tolerance band) and kept
            # out of the drift estimate, where its guaranteed 1.00x would
            # masquerade as a perfectly quiet machine.
            exact = len(entry) > 2 and entry[2] == "exact"
            if key not in fresh:
                failures.append(f"{name}: {key} missing from fresh run")
                continue
            value = fresh[key]
            if isinstance(value, tuple):
                value = value[0]
            ratio = value / base_value if base_value else float("inf")
            if forced is None:
                # wall_ms metrics are milliseconds; normalize for the floor.
                in_us = base_value * (1000.0 if key.endswith("_ms") else 1.0)
                gated = in_us >= NOISE_FLOOR_US
            else:
                gated = forced
            rows.append((name, key, base_value, value, ratio, gated, exact))

    if not rows:
        print("error: no benchmark metrics compared")
        return 2

    # Machine-drift estimate: the least-regressed gated metric. A uniformly
    # slower runner lifts this along with everything else; a code change
    # does not.
    gated_ratios = [r[4] for r in rows if r[5] and not r[6]]
    drift = max(1.0, min(gated_ratios)) if gated_ratios else 1.0
    if drift > 1.0:
        print(f"-- machine-drift normalization: dividing ratios by "
              f"{drift:.2f} (slowest-common factor across metrics)")

    for name, key, base_value, value, ratio, gated, exact in rows:
        adjusted = ratio if exact else ratio / drift
        # Exact metrics allow only float-formatting slack; everything else
        # gets the configured tolerance band.
        limit = 1.0 + (1e-9 if exact else tolerance)
        verdict = "ok"
        if adjusted > limit:
            if gated:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {key} regressed {base_value:.3g} -> "
                    f"{value:.3g} ({ratio:.2f}x raw, {adjusted:.2f}x "
                    f"drift-adjusted, limit {limit:.2f}x)"
                )
            else:
                verdict = "informational (not gated)"
        print(
            f"   {name}: {key}: {base_value:.4g} -> {value:.4g} "
            f"({ratio:.2f}x raw, {adjusted:.2f}x adjusted) "
            f"{'[exact] ' if exact else ''}{verdict}"
        )

    compared = len(rows)
    if failures:
        print(f"\n{len(failures)} wall-time regression(s) beyond "
              f"+{tolerance * 100:.0f}%:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nall {compared} metrics within +{tolerance * 100:.0f}% "
          "of bench/baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
