"""Dispatch-engine throughput: N candidates × S scenarios × any policy.

The first perf-trajectory point for the vectorized dispatch layer
(DESIGN.md §5).  Two protocols:

1. **Stacked vs serial** — evaluate the paper's full 1 089-candidate
   space against both paper scenarios, once as two serial
   ``BatchEvaluator`` sweeps and once as a single stacked 2 × 1 089
   time loop.  The stacked results must match the serial ones
   *bit-for-bit* (each (scenario, candidate) cell is an independent
   column), and the bench records the candidate·scenario·step
   throughput plus the wall-clock speedup of amortizing the Python
   time loop across scenarios.

2. **Policy sweep** — the same tensor under every registered dispatch
   policy, demonstrating that alternative operating strategies now run
   at batch speed instead of the ~400× co-simulation path.

3. **Engine comparison** — the same workload through the reference
   loop (``run_dispatch_loop``) and the segments engine
   (``kernel.run_dispatch_segments``), DESIGN.md §9.  Bitwise equality
   of all eight accumulators is asserted *unconditionally*; the
   cells-per-second headline lands in
   ``benchmarks/output/BENCH_dispatch.json`` for ``check_regression.py``.
   The wall-clock ratio assertion is opt-in (``bench`` marker): on
   low-core CI-class machines the numpy loop is already near
   compute-bound and segments delivers ~2×, so the guarded floor is
   1.5× while the JSON records the 3× target for hosts where
   interpreter overhead dominates.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core import kernel
from repro.core.dispatch import POLICY_NAMES, make_policy, run_dispatch_loop, stack_scenarios
from repro.core.fastsim import (
    BatchEvaluator,
    _candidate_vectors,
    evaluate_across_scenarios,
)
from repro.core.metrics import COMPARABLE_METRIC_FIELDS as METRIC_FIELDS
from repro.core.parameterspace import PAPER_SPACE
from repro.sam.batterymodels.clc import CLCParameters

RESULT_FIELDS = (
    "import_wh",
    "export_wh",
    "charge_wh",
    "discharge_wh",
    "unserved_wh",
    "emissions_kg",
    "cost_usd",
    "islanded_steps",
)

#: speedup-vs-loop targets on hosts where interpreter overhead dominates
ENGINE_TARGETS = {"segments": 3.0}
#: opt-in wall-clock floor for segments on noisy CI-class machines
SEGMENTS_WALLCLOCK_FLOOR = 1.5


def test_stacked_tensor_matches_serial_bit_for_bit(houston, berkeley, output_dir):
    scenarios = [houston, berkeley]
    comps = PAPER_SPACE.all_compositions()

    start = time.perf_counter()
    serial = [BatchEvaluator(sc).evaluate(comps) for sc in scenarios]
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    stacked = evaluate_across_scenarios(scenarios, comps)
    t_stacked = time.perf_counter() - start

    mismatches = 0
    for s in range(len(scenarios)):
        for e_serial, e_stacked in zip(serial[s], stacked[s]):
            for name in METRIC_FIELDS:
                if getattr(e_serial.metrics, name) != getattr(e_stacked.metrics, name):
                    mismatches += 1
    assert mismatches == 0, f"{mismatches} metric values differ from serial evaluation"

    cells = len(comps) * len(scenarios) * houston.n_steps
    speedup = t_serial / t_stacked if t_stacked > 0 else float("inf")
    report = (
        f"dispatch tensor benchmark ({len(comps)} candidates x {len(scenarios)} "
        f"scenarios x {houston.n_steps} steps):\n"
        f"  serial per-scenario : {t_serial:6.2f} s "
        f"({cells / t_serial / 1e6:6.1f} M cell-steps/s)\n"
        f"  stacked tensor      : {t_stacked:6.2f} s "
        f"({cells / t_stacked / 1e6:6.1f} M cell-steps/s)\n"
        f"  stacking speedup    : {speedup:5.2f}x\n"
        f"  bit-for-bit         : yes ({len(METRIC_FIELDS)} metrics x "
        f"{len(comps) * len(scenarios)} evaluations)\n"
    )
    print("\n" + report)
    (output_dir / "dispatch_tensor.txt").write_text(report)

    # Stacking amortizes the Python-level time loop; the load-bearing
    # assertion above is bit-for-bit equality — wall-clock on a busy
    # single-CPU container is noisy, so only guard against a real
    # regression to something slower than per-scenario looping.
    assert speedup > 0.7, f"stacked loop slower than serial ({speedup:.2f}x)"


def test_policy_sweep_throughput(houston, berkeley, output_dir):
    scenarios = [houston, berkeley]
    comps = PAPER_SPACE.all_compositions()
    lines = [
        f"policy sweep ({len(comps)} candidates x {len(scenarios)} scenarios, full year):"
    ]
    for name in POLICY_NAMES:
        policy = make_policy(name, scenarios)
        start = time.perf_counter()
        per_scenario = evaluate_across_scenarios(scenarios, comps, policy=policy)
        elapsed = time.perf_counter() - start
        worst_cov = min(
            e.metrics.coverage for row in per_scenario for e in row[-1:]
        )
        lines.append(
            f"  {name:>14}: {elapsed:6.2f} s   "
            f"(max-buildout worst-site coverage {worst_cov * 100:5.1f} %)"
        )
    report = "\n".join(lines) + "\n"
    print("\n" + report)
    (output_dir / "dispatch_policies.txt").write_text(report)


#: the two dispatch paths, by the names the headline JSON uses
ENGINES = {"loop": run_dispatch_loop, "segments": kernel.run_dispatch_segments}


def _time_engines(houston, berkeley, reps: int = 2):
    """Interleaved engine timing on the paper's full workload.

    Alternating engines inside each repetition cancels slow machine-load
    drift; ``min`` over repetitions discards transient contention.
    """
    stack = stack_scenarios([houston, berkeley])
    comps = PAPER_SPACE.all_compositions()
    solar_kw, turb_eff, capacity_wh = _candidate_vectors(comps)
    params = CLCParameters(capacity_wh=1.0)
    times = {e: [] for e in ENGINES}
    results = {}
    for _ in range(reps):
        for engine, run in ENGINES.items():
            start = time.perf_counter()
            results[engine] = run(stack, solar_kw, turb_eff, capacity_wh, params)
            times[engine].append(time.perf_counter() - start)
    cells = len(comps) * stack.n_scenarios * stack.n_steps
    return stack, comps, results, {e: min(ts) for e, ts in times.items()}, cells


def test_engine_comparison_bit_identical_with_headline(houston, berkeley, output_dir):
    stack, comps, results, best, cells = _time_engines(houston, berkeley)

    # The load-bearing assertion, unconditional: the segments engine
    # reproduces the reference loop bit-for-bit on all 8 accumulators.
    for engine, res in results.items():
        if engine == "loop":
            continue
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(res, name),
                getattr(results["loop"], name),
                err_msg=f"engine {engine!r} field {name!r} not bit-identical",
            )

    speedups = {e: best["loop"] / best[e] for e in best if e != "loop"}
    lines = [
        f"dispatch engine comparison ({len(comps)} candidates x "
        f"{stack.n_scenarios} scenarios x {stack.n_steps} steps):"
    ]
    for engine in best:
        note = (
            ""
            if engine == "loop"
            else f"   ({speedups[engine]:4.2f}x vs loop, target "
            f"{ENGINE_TARGETS[engine]:.0f}x)"
        )
        lines.append(
            f"  {engine:>8}: {best[engine]:6.2f} s "
            f"({cells / best[engine] / 1e6:6.1f} M cell-steps/s){note}"
        )
    lines.append(f"  bit-for-bit: yes ({len(RESULT_FIELDS)} accumulators per engine)")
    report = "\n".join(lines) + "\n"
    print("\n" + report)
    (output_dir / "dispatch_engines.txt").write_text(report)
    (output_dir / "BENCH_dispatch.json").write_text(
        json.dumps(
            {
                "dispatch": {
                    "generated_by": "benchmarks/bench_dispatch.py",
                    "config": {
                        "candidates": len(comps),
                        "scenarios": stack.n_scenarios,
                        "steps": stack.n_steps,
                    },
                    "cells_per_s": {
                        e: round(cells / best[e], 1) for e in best
                    },
                    "speedup_vs_loop": {
                        e: round(v, 2) for e, v in speedups.items()
                    },
                    "speedup_targets": ENGINE_TARGETS,
                    "bit_identical": True,
                }
            },
            indent=2,
        )
        + "\n"
    )


@pytest.mark.bench
def test_segments_engine_wallclock_speedup(houston, berkeley):
    _time_engines(houston, berkeley, reps=1)  # warm caches and the allocator
    _, _, _, best, _ = _time_engines(houston, berkeley)
    ratio = best["loop"] / best["segments"]
    assert ratio >= SEGMENTS_WALLCLOCK_FLOOR, (
        f"segments engine only {ratio:.2f}x faster than the loop "
        f"({best['loop']:.2f}s loop, {best['segments']:.2f}s segments)"
    )
