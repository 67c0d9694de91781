"""Fidelity-ladder racing: cheap physics screens, full physics certifies.

The perf point of the fidelity ladder (DESIGN.md §11): on a 10-member
Houston ensemble (five weather years × two dunkelflaute severities), a
363-candidate sweep raced up ``fidelity=lo,mid,full`` × ``rungs=3,full``
must

* reproduce the ladder-top (perez + sapm + rainflow) Pareto front
  **bit-identically** — the envelope-widened domination proofs guarantee
  it, this bench *verifies* it;
* spend at least 2× fewer *full-physics* member evaluations than
  evaluating every candidate at full physics — a deterministic work
  metric, asserted unconditionally (calibration probes and the rescue
  races are charged against the ladder, not excused);
* add no pathological wall-clock overhead over the one-shot full
  sweep — asserted behind the opt-in ``bench`` marker (wall-clock is
  noisy on loaded single-CPU boxes), and included in every ``make
  bench`` pass.  The in-process dispatch kernel costs the same at
  every fidelity level, so the ladder's wall-clock is a wash *here*;
  the saved full-physics evals are the win wherever the ladder-top
  rung is the expensive one (e.g. co-simulation).

Machine-readable headlines land in ``benchmarks/output/BENCH_fidelity.json``
for ``check_regression.py``; the headline number is
``full_evals_saved_factor`` — full-physics member-evals the ladder
avoided, as a multiple of the work it did pay.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.ensemble import EnsembleSpec, build_ensemble, evaluate_ensemble
from repro.core.fidelity import FidelityLadder, fidelity_race_front, sibling_stack
from repro.core.pareto import pareto_front
from repro.core.parameterspace import ParameterSpace
from repro.core.racing import RungSchedule

#: 10 members: 5 weather years × 2 dunkelflaute severities, three weeks
#: each.  Moderate on purpose — the rainflow SoC trace of the reference
#: full-physics sweep is O(candidates × members × steps) memory.
ENSEMBLE_SPEC = EnsembleSpec.parse(
    "years=2020-2024,severity=1.0:1.5",
    sites=("houston",),
    n_hours=24 * 21,
)

#: 11 turbine × 11 solar × 3 battery levels = 363 candidates.
SPACE = ParameterSpace(max_turbines=10, max_solar_increments=10, max_battery_units=2)

LADDER = FidelityLadder.parse("fidelity=lo,mid,full")
SCHEDULE = RungSchedule.parse("rungs=3,full")
AGGREGATE = "worst"


@pytest.fixture(scope="module")
def ensemble():
    return build_ensemble(ENSEMBLE_SPEC)


def _front_key(front):
    return {(e.composition, e.objectives()) for e in front}


def _time_both(ensemble, comps):
    full_stack = sibling_stack(ensemble, "full")
    start = time.perf_counter()
    full = evaluate_ensemble(full_stack, comps, aggregate=AGGREGATE)
    t_full = time.perf_counter() - start

    start = time.perf_counter()
    laddered_front, outcome = fidelity_race_front(
        ensemble, comps, ladder=LADDER, schedule=SCHEDULE, aggregate=AGGREGATE
    )
    t_laddered = time.perf_counter() - start
    return full, t_full, laddered_front, t_laddered, outcome


def test_fidelity_front_bit_identical_with_2x_fewer_full_evals(ensemble, output_dir):
    comps = SPACE.all_compositions()
    full, t_full, laddered_front, t_laddered, outcome = _time_both(ensemble, comps)

    assert _front_key(pareto_front(full)) == _front_key(laddered_front), (
        "fidelity-raced Pareto front differs from the full-physics front"
    )

    stats = outcome.stats
    assert stats.savings >= 2.0, (
        f"fidelity ladder only cut full-physics member-evals {stats.savings:.2f}x "
        f"({stats.member_evals} of {stats.full_member_evals})"
    )
    assert stats.screened > 0, (
        "no candidate was screened at cheap physics — the ladder is vacuous"
    )

    n_steps = ensemble[0].n_steps
    speedup = t_full / t_laddered if t_laddered > 0 else float("inf")
    saved_factor = stats.savings
    report = (
        f"fidelity benchmark ({len(comps)} candidates x {len(ensemble)} members "
        f"x {n_steps} steps, {LADDER.spec_string()} x {SCHEDULE.spec_string()}, "
        f"aggregate={AGGREGATE}):\n"
        f"  full physics        : {t_full:6.2f} s "
        f"({stats.full_member_evals} member-evals)\n"
        f"  fidelity-laddered   : {t_laddered:6.2f} s "
        f"({stats.member_evals} full + {stats.low_fidelity_evals} cheap member-evals)\n"
        f"  full-evals saved    : {saved_factor:.2f}x "
        f"({stats.screened} of {stats.candidates} candidates screened "
        f"entirely at cheap physics)\n"
        f"  pruned / promoted   : {stats.pruned} / {stats.promoted_back}\n"
        f"  wall-clock speedup  : {speedup:5.2f}x\n"
        f"  front bit-identical : yes ({len(laddered_front)} points)\n"
    )
    print("\n" + report)
    (output_dir / "fidelity_ladder.txt").write_text(report)
    (output_dir / "BENCH_fidelity.json").write_text(
        json.dumps(
            {
                "fidelity": {
                    "generated_by": "benchmarks/bench_fidelity.py",
                    "config": {
                        "candidates": len(comps),
                        "members": len(ensemble),
                        "steps": n_steps,
                        "ladder": LADDER.spec_string(),
                        "schedule": SCHEDULE.spec_string(),
                        "aggregate": AGGREGATE,
                    },
                    "member_evals": stats.member_evals,
                    "full_member_evals": stats.full_member_evals,
                    "low_fidelity_evals": stats.low_fidelity_evals,
                    "full_evals_saved_factor": round(saved_factor, 2),
                    "screened": stats.screened,
                    "pruned": stats.pruned,
                    "promoted_back": stats.promoted_back,
                    "full_seconds": round(t_full, 3),
                    "laddered_seconds": round(t_laddered, 3),
                    "wallclock_speedup": round(speedup, 2),
                    "front_size": len(laddered_front),
                    "front_bit_identical": True,
                }
            },
            indent=2,
        )
        + "\n"
    )


@pytest.mark.bench
def test_fidelity_wallclock_overhead_bounded(ensemble):
    """Screening + calibration + rescue must not swamp the evaluation:
    the laddered pass stays within 1.5× of the one-shot full sweep."""
    comps = SPACE.all_compositions()
    _time_both(ensemble, comps)  # warm caches and the allocator
    _, t_full, _, t_laddered, _ = _time_both(ensemble, comps)
    ratio = t_laddered / t_full if t_full > 0 else 0.0
    assert ratio <= 1.5, (
        f"fidelity ladder overhead {ratio:.2f}x the full sweep "
        f"({t_full:.2f}s full, {t_laddered:.2f}s laddered)"
    )
