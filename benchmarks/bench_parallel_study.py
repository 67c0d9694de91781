"""Parallel + persistent study subsystem at paper scale (DESIGN.md §3–§4).

Two protocols:

1. **Parallel speedup** — fan co-simulated trials (the paper's >24 h
   evaluation path, ~0.4 s/trial here) across 4 worker processes via
   :class:`PipelinedDispatcher` (``speculate=0``) and compare
   wall-clock against its serial executor.  Results must be
   bit-identical either way (sampling stays in the parent); the ≥2×
   speedup assertion only runs on machines that actually have ≥4 CPUs
   — on fewer cores the bench still verifies determinism and reports
   the measured timing.

2. **Kill-and-resume at full scale** — the paper's 350-trial NSGA-II
   protocol, journaled, killed mid-run (journal left with metadata
   targeting 350 but only 175 trials finished — exactly what a
   ``kill -9`` leaves behind), then resumed through the *CLI*
   (``repro study resume``).  The resumed journal must contain the
   identical 350 trials, and the identical final Pareto front, as the
   uninterrupted run.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.blackbox import (
    JournalStorage,
    NSGA2Sampler,
    PipelinedDispatcher,
    create_study,
)
from repro.blackbox.multiobjective import pareto_front_indices
from repro.blackbox.trial import TrialState
from repro.cli import main as cli_main
from repro.core.parameterspace import PAPER_SPACE
from repro.core.study_runner import CompositionObjective, OptimizationRunner
from repro.units import PERLMUTTER_MEAN_POWER_W

N_WORKERS = 4
N_COSIM_TRIALS = 16

N_TRIALS = 350  # the paper's §4.4 protocol
POPULATION = 50
SEED = 42
KILL_AFTER = 175


def _run_cosim_study(houston, executor, workers=1):
    study = create_study(
        directions=["minimize", "minimize"],
        sampler=NSGA2Sampler(population_size=N_COSIM_TRIALS, seed=SEED),
        study_name="parallel-bench",
    )
    dispatcher = PipelinedDispatcher(
        study,
        _space_distributions(),
        workers=workers,
        executor=executor,
        speculate=0,
        batch_size=N_COSIM_TRIALS,
    )
    objective = CompositionObjective(houston, cosim=True)
    start = time.perf_counter()
    dispatcher.optimize(objective, n_trials=N_COSIM_TRIALS)
    elapsed = time.perf_counter() - start
    return study, elapsed


def _space_distributions():
    from repro.blackbox.distributions import IntDistribution

    return {
        "n_turbines": IntDistribution(0, PAPER_SPACE.max_turbines),
        "solar_increments": IntDistribution(0, PAPER_SPACE.max_solar_increments),
        "battery_units": IntDistribution(0, PAPER_SPACE.max_battery_units),
    }


def test_parallel_study_speedup(houston, output_dir):
    serial_study, t_serial = _run_cosim_study(houston, "serial")
    parallel_study, t_parallel = _run_cosim_study(houston, "process", N_WORKERS)

    # Determinism holds on any machine: worker count must not change results.
    assert [t.params for t in serial_study.trials] == [
        t.params for t in parallel_study.trials
    ]
    assert [t.values for t in serial_study.trials] == [
        t.values for t in parallel_study.trials
    ]

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    report = (
        f"parallel study benchmark ({N_COSIM_TRIALS} co-simulated trials, Houston, full year):\n"
        f"  serial              : {t_serial:6.2f} s\n"
        f"  {N_WORKERS} workers           : {t_parallel:6.2f} s\n"
        f"  wall-clock speedup  : {speedup:5.2f}x\n"
        f"  machine CPU count   : {os.cpu_count()}\n"
    )
    print("\n" + report)
    (output_dir / "parallel_study.txt").write_text(report)

    if (os.cpu_count() or 1) >= N_WORKERS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup at {N_WORKERS} workers, got {speedup:.2f}x"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >={N_WORKERS} CPUs, machine has "
            f"{os.cpu_count()} (measured {speedup:.2f}x; determinism verified)"
        )


def _journal_front(path, name="houston-blackbox"):
    stored = JournalStorage(path).load_study(name)
    completed = [t for t in stored.trials if t.state == TrialState.COMPLETE]
    values = np.array([t.values for t in completed])
    front = pareto_front_indices(values)
    return (
        sorted(tuple(sorted(completed[i].params.items())) for i in front),
        [t.params for t in completed],
        [t.values for t in completed],
    )


def test_350_trial_kill_and_resume_via_cli(houston, output_dir, tmp_path):
    full_journal = str(tmp_path / "full.jsonl")
    killed_journal = str(tmp_path / "killed.jsonl")

    # Uninterrupted reference run, through the CLI.
    assert (
        cli_main(
            ["study", "run", "--journal", full_journal, "--site", "houston",
             "--trials", str(N_TRIALS), "--population", str(POPULATION),
             "--seed", str(SEED)]
        )
        == 0
    )

    # The "killed" run: journal metadata targets 350 trials but only 175
    # made it to disk — the exact state a kill -9 mid-run leaves behind.
    OptimizationRunner(houston).run_blackbox(
        n_trials=KILL_AFTER,
        sampler=NSGA2Sampler(population_size=POPULATION, seed=SEED),
        storage=JournalStorage(killed_journal),
        study_name="houston-blackbox",
        # The metadata `study run` writes before the first trial — all of
        # it is required by `study resume`, which refuses to guess.
        metadata={"site": "houston", "sites": ["houston"], "policy": "default",
                  "aggregate": "worst", "year": 2024, "n_hours": 8_760,
                  "mean_power_mw": PERLMUTTER_MEAN_POWER_W / 1e6,
                  "n_trials": N_TRIALS, "population": POPULATION, "seed": SEED},
    )

    # Resume through the CLI: scenario + search config come from metadata.
    assert cli_main(["study", "resume", "--journal", killed_journal]) == 0

    front_full, params_full, values_full = _journal_front(full_journal)
    front_resumed, params_resumed, values_resumed = _journal_front(killed_journal)
    assert len(params_resumed) == N_TRIALS
    assert params_resumed == params_full
    assert values_resumed == values_full
    assert front_resumed == front_full

    report = (
        f"kill-and-resume at paper scale (NSGA-II, {N_TRIALS} trials, pop. {POPULATION}):\n"
        f"  killed after        : {KILL_AFTER} trials\n"
        f"  resumed trials      : {len(params_resumed)}\n"
        f"  final front size    : {len(front_resumed)}\n"
        f"  front identical     : {front_resumed == front_full}\n"
    )
    print("\n" + report)
    (output_dir / "kill_and_resume.txt").write_text(report)
