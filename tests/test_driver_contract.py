"""Cross-driver contract: the pipelined dispatcher against ``run_blackbox``.

At speculation depth 0, ``run_pipelined`` (one candidate per
:class:`~repro.blackbox.parallel.PipelinedDispatcher` slot) breeds every
trial from the same history as ``run_blackbox`` (one vectorized call per
generation).  On the reference loop (the ``loop_dispatch`` fixture)
params, values and states are identical; on the default dispatch path
only params are, because the segments engine's summation order depends
on the batch width (``tests/test_kernel_differential.py`` pins that
defect).
"""

from __future__ import annotations

from repro.blackbox import NSGA2Sampler
from repro.core.parameterspace import ParameterSpace
from repro.core.study_runner import OptimizationRunner

SPACE = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=3)
N_TRIALS = 40
POPULATION = 10
SEED = 42


def trial_rows(result) -> list:
    return [(t.number, dict(t.params), t.values, t.state) for t in result.study.trials]


def run_driver(scenario, driver: str, workers: int = 1):
    """One 40-trial Houston study through ``driver`` on ``memory://``."""
    runner = OptimizationRunner(scenario, space=SPACE)
    kwargs = dict(
        n_trials=N_TRIALS,
        sampler=NSGA2Sampler(population_size=POPULATION, seed=SEED),
        storage="memory://",
        study_name="contract",
    )
    if driver == "blackbox":
        return runner.run_blackbox(**kwargs)
    return runner.run_pipelined(speculate=0, workers=workers, **kwargs)


def test_loop_engine_trials_identical(houston_month, loop_dispatch):
    batched = trial_rows(run_driver(houston_month, "blackbox"))
    piped = trial_rows(run_driver(houston_month, "pipelined"))
    assert len(piped) == N_TRIALS
    assert piped == batched


def test_auto_engine_params_identical(houston_month):
    """On the default dispatch path only params match (module docstring)."""
    batched = trial_rows(run_driver(houston_month, "blackbox"))
    piped = trial_rows(run_driver(houston_month, "pipelined"))
    assert [row[1] for row in piped] == [row[1] for row in batched]
