"""Vectorized batch evaluation of many compositions at once.

This is the HPC path of the framework (hpc-parallel guide: *vectorize
across the independent axis*).  All N candidate compositions share the
same exogenous inputs (load, per-unit generation, carbon intensity); the
only per-candidate state is the battery energy.  So instead of running N
sequential year-simulations, we run **one** time loop whose state is an
N-vector — and, since PR 2, an (S, N) tensor over S scenarios at once:

* per-candidate generation at step t is a two-term linear combination
  (``solar_kw · solar_per_kw[t] + n_turb_eff · wind_per_turbine[t]``) —
  two scalar-by-vector multiplies;
* the battery/grid dispatch *decision* is delegated to a
  :class:`~repro.core.dispatch.VectorizedPolicy` (DESIGN.md §5) — greedy
  self-consumption by default, carbon-/price-aware strategies as
  drop-ins — and the battery advance is one call to
  :func:`repro.sam.batterymodels.clc.clc_step_arrays` with the capacity
  vector — the *same equations* the co-simulated battery uses;
* imports/exports/emissions accumulate into (S, N) tensors in place.

For the paper's 1 089-point exhaustive sweep this is ~400× faster than
looping the co-simulator, while agreeing with it to float tolerance
(see ``tests/test_cross_validation.py``).  The stacked multi-scenario
loop (:func:`evaluate_across_scenarios`) is additionally bit-for-bit
identical to evaluating each scenario serially — every (scenario,
candidate) cell is independent, so stacking cannot change the numbers
(``benchmarks/bench_dispatch.py`` measures the throughput gain).  The
scenario axis is deliberately agnostic about *what* the scenarios are:
paper sites, weather years, or a full cross-product ensemble from
:mod:`repro.core.ensemble` (DESIGN.md §6,
``benchmarks/bench_ensemble.py``) all ride the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..sam.batterymodels.clc import CLCParameters
from ..sam.batterymodels.degradation import DegradationModel
from ..sam.wind.wake import jensen_array_efficiency
from ..units import DAYS_PER_YEAR, SECONDS_PER_HOUR
from .composition import MicrogridComposition
from .dispatch import (
    ISLANDED_EPS_W,
    DispatchResult,
    ScenarioStack,
    VectorizedPolicy,
    run_dispatch,
    stack_scenarios,
)
from .embodied import embodied_carbon_kg
from .metrics import EvaluatedComposition, SimulationMetrics
from .scenario import Scenario

__all__ = [
    "ISLANDED_EPS_W",
    "BatchEvaluator",
    "coverage_grid",
    "evaluate_across_scenarios",
    "evaluate_member_slice",
]


def _candidate_vectors(
    compositions: Sequence[MicrogridComposition],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(solar_kw, wake-adjusted turbine factor, battery capacity) (N,)-vectors."""
    solar_kw = np.array([c.solar_kw for c in compositions], dtype=np.float64)
    turb_eff = np.array(
        [c.n_turbines * jensen_array_efficiency(c.n_turbines) for c in compositions],
        dtype=np.float64,
    )
    capacity_wh = np.array([c.battery_wh for c in compositions], dtype=np.float64)
    return solar_kw, turb_eff, capacity_wh


def _results_from_dispatch(
    stack: ScenarioStack,
    compositions: Sequence[MicrogridComposition],
    solar_kw: np.ndarray,
    turb_eff: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    res: DispatchResult,
) -> list[list[EvaluatedComposition]]:
    """Package accumulated (S, N) flows as per-scenario evaluation lists."""
    dt_h = stack.step_s / SECONDS_PER_HOUR
    t_steps = stack.n_steps
    demand_wh = stack.load_w.sum(axis=1) * dt_h  # (S,)
    gen_total_wh = (
        stack.solar_per_kw_w.sum(axis=1)[:, None] * dt_h * solar_kw
        + stack.wind_per_turbine_w.sum(axis=1)[:, None] * dt_h * turb_eff
    )  # (S, N)
    usable_wh = capacity_wh * (params.soc_max - params.soc_min)
    embodied = [embodied_carbon_kg(c) for c in compositions]
    deg_model = DegradationModel()

    out: list[list[EvaluatedComposition]] = []
    for s, scenario in enumerate(stack.scenarios):
        horizon_days = scenario.horizon_days
        degradation = scenario.battery_degradation
        years = horizon_days / DAYS_PER_YEAR
        if degradation == "rainflow" and res.soc is None:
            raise ConfigurationError(
                "rainflow degradation needs a SoC trace; run the dispatch "
                "with trace_soc=True (evaluate_across_scenarios does this "
                "automatically)"
            )
        row: list[EvaluatedComposition] = []
        for i, comp in enumerate(compositions):
            fade = 0.0
            if degradation is not None and usable_wh[i] > 0.0:
                if degradation == "linear":
                    # Closed form, no trace needed: √t calendar fade plus
                    # equivalent-full-cycle damage at 100 % DoD cost.
                    efc = float(res.discharge_wh[s, i]) / float(usable_wh[i])
                    p = deg_model.params
                    fade = (
                        deg_model.calendar_fade(years)
                        + efc * p.eol_fade / p.cycles_to_failure_full_dod
                    )
                else:  # rainflow
                    fade = deg_model.total_fade(res.soc[s, i], years)
            metrics = SimulationMetrics(
                horizon_days=horizon_days,
                demand_energy_wh=float(demand_wh[s]),
                onsite_generation_wh=float(gen_total_wh[s, i]),
                grid_import_wh=float(res.import_wh[s, i]),
                grid_export_wh=float(res.export_wh[s, i]),
                battery_charge_wh=float(res.charge_wh[s, i]),
                battery_discharge_wh=float(res.discharge_wh[s, i]),
                operational_emissions_kg=float(res.emissions_kg[s, i]),
                battery_usable_wh=float(usable_wh[i]),
                unserved_energy_wh=float(res.unserved_wh[s, i]),
                electricity_cost_usd=float(res.cost_usd[s, i]),
                islanded_fraction=float(res.islanded_steps[s, i]) / t_steps,
                battery_fade=fade,
            )
            row.append(
                EvaluatedComposition(
                    composition=comp, embodied_kg=embodied[i], metrics=metrics
                )
            )
        out.append(row)
    return out


def evaluate_across_scenarios(
    scenarios: Sequence[Scenario],
    compositions: Sequence[MicrogridComposition],
    policy: VectorizedPolicy | None = None,
    battery_params: CLCParameters | None = None,
    initial_soc: float = 0.5,
) -> list[list[EvaluatedComposition]]:
    """Evaluate the full N-candidates × S-scenarios tensor in one time loop.

    Returns one evaluation list per scenario (``result[s][i]`` pairs
    ``scenarios[s]`` with ``compositions[i]``).  Results are bit-for-bit
    identical to running :class:`BatchEvaluator` per scenario — every
    (scenario, candidate) cell is an independent column of the stacked
    loop — while amortizing the Python-level time loop across all
    scenarios (DESIGN.md §5).
    """
    if not compositions:
        return [[] for _ in scenarios]
    stack = stack_scenarios(scenarios)
    solar_kw, turb_eff, capacity_wh = _candidate_vectors(compositions)
    params = battery_params or CLCParameters(capacity_wh=1.0)
    # Rainflow degradation (DESIGN.md §11) counts cycles off the SoC
    # trace, so those scenarios force trace mode (recorded on the segments
    # engine, bit-equal to the loop's trace).
    needs_trace = any(s.battery_degradation == "rainflow" for s in scenarios)
    res = run_dispatch(
        stack,
        solar_kw,
        turb_eff,
        capacity_wh,
        params,
        initial_soc=initial_soc,
        policy=policy,
        trace_soc=needs_trace,
    )
    return _results_from_dispatch(
        stack, compositions, solar_kw, turb_eff, capacity_wh, params, res
    )


def evaluate_member_slice(
    scenarios: Sequence[Scenario],
    member_indices: Sequence[int],
    compositions: Sequence[MicrogridComposition],
    policy: VectorizedPolicy | None = None,
    battery_params: CLCParameters | None = None,
    initial_soc: float = 0.5,
) -> list[list[EvaluatedComposition]]:
    """Evaluate a *member slice* of a scenario ensemble (DESIGN.md §8).

    The partial-stack primitive of the racing engine: the same (S, N)
    tensor loop as :func:`evaluate_across_scenarios`, run over only the
    ensemble members named by ``member_indices``.  Because every
    (scenario, candidate) cell of the stacked loop is independent, the
    results are bit-for-bit the rows of a full-stack evaluation — a rung
    can therefore be filled incrementally, member subset by member
    subset, and the finalists' full-ensemble values are identical to a
    never-raced evaluation.

    Returns one evaluation list per *slice position*:
    ``result[j][i]`` pairs ``scenarios[member_indices[j]]`` with
    ``compositions[i]``.
    """
    indices = [int(j) for j in member_indices]
    if not indices:
        raise ConfigurationError("member slice needs at least one member index")
    if len(set(indices)) != len(indices):
        raise ConfigurationError(f"duplicate member indices: {indices}")
    for j in indices:
        if not 0 <= j < len(scenarios):
            raise ConfigurationError(
                f"member index {j} out of range for {len(scenarios)} scenarios"
            )
    return evaluate_across_scenarios(
        [scenarios[j] for j in indices],
        compositions,
        policy=policy,
        battery_params=battery_params,
        initial_soc=initial_soc,
    )


@dataclass
class BatchEvaluator:
    """Evaluates batches of compositions against one scenario.

    ``policy`` selects the dispatch strategy (DESIGN.md §5); ``None``
    means the paper's greedy self-consumption
    (:class:`~repro.core.dispatch.DefaultDispatch`).
    """

    scenario: Scenario
    battery_params: CLCParameters = field(
        default_factory=lambda: CLCParameters(capacity_wh=1.0)
    )
    initial_soc: float = 0.5
    policy: VectorizedPolicy | None = None

    def evaluate(
        self, compositions: Sequence[MicrogridComposition]
    ) -> list[EvaluatedComposition]:
        """Simulate all compositions over the scenario horizon."""
        if not compositions:
            return []
        return evaluate_across_scenarios(
            [self.scenario],
            compositions,
            policy=self.policy,
            battery_params=self.battery_params,
            initial_soc=self.initial_soc,
        )[0]

    def evaluate_one(self, composition: MicrogridComposition) -> EvaluatedComposition:
        """Evaluate a single composition (N=1 batch)."""
        return self.evaluate([composition])[0]

    def soc_histories(
        self, compositions: Sequence[MicrogridComposition]
    ) -> np.ndarray:
        """Per-step SoC traces, shape ``(n_steps + 1, N)``.

        Runs the dispatch engine in trace mode: one vectorized C/L/C
        step per hour for *all* compositions, instead of the historical
        per-composition scalar loop.
        """
        stack = stack_scenarios([self.scenario])
        solar_kw, turb_eff, capacity_wh = _candidate_vectors(compositions)
        res = run_dispatch(
            stack,
            solar_kw,
            turb_eff,
            capacity_wh,
            self.battery_params,
            initial_soc=self.initial_soc,
            policy=self.policy,
            trace_soc=True,
        )
        return res.soc[0].T  # (N, T+1) → (T+1, N)

    def soc_history(self, composition: MicrogridComposition) -> np.ndarray:
        """Hourly SoC trace of one composition (degradation analyses)."""
        if composition.battery_wh <= 0:
            return np.zeros(self.scenario.n_steps + 1)
        return self.soc_histories([composition])[:, 0]


def coverage_grid(
    scenario: Scenario,
    solar_kw_levels: Sequence[float],
    n_turbine_levels: Sequence[int],
    chunk_steps: int = 2_048,
) -> np.ndarray:
    """Coverage matrix over (solar, wind) without batteries — Figure 4.

    Fully vectorized: with no storage the coverage of every combination
    follows from ``min(load, generation)`` summed over time, computed as
    one broadcast over a (T, n_solar, n_wind) tensor in chunks of
    ``chunk_steps`` timesteps, bounding peak memory on long horizons and
    dense level grids to O(chunk_steps × n_solar) per wind level.
    """
    sc = scenario
    solar_levels = np.asarray(list(solar_kw_levels), dtype=np.float64)
    turb_levels = np.asarray(list(n_turbine_levels), dtype=np.float64)
    if chunk_steps <= 0:
        raise ConfigurationError(f"chunk_steps must be positive, got {chunk_steps}")
    eff = np.array([jensen_array_efficiency(int(k)) for k in turb_levels])
    load = sc.workload.power_w
    demand = load.sum()
    t_steps = load.size

    coverage = np.empty((solar_levels.size, turb_levels.size))
    for j, (k, e) in enumerate(zip(turb_levels, eff)):
        wind_profile = sc.wind_per_turbine_w * (k * e)  # (T,)
        served = np.zeros(solar_levels.size)
        for start in range(0, t_steps, chunk_steps):
            stop = min(start + chunk_steps, t_steps)
            # direct (no-storage) supply: elementwise min of load and generation
            gen = (
                sc.solar_per_kw_w[start:stop, None] * solar_levels[None, :]
                + wind_profile[start:stop, None]
            )
            served += np.minimum(gen, load[start:stop, None]).sum(axis=0)
        coverage[:, j] = served / demand
    return coverage
