"""Vectorized dispatch policies: one batched time loop for any strategy.

This is the "operational strategies" seam of the paper (§3.3 — demand
response, carbon-aware scheduling) lifted onto the vectorized fast path
(DESIGN.md §5).  Historically each policy experiment had to run through
the co-simulator (~400× slower, DESIGN.md §2) because the fast path
hard-coded greedy self-consumption; here the dispatch *decision* is a
:class:`VectorizedPolicy` whose :meth:`~VectorizedPolicy.dispatch_arrays`
operates on whole candidate batches at once, so every policy — including
the carbon- and price-aware ones — runs at batch-evaluator speed.

Shapes.  The engine state is an ``(S, N)`` tensor — S scenarios (sites,
weather years) × N candidate compositions — advanced by **one** time
loop: exogenous profiles are stacked ``(S, T)`` arrays
(:class:`ScenarioStack`), per-candidate constants are ``(N,)`` vectors,
and every per-step quantity (net balance, SoC, battery request, grid
flows) is an ``(S, N)`` array.  A policy never sees scalars; it maps the
``(S, N)`` net balance plus the step's price/carbon-intensity column to
an ``(S, N)`` battery *request* which the shared C/L/C physics
(:func:`repro.sam.batterymodels.clc.clc_step_arrays`) then clips.

Equivalence.  Every vectorized policy has a scalar co-simulated twin
(:meth:`VectorizedPolicy.cosim_twin`) driving the same battery equations
through :mod:`repro.cosim.policy`; ``tests/test_cross_validation.py``
pins the two paths together to float tolerance on both paper sites.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..sam.batterymodels.clc import CLCParameters, clc_step_arrays
from ..units import SECONDS_PER_HOUR, WH_PER_KWH

#: grid import below this power (W) counts as "islanded" for the
#: reliability metric — float noise guard at MW scale.
ISLANDED_EPS_W = 1e-3

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cosim.policy import MicrogridPolicy
    from .scenario import Scenario

#: Request sentinel: "charge as fast as the battery physically allows".
#: The C/L/C step clips every request to the tapered C-rate limit and the
#: SoC headroom, so an unbounded request is safe on both paths.
UNLIMITED_CHARGE_W = float(np.inf)


def _threshold_for(value: "float | np.ndarray", scenario_index: int) -> float:
    """Extract the scalar threshold a single-scenario twin should use."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return float(arr)
    return float(arr.reshape(-1)[scenario_index])


class VectorizedPolicy(ABC):
    """Batched dispatch decision: net balance → battery power request.

    Implementations are pure functions of the step inputs (no internal
    state between steps — all state lives in the engine's SoC tensor),
    which is what makes them trivially batchable and picklable for the
    pipelined dispatcher's process pool (DESIGN.md §4).
    """

    #: islanded policies route residual deficits to *unserved* demand
    #: instead of grid import (and export is curtailment).
    islanded: bool = False

    @abstractmethod
    def dispatch_arrays(
        self,
        net_w: np.ndarray,
        soc: np.ndarray,
        prices: "np.ndarray | float",
        ci: "np.ndarray | float",
        t_s: float,
        dt_s: float,
    ) -> np.ndarray:
        """Battery terminal-power request for every (scenario, candidate).

        Parameters
        ----------
        net_w:
            ``(S, N)`` net power balance (production − consumption; + =
            surplus) at this step.
        soc:
            ``(S, N)`` battery state of charge (fraction of nameplate).
        prices:
            ``(S, 1)`` electricity price column ($/kWh) at this step.
        ci:
            ``(S, 1)`` grid carbon-intensity column (g/kWh) at this step.
        t_s / dt_s:
            Step start time and length (seconds).

        Returns the requested battery terminal power (``+`` = charge,
        ``−`` = discharge), broadcastable to ``(S, N)``; the C/L/C step
        clips it to the physical limits, and the remainder is routed to
        the grid (or unserved demand for islanded policies).
        """

    def cosim_twin(self, scenario: "Scenario", scenario_index: int = 0) -> "MicrogridPolicy":
        """The scalar co-simulation policy making identical decisions.

        ``scenario_index`` selects the row of any per-scenario threshold
        arrays (policies built by :func:`make_policy` over several
        scenarios carry ``(S, 1)`` thresholds).
        """
        raise NotImplementedError(f"{type(self).__name__} has no co-simulated twin")


@dataclass(frozen=True)
class DefaultDispatch(VectorizedPolicy):
    """Greedy self-consumption — the paper's operating strategy.

    The battery sees the full net balance as its request: surplus
    charges, deficit discharges, the grid takes the remainder.
    """

    def dispatch_arrays(self, net_w, soc, prices, ci, t_s, dt_s):
        return net_w

    def cosim_twin(self, scenario, scenario_index: int = 0):
        from ..cosim.policy import DefaultPolicy

        return DefaultPolicy()


@dataclass(frozen=True)
class IslandedDispatch(VectorizedPolicy):
    """Off-grid operation: greedy battery use, residual deficit unserved.

    Identical battery request to :class:`DefaultDispatch`; the engine
    routes the residual to unserved demand / curtailment instead of the
    grid (reliability metric, §4.3).
    """

    islanded: bool = True

    def dispatch_arrays(self, net_w, soc, prices, ci, t_s, dt_s):
        return net_w

    def cosim_twin(self, scenario, scenario_index: int = 0):
        from ..cosim.policy import IslandedPolicy

        return IslandedPolicy()


def in_daily_window(t_s: float, start_h: float, end_h: float) -> bool:
    """Whether local hour-of-day of ``t_s`` lies in ``[start_h, end_h)``
    (windows may wrap midnight)."""
    hour = (t_s / SECONDS_PER_HOUR) % 24.0
    if start_h <= end_h:
        return start_h <= hour < end_h
    return hour >= start_h or hour < end_h


@dataclass(frozen=True)
class TimeWindowDispatch(VectorizedPolicy):
    """Discharge only inside a daily window (evening-peak shaving).

    Charging from surplus is always allowed; outside the window deficits
    go straight to the grid and the battery idles.
    """

    discharge_start_h: float = 16.0
    discharge_end_h: float = 22.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.discharge_start_h < 24.0 or not 0.0 < self.discharge_end_h <= 24.0:
            raise ConfigurationError("discharge window hours must lie in [0, 24]")

    def dispatch_arrays(self, net_w, soc, prices, ci, t_s, dt_s):
        if in_daily_window(t_s, self.discharge_start_h, self.discharge_end_h):
            return net_w
        return np.maximum(net_w, 0.0)

    def cosim_twin(self, scenario, scenario_index: int = 0):
        from ..cosim.policy import TimeWindowPolicy

        return TimeWindowPolicy(self.discharge_start_h, self.discharge_end_h)


@dataclass(frozen=True, eq=False)
class CarbonAwareDispatch(VectorizedPolicy):
    """Carbon-aware charge deferral (§3.3 "carbon-aware scheduling").

    Renewable surplus always charges (zero marginal carbon).  During
    deficits the stored charge is *deferred* while the grid is clean:
    the battery discharges only when the step's carbon intensity is at
    or above ``ci_discharge_g_per_kwh``, preserving stored energy for
    the dirtiest hours.  The threshold may be a scalar or an ``(S, 1)``
    per-scenario array (each grid has its own "dirty" level).
    """

    ci_discharge_g_per_kwh: "float | np.ndarray" = 420.0

    def dispatch_arrays(self, net_w, soc, prices, ci, t_s, dt_s):
        dirty = np.asarray(ci) >= self.ci_discharge_g_per_kwh
        return np.where(net_w >= 0.0, net_w, np.where(dirty, net_w, 0.0))

    def cosim_twin(self, scenario, scenario_index: int = 0):
        from ..cosim.policy import CarbonAwarePolicy

        return CarbonAwarePolicy(
            ci_g_per_kwh=scenario.carbon.intensity_g_per_kwh,
            step_s=scenario.step_s,
            ci_discharge_g_per_kwh=_threshold_for(
                self.ci_discharge_g_per_kwh, scenario_index
            ),
        )


@dataclass(frozen=True, eq=False)
class TouArbitrageDispatch(VectorizedPolicy):
    """TOU price arbitrage / peak shaving.

    Three price regimes per step (thresholds scalar or ``(S, 1)``):

    * price ≤ ``charge_price_usd_kwh`` (off-peak): charge as fast as the
      battery allows — surplus first, the grid covers the rest (that is
      the arbitrage buy);
    * price ≥ ``discharge_price_usd_kwh`` (on-peak): greedy dispatch —
      discharge into deficits, shaving the expensive peak;
    * in between: hold — charge from surplus only, never discharge.
    """

    charge_price_usd_kwh: "float | np.ndarray" = 0.10
    discharge_price_usd_kwh: "float | np.ndarray" = 0.20

    def __post_init__(self) -> None:
        if np.any(
            np.asarray(self.charge_price_usd_kwh)
            >= np.asarray(self.discharge_price_usd_kwh)
        ):
            raise ConfigurationError("charge price threshold must be below discharge")

    def dispatch_arrays(self, net_w, soc, prices, ci, t_s, dt_s):
        p = np.asarray(prices)
        cheap = p <= self.charge_price_usd_kwh
        peak = p >= self.discharge_price_usd_kwh
        request = np.where(peak, net_w, np.maximum(net_w, 0.0))
        return np.where(cheap, UNLIMITED_CHARGE_W, request)

    def cosim_twin(self, scenario, scenario_index: int = 0):
        from ..cosim.policy import TouArbitragePolicy

        return TouArbitragePolicy(
            prices_usd_kwh=scenario.tariff.hourly_prices(scenario.n_steps),
            step_s=scenario.step_s,
            charge_price_usd_kwh=_threshold_for(
                self.charge_price_usd_kwh, scenario_index
            ),
            discharge_price_usd_kwh=_threshold_for(
                self.discharge_price_usd_kwh, scenario_index
            ),
        )


# -- policy registry ---------------------------------------------------------


def _column(values: Sequence[float]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.float64).reshape(-1, 1)


def _make_carbon_aware(scenarios: "Sequence[Scenario]") -> CarbonAwareDispatch:
    # Per-scenario "dirty grid" threshold: the site's median intensity.
    return CarbonAwareDispatch(
        ci_discharge_g_per_kwh=_column(
            [float(np.median(sc.carbon.intensity_g_per_kwh)) for sc in scenarios]
        )
    )


def _make_tou_arbitrage(scenarios: "Sequence[Scenario]") -> TouArbitrageDispatch:
    # Buy at each site's off-peak floor, sell stored energy into its peak.
    return TouArbitrageDispatch(
        charge_price_usd_kwh=_column([sc.tariff.off_peak_usd_kwh for sc in scenarios]),
        discharge_price_usd_kwh=_column([sc.tariff.on_peak_usd_kwh for sc in scenarios]),
    )


POLICY_BUILDERS: "dict[str, Callable[[Sequence[Scenario]], VectorizedPolicy]]" = {
    "default": lambda scenarios: DefaultDispatch(),
    "islanded": lambda scenarios: IslandedDispatch(),
    "time_window": lambda scenarios: TimeWindowDispatch(),
    "carbon_aware": _make_carbon_aware,
    "tou_arbitrage": _make_tou_arbitrage,
}

POLICY_NAMES: tuple[str, ...] = tuple(sorted(POLICY_BUILDERS))


def make_policy(name: str, scenarios: "Sequence[Scenario]") -> VectorizedPolicy:
    """Build a named policy with per-scenario thresholds (CLI seam)."""
    try:
        builder = POLICY_BUILDERS[name]
    except KeyError:
        known = ", ".join(POLICY_NAMES)
        raise ConfigurationError(f"unknown dispatch policy '{name}' (known: {known})") from None
    if not scenarios:
        raise ConfigurationError("make_policy needs at least one scenario")
    return builder(scenarios)


# -- scenario stacking -------------------------------------------------------


@dataclass(frozen=True)
class ScenarioStack:
    """Exogenous inputs of S aligned scenarios as ``(S, T)`` arrays."""

    scenarios: "tuple[Scenario, ...]"
    load_w: np.ndarray
    solar_per_kw_w: np.ndarray
    wind_per_turbine_w: np.ndarray
    ci_g_per_kwh: np.ndarray
    prices_usd_kwh: np.ndarray
    #: per-scenario export credit, shaped (S, 1) for broadcasting
    export_credit_usd_kwh: np.ndarray
    step_s: float

    @property
    def n_scenarios(self) -> int:
        return int(self.load_w.shape[0])

    @property
    def n_steps(self) -> int:
        return int(self.load_w.shape[1])


def stack_scenarios(scenarios: "Sequence[Scenario]") -> ScenarioStack:
    """Stack scenarios for the batched time loop (must share the grid).

    All scenarios must have the same horizon and step length — the loop
    advances every (scenario, candidate) cell in lock-step.
    """
    if not scenarios:
        raise ConfigurationError("need at least one scenario to stack")
    first = scenarios[0]
    for sc in scenarios[1:]:
        if sc.n_steps != first.n_steps or sc.step_s != first.step_s:
            raise ConfigurationError(
                f"scenarios misaligned: '{sc.name}' has {sc.n_steps} steps of "
                f"{sc.step_s}s vs '{first.name}' with {first.n_steps} of {first.step_s}s"
            )
    return ScenarioStack(
        scenarios=tuple(scenarios),
        load_w=np.stack([sc.workload.power_w for sc in scenarios]),
        solar_per_kw_w=np.stack([sc.solar_per_kw_w for sc in scenarios]),
        wind_per_turbine_w=np.stack([sc.wind_per_turbine_w for sc in scenarios]),
        ci_g_per_kwh=np.stack([sc.carbon.intensity_g_per_kwh for sc in scenarios]),
        prices_usd_kwh=np.stack(
            [sc.tariff.hourly_prices(sc.n_steps) for sc in scenarios]
        ),
        export_credit_usd_kwh=_column(
            [sc.tariff.export_credit_usd_kwh for sc in scenarios]
        ),
        step_s=first.step_s,
    )


# -- the batched engine ------------------------------------------------------


@dataclass
class DispatchResult:
    """Accumulated flows of one batched dispatch run (all ``(S, N)``)."""

    import_wh: np.ndarray
    export_wh: np.ndarray
    charge_wh: np.ndarray
    discharge_wh: np.ndarray
    unserved_wh: np.ndarray
    emissions_kg: np.ndarray
    cost_usd: np.ndarray
    islanded_steps: np.ndarray
    #: trace mode: SoC per step, ``(S, N, T+1)`` (None unless requested)
    soc: np.ndarray | None = None
    #: trace mode: per-step flows in W, each ``(S, N, T)``
    flows: dict[str, np.ndarray] | None = None


def run_dispatch(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
    trace_soc: bool = False,
    trace_flows: bool = False,
) -> DispatchResult:
    """Advance all S × N (scenario, candidate) cells through one time loop.

    ``solar_kw`` / ``turbine_factor`` (turbine count × wake efficiency) /
    ``capacity_wh`` are ``(N,)`` candidate vectors; every per-step array
    broadcasts to ``(S, N)``.

    The call alone picks the path (DESIGN.md §9): per-step flow traces,
    policies outside the five lowerable ones
    (:func:`repro.core.kernel.is_lowerable`) and a SoC trace of a single
    (scenario, candidate) cell run :func:`run_dispatch_loop`, everything
    else :func:`repro.core.kernel.run_dispatch_segments`, which gives the
    loop's bits except for the sums of one-cell calls (still folded
    pairwise, the strict xfail in ``tests/test_kernel_differential.py``).

    Trace mode (``trace_soc`` / ``trace_flows``) additionally records the
    per-step SoC and power flows — the seam behind rainflow degradation,
    :meth:`~repro.core.fastsim.BatchEvaluator.soc_history` and the
    conservation property tests.  Traces cost O(S·N·T) memory, so leave
    them off for large sweeps.
    """
    from . import kernel  # deferred: kernel imports this module

    # Inexact segments fold at S·N = 1: test_single_cell_long_horizon_segments_bitwise
    one_cell_trace = trace_soc and stack.n_scenarios * solar_kw.size == 1
    if trace_flows or one_cell_trace or not kernel.is_lowerable(policy):
        return run_dispatch_loop(
            stack, solar_kw, turbine_factor, capacity_wh, params,
            initial_soc, policy, trace_soc, trace_flows,
        )
    return kernel.run_dispatch_segments(
        stack, solar_kw, turbine_factor, capacity_wh, params,
        initial_soc=initial_soc, policy=policy, trace_soc=trace_soc,
    )


def run_dispatch_loop(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
    trace_soc: bool = False,
    trace_flows: bool = False,
) -> DispatchResult:
    """The reference dispatch loop: one vectorized step per time step.

    The simplest statement of the dispatch semantics, and the oracle the
    segments engine is tested against bit for bit.  The hpc-parallel rule
    applies throughout: vectorize across the independent axes
    (candidates *and* scenarios), loop only over the one axis with
    sequential state — time, because the battery couples consecutive
    steps.  It accepts any :class:`VectorizedPolicy` and is the only path
    that records per-step flows (``trace_flows``).
    """
    n = int(solar_kw.size)
    s = stack.n_scenarios
    t_steps = stack.n_steps
    dt_s = stack.step_s
    dt_h = dt_s / SECONDS_PER_HOUR
    policy = policy or DefaultDispatch()

    cap = np.asarray(capacity_wh, dtype=np.float64)
    safe_cap = np.maximum(cap, 1e-12)
    soc0 = float(np.clip(initial_soc, params.soc_min, params.soc_max))
    energy_wh = np.broadcast_to(cap * soc0, (s, n)).copy()

    import_wh = np.zeros((s, n))
    export_wh = np.zeros((s, n))
    charge_wh = np.zeros((s, n))
    discharge_wh = np.zeros((s, n))
    unserved_wh = np.zeros((s, n))
    emissions_kg = np.zeros((s, n))
    cost_usd = np.zeros((s, n))
    islanded_steps = np.zeros((s, n))
    zeros_sn = np.zeros((s, n))

    soc_trace = np.empty((s, n, t_steps + 1)) if trace_soc else None
    if soc_trace is not None:
        soc_trace[:, :, 0] = energy_wh / safe_cap
    flow_names = ("net_w", "import_w", "export_w", "charge_w", "discharge_w", "unserved_w")
    flows = (
        {name: np.empty((s, n, t_steps)) for name in flow_names} if trace_flows else None
    )

    eps_wh = ISLANDED_EPS_W * dt_h  # islanding guard in the energy domain

    # Hoist the per-step profile slicing: time-major contiguous copies let
    # each iteration index one cached row instead of re-slicing a strided
    # (S, T) column five times per step (same values, so bit-identical).
    solar_t = np.ascontiguousarray(stack.solar_per_kw_w.T)
    wind_t = np.ascontiguousarray(stack.wind_per_turbine_w.T)
    load_t = np.ascontiguousarray(stack.load_w.T)
    prices_t = np.ascontiguousarray(stack.prices_usd_kwh.T)
    ci_t = np.ascontiguousarray(stack.ci_g_per_kwh.T)

    for t in range(t_steps):
        gen_t = (
            solar_t[t][:, None] * solar_kw
            + wind_t[t][:, None] * turbine_factor
        )
        net_t = gen_t - load_t[t][:, None]  # + = surplus

        request = policy.dispatch_arrays(
            net_t,
            energy_wh / safe_cap,
            prices_t[t][:, None],
            ci_t[t][:, None],
            t * dt_s,
            dt_s,
        )
        accepted, energy_wh = clc_step_arrays(
            cap,
            energy_wh,
            request,
            dt_s,
            eta_charge=params.eta_charge,
            eta_discharge=params.eta_discharge,
            max_charge_c_rate=params.max_charge_c_rate,
            max_discharge_c_rate=params.max_discharge_c_rate,
            taper_soc_threshold=params.taper_soc_threshold,
            soc_min=params.soc_min,
            soc_max=params.soc_max,
            self_discharge_per_hour=params.self_discharge_per_hour,
        )
        residual = net_t - accepted  # + = export, − = import (or unserved)

        if policy.islanded:
            imp_t = zeros_sn
            uns_t = np.maximum(-residual, 0.0) * dt_h
        else:
            imp_t = np.maximum(-residual, 0.0) * dt_h
            uns_t = zeros_sn
        exp_t = np.maximum(residual, 0.0) * dt_h

        import_wh += imp_t
        export_wh += exp_t
        unserved_wh += uns_t
        charge_wh += np.maximum(accepted, 0.0) * dt_h
        discharge_wh += np.maximum(-accepted, 0.0) * dt_h
        emissions_kg += imp_t / WH_PER_KWH * ci_t[t][:, None] / 1_000.0
        cost_usd += (
            imp_t / WH_PER_KWH * prices_t[t][:, None]
            - exp_t / WH_PER_KWH * stack.export_credit_usd_kwh
        )
        islanded_steps += (imp_t <= eps_wh) & (uns_t <= eps_wh)

        if soc_trace is not None:
            soc_trace[:, :, t + 1] = energy_wh / safe_cap
        if flows is not None:
            flows["net_w"][:, :, t] = net_t
            flows["import_w"][:, :, t] = imp_t / dt_h
            flows["export_w"][:, :, t] = exp_t / dt_h
            flows["charge_w"][:, :, t] = np.maximum(accepted, 0.0)
            flows["discharge_w"][:, :, t] = np.maximum(-accepted, 0.0)
            flows["unserved_w"][:, :, t] = uns_t / dt_h

    return DispatchResult(
        import_wh=import_wh,
        export_wh=export_wh,
        charge_wh=charge_wh,
        discharge_wh=discharge_wh,
        unserved_wh=unserved_wh,
        emissions_kg=emissions_kg,
        cost_usd=cost_usd,
        islanded_steps=islanded_steps,
        soc=soc_trace,
        flows=flows,
    )
