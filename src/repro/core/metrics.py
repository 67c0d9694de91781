"""Simulation metrics and evaluated compositions.

The paper's tables report, per composition: embodied emissions (tCO₂),
operational emissions (tCO₂/day), on-site coverage (%), and battery
cycles.  §4.3 adds optional objectives (cost, curtailment, reliability,
degradation) — all carried by :class:`SimulationMetrics` so any subset
can be optimized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..units import DAYS_PER_YEAR, KG_PER_TONNE, WH_PER_KWH, WH_PER_MWH
from .composition import MicrogridComposition


@dataclass(frozen=True)
class SimulationMetrics:
    """Aggregate outcome of simulating one composition for one horizon.

    All energies in Wh over the simulated horizon; emissions in kgCO2.
    """

    horizon_days: float
    demand_energy_wh: float
    onsite_generation_wh: float
    grid_import_wh: float
    grid_export_wh: float
    battery_charge_wh: float
    battery_discharge_wh: float
    operational_emissions_kg: float
    battery_usable_wh: float
    unserved_energy_wh: float = 0.0
    electricity_cost_usd: float = 0.0
    #: fraction of steps with zero grid import (reliability metric, §4.3)
    islanded_fraction: float = 0.0
    #: battery capacity fade over the horizon (degradation extension)
    battery_fade: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon_days <= 0:
            raise ConfigurationError("horizon must be positive")
        for name in (
            "demand_energy_wh",
            "onsite_generation_wh",
            "grid_import_wh",
            "grid_export_wh",
            "battery_charge_wh",
            "battery_discharge_wh",
        ):
            if getattr(self, name) < -1e-6:
                raise ConfigurationError(f"{name} must be non-negative")

    # -- the tables' columns ------------------------------------------------

    @property
    def operational_tco2_per_day(self) -> float:
        """Operational emissions rate — the tables' 'Operat.' column."""
        return self.operational_emissions_kg / KG_PER_TONNE / self.horizon_days

    @property
    def coverage(self) -> float:
        """On-site coverage: fraction of demand *not* met by grid import.

        Matches the paper's 'Cov. (%)' column (0–1 here; format ×100).
        """
        if self.demand_energy_wh <= 0:
            return 0.0
        served = self.demand_energy_wh - self.grid_import_wh - self.unserved_energy_wh
        return max(min(served / self.demand_energy_wh, 1.0), 0.0)

    @property
    def battery_cycles(self) -> float | None:
        """Equivalent full cycles over the horizon ('Battery cycles').

        ``None`` when there is no battery (the tables print '–').
        """
        if self.battery_usable_wh <= 0:
            return None
        return self.battery_discharge_wh / self.battery_usable_wh

    # -- additional objectives (§4.3) -------------------------------------------

    @property
    def curtailed_energy_mwh(self) -> float:
        """Exported/curtailed on-site energy (MWh)."""
        return self.grid_export_wh / WH_PER_MWH

    @property
    def renewable_utilization(self) -> float:
        """Fraction of on-site generation actually used (1 − curtailed)."""
        if self.onsite_generation_wh <= 0:
            return 0.0
        return 1.0 - self.grid_export_wh / self.onsite_generation_wh

    @property
    def mean_import_intensity_g_per_kwh(self) -> float:
        """Average CI of imported energy (diagnostic)."""
        if self.grid_import_wh <= 0:
            return 0.0
        return self.operational_emissions_kg * 1_000.0 / (self.grid_import_wh / WH_PER_KWH)


@dataclass(frozen=True)
class EvaluatedComposition:
    """A composition together with its embodied cost and simulated metrics."""

    composition: MicrogridComposition
    embodied_kg: float
    metrics: SimulationMetrics

    @property
    def embodied_tonnes(self) -> float:
        return self.embodied_kg / KG_PER_TONNE

    @property
    def operational_tco2_per_day(self) -> float:
        return self.metrics.operational_tco2_per_day

    def objectives(self, names: Sequence[str] = ("operational", "embodied")) -> tuple[float, ...]:
        """Objective vector for the study layer (all minimized).

        Supported names: ``operational`` (tCO2/day), ``embodied`` (tCO2),
        ``cost`` ($), ``cycles`` (battery EFC), ``curtailment`` (MWh),
        ``grid_dependence`` (1 − coverage), ``unreliability``
        (1 − islanded fraction), ``fade`` (battery capacity fade — only
        non-zero when the scenario carries a degradation model,
        DESIGN.md §11).
        """
        out: list[float] = []
        for name in names:
            if name == "operational":
                out.append(self.metrics.operational_tco2_per_day)
            elif name == "embodied":
                out.append(self.embodied_tonnes)
            elif name == "cost":
                out.append(self.metrics.electricity_cost_usd)
            elif name == "cycles":
                cycles = self.metrics.battery_cycles
                out.append(0.0 if cycles is None else cycles)
            elif name == "curtailment":
                out.append(self.metrics.curtailed_energy_mwh)
            elif name == "grid_dependence":
                out.append(1.0 - self.metrics.coverage)
            elif name == "unreliability":
                out.append(1.0 - self.metrics.islanded_fraction)
            elif name == "fade":
                out.append(self.metrics.battery_fade)
            else:
                raise ConfigurationError(f"unknown objective '{name}'")
        return tuple(out)

    def table_row(self) -> dict[str, float | str]:
        """One row of the paper's candidate tables."""
        cycles = self.metrics.battery_cycles
        return {
            "wind_mw": self.composition.wind_mw,
            "solar_mw": self.composition.solar_mw,
            "battery_mwh": self.composition.battery_mwh,
            "embodied_tco2": round(self.embodied_tonnes),
            "operational_tco2_day": round(self.operational_tco2_per_day, 2),
            "coverage_pct": round(self.metrics.coverage * 100.0, 2),
            "battery_cycles": "-" if cycles is None else round(cycles),
        }


#: The scalar :class:`SimulationMetrics` fields the equivalence checks
#: compare — shared by the stacked-vs-serial bit-for-bit assertions in
#: ``tests/test_dispatch_policies.py`` and ``benchmarks/bench_dispatch.py``
#: so a new metric field cannot silently weaken one of the two.
COMPARABLE_METRIC_FIELDS = (
    "demand_energy_wh",
    "onsite_generation_wh",
    "grid_import_wh",
    "grid_export_wh",
    "battery_charge_wh",
    "battery_discharge_wh",
    "operational_emissions_kg",
    "unserved_energy_wh",
    "electricity_cost_usd",
    "islanded_fraction",
)

#: Base robust aggregations over scenarios (all objectives minimized, so
#: "worst" is the elementwise maximum).  The full grammar accepted by
#: :func:`parse_aggregate` additionally includes the parameterized
#: ``cvar:alpha`` and ``quantile:q`` reducers (DESIGN.md §6).
AGGREGATES = ("worst", "mean")

#: Parameterized reducer kinds: ``kind:param`` with param in (0, 1].
PARAMETRIC_AGGREGATES = ("cvar", "quantile")


class Aggregate(NamedTuple):
    """A parsed scenario-reduction spec (DESIGN.md §6)."""

    kind: str
    param: "float | None" = None


def parse_aggregate(spec: str) -> Aggregate:
    """Parse an aggregate spec string into a validated :class:`Aggregate`.

    Grammar (DESIGN.md §6): ``worst`` | ``mean`` | ``cvar:alpha`` |
    ``quantile:q``, with ``alpha`` in (0, 1] (fraction of worst
    scenarios averaged) and ``q`` in [0, 1].  Anything else raises
    :class:`~repro.exceptions.ConfigurationError` — this is the single
    validation point the optimizer, CLI, and journal-resume path share.
    """
    if not isinstance(spec, str):
        raise ConfigurationError(f"aggregate spec must be a string, got {spec!r}")
    kind, sep, raw_param = spec.partition(":")
    kind = kind.strip()
    if kind in AGGREGATES:
        if sep:
            raise ConfigurationError(
                f"aggregate '{kind}' takes no parameter (got '{spec}')"
            )
        return Aggregate(kind)
    if kind in PARAMETRIC_AGGREGATES:
        if not sep or not raw_param.strip():
            raise ConfigurationError(
                f"aggregate '{kind}' needs a parameter, e.g. '{kind}:0.25'"
            )
        try:
            param = float(raw_param)
        except ValueError:
            raise ConfigurationError(
                f"malformed aggregate parameter in '{spec}'"
            ) from None
        if kind == "cvar" and not 0.0 < param <= 1.0:
            raise ConfigurationError(f"cvar alpha must be in (0, 1], got {param}")
        if kind == "quantile" and not 0.0 <= param <= 1.0:
            raise ConfigurationError(f"quantile q must be in [0, 1], got {param}")
        return Aggregate(kind, param)
    known = ", ".join(AGGREGATES + tuple(f"{k}:x" for k in PARAMETRIC_AGGREGATES))
    raise ConfigurationError(f"unknown aggregate '{spec}' (known: {known})")


def cvar(values: Sequence[float], alpha: float) -> float:
    """Conditional value-at-risk: mean of the worst ``alpha`` fraction.

    All objectives are minimized, so "worst" means *largest*;
    ``alpha=1`` degenerates to the mean, small ``alpha`` to the max.
    This is the one CVaR implementation in the codebase (DESIGN.md §6).
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"cvar alpha must be in (0, 1], got {alpha}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cvar needs at least one value")
    k = max(int(np.ceil(alpha * arr.size)), 1)
    return float(np.sort(arr)[::-1][:k].mean())


def aggregate_values(values: Sequence[float], spec: "str | Aggregate") -> float:
    """Reduce one objective's per-scenario values by an aggregate spec."""
    agg = parse_aggregate(spec) if isinstance(spec, str) else spec
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cannot aggregate an empty value list")
    if agg.kind == "worst":
        return float(arr.max())
    if agg.kind == "mean":
        return float(arr.mean())
    if agg.kind == "cvar":
        return cvar(arr, agg.param)
    if agg.kind == "quantile":
        return float(np.quantile(arr, agg.param))
    # A hand-built Aggregate can carry a kind parse_aggregate never minted.
    raise ConfigurationError(f"unknown aggregate kind '{agg.kind}'")


@dataclass(frozen=True)
class RobustEvaluatedComposition:
    """One composition scored against several scenarios (DESIGN.md §5–§6).

    Wraps the per-scenario :class:`EvaluatedComposition` results of a
    stacked multi-scenario evaluation and exposes the same
    ``objectives()`` interface the search/Pareto layers consume, with
    each objective reduced across scenarios by ``aggregate``
    (the :func:`parse_aggregate` grammar):

    * ``worst`` — minimax siting: minimize the worst per-scenario outcome;
    * ``mean`` — expected-value siting across the scenario ensemble;
    * ``cvar:alpha`` — mean of the worst ``alpha`` fraction of scenarios
      (risk-aware sizing, DESIGN.md §6);
    * ``quantile:q`` — the q-quantile across scenarios.
    """

    composition: MicrogridComposition
    embodied_kg: float
    per_scenario: tuple[EvaluatedComposition, ...]
    aggregate: str = "worst"

    def __post_init__(self) -> None:
        parse_aggregate(self.aggregate)
        if not self.per_scenario:
            raise ConfigurationError("need at least one per-scenario evaluation")

    @property
    def embodied_tonnes(self) -> float:
        return self.embodied_kg / KG_PER_TONNE

    @property
    def operational_tco2_per_day(self) -> float:
        """Aggregated operational rate (same reduction as ``objectives``)."""
        values = [e.operational_tco2_per_day for e in self.per_scenario]
        return aggregate_values(values, self.aggregate)

    def objectives(
        self, names: Sequence[str] = ("operational", "embodied")
    ) -> tuple[float, ...]:
        """Robust-aggregate objective vector (all minimized)."""
        agg = parse_aggregate(self.aggregate)
        vectors = [e.objectives(names) for e in self.per_scenario]
        return tuple(aggregate_values(col, agg) for col in zip(*vectors))

    def scenario_objectives(
        self, names: Sequence[str] = ("operational", "embodied")
    ) -> tuple[tuple[float, ...], ...]:
        """Per-scenario objective vectors, in scenario order."""
        return tuple(e.objectives(names) for e in self.per_scenario)


def robust_evaluations(
    per_scenario: Sequence[Sequence[EvaluatedComposition]],
    aggregate: str = "worst",
) -> list[RobustEvaluatedComposition]:
    """Zip per-scenario evaluation lists into robust per-candidate wrappers.

    ``per_scenario[s][i]`` must pair scenario *s* with candidate *i* —
    the layout :func:`repro.core.fastsim.evaluate_across_scenarios`
    produces.
    """
    if not per_scenario:
        raise ConfigurationError("need at least one scenario's evaluations")
    n = len(per_scenario[0])
    if any(len(row) != n for row in per_scenario):
        raise ConfigurationError("per-scenario evaluation lists are misaligned")
    out: list[RobustEvaluatedComposition] = []
    for i in range(n):
        column = tuple(row[i] for row in per_scenario)
        comp = column[0].composition
        if any(e.composition != comp for e in column[1:]):
            raise ConfigurationError(f"candidate {i} differs across scenarios")
        out.append(
            RobustEvaluatedComposition(
                composition=comp,
                embodied_kg=column[0].embodied_kg,
                per_scenario=column,
                aggregate=aggregate,
            )
        )
    return out


def annualize_horizon_days(n_hours: int) -> float:
    """Days represented by an hourly simulation horizon."""
    return n_hours / 24.0


DEFAULT_HORIZON_DAYS = DAYS_PER_YEAR
