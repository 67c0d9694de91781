"""Multi-year robustness analysis (beyond the paper's single year).

The paper simulates one resource year per site; real sizing decisions
must be robust to inter-annual weather variability.  This module
evaluates compositions against an **ensemble of synthetic weather
years** (different `year_label` seeds — same climatology, different
realizations) and summarizes each composition's distribution of
outcomes.  A composition that looks Pareto-optimal in one lucky year but
degrades badly in a becalmed year is exactly what this analysis exposes.

Since the scenario-ensemble subsystem landed (DESIGN.md §6) this module
is a thin, weather-year-only veneer over the general machinery: the
year ensemble is evaluated as **one stacked N-candidates × S-years time
loop** (:func:`repro.core.fastsim.evaluate_across_scenarios`) instead of
a serial per-year sweep; risk statistics such as CVaR over the year
axis come from the unified reducers in :mod:`repro.core.metrics`.  For ensembles that cross more
axes than the weather year (workload growth, carbon trajectories,
tariff variants, dunkelflaute severity), use
:class:`repro.core.ensemble.EnsembleSpec` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .composition import MicrogridComposition
from .embodied import embodied_carbon_kg
from .fastsim import evaluate_across_scenarios
from .scenario import build_scenario


@dataclass(frozen=True)
class MultiYearOutcome:
    """Distribution of annual outcomes for one composition."""

    composition: MicrogridComposition
    embodied_tonnes: float
    operational_tco2_day_by_year: np.ndarray
    coverage_by_year: np.ndarray

    @property
    def operational_mean(self) -> float:
        return float(self.operational_tco2_day_by_year.mean())

    @property
    def operational_worst(self) -> float:
        return float(self.operational_tco2_day_by_year.max())

    @property
    def operational_std(self) -> float:
        return float(self.operational_tco2_day_by_year.std())

    @property
    def coverage_mean(self) -> float:
        return float(self.coverage_by_year.mean())

    @property
    def coverage_worst(self) -> float:
        return float(self.coverage_by_year.min())


def evaluate_across_years(
    location: str,
    compositions: Sequence[MicrogridComposition],
    year_labels: Sequence[int] = (2020, 2021, 2022, 2023, 2024),
    n_hours: int = 8_760,
) -> list[MultiYearOutcome]:
    """Evaluate compositions against an ensemble of weather years.

    Each year label seeds an independent realization of the site's
    climatology (including its own dunkelflaute events); demand and the
    carbon-intensity *profile* also re-randomize while their calibrated
    means stay fixed.

    All years are evaluated as **one** stacked time loop (DESIGN.md §6)
    — bit-for-bit identical to the historical serial per-year sweep
    (``benchmarks/bench_ensemble.py`` asserts this), just faster.
    """
    if not year_labels:
        raise ConfigurationError("need at least one year label")
    if not compositions:
        return []

    scenarios = [
        build_scenario(location, year_label=int(year), n_hours=n_hours)
        for year in year_labels
    ]
    per_scenario = evaluate_across_scenarios(scenarios, list(compositions))

    operational = np.empty((len(compositions), len(year_labels)))
    coverage = np.empty_like(operational)
    for j, evaluated in enumerate(per_scenario):
        for i, e in enumerate(evaluated):
            operational[i, j] = e.metrics.operational_tco2_per_day
            coverage[i, j] = e.metrics.coverage

    return [
        MultiYearOutcome(
            composition=comp,
            embodied_tonnes=embodied_carbon_kg(comp) / 1_000.0,
            operational_tco2_day_by_year=operational[i].copy(),
            coverage_by_year=coverage[i].copy(),
        )
        for i, comp in enumerate(compositions)
    ]
