"""Battery aging model (paper extension, §4.2/§4.3).

The paper notes its 20-year projection "does not model reinvestment or
degradation" and lists degradation-aware objectives as future work.  This
module provides that extension: a standard semi-empirical cycle + calendar
aging model in the spirit of NREL's BLAST-Lite (Gasper et al. 2024), which
the paper cites:

* **calendar fade** — √t law: ``f_cal = k_cal · √(t_years)``
* **cycle fade** — Wöhler-type depth-of-discharge law applied to rainflow
  cycles: a cycle of depth d consumes ``1 / N_fail(d)`` of cycle life with
  ``N_fail(d) = N_100 · d^(−kd)``.

End of life is conventionally 80 % remaining capacity (fade = 0.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...exceptions import ConfigurationError
from .rainflow import RainflowCycle, rainflow_cycles


@dataclass(frozen=True)
class DegradationParameters:
    """Aging-law coefficients (defaults representative of grid LFP cells)."""

    #: calendar fade per √year.  4.5 %/√year puts calendar-only EOL at
    #: ≈20 years; combined with realistic cycling this lands batteries in
    #: the 10–15-year replacement window the paper cites (§4.2).
    k_calendar_per_sqrt_year: float = 0.045
    #: cycles to EOL at 100 % depth of discharge
    cycles_to_failure_full_dod: float = 3_500.0
    #: Wöhler exponent: shallower cycles are disproportionately cheaper
    woehler_exponent: float = 1.5
    #: capacity fade fraction defining end of life
    eol_fade: float = 0.2

    def __post_init__(self) -> None:
        if self.k_calendar_per_sqrt_year < 0:
            raise ConfigurationError("calendar coefficient must be non-negative")
        if self.cycles_to_failure_full_dod <= 0:
            raise ConfigurationError("cycles to failure must be positive")
        if not 0.0 < self.eol_fade < 1.0:
            raise ConfigurationError("EOL fade must be in (0, 1)")

    def cycles_to_failure(self, depth: float) -> float:
        """Wöhler curve: cycles to EOL at the given depth of discharge."""
        d = min(max(float(depth), 1e-4), 1.0)  # np.clip costs ~10 µs on a scalar
        return self.cycles_to_failure_full_dod * d**-self.woehler_exponent


class DegradationModel:
    """Accumulates capacity fade from SoC history + elapsed time."""

    def __init__(self, params: DegradationParameters | None = None) -> None:
        self.params = params or DegradationParameters()

    def cycle_fade(self, cycles: list[RainflowCycle]) -> float:
        """Capacity fade contributed by a set of rainflow cycles."""
        p = self.params
        damage = 0.0
        for c in cycles:
            damage += c.count / p.cycles_to_failure(c.depth)
        return damage * p.eol_fade

    def cycle_fade_from_soc(self, soc_series: np.ndarray) -> float:
        """Cycle fade straight from a SoC trace."""
        return self.cycle_fade(rainflow_cycles(soc_series))

    def calendar_fade(self, years: float) -> float:
        """Calendar fade after ``years`` (√t law)."""
        if years < 0:
            raise ConfigurationError("years must be non-negative")
        return self.params.k_calendar_per_sqrt_year * float(np.sqrt(years))

    def total_fade(self, soc_series: np.ndarray, years: float) -> float:
        """Combined fade, assuming the SoC trace covers ``years``."""
        return self.cycle_fade_from_soc(soc_series) + self.calendar_fade(years)

    def remaining_capacity_fraction(self, soc_series: np.ndarray, years: float) -> float:
        """Remaining usable capacity fraction (floored at 0)."""
        return max(1.0 - self.total_fade(soc_series, years), 0.0)

    def expected_lifetime_years(
        self, soc_series_one_year: np.ndarray, max_years: float = 40.0
    ) -> float:
        """Years until EOL assuming the one-year SoC trace repeats.

        Solves ``k_cal·√t + t·annual_cycle_fade = eol_fade`` for t.
        """
        p = self.params
        annual_cycle = self.cycle_fade_from_soc(soc_series_one_year)
        k = p.k_calendar_per_sqrt_year
        # Quadratic in √t: annual_cycle·s² + k·s − eol = 0.
        if annual_cycle <= 0:
            if k <= 0:
                return max_years
            return min((p.eol_fade / k) ** 2, max_years)
        disc = k**2 + 4.0 * annual_cycle * p.eol_fade
        s = (-k + np.sqrt(disc)) / (2.0 * annual_cycle)
        return float(min(s**2, max_years))
