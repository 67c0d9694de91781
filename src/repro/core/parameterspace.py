"""The discrete design space the paper sweeps (§4).

* solar: 0–40 MW in 4 MW increments (11 levels),
* wind: 0–10 turbines of 3 MW (11 levels),
* battery: 0–60 MWh in 7.5 MWh units (9 levels),

for 11 × 11 × 9 = **1 089** valid combinations — the paper's exhaustive
baseline count.  The space knows how to enumerate itself (grid search),
how to suggest a composition through a black-box
:class:`~repro.blackbox.trial.Trial`, and how to build the matching
:class:`~repro.blackbox.samplers.grid.GridSampler` search space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

from ..exceptions import ConfigurationError
from ..units import (
    BATTERY_MAX_UNITS,
    SOLAR_INCREMENT_KW,
    SOLAR_MAX_INCREMENTS,
    WIND_MAX_TURBINES,
)
from .composition import MicrogridComposition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..blackbox.trial import Trial


@dataclass(frozen=True)
class ParameterSpace:
    """Discrete composition space with per-axis increments."""

    max_turbines: int = WIND_MAX_TURBINES
    max_solar_increments: int = SOLAR_MAX_INCREMENTS
    solar_increment_kw: float = SOLAR_INCREMENT_KW
    max_battery_units: int = BATTERY_MAX_UNITS

    def __post_init__(self) -> None:
        if min(self.max_turbines, self.max_solar_increments, self.max_battery_units) < 0:
            raise ConfigurationError("space bounds must be non-negative")
        if self.solar_increment_kw <= 0:
            raise ConfigurationError("solar increment must be positive")

    # -- enumeration ------------------------------------------------------------

    def __len__(self) -> int:
        return (
            (self.max_turbines + 1)
            * (self.max_solar_increments + 1)
            * (self.max_battery_units + 1)
        )

    def __iter__(self) -> Iterator[MicrogridComposition]:
        for n_turb in range(self.max_turbines + 1):
            for solar_inc in range(self.max_solar_increments + 1):
                for batt in range(self.max_battery_units + 1):
                    yield MicrogridComposition(
                        n_turbines=n_turb,
                        solar_kw=solar_inc * self.solar_increment_kw,
                        battery_units=batt,
                    )

    def all_compositions(self) -> list[MicrogridComposition]:
        """The full enumerated space (1 089 entries for paper defaults)."""
        return list(self)

    def contains(self, comp: MicrogridComposition) -> bool:
        """Whether a composition lies on this grid."""
        if not 0 <= comp.n_turbines <= self.max_turbines:
            return False
        if not 0 <= comp.battery_units <= self.max_battery_units:
            return False
        increments = comp.solar_kw / self.solar_increment_kw
        return (
            abs(increments - round(increments)) < 1e-9
            and 0 <= round(increments) <= self.max_solar_increments
        )

    # -- black-box integration ------------------------------------------------

    def suggest(self, trial: "Trial") -> MicrogridComposition:
        """Draw a composition through the define-by-run trial API."""
        n_turb = trial.suggest_int("n_turbines", 0, self.max_turbines)
        solar_inc = trial.suggest_int("solar_increments", 0, self.max_solar_increments)
        batt = trial.suggest_int("battery_units", 0, self.max_battery_units)
        return MicrogridComposition(
            n_turbines=n_turb,
            solar_kw=solar_inc * self.solar_increment_kw,
            battery_units=batt,
        )

    def distributions(self) -> dict:
        """Declared search space ``{name: Distribution}``.

        The up-front space :class:`~repro.blackbox.parallel.
        PipelinedDispatcher` needs (parameters must exist before the
        objective ships to a worker) — the same domains ``suggest``
        declares define-by-run.
        """
        from ..blackbox.distributions import IntDistribution

        return {
            "n_turbines": IntDistribution(0, self.max_turbines),
            "solar_increments": IntDistribution(0, self.max_solar_increments),
            "battery_units": IntDistribution(0, self.max_battery_units),
        }

    def grid_search_space(self) -> dict[str, list[int]]:
        """Search space for :class:`~repro.blackbox.samplers.grid.GridSampler`."""
        return {
            "n_turbines": list(range(self.max_turbines + 1)),
            "solar_increments": list(range(self.max_solar_increments + 1)),
            "battery_units": list(range(self.max_battery_units + 1)),
        }

    def from_params(self, params: dict) -> MicrogridComposition:
        """Rebuild the composition from stored trial parameters."""
        return MicrogridComposition(
            n_turbines=int(params["n_turbines"]),
            solar_kw=int(params["solar_increments"]) * self.solar_increment_kw,
            battery_units=int(params["battery_units"]),
        )


#: The exact space of the paper's experiments (1 089 combinations).
PAPER_SPACE = ParameterSpace()
