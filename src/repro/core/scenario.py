"""Scenarios: everything a composition evaluation needs, built once.

A scenario bundles the site's resource year, the data-center demand
trace, the grid carbon-intensity profile, and — critically for speed —
the **per-unit generation profiles**:

* the AC output of 1 kW(dc) of PVWatts solar, and
* the AC output of one wake-free turbine,

both computed once.  Because both SAM-style models are linear in
installed capacity (same irradiance/temperature for every module; same
wind for every turbine, with the wake factor depending only on turbine
count), every candidate's generation profile is a two-term linear
combination — the observation that makes the exhaustive 1 089-point sweep
cheap (DESIGN.md §2, "two evaluation paths").

Scenario construction costs a couple of seconds (resource synthesis +
model runs), so built scenarios are cached per configuration — and the
expensive half, the per-unit profiles, is cached separately
(:func:`unit_profiles`) keyed only on the axes that actually change the
weather, so ensemble members (DESIGN.md §6) that differ only in
workload growth, carbon trajectory, or tariff variant share one
resource synthesis and one pair of SAM model runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.carbon_intensity import CarbonIntensityProfile, synthesize_carbon_intensity
from ..data.locations import Location, get_location
from ..data.solar_resource import SolarResource, synthesize_solar_resource
from ..data.tariffs import TouTariff, tou_tariff_for
from ..data.wind_resource import WindResource, synthesize_wind_resource
from ..data.workload import WorkloadTrace, synthesize_datacenter_trace
from ..exceptions import ConfigurationError
from ..sam.solar.pvwatts import PVWattsModel, PVWattsParameters
from ..sam.wind.wake import jensen_array_efficiency
from ..sam.wind.windpower import WindFarmModel, WindFarmParameters
from ..units import PERLMUTTER_MEAN_POWER_W, SECONDS_PER_HOUR


@dataclass(frozen=True)
class Scenario:
    """A fully prepared evaluation context for one site."""

    name: str
    location: Location
    solar_resource: SolarResource
    wind_resource: WindResource
    workload: WorkloadTrace
    carbon: CarbonIntensityProfile
    tariff: TouTariff
    #: hourly AC output of 1 kW(dc) PVWatts solar (W per kWdc)
    solar_per_kw_w: np.ndarray
    #: hourly AC output of a single wake-free turbine (W)
    wind_per_turbine_w: np.ndarray
    step_s: float = SECONDS_PER_HOUR
    #: battery degradation model evaluated after dispatch (DESIGN.md §11):
    #: ``None`` (fade stays 0, the historical behaviour), ``"linear"``
    #: (closed-form calendar + equivalent-full-cycle fade), or
    #: ``"rainflow"`` (SoC-trace rainflow counting + Wöhler law)
    battery_degradation: "str | None" = None

    def __post_init__(self) -> None:
        n = self.n_steps
        for arr_name in ("solar_per_kw_w", "wind_per_turbine_w"):
            if getattr(self, arr_name).shape != (n,):
                raise ConfigurationError(f"{arr_name} misaligned with workload")
        if self.carbon.intensity_g_per_kwh.shape != (n,):
            raise ConfigurationError("carbon profile misaligned with workload")
        if self.battery_degradation not in (None, "linear", "rainflow"):
            raise ConfigurationError(
                f"unknown battery degradation model '{self.battery_degradation}' "
                "(known: linear, rainflow)"
            )

    @property
    def n_steps(self) -> int:
        return int(self.workload.power_w.size)

    @property
    def horizon_days(self) -> float:
        return self.n_steps * self.step_s / 86_400.0

    def wind_farm_profile_w(self, n_turbines: int) -> np.ndarray:
        """Farm AC profile for ``n`` turbines (wake-adjusted)."""
        if n_turbines <= 0:
            return np.zeros(self.n_steps)
        eff = jensen_array_efficiency(n_turbines)
        return self.wind_per_turbine_w * (n_turbines * eff)

    def solar_farm_profile_w(self, solar_kw: float) -> np.ndarray:
        """Solar farm AC profile for the given DC capacity (kW)."""
        return self.solar_per_kw_w * solar_kw


_SCENARIO_CACHE: dict[tuple, Scenario] = {}


@dataclass(frozen=True)
class UnitProfiles:
    """The weather-determined half of a scenario (DESIGN.md §6).

    Resource synthesis plus the two SAM model runs — everything keyed by
    (site, year, horizon, event handling) and *nothing else*, so
    ensemble members that vary only workload growth, carbon trajectory,
    or tariff variant share one instance.
    """

    solar_resource: SolarResource
    wind_resource: WindResource
    solar_per_kw_w: np.ndarray
    wind_per_turbine_w: np.ndarray


_UNIT_PROFILE_CACHE: dict[tuple, UnitProfiles] = {}


def unit_profiles(
    location: "str | Location",
    year_label: int = 2024,
    n_hours: int = 8_760,
    include_extreme_events: bool = True,
    event_severity: float = 1.0,
    use_cache: bool = True,
) -> UnitProfiles:
    """Build (or fetch from cache) a site-year's per-unit profiles.

    This is the expensive part of :func:`build_scenario`; ensemble
    members (:mod:`repro.core.ensemble`) that differ only in cheap axes
    share one cache entry.
    """
    loc = get_location(location) if isinstance(location, str) else location
    key = (loc.name, year_label, n_hours, include_extreme_events, float(event_severity))
    if use_cache and key in _UNIT_PROFILE_CACHE:
        return _UNIT_PROFILE_CACHE[key]

    solar_resource = synthesize_solar_resource(
        loc,
        year_label,
        n_hours,
        include_extreme_events=include_extreme_events,
        event_severity=event_severity,
    )
    wind_resource = synthesize_wind_resource(
        loc,
        year_label,
        n_hours,
        include_extreme_events=include_extreme_events,
        event_severity=event_severity,
    )
    pv = PVWattsModel(PVWattsParameters(dc_capacity_kw=1.0))
    wind = WindFarmModel(WindFarmParameters(n_turbines=1, wake_model="none"))
    profiles = UnitProfiles(
        solar_resource=solar_resource,
        wind_resource=wind_resource,
        solar_per_kw_w=pv.run(solar_resource).ac_power_w,
        wind_per_turbine_w=wind.run(wind_resource).ac_power_w,
    )
    if use_cache:
        _UNIT_PROFILE_CACHE[key] = profiles
    return profiles


def build_scenario(
    location: "str | Location",
    year_label: int = 2024,
    n_hours: int = 8_760,
    mean_power_w: float = PERLMUTTER_MEAN_POWER_W,
    use_cache: bool = True,
    include_extreme_events: bool = True,
    event_severity: float = 1.0,
    carbon_trajectory: str = "baseline",
    tariff_variant: str = "default",
    name: str | None = None,
) -> Scenario:
    """Build (or fetch from cache) the evaluation scenario for a site.

    The two paper scenarios are ``build_scenario("berkeley")`` and
    ``build_scenario("houston")``.  ``include_extreme_events=False``
    removes the coordinated dunkelflaute events (ablation A4).

    The ensemble axes (DESIGN.md §6) thread through here:
    ``event_severity`` scales the dunkelflaute depth/length,
    ``carbon_trajectory`` names a grid-decarbonization future, and
    ``tariff_variant`` a rate-structure future; workload growth is plain
    ``mean_power_w`` scaling.  ``name`` overrides the scenario's display
    name (ensemble members need unique ones).
    """
    loc = get_location(location) if isinstance(location, str) else location
    # Key on the exact float: rounding made two mean powers within 0.5 W
    # silently share a cached scenario.
    key = (
        loc.name,
        year_label,
        n_hours,
        float(mean_power_w),
        include_extreme_events,
        float(event_severity),
        carbon_trajectory,
        tariff_variant,
        name,
    )
    if use_cache and key in _SCENARIO_CACHE:
        return _SCENARIO_CACHE[key]

    units = unit_profiles(
        loc,
        year_label,
        n_hours,
        include_extreme_events=include_extreme_events,
        event_severity=event_severity,
        use_cache=use_cache,
    )
    workload = synthesize_datacenter_trace(mean_power_w, year_label, n_hours)
    carbon = synthesize_carbon_intensity(
        loc.grid_region, year_label, n_hours, trajectory=carbon_trajectory
    )
    tariff = tou_tariff_for(loc.grid_region, variant=tariff_variant)

    scenario = Scenario(
        name=name or loc.name,
        location=loc,
        solar_resource=units.solar_resource,
        wind_resource=units.wind_resource,
        workload=workload,
        carbon=carbon,
        tariff=tariff,
        solar_per_kw_w=units.solar_per_kw_w,
        wind_per_turbine_w=units.wind_per_turbine_w,
    )
    if use_cache:
        _SCENARIO_CACHE[key] = scenario
    return scenario


def clear_scenario_cache() -> None:
    """Drop all cached scenarios and unit profiles (test isolation)."""
    _SCENARIO_CACHE.clear()
    _UNIT_PROFILE_CACHE.clear()
