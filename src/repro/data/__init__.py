"""Synthetic data substrates replacing the paper's external datasets.

The paper drives its experiments with four external data sources that are
not redistributable/reachable offline:

* NSRDB solar irradiance            → :mod:`repro.data.solar_resource`
* NREL WIND Toolkit wind speeds     → :mod:`repro.data.wind_resource`
* NERSC Perlmutter power traces     → :mod:`repro.data.workload`
* Electricity Maps carbon intensity → :mod:`repro.data.carbon_intensity`

Each generator is deterministic (seeded via :mod:`repro.rng`) and calibrated
to the published site statistics, so the *relative* behaviour the paper's
conclusions rest on (Houston wind-rich / Berkeley solar-rich, CAISO cleaner
than ERCOT, 1.62 MW mean load) is preserved.  See DESIGN.md §1 for the
substitution rationale.
"""

from .locations import BERKELEY, HOUSTON, Location, get_location
from .solar_resource import SolarResource, synthesize_solar_resource
from .wind_resource import WindResource, synthesize_wind_resource
from .workload import WorkloadTrace, synthesize_datacenter_trace
from .carbon_intensity import CarbonIntensityProfile, synthesize_carbon_intensity
from .tariffs import TouTariff, tou_tariff_for
from .weather_events import WeatherEvent, dunkelflaute_events

__all__ = [
    "BERKELEY",
    "HOUSTON",
    "Location",
    "get_location",
    "SolarResource",
    "synthesize_solar_resource",
    "WindResource",
    "synthesize_wind_resource",
    "WorkloadTrace",
    "synthesize_datacenter_trace",
    "CarbonIntensityProfile",
    "synthesize_carbon_intensity",
    "TouTariff",
    "tou_tariff_for",
    "WeatherEvent",
    "dunkelflaute_events",
]
