"""Physical unit constants.

The whole library uses a consistent internal unit convention:

* power        — watts (W); megawatt-scale values are explicit (``MW``)
* energy       — watt-hours (Wh)
* carbon mass  — kilograms of CO2 (kgCO2); tables use tonnes (tCO2)
* carbon rate  — grams of CO2 per kilowatt-hour (gCO2/kWh), the unit used by
                 Electricity Maps and the paper
* time         — seconds for durations, hours for resource time series

Keeping the scale factors in one module avoids the classic "off by 1000"
errors when mixing kW-scale renewable models with MW-scale data center
loads.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Scale factors
# ---------------------------------------------------------------------------

#: Watts per kilowatt.
W_PER_KW = 1_000.0
#: Watts per megawatt.
W_PER_MW = 1_000_000.0
#: Kilowatts per megawatt.
KW_PER_MW = 1_000.0
#: Watt-hours per kilowatt-hour.
WH_PER_KWH = 1_000.0
#: Watt-hours per megawatt-hour.
WH_PER_MWH = 1_000_000.0
#: Kilograms per (metric) tonne.
KG_PER_TONNE = 1_000.0
#: Grams per kilogram.
G_PER_KG = 1_000.0

#: Seconds per hour / day / (Julian) year.
SECONDS_PER_HOUR = 3_600.0
SECONDS_PER_DAY = 86_400.0
HOURS_PER_DAY = 24.0
HOURS_PER_YEAR = 8_760.0
DAYS_PER_YEAR = 365.0

# ---------------------------------------------------------------------------
# Paper constants (Section 4, "Experiments")
# ---------------------------------------------------------------------------

#: Embodied footprint of "low carbon" solar modules (kgCO2 per kW DC).
SOLAR_EMBODIED_KG_PER_KW = 630.0
#: Rated capacity of one solar increment (kW) — 4 MW per the paper.
SOLAR_INCREMENT_KW = 4_000.0
#: Number of solar increments (0..10 → 0..40 MW).
SOLAR_MAX_INCREMENTS = 10

#: Rated capacity of one wind turbine (kW) — 3 MW per the paper.
WIND_TURBINE_RATED_KW = 3_000.0
#: Embodied footprint of one 3 MW turbine (kgCO2) [Smoucha et al. 2016].
WIND_EMBODIED_KG_PER_TURBINE = 1_046_000.0
#: Maximum number of turbines.
WIND_MAX_TURBINES = 10

#: Usable energy of one battery unit (kWh) — one Fluence Smartstack, 7.5 MWh.
BATTERY_UNIT_KWH = 7_500.0
#: Embodied footprint of LFP lithium-ion storage (kgCO2 per kWh)
#: [Peiseler et al. 2024].
BATTERY_EMBODIED_KG_PER_KWH = 62.0
#: Maximum number of battery units (0..8 → 0..60 MWh).
BATTERY_MAX_UNITS = 8

#: Average Perlmutter power draw during the paper's study window (W).
PERLMUTTER_MEAN_POWER_W = 1_620_000.0
