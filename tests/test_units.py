"""The scale factors and paper constants in repro.units."""

import pytest

from repro import units


class TestScaleFactors:
    """The scale factors must agree with each other: one inconsistent
    factor is the "off by 1000" error the module exists to prevent."""

    def test_power_factors_chain(self):
        assert units.W_PER_MW == units.W_PER_KW * units.KW_PER_MW
        assert units.W_PER_KW == 1_000.0

    def test_energy_factors_chain(self):
        assert units.WH_PER_MWH == units.WH_PER_KWH * units.KW_PER_MW
        assert units.WH_PER_KWH == units.W_PER_KW

    def test_mass_factors(self):
        assert units.KG_PER_TONNE * units.G_PER_KG == 1_000_000.0

    def test_time_factors_chain(self):
        assert units.SECONDS_PER_DAY == units.SECONDS_PER_HOUR * units.HOURS_PER_DAY
        assert units.HOURS_PER_YEAR == units.HOURS_PER_DAY * units.DAYS_PER_YEAR


class TestPaperConstants:
    """The embodied constants must reproduce the paper's table totals."""

    def test_solar_increment_embodied(self):
        # 4 MW × 630 kg/kW = 2 520 tCO2 per increment.
        total_kg = units.SOLAR_INCREMENT_KW * units.SOLAR_EMBODIED_KG_PER_KW
        assert total_kg / 1000.0 == pytest.approx(2_520.0)

    def test_battery_unit_embodied(self):
        # 7.5 MWh × 62 kg/kWh = 465 tCO2 per unit.
        total_kg = units.BATTERY_UNIT_KWH * units.BATTERY_EMBODIED_KG_PER_KWH
        assert total_kg / 1000.0 == pytest.approx(465.0)

    def test_wind_turbine_embodied(self):
        assert units.WIND_EMBODIED_KG_PER_TURBINE / 1000.0 == pytest.approx(1_046.0)

    def test_perlmutter_mean(self):
        assert units.PERLMUTTER_MEAN_POWER_W == pytest.approx(1.62e6)

    def test_search_space_maxima(self):
        # Section 4: up to 40 MW of solar, 30 MW of wind, 60 MWh of storage.
        solar_mw = units.SOLAR_MAX_INCREMENTS * units.SOLAR_INCREMENT_KW / units.KW_PER_MW
        wind_mw = units.WIND_MAX_TURBINES * units.WIND_TURBINE_RATED_KW / units.KW_PER_MW
        battery_mwh = units.BATTERY_MAX_UNITS * units.BATTERY_UNIT_KWH / units.KW_PER_MW
        assert (solar_mw, wind_mw, battery_mwh) == (40.0, 30.0, 60.0)
