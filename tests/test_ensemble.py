"""Scenario-ensemble subsystem (DESIGN.md §6).

Spec parsing and crossing, per-axis seeding invariants, the shared
unit-profile cache, parallel member builds, stacked-vs-serial
equivalence, and the journaled ensemble study's resume identity.
"""

import numpy as np
import pytest

from repro.blackbox import JournalStorage
from repro.core.composition import MicrogridComposition
from repro.core.ensemble import (
    EnsembleMember,
    EnsembleSpec,
    build_ensemble,
    evaluate_ensemble,
)
from repro.core.fastsim import BatchEvaluator
from repro.core.metrics import COMPARABLE_METRIC_FIELDS
from repro.core.scenario import build_scenario
from repro.data.locations import get_location
from repro.data.weather_events import WeatherEvent, dunkelflaute_events
from repro.exceptions import ConfigurationError

N_HOURS = 240

COMPS = [
    MicrogridComposition(0, 0.0, 0),
    MicrogridComposition.from_mw(9.0, 8.0, 22.5),
    MicrogridComposition.from_mw(30.0, 40.0, 60.0),
]


class TestEnsembleSpecParsing:
    def test_year_range_inclusive(self):
        spec = EnsembleSpec.parse("years=2020-2023")
        assert spec.years == (2020, 2021, 2022, 2023)

    def test_year_list(self):
        spec = EnsembleSpec.parse("years=2020:2022:2024")
        assert spec.years == (2020, 2022, 2024)

    def test_multi_axis_cross_product(self):
        spec = EnsembleSpec.parse(
            "years=2020-2021,growth=1.0:1.3,carbon=baseline:cleaner,"
            "severity=1.0:1.5,tariff=default:flat",
            sites=("berkeley", "houston"),
        )
        assert len(spec) == 2 * 2 * 2 * 2 * 2 * 2
        assert len(spec.members()) == len(spec)

    def test_sites_axis_overrides_default(self):
        spec = EnsembleSpec.parse("sites=berkeley:houston,years=2024")
        assert spec.sites == ("berkeley", "houston")

    def test_spec_string_round_trips(self):
        spec = EnsembleSpec.parse(
            "years=2020-2024,growth=1.0:1.15,severity=1.0:1.5",
            sites=("houston",),
            n_hours=N_HOURS,
        )
        again = EnsembleSpec.parse(spec.spec_string(), n_hours=N_HOURS)
        assert again.members() == spec.members()

    def test_member_names_unique_and_compact(self):
        spec = EnsembleSpec.parse("years=2020-2021,growth=1.0:1.3,severity=1.0:1.5")
        names = [m.name() for m in spec.members()]
        assert len(set(names)) == len(names)
        assert "houston-2020" in names  # all-default member keeps site-year name
        assert any("+g1.3" in n and "+x1.5" in n for n in names)

    @pytest.mark.parametrize(
        "bad",
        [
            "decade=2020",            # unknown axis
            "years",                  # no '='
            "years=",                 # empty values
            "years=20x0",             # malformed int
            "years=2024-2020",        # empty range
            "growth=fast",            # malformed float
            "growth=0",               # non-positive growth
            "severity=-1",            # non-positive severity
            "carbon=fusion",          # unknown trajectory
            "tariff=negative",        # unknown variant
            "sites=atlantis",         # unknown site
            "years=2020:2020",        # duplicate axis values
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            EnsembleSpec.parse(bad)


class TestSeedingInvariants:
    """Adding an axis never perturbs existing members (DESIGN.md §6)."""

    def test_year_only_member_matches_plain_scenario(self):
        [member] = build_ensemble(
            EnsembleSpec(years=(2021,), n_hours=N_HOURS)
        )
        plain = build_scenario("houston", year_label=2021, n_hours=N_HOURS)
        np.testing.assert_array_equal(member.solar_per_kw_w, plain.solar_per_kw_w)
        np.testing.assert_array_equal(member.wind_per_turbine_w, plain.wind_per_turbine_w)
        np.testing.assert_array_equal(member.workload.power_w, plain.workload.power_w)
        np.testing.assert_array_equal(
            member.carbon.intensity_g_per_kwh, plain.carbon.intensity_g_per_kwh
        )

    def test_crossing_in_an_axis_preserves_base_members(self):
        base = build_ensemble(EnsembleSpec(years=(2020, 2021), n_hours=N_HOURS))
        crossed = build_ensemble(
            EnsembleSpec(
                years=(2020, 2021),
                growth=(1.0, 1.3),
                severity=(1.0, 1.5),
                carbon=("baseline", "cleaner"),
                n_hours=N_HOURS,
            )
        )
        by_name = {sc.name: sc for sc in crossed}
        for sc in base:
            twin = by_name[sc.name]
            np.testing.assert_array_equal(twin.solar_per_kw_w, sc.solar_per_kw_w)
            np.testing.assert_array_equal(twin.wind_per_turbine_w, sc.wind_per_turbine_w)
            np.testing.assert_array_equal(twin.workload.power_w, sc.workload.power_w)
            np.testing.assert_array_equal(
                twin.carbon.intensity_g_per_kwh, sc.carbon.intensity_g_per_kwh
            )

    def test_severity_scales_drawn_events_not_the_draws(self):
        loc = get_location("houston")
        base = dunkelflaute_events(loc, 2024)
        harsh = dunkelflaute_events(loc, 2024, severity=1.8)
        assert dunkelflaute_events(loc, 2024, severity=1.0) == base
        assert len(harsh) == len(base)
        for b, h in zip(base, harsh):
            assert h.start_hour == b.start_hour  # same underlying draw
            assert h.wind_factor < b.wind_factor  # deeper
            assert h.solar_factor < b.solar_factor
            assert h.duration_hours >= b.duration_hours  # longer

    def test_severity_validation(self):
        with pytest.raises(ConfigurationError):
            dunkelflaute_events(get_location("houston"), 2024, severity=0.0)
        with pytest.raises(ConfigurationError):
            WeatherEvent(0, 24, 0.1, 0.4).scaled(-1.0)

    def test_carbon_trajectory_rescales_mean_only(self):
        from repro.data.carbon_intensity import synthesize_carbon_intensity

        base = synthesize_carbon_intensity("ERCOT", 2024, N_HOURS)
        clean = synthesize_carbon_intensity("ERCOT", 2024, N_HOURS, trajectory="cleaner")
        assert clean.mean() == pytest.approx(0.7 * base.mean())
        # Same hourly structure: clipping floor aside, a pure rescale.
        np.testing.assert_allclose(
            clean.intensity_g_per_kwh, 0.7 * base.intensity_g_per_kwh, rtol=1e-12
        )

    def test_tariff_variants(self):
        from repro.data.tariffs import tou_tariff_for

        base = tou_tariff_for("ERCOT")
        flat = tou_tariff_for("ERCOT", "flat")
        volatile = tou_tariff_for("ERCOT", "volatile")
        assert np.unique(flat.price_by_hour_of_day()).size == 1
        assert volatile.on_peak_usd_kwh > base.on_peak_usd_kwh
        assert volatile.off_peak_usd_kwh < base.off_peak_usd_kwh
        with pytest.raises(ConfigurationError):
            tou_tariff_for("ERCOT", "surge")


class TestUnitProfileSharing:
    def test_members_differing_in_cheap_axes_share_profiles(self):
        members = build_ensemble(
            EnsembleSpec(
                years=(2022,),
                growth=(1.0, 1.3),
                carbon=("baseline", "dirtier"),
                n_hours=N_HOURS,
            )
        )
        assert len(members) == 4
        first = members[0]
        for sc in members[1:]:
            # identity, not equality: one synthesis, shared by all four
            assert sc.solar_per_kw_w is first.solar_per_kw_w
            assert sc.wind_per_turbine_w is first.wind_per_turbine_w


class TestStackedEnsembleEvaluation:
    def test_stacked_matches_serial_bit_for_bit(self):
        scenarios = build_ensemble(
            EnsembleSpec(years=(2020, 2021), growth=(1.0, 1.2), n_hours=N_HOURS)
        )
        robust = evaluate_ensemble(scenarios, COMPS, aggregate="cvar:0.5")
        serial = [BatchEvaluator(sc).evaluate(COMPS) for sc in scenarios]
        for i, r in enumerate(robust):
            for s in range(len(scenarios)):
                for name in COMPARABLE_METRIC_FIELDS:
                    assert getattr(r.per_scenario[s].metrics, name) == getattr(
                        serial[s][i].metrics, name
                    )

    def test_evaluate_across_years_is_one_stacked_loop(self):
        """The multi-year veneer must agree with a serial per-year sweep."""
        from repro.core.multiyear import evaluate_across_years

        years = (2022, 2023)
        outcomes = evaluate_across_years("houston", COMPS, years, n_hours=N_HOURS)
        for j, year in enumerate(years):
            sc = build_scenario("houston", year_label=year, n_hours=N_HOURS)
            for i, e in enumerate(BatchEvaluator(sc).evaluate(COMPS)):
                assert outcomes[i].operational_tco2_day_by_year[j] == (
                    e.metrics.operational_tco2_per_day
                )
                assert outcomes[i].coverage_by_year[j] == e.metrics.coverage

    def test_cvar_over_years(self):
        """A year ensemble's CVaR is the metrics reducer over its year axis."""
        from repro.core.metrics import aggregate_values
        from repro.core.multiyear import MultiYearOutcome

        outcome = MultiYearOutcome(
            composition=COMPS[0],
            embodied_tonnes=0.0,
            operational_tco2_day_by_year=np.array([4.0, 1.0, 3.0, 2.0]),
            coverage_by_year=np.zeros(4),
        )
        years = outcome.operational_tco2_day_by_year
        assert aggregate_values(years, "cvar:0.5") == 3.5
        assert aggregate_values(years, "cvar:1.0") == outcome.operational_mean
        with pytest.raises(ConfigurationError):
            aggregate_values(years, "cvar:0.0")

    def test_runner_rejects_malformed_aggregate_early(self, houston_month):
        from repro.core.study_runner import OptimizationRunner

        with pytest.raises(ConfigurationError):
            OptimizationRunner([houston_month], aggregate="cvar:nope")


def _journal_trials(path):
    studies = JournalStorage(path).load_all()
    [stored] = studies.values()
    return [(t.params, t.values) for t in stored.trials]


class TestEnsembleStudyResume:
    """A killed `repro study run --ensemble …` resumed from its journal
    reproduces the identical final Pareto front (DESIGN.md §3 + §6)."""

    ARGS = [
        "--ensemble", "years=2020-2021,growth=1.0:1.2",
        "--aggregate", "cvar:0.25",
        "--population", "2",
        "--seed", "11",
        "--set", f"scenario.n_hours={N_HOURS}",
    ]

    def _run(self, journal, *extra):
        from repro.cli import main

        return main(["study", *extra, "--journal", str(journal)])

    def test_interrupted_resume_reaches_identical_front(self, tmp_path, capsys):
        from repro.cli import main

        full = tmp_path / "full.jsonl"
        assert main(["study", "run", "--journal", str(full), "--trials", "8", *self.ARGS]) == 0

        interrupted = tmp_path / "interrupted.jsonl"
        # "Kill" after 5 of 8 trials: run to a smaller target, then
        # resume with the real one — same journal state as a mid-run kill
        # plus §3's partial-generation truncation on reload.
        assert main(["study", "run", "--journal", str(interrupted), "--trials", "5", *self.ARGS]) == 0
        assert main(["study", "resume", "--journal", str(interrupted), "--trials", "8"]) == 0

        assert _journal_trials(interrupted) == _journal_trials(full)

    def test_status_prints_ensemble_metadata(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "ens.jsonl"
        assert main(["study", "run", "--journal", str(journal), "--trials", "4", *self.ARGS]) == 0
        capsys.readouterr()
        assert main(["study", "status", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "ensemble (4 members):" in out
        assert "years=2020:2021" in out and "growth=1.0:1.2" in out
        assert "aggregate: cvar:0.25" in out
