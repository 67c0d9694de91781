"""Multi-year robustness and sensitivity analyses (library extensions)."""

import numpy as np
import pytest

from repro.core.composition import MicrogridComposition
from repro.core.fastsim import BatchEvaluator
from repro.core.metrics import aggregate_values
from repro.core.multiyear import MultiYearOutcome, evaluate_across_years
from repro.core.sensitivity import (
    best_under_budget_stability,
    crossover_year_analytic,
    scale_operational,
    tornado,
)
from repro.core.study_runner import run_exhaustive_search
from repro.core.parameterspace import ParameterSpace
from repro.exceptions import ConfigurationError

COMPS = [
    MicrogridComposition(0, 0.0, 0),
    MicrogridComposition.from_mw(9.0, 8.0, 22.5),
    MicrogridComposition.from_mw(30.0, 40.0, 60.0),
]


@pytest.fixture(scope="module")
def outcomes():
    # Short years keep the ensemble cheap; 3 years × 3 compositions.
    return evaluate_across_years(
        "houston", COMPS, year_labels=(2022, 2023, 2024), n_hours=24 * 60
    )


class TestMultiYear:
    def test_shapes(self, outcomes):
        assert len(outcomes) == len(COMPS)
        for o in outcomes:
            assert o.operational_tco2_day_by_year.shape == (3,)
            assert o.coverage_by_year.shape == (3,)

    def test_interannual_variability_exists(self, outcomes):
        """Different weather years must produce different outcomes for a
        renewable-backed composition (but not for the grid-only one)."""
        baseline, mid, _ = outcomes
        assert baseline.coverage_by_year.std() == 0.0
        assert mid.operational_tco2_day_by_year.std() > 0.0

    def test_statistics_consistent(self, outcomes):
        o = outcomes[1]
        assert o.operational_worst >= o.operational_mean >= 0.0
        assert 0.0 <= o.coverage_worst <= o.coverage_mean <= 1.0

    def test_cvar_between_mean_and_worst(self, outcomes):
        o = outcomes[1]
        cvar = aggregate_values(o.operational_tco2_day_by_year, "cvar:0.34")
        assert o.operational_mean <= cvar <= o.operational_worst + 1e-12

    def test_cvar_alpha_one_is_mean(self, outcomes):
        o = outcomes[1]
        cvar = aggregate_values(o.operational_tco2_day_by_year, "cvar:1.0")
        assert cvar == pytest.approx(o.operational_mean)

    def test_cvar_small_alpha_is_worst_year(self, outcomes):
        """With three years, any alpha up to 1/3 keeps only the worst one."""
        for o in outcomes:
            years = o.operational_tco2_day_by_year
            for alpha in (0.05, 0.2, 1.0 / 3.0):
                assert aggregate_values(years, f"cvar:{alpha}") == o.operational_worst

    def test_cvar_grows_as_alpha_shrinks(self, outcomes):
        years = outcomes[1].operational_tco2_day_by_year
        cvars = [aggregate_values(years, f"cvar:{a}") for a in (1.0, 0.67, 0.34)]
        assert cvars == sorted(cvars)
        assert cvars[-1] == pytest.approx(np.sort(years)[-2:].mean())

    def test_robust_ranking_order(self, outcomes):
        scores = [
            aggregate_values(o.operational_tco2_day_by_year, "cvar:0.25")
            for o in outcomes
        ]
        order = np.argsort(scores, kind="stable")
        # The max build-out dominates operationally in every year, and the
        # grid-only baseline is the least robust.
        assert [outcomes[i].composition for i in order] == [COMPS[2], COMPS[1], COMPS[0]]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            evaluate_across_years("houston", COMPS, year_labels=())
        o = MultiYearOutcome(
            composition=COMPS[0],
            embodied_tonnes=0.0,
            operational_tco2_day_by_year=np.array([1.0]),
            coverage_by_year=np.array([0.0]),
        )
        with pytest.raises(ConfigurationError):
            aggregate_values(o.operational_tco2_day_by_year, "cvar:0.0")

    def test_empty_composition_list(self):
        assert evaluate_across_years("houston", [], year_labels=(2024,)) == []


@pytest.fixture(scope="module")
def evaluated_pair(houston):
    be = BatchEvaluator(houston)
    baseline = be.evaluate_one(COMPS[0])
    buildout = be.evaluate_one(COMPS[2])
    return baseline, buildout


class TestSensitivity:
    def test_scale_operational_linear(self, evaluated_pair):
        baseline, _ = evaluated_pair
        assert scale_operational(baseline, 2.0) == pytest.approx(
            2.0 * baseline.operational_tco2_per_day
        )

    def test_crossover_analytic_matches_projection(self, evaluated_pair):
        """The closed form must agree with the numerical projection."""
        from repro.core.projection import crossover_year, project_many

        baseline, buildout = evaluated_pair
        analytic = crossover_year_analytic(baseline, buildout)
        projections = project_many([baseline, buildout], horizon_years=25.0,
                                   samples_per_year=12)
        numeric = crossover_year(projections[0], projections[1])
        assert analytic == pytest.approx(numeric, abs=0.2)

    def test_cleaner_grid_delays_crossover(self, evaluated_pair):
        """If the grid decarbonizes (CI × 0.5), buying hardware pays back
        later — a central caveat for long-term planning."""
        baseline, buildout = evaluated_pair
        nominal = crossover_year_analytic(baseline, buildout)
        clean = crossover_year_analytic(baseline, buildout, ci_multiplier=0.5)
        assert clean > nominal * 1.8

    def test_cheaper_hardware_advances_crossover(self, evaluated_pair):
        baseline, buildout = evaluated_pair
        nominal = crossover_year_analytic(baseline, buildout)
        cheap = crossover_year_analytic(baseline, buildout, embodied_multiplier=0.5)
        assert cheap == pytest.approx(0.5 * nominal, rel=1e-9)

    def test_no_crossover_when_buildout_not_better(self, evaluated_pair):
        baseline, _ = evaluated_pair
        assert crossover_year_analytic(baseline, baseline) is None

    def test_tornado_ranking(self, evaluated_pair):
        baseline, buildout = evaluated_pair
        results = tornado(baseline, buildout)
        assert {r.factor for r in results} == {"carbon_intensity", "embodied_carbon"}
        swings = [r.swing for r in results]
        assert swings == sorted(swings, reverse=True)
        assert all(r.swing > 0 for r in results)

    def test_best_under_budget_stability(self, houston_month):
        space = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=3)
        evaluated = BatchEvaluator(houston_month).evaluate(space.all_compositions())
        picks = best_under_budget_stability(evaluated, budget_tco2=5_000.0)
        assert picks  # at least the nominal multiplier produced a pick
        # Rising embodied multipliers can only shrink the affordable set,
        # so the picked composition's nominal embodied cost is non-increasing.
        from repro.core.embodied import embodied_carbon_tonnes

        costs = [embodied_carbon_tonnes(picks[m]) for m in sorted(picks)]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_validation(self, evaluated_pair):
        baseline, buildout = evaluated_pair
        with pytest.raises(ConfigurationError):
            crossover_year_analytic(baseline, buildout, ci_multiplier=0.0)
        with pytest.raises(ConfigurationError):
            scale_operational(baseline, -1.0)
        with pytest.raises(ConfigurationError):
            best_under_budget_stability([baseline], budget_tco2=0.0)
