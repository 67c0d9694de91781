"""The vectorized dispatch engine (DESIGN.md §5).

Covers what the cross-validation suite does not: the stacked
multi-scenario loop's bit-for-bit equivalence with serial evaluation,
per-step power conservation for every policy, the trace mode behind
``soc_history``, the policy registry, robust aggregation, and the
multi-scenario study wiring (runner, picklable objective, CLI flags).
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core import kernel
from repro.core.composition import MicrogridComposition
from repro.core.dispatch import (
    ISLANDED_EPS_W,
    POLICY_NAMES,
    CarbonAwareDispatch,
    DefaultDispatch,
    IslandedDispatch,
    TimeWindowDispatch,
    TouArbitrageDispatch,
    make_policy,
    run_dispatch,
    run_dispatch_loop,
    stack_scenarios,
)
from repro.core.fastsim import BatchEvaluator, coverage_grid, evaluate_across_scenarios
from repro.core.metrics import (
    COMPARABLE_METRIC_FIELDS as METRIC_FIELDS,
    RobustEvaluatedComposition,
    robust_evaluations,
)
from repro.core.parameterspace import PAPER_SPACE, ParameterSpace
from repro.core.study_runner import CompositionObjective, OptimizationRunner
from repro.exceptions import ConfigurationError
from repro.sam.batterymodels.clc import CLCParameters

COMPS = [
    MicrogridComposition(0, 0.0, 0),
    MicrogridComposition.from_mw(12.0, 0.0, 7.5),
    MicrogridComposition.from_mw(9.0, 8.0, 22.5),
    MicrogridComposition.from_mw(30.0, 40.0, 60.0),
    MicrogridComposition.from_mw(6.0, 4.0, 0.0),
]

class TestStackedEquivalence:
    def test_two_scenarios_bitwise_equal_to_serial(self, houston_month, berkeley_month):
        """The (S, N) stacked loop reproduces per-scenario serial results
        bit-for-bit — stacking scenarios cannot change any number."""
        scenarios = [houston_month, berkeley_month]
        comps = PAPER_SPACE.all_compositions()
        stacked = evaluate_across_scenarios(scenarios, comps)
        for s, scenario in enumerate(scenarios):
            serial = BatchEvaluator(scenario).evaluate(comps)
            for e_serial, e_stacked in zip(serial, stacked[s]):
                for name in METRIC_FIELDS:
                    assert getattr(e_serial.metrics, name) == getattr(
                        e_stacked.metrics, name
                    ), (scenario.name, e_serial.composition, name)

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_stacked_equivalence_holds_per_policy(
        self, policy_name, houston_month, berkeley_month
    ):
        scenarios = [houston_month, berkeley_month]
        policy = make_policy(policy_name, scenarios)
        stacked = evaluate_across_scenarios(scenarios, COMPS, policy=policy)
        for s, scenario in enumerate(scenarios):
            # A single-scenario policy must carry that scenario's own
            # thresholds, i.e. row s of the stacked policy's arrays.
            solo = BatchEvaluator(
                scenario, policy=_row_policy(policy, s)
            ).evaluate(COMPS)
            for e_serial, e_stacked in zip(solo, stacked[s]):
                for name in METRIC_FIELDS:
                    assert getattr(e_serial.metrics, name) == getattr(
                        e_stacked.metrics, name
                    )

    def test_misaligned_scenarios_rejected(self, houston_month, houston):
        with pytest.raises(ConfigurationError, match="misaligned"):
            stack_scenarios([houston_month, houston])

    def test_empty_compositions(self, houston_month, berkeley_month):
        assert evaluate_across_scenarios([houston_month, berkeley_month], []) == [[], []]


def _row_policy(policy, s):
    """Single-scenario variant of a stacked policy (row s thresholds)."""
    if isinstance(policy, CarbonAwareDispatch):
        return CarbonAwareDispatch(float(np.asarray(policy.ci_discharge_g_per_kwh).reshape(-1)[s]))
    if isinstance(policy, TouArbitrageDispatch):
        return TouArbitrageDispatch(
            float(np.asarray(policy.charge_price_usd_kwh).reshape(-1)[s]),
            float(np.asarray(policy.discharge_price_usd_kwh).reshape(-1)[s]),
        )
    return policy


def _unlowerable(policy):
    """The same policy as an instance of a subclass, which is not
    lowerable (``kernel.is_lowerable`` checks the exact type), so
    ``run_dispatch`` runs it on the reference loop."""
    twin = copy.copy(policy)
    object.__setattr__(twin, "__class__", type("Sub", (type(policy),), {}))  # frozen
    return twin

RESULT_FIELDS = (
    "import_wh",
    "export_wh",
    "charge_wh",
    "discharge_wh",
    "unserved_wh",
    "emissions_kg",
    "cost_usd",
    "islanded_steps",
)


class TestEngineMatrix:
    """Whichever path ``run_dispatch`` picks, the metrics are the
    reference loop's (DESIGN.md §9)."""

    @pytest.mark.parametrize("engine", ["loop", "segments"])
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_engines_bitwise_equal_per_policy(
        self, engine, policy_name, houston_month, berkeley_month, request
    ):
        """``segments``: the policy as made; ``loop``: its unlowerable
        twin, which ``run_dispatch`` falls back to the loop for."""
        scenarios = [houston_month, berkeley_month]
        policy = make_policy(policy_name, scenarios)
        routed = _unlowerable(policy) if engine == "loop" else policy
        got = evaluate_across_scenarios(scenarios, COMPS, policy=routed)
        request.getfixturevalue("loop_dispatch")
        ref = evaluate_across_scenarios(scenarios, COMPS, policy=policy)
        for row_ref, row_got in zip(ref, got):
            for e_ref, e_got in zip(row_ref, row_got):
                for name in METRIC_FIELDS:
                    assert getattr(e_got.metrics, name) == getattr(
                        e_ref.metrics, name
                    ), (engine, policy_name, e_ref.composition, name)

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_routing_follows_the_policy_type(self, policy_name, houston_month, monkeypatch):
        """Each registered policy is lowerable, so ``run_dispatch`` runs
        it on the segments engine; its unlowerable twin runs on the loop
        and gives the same bits."""
        calls = []
        real = kernel.run_dispatch_segments

        def spy(*args, **kwargs):
            calls.append(policy_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "run_dispatch_segments", spy)
        stack = stack_scenarios([houston_month])
        policy = make_policy(policy_name, [houston_month])
        solar_kw = np.array([c.solar_kw for c in COMPS])
        turb = np.array([float(c.n_turbines) for c in COMPS])
        cap = np.array([c.battery_wh for c in COMPS])
        params = CLCParameters(capacity_wh=1.0)
        got = run_dispatch(stack, solar_kw, turb, cap, params, policy=policy)
        assert calls == [policy_name]
        twin = run_dispatch(stack, solar_kw, turb, cap, params, policy=_unlowerable(policy))
        assert calls == [policy_name]
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(got, name), getattr(twin, name), err_msg=(policy_name, name)
            )

    def test_auto_engine_never_silently_changes_results(self, houston_month, request):
        """Tier-1 guard: the default dispatch path is bit-for-bit the
        reference loop through the public evaluation API."""
        auto = evaluate_across_scenarios([houston_month], COMPS)
        request.getfixturevalue("loop_dispatch")
        loop = evaluate_across_scenarios([houston_month], COMPS)
        for e_auto, e_loop in zip(auto[0], loop[0]):
            for name in METRIC_FIELDS:
                assert getattr(e_auto.metrics, name) == getattr(e_loop.metrics, name)


def _legacy_run_dispatch(stack, solar_kw, turbine_factor, capacity_wh, params, policy):
    """The reference loop as written before the profile-slice hoist.

    Re-slices the strided (S, T) profile columns every step — the exact
    code shape ``run_dispatch`` used before hoisting time-major copies
    out of the loop.  Pins that the hoist changed no bits.
    """
    from repro.sam.batterymodels.clc import clc_step_arrays
    from repro.units import SECONDS_PER_HOUR, WH_PER_KWH

    n = int(solar_kw.size)
    s, t_steps = stack.n_scenarios, stack.n_steps
    dt_s = stack.step_s
    dt_h = dt_s / SECONDS_PER_HOUR
    cap = np.asarray(capacity_wh, dtype=np.float64)
    safe_cap = np.maximum(cap, 1e-12)
    soc0 = float(np.clip(0.5, params.soc_min, params.soc_max))
    energy_wh = np.broadcast_to(cap * soc0, (s, n)).copy()
    totals = {name: np.zeros((s, n)) for name in RESULT_FIELDS}
    zeros_sn = np.zeros((s, n))
    eps_wh = ISLANDED_EPS_W * dt_h
    for t in range(t_steps):
        gen_t = (
            stack.solar_per_kw_w[:, t][:, None] * solar_kw
            + stack.wind_per_turbine_w[:, t][:, None] * turbine_factor
        )
        net_t = gen_t - stack.load_w[:, t][:, None]
        request = policy.dispatch_arrays(
            net_t,
            energy_wh / safe_cap,
            stack.prices_usd_kwh[:, t][:, None],
            stack.ci_g_per_kwh[:, t][:, None],
            t * dt_s,
            dt_s,
        )
        accepted, energy_wh = clc_step_arrays(
            cap,
            energy_wh,
            request,
            dt_s,
            eta_charge=params.eta_charge,
            eta_discharge=params.eta_discharge,
            max_charge_c_rate=params.max_charge_c_rate,
            max_discharge_c_rate=params.max_discharge_c_rate,
            taper_soc_threshold=params.taper_soc_threshold,
            soc_min=params.soc_min,
            soc_max=params.soc_max,
            self_discharge_per_hour=params.self_discharge_per_hour,
        )
        residual = net_t - accepted
        if policy.islanded:
            imp_t = zeros_sn
            uns_t = np.maximum(-residual, 0.0) * dt_h
        else:
            imp_t = np.maximum(-residual, 0.0) * dt_h
            uns_t = zeros_sn
        exp_t = np.maximum(residual, 0.0) * dt_h
        totals["import_wh"] += imp_t
        totals["export_wh"] += exp_t
        totals["unserved_wh"] += uns_t
        totals["charge_wh"] += np.maximum(accepted, 0.0) * dt_h
        totals["discharge_wh"] += np.maximum(-accepted, 0.0) * dt_h
        totals["emissions_kg"] += imp_t / WH_PER_KWH * stack.ci_g_per_kwh[:, t][:, None] / 1_000.0
        totals["cost_usd"] += (
            imp_t / WH_PER_KWH * stack.prices_usd_kwh[:, t][:, None]
            - exp_t / WH_PER_KWH * stack.export_credit_usd_kwh
        )
        totals["islanded_steps"] += (imp_t <= eps_wh) & (uns_t <= eps_wh)
    return totals


class TestProfileSliceHoist:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_hoisted_loop_bitwise_equals_prehoist_slicing(
        self, policy_name, houston_month, berkeley_month
    ):
        scenarios = [houston_month, berkeley_month]
        stack = stack_scenarios(scenarios)
        policy = make_policy(policy_name, scenarios)
        solar_kw = np.array([c.solar_kw for c in COMPS])
        turb = np.array([float(c.n_turbines) for c in COMPS])
        cap = np.array([c.battery_wh for c in COMPS])
        params = CLCParameters(capacity_wh=1.0)
        res = run_dispatch_loop(stack, solar_kw, turb, cap, params, policy=policy)
        legacy = _legacy_run_dispatch(stack, solar_kw, turb, cap, params, policy)
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(res, name), legacy[name], err_msg=(policy_name, name)
            )


class TestConservation:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_dispatch_conserves_power_each_step(self, policy_name, houston_month):
        """import + unserved − export + discharge − charge = −net, per step."""
        scenario = houston_month
        stack = stack_scenarios([scenario])
        policy = make_policy(policy_name, [scenario])
        solar_kw = np.array([c.solar_kw for c in COMPS])
        turb = np.array([float(c.n_turbines) for c in COMPS])  # wake factor ≤ n is fine here
        cap = np.array([c.battery_wh for c in COMPS])
        res = run_dispatch(
            stack,
            solar_kw,
            turb,
            cap,
            CLCParameters(capacity_wh=1.0),
            policy=policy,
            trace_flows=True,
        )
        f = res.flows
        residual = (
            f["import_w"]
            + f["unserved_w"]
            - f["export_w"]
            + f["discharge_w"]
            - f["charge_w"]
            + f["net_w"]
        )
        assert np.abs(residual).max() < 1e-3  # W, at MW scale

    @pytest.mark.parametrize("policy_name", sorted(set(POLICY_NAMES) - {"islanded"}))
    def test_grid_connected_policies_serve_all_demand(self, policy_name, houston_month):
        evaluated = BatchEvaluator(
            houston_month, policy=make_policy(policy_name, [houston_month])
        ).evaluate(COMPS)
        for e in evaluated:
            assert e.metrics.unserved_energy_wh == 0.0

    def test_islanded_never_imports(self, houston_month):
        evaluated = BatchEvaluator(houston_month, policy=IslandedDispatch()).evaluate(COMPS)
        for e in evaluated:
            assert e.metrics.grid_import_wh == 0.0
            assert e.metrics.operational_emissions_kg == 0.0


class TestTraceMode:
    def test_soc_history_matches_scalar_recurrence(self, houston_month):
        """Trace-mode SoC equals the per-step scalar C/L/C recurrence."""
        from repro.sam.batterymodels.clc import clc_step
        from repro.sam.wind.wake import jensen_array_efficiency

        sc = houston_month
        comp = MicrogridComposition.from_mw(9.0, 8.0, 22.5)
        be = BatchEvaluator(sc)
        traced = be.soc_history(comp)

        p = CLCParameters(capacity_wh=comp.battery_wh)
        eff = comp.n_turbines * jensen_array_efficiency(comp.n_turbines)
        net = (
            sc.solar_per_kw_w * comp.solar_kw
            + sc.wind_per_turbine_w * eff
            - sc.workload.power_w
        )
        energy = comp.battery_wh * 0.5
        expected = [0.5]
        for t in range(sc.n_steps):
            _, energy = clc_step(p, energy, float(net[t]), sc.step_s)
            expected.append(energy / comp.battery_wh)
        np.testing.assert_allclose(traced, expected, rtol=0, atol=1e-12)

    def test_soc_histories_batch_shape_and_consistency(self, houston_month):
        be = BatchEvaluator(houston_month)
        traces = be.soc_histories(COMPS)
        assert traces.shape == (houston_month.n_steps + 1, len(COMPS))
        # column for the mixed build-out equals the single-comp trace
        np.testing.assert_array_equal(traces[:, 2], be.soc_history(COMPS[2]))

    def test_soc_history_no_battery_is_flat_zero(self, houston_month):
        soc = BatchEvaluator(houston_month).soc_history(MicrogridComposition(1, 0.0, 0))
        assert soc.shape == (houston_month.n_steps + 1,)
        assert np.all(soc == 0.0)


class TestCoverageGridChunking:
    def test_chunking_is_equivalent(self, houston_month):
        solar = [0.0, 8_000.0, 24_000.0]
        wind = [0, 2, 6]
        full = coverage_grid(houston_month, solar, wind, chunk_steps=10**9)
        chunked = coverage_grid(houston_month, solar, wind, chunk_steps=97)
        np.testing.assert_allclose(chunked, full, rtol=1e-12)

    def test_invalid_chunk_size(self, houston_month):
        with pytest.raises(ConfigurationError):
            coverage_grid(houston_month, [0.0], [0], chunk_steps=0)


class TestPolicyRegistry:
    def test_known_names(self):
        assert set(POLICY_NAMES) == {
            "default",
            "islanded",
            "time_window",
            "carbon_aware",
            "tou_arbitrage",
        }

    def test_unknown_name_rejected(self, houston_month):
        with pytest.raises(ConfigurationError, match="unknown dispatch policy"):
            make_policy("gradient_descent", [houston_month])

    def test_needs_scenarios(self):
        with pytest.raises(ConfigurationError):
            make_policy("default", [])

    def test_per_scenario_thresholds(self, houston_month, berkeley_month):
        tou = make_policy("tou_arbitrage", [houston_month, berkeley_month])
        assert np.asarray(tou.charge_price_usd_kwh).shape == (2, 1)
        assert float(np.asarray(tou.charge_price_usd_kwh)[0, 0]) == pytest.approx(
            houston_month.tariff.off_peak_usd_kwh
        )
        ca = make_policy("carbon_aware", [houston_month, berkeley_month])
        thresholds = np.asarray(ca.ci_discharge_g_per_kwh).reshape(-1)
        # Houston/ERCOT is the dirtier grid: higher median CI threshold.
        assert thresholds[0] > thresholds[1]

    def test_tou_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            TouArbitrageDispatch(charge_price_usd_kwh=0.3, discharge_price_usd_kwh=0.2)

    def test_time_window_validation(self):
        with pytest.raises(ConfigurationError):
            TimeWindowDispatch(discharge_start_h=25.0)

    def test_policies_are_picklable(self, houston_month, berkeley_month):
        for name in POLICY_NAMES:
            policy = make_policy(name, [houston_month, berkeley_month])
            clone = pickle.loads(pickle.dumps(policy))
            assert type(clone) is type(policy)


class TestRobustAggregation:
    def test_worst_and_mean(self, houston_month, berkeley_month):
        per_scenario = evaluate_across_scenarios(
            [houston_month, berkeley_month], COMPS
        )
        worst = robust_evaluations(per_scenario, "worst")
        mean = robust_evaluations(per_scenario, "mean")
        names = ("operational", "cost")
        for i in range(len(COMPS)):
            vectors = np.array([per_scenario[s][i].objectives(names) for s in range(2)])
            np.testing.assert_allclose(worst[i].objectives(names), vectors.max(axis=0))
            np.testing.assert_allclose(mean[i].objectives(names), vectors.mean(axis=0))
            assert worst[i].composition == COMPS[i]
            assert worst[i].scenario_objectives(names) == tuple(
                tuple(v) for v in vectors
            )

    def test_embodied_is_scenario_invariant(self, houston_month, berkeley_month):
        per_scenario = evaluate_across_scenarios(
            [houston_month, berkeley_month], [COMPS[3]]
        )
        robust = robust_evaluations(per_scenario, "worst")[0]
        assert robust.embodied_tonnes == per_scenario[0][0].embodied_tonnes

    def test_unknown_aggregate_rejected(self, houston_month, berkeley_month):
        per_scenario = evaluate_across_scenarios([houston_month], [COMPS[0]])
        with pytest.raises(ConfigurationError, match="unknown aggregate"):
            robust_evaluations(per_scenario, "median")

    def test_misaligned_rows_rejected(self, houston_month, berkeley_month):
        per_scenario = evaluate_across_scenarios(
            [houston_month, berkeley_month], COMPS
        )
        with pytest.raises(ConfigurationError, match="misaligned"):
            robust_evaluations([per_scenario[0], per_scenario[1][:-1]])


SMALL_SPACE = ParameterSpace(
    max_turbines=2, max_solar_increments=2, max_battery_units=1
)


class TestMultiScenarioStudyWiring:
    def test_runner_exhaustive_multi_site(self, houston_month, berkeley_month):
        runner = OptimizationRunner(
            [houston_month, berkeley_month], space=SMALL_SPACE, aggregate="worst"
        )
        result = runner.run_exhaustive()
        assert len(result.evaluated) == len(SMALL_SPACE)
        assert all(isinstance(e, RobustEvaluatedComposition) for e in result.evaluated)
        front = result.front(("embodied", "operational"))
        assert 0 < len(front) <= len(result.evaluated)

    def test_runner_single_site_unchanged(self, houston_month):
        result = OptimizationRunner(houston_month, space=SMALL_SPACE).run_exhaustive()
        assert not any(
            isinstance(e, RobustEvaluatedComposition) for e in result.evaluated
        )

    def test_runner_blackbox_multi_site_with_policy(self, houston_month, berkeley_month):
        scenarios = [houston_month, berkeley_month]
        runner = OptimizationRunner(
            scenarios,
            space=SMALL_SPACE,
            policy=make_policy("carbon_aware", scenarios),
            aggregate="mean",
        )
        result = runner.run_blackbox(n_trials=8, batch_size=4, seed=7)
        assert len(result.study.trials) == 8
        assert result.study.study_name == "houston-berkeley-blackbox"
        # objectives told to the sampler are the robust aggregates
        evaluated = {e.composition: e for e in result.evaluated}
        for trial in result.study.trials:
            comp = SMALL_SPACE.from_params(trial.params)
            assert trial.values == pytest.approx(
                evaluated[comp].objectives(("operational", "embodied"))
            )

    def test_composition_objective_multi_site_picklable(
        self, houston_month, berkeley_month
    ):
        objective = CompositionObjective(
            scenario=(houston_month, berkeley_month),
            space=SMALL_SPACE,
            objectives=("operational", "cost"),
            policy=make_policy("tou_arbitrage", [houston_month, berkeley_month]),
            aggregate="worst",
        )
        clone = pickle.loads(pickle.dumps(objective))
        params = {"n_turbines": 1, "solar_increments": 2, "battery_units": 1}
        assert clone(params) == pytest.approx(objective(params))
        # equals the hand-built robust evaluation
        comp = SMALL_SPACE.from_params(params)
        per_scenario = evaluate_across_scenarios(
            [houston_month, berkeley_month], [comp], policy=objective.policy
        )
        expected = robust_evaluations(per_scenario, "worst")[0].objectives(
            ("operational", "cost")
        )
        assert objective(params) == pytest.approx(expected)

    def test_composition_objective_cosim_uses_policy_twin(self, houston_month):
        policy = make_policy("time_window", [houston_month])
        objective = CompositionObjective(
            scenario=houston_month, space=SMALL_SPACE, cosim=True, policy=policy
        )
        fast = CompositionObjective(
            scenario=houston_month, space=SMALL_SPACE, policy=policy
        )
        params = {"n_turbines": 2, "solar_increments": 1, "battery_units": 1}
        assert objective(params) == pytest.approx(fast(params), rel=1e-9)


class TestCliFlags:
    def test_study_run_multi_site_and_status(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "robust.jsonl"
        rc = main(
            [
                "study",
                "run",
                "--journal",
                str(journal),
                "--sites",
                "berkeley,houston",
                "--policy",
                "tou_arbitrage",
                "--aggregate",
                "worst",
                "--trials",
                "6",
                "--population",
                "3",
                "--seed",
                "11",
                "--set",
                "scenario.n_hours=240",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "berkeley-houston-blackbox" in out
        assert main(["study", "status", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "sites: berkeley,houston" in out
        assert "policy: tou_arbitrage" in out
        assert "aggregate: worst" in out

    def test_study_resume_rebuilds_multi_site_runner(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "robust.jsonl"
        args = [
            "study",
            "run",
            "--journal",
            str(journal),
            "--sites",
            "berkeley,houston",
            "--policy",
            "carbon_aware",
            "--aggregate",
            "mean",
            "--trials",
            "4",
            "--population",
            "2",
            "--seed",
            "3",
            "--set",
            "scenario.n_hours=240",
        ]
        assert main(args) == 0
        capsys.readouterr()
        # resume with a higher target continues the same robust study
        assert (
            main(
                ["study", "resume", "--journal", str(journal), "--trials", "6"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "6 trials" in out
