"""Study/Trial machinery and samplers (repro.blackbox)."""

import numpy as np
import pytest

from repro.blackbox import (
    GridSampler,
    NSGA2Sampler,
    RandomSampler,
    TPESampler,
    TrialState,
    create_study,
)
from repro.exceptions import OptimizationError, TrialPruned


def sphere(trial):
    x = trial.suggest_float("x", -4.0, 4.0)
    y = trial.suggest_float("y", -4.0, 4.0)
    return (x - 1.0) ** 2 + (y + 0.5) ** 2


class TestStudyBasics:
    def test_optimize_single_objective(self):
        study = create_study(direction="minimize", sampler=RandomSampler(seed=0))
        study.optimize(sphere, n_trials=100)
        assert study.best_value < 2.0
        assert set(study.best_params) == {"x", "y"}

    def test_maximize_direction(self):
        study = create_study(direction="maximize", sampler=RandomSampler(seed=0))
        study.optimize(lambda t: t.suggest_float("x", 0.0, 1.0), n_trials=50)
        assert study.best_value > 0.9

    def test_ask_tell_protocol(self):
        study = create_study(direction="minimize", sampler=RandomSampler(seed=1))
        trial = study.ask()
        x = trial.suggest_float("x", 0.0, 1.0)
        frozen = study.tell(trial, x * x)
        assert frozen.state == TrialState.COMPLETE
        assert frozen.values == (x * x,)

    def test_tell_twice_rejected(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        study.tell(trial, 1.0)
        with pytest.raises(OptimizationError):
            study.tell(trial, 2.0)

    def test_tell_wrong_arity_rejected(self):
        study = create_study(directions=["minimize", "minimize"])
        trial = study.ask()
        with pytest.raises(OptimizationError):
            study.tell(trial, 1.0)

    def test_non_finite_rejected(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        with pytest.raises(OptimizationError):
            study.tell(trial, float("nan"))

    def test_best_trial_on_multiobjective_rejected(self):
        study = create_study(directions=["minimize", "minimize"])
        with pytest.raises(OptimizationError):
            _ = study.best_trial

    def test_pruned_trials_excluded(self):
        study = create_study(direction="minimize", sampler=RandomSampler(seed=2))

        def objective(trial):
            x = trial.suggest_float("x", 0.0, 1.0)
            if x > 0.5:
                raise TrialPruned()
            return x

        study.optimize(objective, n_trials=50)
        assert all(t.params["x"] <= 0.5 for t in study.completed_trials())
        assert any(t.state == TrialState.PRUNED for t in study.trials)

    def test_catch_exceptions(self):
        study = create_study(direction="minimize", sampler=RandomSampler(seed=3))

        def objective(trial):
            x = trial.suggest_float("x", 0.0, 1.0)
            if x > 0.7:
                raise ValueError("boom")
            return x

        study.optimize(objective, n_trials=30, catch=(ValueError,))
        assert any(t.state == TrialState.FAILED for t in study.trials)

    def test_parameter_redefinition_rejected(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        trial.suggest_float("x", 0.0, 1.0)
        with pytest.raises(OptimizationError):
            trial.suggest_float("x", 0.0, 2.0)

    def test_direction_and_directions_conflict(self):
        with pytest.raises(OptimizationError):
            create_study(direction="minimize", directions=["minimize"])

    def test_user_attrs(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        trial.set_user_attr("tag", "hello")
        assert trial.user_attrs["tag"] == "hello"


class TestGridSamplerStudy:
    def test_covers_grid_exactly_once(self):
        grid = {"a": [0, 1, 2], "b": [0, 1]}
        study = create_study(direction="minimize", sampler=GridSampler(grid))
        seen = []

        def objective(trial):
            a = trial.suggest_int("a", 0, 2)
            b = trial.suggest_int("b", 0, 1)
            seen.append((a, b))
            return a + b

        study.optimize(objective, n_trials=6)
        assert sorted(set(seen)) == sorted((a, b) for a in range(3) for b in range(2))

    def test_unknown_param_rejected(self):
        study = create_study(direction="minimize", sampler=GridSampler({"a": [1]}))

        def objective(trial):
            return trial.suggest_int("zzz", 0, 5)

        with pytest.raises(OptimizationError):
            study.optimize(objective, n_trials=1)


class TestNSGA2:
    def test_beats_random_on_biobjective(self):
        """NSGA-II must dominate random search in hypervolume at equal budget."""
        from repro.blackbox.multiobjective import hypervolume_2d

        def objective(trial):
            x = trial.suggest_float("x", 0.0, 1.0)
            y = trial.suggest_float("y", 0.0, 1.0)
            # ZDT1-like: f1=x, f2 = g*(1-sqrt(x/g)) with g = 1+9y
            g = 1.0 + 9.0 * y
            return x, g * (1.0 - np.sqrt(x / g))

        ref = np.array([1.1, 10.1])
        hvs = {}
        for name, sampler in (
            ("nsga2", NSGA2Sampler(population_size=20, seed=11)),
            ("random", RandomSampler(seed=11)),
        ):
            study = create_study(directions=["minimize", "minimize"], sampler=sampler)
            study.optimize(objective, n_trials=300)
            front = np.array([t.values for t in study.best_trials])
            hvs[name] = hypervolume_2d(front, ref)
        assert hvs["nsga2"] > hvs["random"]

    def test_genome_respects_discrete_domains(self):
        sampler = NSGA2Sampler(population_size=8, seed=5)
        study = create_study(directions=["minimize", "minimize"], sampler=sampler)

        def objective(trial):
            a = trial.suggest_int("a", 0, 10, step=2)
            c = trial.suggest_categorical("c", ["p", "q"])
            return a, (1 if c == "p" else 2)

        study.optimize(objective, n_trials=60)
        for t in study.completed_trials():
            assert t.params["a"] % 2 == 0
            assert t.params["c"] in ("p", "q")

    def test_validation(self):
        with pytest.raises(OptimizationError):
            NSGA2Sampler(population_size=1)
        with pytest.raises(OptimizationError):
            NSGA2Sampler(crossover_prob=1.5)


class TestTPE:
    def test_converges_on_quadratic(self):
        study = create_study(direction="minimize", sampler=TPESampler(seed=4))
        study.optimize(lambda t: (t.suggest_float("x", -5.0, 5.0) - 2.0) ** 2, n_trials=80)
        assert abs(study.best_params["x"] - 2.0) < 0.5

    def test_categorical_support(self):
        study = create_study(direction="minimize", sampler=TPESampler(seed=5))

        def objective(trial):
            c = trial.suggest_categorical("c", ["bad", "good"])
            return 0.0 if c == "good" else 1.0

        study.optimize(objective, n_trials=40)
        assert study.best_value == 0.0

    def test_validation(self):
        with pytest.raises(OptimizationError):
            TPESampler(gamma=1.5)
        with pytest.raises(OptimizationError):
            TPESampler(n_startup_trials=0)


class TestReportAndPrune:
    """Intermediate reports and pruning: ``Trial.report`` records a
    partial value per step, ``Trial.prune`` abandons the trial, and the
    study keeps a pruned trial's params and reports (racing relies on
    both, DESIGN.md §8)."""

    def test_report_records_one_value_per_step(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        trial.report(3, step=0)
        trial.report(2.5, step=4)
        trial.report(1.5, step=4)  # a re-report of a step replaces it
        frozen = study.trials[trial.number]
        assert frozen.intermediate == {0: 3.0, 4: 1.5}
        assert all(type(v) is float for v in frozen.intermediate.values())

    def test_report_rejects_a_negative_step(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        with pytest.raises(OptimizationError, match="step"):
            trial.report(1.0, step=-1)
        assert study.trials[trial.number].intermediate == {}

    def test_prune_raises_trial_pruned(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        with pytest.raises(TrialPruned, match=f"trial {trial.number}"):
            trial.prune()
        assert study.trials[trial.number].state == TrialState.RUNNING

    def test_optimize_keeps_a_pruned_trials_params_and_reports(self):
        study = create_study(direction="minimize", sampler=RandomSampler(seed=6))

        def objective(trial):
            x = trial.suggest_float("x", 0.0, 1.0)
            for step in range(3):
                trial.report(x * (step + 1), step)
            if trial.number % 2:
                trial.prune()
            return x

        study.optimize(objective, n_trials=6)
        pruned = [t for t in study.trials if t.state == TrialState.PRUNED]
        assert [t.number for t in pruned] == [1, 3, 5]
        for t in pruned:
            assert t.values is None
            x = t.params["x"]
            assert t.intermediate == {0: x, 1: 2 * x, 2: 3 * x}

    def test_tell_pruned_ignores_values(self):
        study = create_study(direction="minimize")
        trial = study.ask()
        frozen = study.tell(trial, 1.0, state=TrialState.PRUNED)
        assert frozen.state == TrialState.PRUNED
        assert frozen.values is None
        with pytest.raises(OptimizationError, match="already finished"):
            study.tell(trial, 1.0)

    def test_callbacks_see_pruned_trials(self):
        study = create_study(direction="minimize", sampler=RandomSampler(seed=7))
        seen = []

        def objective(trial):
            trial.suggest_float("x", 0.0, 1.0)
            if trial.number == 1:
                trial.prune()
            return 1.0

        study.optimize(
            objective, n_trials=3,
            callbacks=[lambda s, t: seen.append((t.number, t.state))],
        )
        assert seen == [
            (0, TrialState.COMPLETE),
            (1, TrialState.PRUNED),
            (2, TrialState.COMPLETE),
        ]

    def test_pruned_trials_stay_off_the_pareto_front(self):
        study = create_study(directions=["minimize", "minimize"])
        pruned = study.ask()
        pruned.report(-100.0, step=0)  # would dominate, but never finished
        study.tell(pruned, state=TrialState.PRUNED)
        done = study.ask()
        study.tell(done, (1.0, 1.0))
        assert [t.number for t in study.best_trials] == [done.number]

    def test_only_pruned_trials_leave_no_best_trial(self):
        study = create_study(direction="minimize")
        study.tell(study.ask(), state=TrialState.PRUNED)
        with pytest.raises(OptimizationError, match="no completed trials"):
            _ = study.best_trial

    def test_objective_side_median_rule(self):
        """An early-stopping rule needs no pruner object: the objective
        reads its peers' reports from ``study.trials`` and prunes
        itself when it trails their median."""
        study = create_study(direction="minimize", sampler=RandomSampler(seed=6))
        executed_full = []

        def objective(trial):
            x = trial.suggest_float("x", 0.0, 1.0)
            for step in range(5):
                value = x * (step + 1)
                trial.report(value, step)
                peers = [
                    t.intermediate[step] for t in study.completed_trials()
                    if step in t.intermediate
                ]
                if len(peers) >= 3 and value > np.median(peers):
                    trial.prune()
            executed_full.append(x)
            return x

        study.optimize(objective, n_trials=40)
        pruned = [t for t in study.trials if t.state == TrialState.PRUNED]
        assert pruned
        assert all(t.params["x"] not in executed_full for t in pruned)
        assert np.mean(executed_full) < 0.6
