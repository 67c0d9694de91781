"""Ask/tell sampler protocol (DESIGN.md §10).

Every in-tree sampler speaks two protocols over the same RNG draws:
define-by-run ``sample()`` (one parameter at a time, driven by the
objective) and ask/tell ``ask()``/``tell()`` (a complete candidate
planned up front, for the streaming drivers).  The contract: for a fixed
(seed, trial number, completed history) both protocols produce the
*identical* params — that equivalence is what lets the pipelined
dispatcher interchange with the define-by-run loop bit-for-bit.
"""

import warnings

import pytest

from repro.blackbox import (
    GridSampler,
    NSGA2Sampler,
    RandomSampler,
    ScalarizationSampler,
    Study,
    TPESampler,
    TrialState,
)
from repro.blackbox.distributions import (
    CategoricalDistribution,
    FloatDistribution,
    IntDistribution,
)
from repro.blackbox.parallel import _HistoryPrefix, materialize_params
from repro.blackbox.samplers.base import Sampler
from repro.exceptions import OptimizationError

SPACE = {
    "x": FloatDistribution(-2.0, 2.0),
    "k": IntDistribution(0, 5),
    "mode": CategoricalDistribution(("a", "b", "c")),
}

GRID_SPACE = {"x": [-1.0, 0.0, 1.0], "k": [0, 2, 4], "mode": ["a", "b"]}

_MODE_COST = {"a": 0.0, "b": 0.5, "c": 1.0}


def _values(params) -> tuple[float, float]:
    base = params["x"] ** 2 + params["k"] + _MODE_COST[params["mode"]]
    return (base, (params["x"] - 1.0) ** 2 + _MODE_COST[params["mode"]])


def _define_by_run_for(n_objectives: int):
    def objective(trial):
        params = {
            "x": trial.suggest_float("x", -2.0, 2.0),
            "k": trial.suggest_int("k", 0, 5),
            "mode": trial.suggest_categorical("mode", ("a", "b", "c")),
        }
        vals = _values(params)
        return vals[0] if n_objectives == 1 else vals

    return objective


def _grid_define_by_run(trial):
    params = {
        "x": trial.suggest_float("x", -2.0, 2.0),
        "k": trial.suggest_int("k", 0, 5),
        "mode": trial.suggest_categorical("mode", ("a", "b")),
    }
    return _values(params)


SAMPLERS = {
    "random": lambda: RandomSampler(seed=5),
    "nsga2": lambda: NSGA2Sampler(population_size=6, seed=5),
    "tpe": lambda: TPESampler(n_startup_trials=6, seed=5),
    "scalarization": lambda: ScalarizationSampler(n_startup_trials=6, seed=5),
    "grid": lambda: GridSampler(GRID_SPACE),
}

GRID_DIST_SPACE = {
    "x": FloatDistribution(-2.0, 2.0),
    "k": IntDistribution(0, 5),
    "mode": CategoricalDistribution(("a", "b")),
}


def _study_for(kind: str) -> Study:
    sampler = SAMPLERS[kind]()
    sampler.per_trial_seeding = True
    directions = ["minimize"] if kind == "tpe" else ["minimize", "minimize"]
    return Study(directions=directions, sampler=sampler)


def _run_define_by_run(kind: str, n_trials: int) -> list:
    study = _study_for(kind)
    objective = (
        _grid_define_by_run
        if kind == "grid"
        else _define_by_run_for(len(study.directions))
    )
    study.optimize(objective, n_trials)
    return [dict(t.params) for t in study.trials]


def _run_ask_tell(kind: str, n_trials: int) -> list:
    study = _study_for(kind)
    space = GRID_DIST_SPACE if kind == "grid" else SPACE
    for _ in range(n_trials):
        trial = study.ask()
        params = study.sampler.ask(study, trial.number, space)
        materialize_params(trial, params, space)
        vals = _values(params)
        study.tell(trial, vals[: len(study.directions)])
    return [dict(t.params) for t in study.trials]


class TestAskTellEquivalence:
    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_ask_matches_define_by_run_bit_for_bit(self, kind):
        """The protocol contract: same seed + history → same params."""
        n = 18  # three NSGA-II generations: startup AND bred trials
        assert _run_ask_tell(kind, n) == _run_define_by_run(kind, n)

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_native_ask_emits_no_deprecation_warning(self, kind):
        """Every in-tree sampler plans candidates through its own ``ask``:
        the ask/tell loop runs clean with warnings raised as errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run_ask_tell(kind, 8)


class _SampleOnlySampler(Sampler):
    """A subclass that implements define-by-run ``sample()`` only."""

    def sample(self, study, trial, name, distribution):
        return distribution.sample(self.rng)


def test_ask_is_abstract():
    """A sampler must plan whole candidates itself: ``ask`` has no
    ``sample()``-replay default, so a sample-only subclass cannot exist."""
    with pytest.raises(TypeError, match="ask"):
        _SampleOnlySampler(seed=9)


class _RecordingSampler(RandomSampler):
    def __init__(self):
        super().__init__(seed=1)
        self.told = []

    def tell(self, study, trial):
        self.told.append((trial.number, trial.state))
        super().tell(study, trial)


class TestTellRouting:
    def test_study_tell_routes_through_sampler_tell(self):
        sampler = _RecordingSampler()
        study = Study(directions=["minimize"], sampler=sampler)
        t0 = study.ask()
        study.tell(t0, 1.0)
        t1 = study.ask()
        study.tell(t1, state=TrialState.PRUNED)
        assert sampler.told == [
            (0, TrialState.COMPLETE),
            (1, TrialState.PRUNED),
        ]


class TestMaterializeValidation:
    def test_missing_parameter_is_an_error(self):
        study = Study(directions=["minimize"], sampler=RandomSampler(seed=1))
        trial = study.ask()
        with pytest.raises(OptimizationError, match="planned no value"):
            materialize_params(trial, {"x": 0.0}, SPACE)

    def test_out_of_domain_value_is_an_error(self):
        study = Study(directions=["minimize"], sampler=RandomSampler(seed=1))
        trial = study.ask()
        bad = {"x": 99.0, "k": 2, "mode": "a"}
        with pytest.raises(OptimizationError, match="out-of-domain"):
            materialize_params(trial, bad, SPACE)


# -- the per-epoch memo (DESIGN.md §10) -----------------------------------------

GENETIC = {
    "nsga2": (lambda: NSGA2Sampler(population_size=50, seed=11), 50),
    "scalarization": (lambda: ScalarizationSampler(n_startup_trials=20, seed=11), 25),
}


def _clear_memo(sampler) -> None:
    """Forget every per-prefix memo, so the next ask recomputes cold."""
    sampler._history_memo = None
    if isinstance(sampler, NSGA2Sampler):
        sampler._ranked_memo = None


def _run_generations(kind: str, protocol: str, cold: bool, n_trials: int = 350) -> list:
    """Generation-batched study (the batched driver's shape): ask a whole
    batch against one completed prefix, then tell it."""
    make, batch = GENETIC[kind]
    study = Study(directions=["minimize", "minimize"], sampler=make())
    define_by_run = _define_by_run_for(2)
    asked = []
    for start in range(0, n_trials, batch):
        trials = [study.ask() for _ in range(min(batch, n_trials - start))]
        outcomes = []
        for trial in trials:
            if cold:
                _clear_memo(study.sampler)
            if protocol == "ask":
                params = study.sampler.ask(study, trial.number, SPACE)
                materialize_params(trial, params, SPACE)
                outcomes.append(_values(params))
            else:
                outcomes.append(define_by_run(trial))
            asked.append(dict(trial.params))
        for trial, vals in zip(trials, outcomes):
            study.tell(trial, vals)
    return asked


def _tell_new(study, params, vals):
    trial = study.ask()
    materialize_params(trial, params, SPACE)
    study.tell(trial, vals)
    return trial


def _per_trial_sampler(kind: str):
    sampler = {
        "nsga2": lambda: NSGA2Sampler(population_size=6, seed=3),
        "scalarization": lambda: ScalarizationSampler(n_startup_trials=6, seed=3),
    }[kind]()
    sampler.per_trial_seeding = True
    return sampler


def _seeded_study(kind: str, n_complete: int) -> Study:
    """``n_complete`` told trials bred by a per-trial-seeded sampler."""
    study = Study(directions=["minimize", "minimize"], sampler=_per_trial_sampler(kind))
    for _ in range(0, n_complete, 6):
        trials = [study.ask() for _ in range(6)]
        for trial in trials:
            materialize_params(trial, study.sampler.ask(study, trial.number, SPACE), SPACE)
        for trial in trials:
            study.tell(trial, _values(trial.params))
    return study


def _cold_ask(kind: str, study, number: int) -> dict:
    """What a fresh sampler (same seed, empty memo) plans for ``number``."""
    return _per_trial_sampler(kind).ask(study, number, SPACE)


#: dominates every history point, so telling it changes the parent set
DOMINANT = (-100.0, -100.0)


class TestEpochMemo:
    @pytest.mark.parametrize("protocol", ["ask", "define_by_run"])
    @pytest.mark.parametrize("kind", sorted(GENETIC))
    def test_memo_is_bit_identical_to_a_cold_cache(self, kind, protocol):
        assert _run_generations(kind, protocol, cold=False) == _run_generations(
            kind, protocol, cold=True
        )

    def test_one_selection_per_completed_prefix(self):
        sampler = NSGA2Sampler(population_size=4, seed=1)
        study = Study(directions=["minimize", "minimize"], sampler=sampler)
        for _ in range(2):
            trials = [study.ask() for _ in range(4)]
            for trial in trials:
                materialize_params(trial, sampler.ask(study, trial.number, SPACE), SPACE)
            histories = {id(sampler.completed_history(study)) for _ in trials}
            assert len(histories) == 1
            for trial in trials:
                study.tell(trial, _values(trial.params))
        first = sampler._parent_population(study)
        assert sampler._parent_population(_HistoryPrefix(study, 8)) is first

    @pytest.mark.parametrize("kind", sorted(GENETIC))
    def test_tell_mid_generation_invalidates(self, kind):
        study = _seeded_study(kind, 12)
        pending = [study.ask() for _ in range(3)]
        before = study.sampler.ask(study, 15, SPACE)
        materialize_params(pending[0], {"x": 0.5, "k": 0, "mode": "c"}, SPACE)
        study.tell(pending[0], DOMINANT)
        after = study.sampler.ask(study, 15, SPACE)
        assert after == _cold_ask(kind, study, 15)
        assert after != before

    @pytest.mark.parametrize("kind", sorted(GENETIC))
    def test_dropped_batch_reasked_with_same_numbers_invalidates(self, kind):
        study = _seeded_study(kind, 12)
        partial = ({"x": 1.0, "k": 1, "mode": "a"}, {"x": -1.0, "k": 2, "mode": "b"})
        for params in partial:
            _tell_new(study, params, _values(params))
        before = study.sampler.ask(study, 14, SPACE)
        assert study.drop_trailing_partial_batch(6) == 12
        # Same trial numbers and COMPLETE count, new objects, one new value.
        _tell_new(study, partial[0], DOMINANT)
        _tell_new(study, partial[1], _values(partial[1]))
        after = study.sampler.ask(study, 14, SPACE)
        assert after == _cold_ask(kind, study, 14)
        assert after != before

    @pytest.mark.parametrize("kind", sorted(GENETIC))
    def test_history_prefix_views_key_on_their_own_prefix(self, kind):
        study = _seeded_study(kind, 12)
        sampler = study.sampler
        early = sampler.ask(_HistoryPrefix(study, 6), 12, SPACE)
        _tell_new(study, {"x": 0.5, "k": 0, "mode": "c"}, DOMINANT)
        late = sampler.ask(_HistoryPrefix(study, 13), 13, SPACE)
        assert late == _cold_ask(kind, _HistoryPrefix(study, 13), 13)
        # Back to the early epoch after later trials completed.
        again = sampler.ask(_HistoryPrefix(study, 6), 12, SPACE)
        assert again == early == _cold_ask(kind, _HistoryPrefix(study, 6), 12)
        assert sampler.ask(_HistoryPrefix(study, 13), 12, SPACE) != early

    @pytest.mark.parametrize("kind", sorted(GENETIC))
    def test_sampler_reused_across_studies_invalidates(self, kind):
        first = _seeded_study(kind, 12)
        sampler = first.sampler
        before = sampler.ask(first, 12, SPACE)
        second = Study(directions=["minimize", "minimize"], sampler=sampler)
        for trial in first.trials:
            # Same params, same count: only the trial objects and the
            # values differ (negated, so the old worst become parents).
            _tell_new(second, trial.params, tuple(-v for v in trial.values))
        after = sampler.ask(second, 12, SPACE)
        assert after == _cold_ask(kind, second, 12)
        assert after != before
