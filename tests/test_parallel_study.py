"""Parallel execution and resumable search (DESIGN.md §3–§4).

The multiprocessing cases use 2 spawn workers: on any machine this
exercises the real pool path (pickling, ordering), and the determinism
assertions must hold regardless of core count.
"""

import threading

import pytest

from repro.blackbox import (
    JournalStorage,
    NSGA2Sampler,
    PipelinedDispatcher,
    RandomSampler,
    TrialState,
    create_study,
)
from repro.blackbox.distributions import FloatDistribution, IntDistribution
from repro.core.parameterspace import ParameterSpace
from repro.core.study_runner import CompositionObjective, OptimizationRunner
from repro.exceptions import OptimizationError

SMALL_SPACE = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=3)

SPHERE_SPACE = {
    "x": FloatDistribution(-2.0, 2.0),
    "k": IntDistribution(0, 5),
}


def sphere(params):  # module-level: picklable for spawn workers
    return params["x"] ** 2 + params["k"]


def boom(params):  # module-level: picklable for spawn workers
    raise ValueError("boom")


class UnreconstructableError(Exception):
    """Pickles fine but explodes on unpickling (multi-arg __init__)."""

    def __init__(self, code, msg):
        super().__init__(f"{code}: {msg}")


def boom_unpicklable(params):  # module-level: picklable for spawn workers
    raise UnreconstructableError(42, "cannot round-trip")


def _study(seed, name="p", storage=None, load=False, sampler=None):
    return create_study(
        direction="minimize", sampler=sampler or RandomSampler(seed=seed),
        study_name=name, storage=storage, load_if_exists=load,
    )


def _dispatch(study, n_trials, batch_size=4, **pool):
    PipelinedDispatcher(study, SPHERE_SPACE, batch_size=batch_size, **pool).optimize(
        sphere, n_trials=n_trials
    )
    return study


class TestParallelDispatch:
    def test_serial_executor_runs(self):
        study = _dispatch(_study(1), 12, executor="serial")
        assert len(study.trials) == 12
        assert all(t.state == TrialState.COMPLETE for t in study.trials)
        assert all(t.values[0] == sphere(t.params) for t in study.trials)

    def test_multiprocessing_matches_serial(self):
        def run(**pool):
            sampler = NSGA2Sampler(population_size=4, seed=2)
            return _dispatch(_study(2, sampler=sampler), 12, **pool).trials

        serial, parallel = run(executor="serial"), run(executor="process", workers=2)
        assert [t.params for t in serial] == [t.params for t in parallel]
        assert [t.values for t in serial] == [t.values for t in parallel]

    def test_rerun_is_reproducible(self):
        a, b = _dispatch(_study(3), 12), _dispatch(_study(3), 12)
        assert [t.params for t in a.trials] == [t.params for t in b.trials]

    def test_caught_errors_mark_failed(self):
        study = _study(4, "f")
        PipelinedDispatcher(study, SPHERE_SPACE, batch_size=3).optimize(
            boom, n_trials=3, catch=(ValueError,)
        )
        assert [t.state for t in study.trials] == [TrialState.FAILED] * 3

    def test_uncaught_errors_propagate(self):
        study = _study(5, "f")
        with pytest.raises(ValueError, match="boom"):
            PipelinedDispatcher(study, SPHERE_SPACE, batch_size=2).optimize(boom, n_trials=2)
        assert study.trials[0].state == TrialState.FAILED

    def test_uncaught_error_tells_every_in_flight_trial(self):
        # Trial 1 fails while trial 0 is still running: the abort must
        # still record trial 0, not leave it RUNNING.
        started, release = threading.Event(), threading.Event()

        def slow_then_fast(params):
            if not started.is_set():
                started.set()
                release.wait(5.0)
                return sphere(params)
            release.set()
            raise ValueError("fast")

        study = _study(15, "d")
        dispatcher = PipelinedDispatcher(
            study, SPHERE_SPACE, workers=2, executor="thread", batch_size=2
        )
        with pytest.raises(ValueError, match="fast"):
            dispatcher.optimize(slow_then_fast, n_trials=2)
        assert [t.state for t in study.trials] == [
            TrialState.COMPLETE,
            TrialState.FAILED,
        ]

    def test_validation(self):
        study = create_study(direction="minimize", study_name="v")
        with pytest.raises(OptimizationError):
            PipelinedDispatcher(study, {})
        with pytest.raises(OptimizationError):
            PipelinedDispatcher(study, SPHERE_SPACE, batch_size=0)
        with pytest.raises(OptimizationError):
            PipelinedDispatcher(study, SPHERE_SPACE).optimize(sphere, n_trials=0)

    def test_unpicklable_exception_does_not_hang_the_pool(self):
        # An exception that cannot be reconstructed parent-side would
        # kill the pool's result-handler thread and block forever; it
        # must surface as an OptimizationError naming the original.
        study = _study(13, "u")
        dispatcher = PipelinedDispatcher(
            study, SPHERE_SPACE, workers=2, executor="process", batch_size=2
        )
        with pytest.raises(OptimizationError, match="UnreconstructableError"):
            dispatcher.optimize(boom_unpicklable, n_trials=2)
        assert study.trials[0].state == TrialState.FAILED

    def test_n_trials_is_a_total_target_on_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _dispatch(_study(14, "t", JournalStorage(path)), 10)
        # 12 total — not 10 loaded + 12 more.
        resumed = _dispatch(_study(14, "t", JournalStorage(path), load=True), 12)
        assert len(resumed.trials) == 12
        reference = _dispatch(_study(14, "t"), 12)
        assert [t.params for t in resumed.trials] == [t.params for t in reference.trials]
        assert [t.values for t in resumed.trials] == [t.values for t in reference.trials]

    def test_batch_defaults_to_population(self):
        study = create_study(sampler=NSGA2Sampler(population_size=6, seed=6), study_name="b")
        assert PipelinedDispatcher(study, SPHERE_SPACE).batch_size == 6

    def test_journaled_parallel_run_is_resumable(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        study = _dispatch(_study(7, storage=JournalStorage(path)), 8)
        resumed = _study(7, storage=JournalStorage(path), load=True)
        assert [t.params for t in resumed.trials] == [t.params for t in study.trials]


class TestParallelEvaluation:
    def test_composition_objective_matches_runner(self, houston_month):
        objective = CompositionObjective(houston_month, space=SMALL_SPACE)
        params = {"n_turbines": 2, "solar_increments": 3, "battery_units": 1}
        comp = SMALL_SPACE.from_params(params)
        expected = OptimizationRunner(houston_month, space=SMALL_SPACE).evaluate([comp])[0]
        assert objective(params) == expected.objectives(("operational", "embodied"))

    def test_composition_objective_cosim_close_to_fast(self, houston_month):
        params = {"n_turbines": 1, "solar_increments": 1, "battery_units": 1}
        fast = CompositionObjective(houston_month, space=SMALL_SPACE)(params)
        slow = CompositionObjective(houston_month, space=SMALL_SPACE, cosim=True)(params)
        assert fast == pytest.approx(slow, rel=1e-6)


def _front_key(result):
    return sorted(
        (e.composition.n_turbines, e.composition.solar_kw, e.composition.battery_units)
        for e in result.front()
    )


class TestResumableBlackboxSearch:
    """Scaled-down version of the acceptance protocol: a fixed-seed
    NSGA-II study killed mid-run and resumed must reach the identical
    final Pareto front as an uninterrupted run (the full 350-trial
    protocol runs in ``benchmarks/bench_parallel_study.py``)."""

    N_TRIALS = 60
    POP = 10
    SEED = 42

    def _sampler(self):
        return NSGA2Sampler(population_size=self.POP, seed=self.SEED)

    def _run(self, scenario, storage, n_trials, load_if_exists=False):
        return OptimizationRunner(scenario, space=SMALL_SPACE).run_blackbox(
            n_trials=n_trials,
            sampler=self._sampler(),
            storage=storage,
            study_name="resume-test",
            load_if_exists=load_if_exists,
        )

    @pytest.mark.parametrize("kill_after", [15, 30, 35])  # mid/at-generation
    def test_resumed_front_identical(self, houston_month, tmp_path, kill_after):
        full = self._run(
            houston_month, JournalStorage(tmp_path / "full.jsonl"), self.N_TRIALS
        )

        path = tmp_path / "interrupted.jsonl"
        self._run(houston_month, JournalStorage(path), kill_after)
        resumed = self._run(
            houston_month, JournalStorage(path), self.N_TRIALS, load_if_exists=True
        )

        assert [t.params for t in resumed.study.trials] == [
            t.params for t in full.study.trials
        ]
        assert [t.values for t in resumed.study.trials] == [
            t.values for t in full.study.trials
        ]
        assert _front_key(resumed) == _front_key(full)

    def test_resume_after_torn_journal_tail(self, houston_month, tmp_path):
        full = self._run(houston_month, JournalStorage(tmp_path / "full.jsonl"), self.N_TRIALS)
        path = tmp_path / "interrupted.jsonl"
        self._run(houston_month, JournalStorage(path), 25)
        with open(path, "a") as f:
            f.write('{"op": "finish", "study": "resume-test"')  # kill -9 mid-append
        resumed = self._run(houston_month, JournalStorage(path), self.N_TRIALS, load_if_exists=True)
        assert _front_key(resumed) == _front_key(full)

    def test_completed_study_resume_is_a_noop_rerun(self, houston_month, tmp_path):
        path = tmp_path / "journal.jsonl"
        full = self._run(houston_month, JournalStorage(path), self.N_TRIALS)
        again = self._run(houston_month, JournalStorage(path), self.N_TRIALS, load_if_exists=True)
        assert len(again.study.trials) == self.N_TRIALS
        assert _front_key(again) == _front_key(full)

    def test_storage_does_not_change_trial_count_or_validity(self, houston_month, tmp_path):
        result = self._run(houston_month, JournalStorage(tmp_path / "journal.jsonl"), 20)
        assert len(result.study.trials) == 20
        assert all(t.state == TrialState.COMPLETE for t in result.study.trials)
        # Every journaled composition lies on the search grid.
        for t in result.study.trials:
            assert SMALL_SPACE.contains(SMALL_SPACE.from_params(t.params))


class TestShardedParallelRunner:
    """PipelinedDispatcher fanning records across per-worker shard stores
    (DESIGN.md §7): same trials as single-store, resumable, mergeable."""

    def test_storage_spec_attach_and_shard_fanout(self, tmp_path):
        spec = str(tmp_path / "p.jsonl")
        study = _dispatch(_study(21, "sh"), 8, storage=spec, shards=2)
        assert (tmp_path / "p.jsonl.shard0").exists()
        assert (tmp_path / "p.jsonl.shard1").exists()
        assert not (tmp_path / "p.jsonl").exists()

        single = _dispatch(_study(21, "sh", JournalStorage(tmp_path / "single.jsonl")), 8)
        assert [t.params for t in study.trials] == [t.params for t in single.trials]
        assert [t.values for t in study.trials] == [t.values for t in single.trials]

    def test_sharded_study_resumes_to_total_target(self, tmp_path):
        from repro.blackbox.storage import resolve_storage

        spec = str(tmp_path / "p.jsonl")
        _dispatch(_study(22, "sh"), 8, storage=spec, shards=2)
        resumed = _dispatch(
            _study(22, "sh", resolve_storage(spec, shards=2), load=True), 12
        )
        assert len(resumed.trials) == 12
        reference = _dispatch(_study(22, "sh"), 12)
        assert [t.params for t in resumed.trials] == [t.params for t in reference.trials]

    def test_mismatched_batch_on_resume_raises(self, tmp_path):
        from repro.blackbox.storage import resolve_storage

        spec = str(tmp_path / "p.jsonl")
        _dispatch(_study(23, "sh"), 8, storage=spec)
        resumed = _study(23, "sh", resolve_storage(spec), load=True)
        with pytest.raises(OptimizationError, match="batch"):
            _dispatch(resumed, 12, batch_size=3)

    def test_attach_refuses_already_persistent_study(self, tmp_path):
        study = _study(24, "sh", JournalStorage(tmp_path / "a.jsonl"))
        with pytest.raises(OptimizationError, match="already has a storage"):
            PipelinedDispatcher(
                study, SPHERE_SPACE, storage=str(tmp_path / "b.jsonl")
            )


class TestBatchMetadataOnCreatePath:
    def test_create_study_path_persists_batch_and_arms_the_guard(self, tmp_path):
        # The documented flow — create_study(storage=...) first, dispatcher
        # second — must persist the generation size too, so a resume
        # with a different batch is caught, not silently misaligned.
        path = tmp_path / "p.jsonl"
        _dispatch(_study(31, "b", JournalStorage(path)), 8)
        assert JournalStorage(path).load_study("b").metadata["batch"] == 4

        resumed = _study(31, "b", JournalStorage(path), load=True)
        with pytest.raises(OptimizationError, match="batch"):
            _dispatch(resumed, 12, batch_size=3)
