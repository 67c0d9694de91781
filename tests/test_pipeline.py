"""Pipelined generation-free dispatch (DESIGN.md §10).

The contract :class:`PipelinedDispatcher` must keep:

* with speculation off, the streamed run is **bit-identical** to
  ``run_blackbox``'s generation-batched run on the real objective (the
  reference ``tests/test_driver_contract.py`` pins), a raced run makes
  ``run_blackbox``'s prune decisions on a real ensemble, and a raced run
  is identical — intermediate reports and rung attrs included — whichever
  executor carries it;
* with speculation on, the trial sequence is a pure function of
  ``(seed, speculation depth)`` — never of worker count or scheduling;
* every trial persists its ask order and parent epoch as system attrs,
  a genuine ``kill -9`` mid-pipeline resumes to the identical front on
  journal *and* SQLite backends, and resuming with a different
  speculation depth / batch size is a hard error.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.blackbox import NSGA2Sampler, create_study
from repro.blackbox.distributions import FloatDistribution, IntDistribution
from repro.blackbox.multiobjective import pareto_front_indices
from repro.blackbox.parallel import (
    PipelinedDispatcher,
    parse_pipeline_spec,
    pipeline_spec_string,
)
from repro.blackbox.study import Study
from repro.blackbox.trial import (
    PARENT_EPOCH_ATTR,
    PIPELINE_ASK_ATTR,
    RACING_RUNG_ATTR,
    TrialState,
)
from repro.core.ensemble import EnsembleSpec, build_ensemble
from repro.core.metrics import aggregate_values
from repro.core.parameterspace import ParameterSpace
from repro.core.study_runner import OptimizationRunner
from repro.exceptions import OptimizationError
from test_driver_contract import run_driver, trial_rows

SPACE = {"x": FloatDistribution(-2.0, 2.0), "k": IntDistribution(0, 5)}

BATCH = 8
N_TRIALS = 24
RACE_SPACE = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=2)


@pytest.fixture(scope="module")
def houston_ensemble():
    """Five-member weather-year ensemble, two weeks each (fast)."""
    spec = EnsembleSpec.parse("years=2020-2024", sites=("houston",), n_hours=24 * 14)
    return build_ensemble(spec)


def sphere(params: dict) -> tuple[float, float]:
    return (params["x"] ** 2 + params["k"], (params["x"] - 1.0) ** 2)


class RacedSphere:
    """Synthetic multi-fidelity objective: five 'scenario members' whose
    per-member vectors differ by a deterministic bump, reduced with the
    sound-bound ``worst`` aggregate (picklable for spawn workers)."""

    n_members = 5
    aggregate = "worst"

    def member_values(self, params, member_indices):
        return [self._member(params, m) for m in member_indices]

    def _member(self, params, m):
        bump = 0.07 * m * (1.0 + params["x"])
        return (params["x"] ** 2 + params["k"] + bump, (params["x"] - 1.0) ** 2 + bump)

    def member_difficulty(self):
        """Higher bump → harder member (for the ``hardest`` rung order)."""
        return [float(m) for m in range(self.n_members)]

    def __call__(self, params):
        vectors = self.member_values(params, range(self.n_members))
        return tuple(
            aggregate_values(column, self.aggregate) for column in zip(*vectors)
        )


def _study(seed: int = 7) -> Study:
    return Study(
        directions=["minimize", "minimize"],
        sampler=NSGA2Sampler(population_size=BATCH, seed=seed),
    )


def _snapshot(study: Study) -> list:
    return [
        (
            t.number,
            dict(t.params),
            t.values,
            t.state,
            dict(t.intermediate),
            t.system_attrs.get(RACING_RUNG_ATTR),
        )
        for t in study.trials
    ]


def _run_pipelined(
    objective, speculate: int = 0, workers: int = 4, racing=None, executor="thread"
) -> "tuple[Study, PipelinedDispatcher]":
    study = _study()
    dispatcher = PipelinedDispatcher(
        study,
        SPACE,
        workers=workers,
        executor=executor,
        speculate=speculate,
        batch_size=BATCH,
    )
    dispatcher.optimize(objective, n_trials=N_TRIALS, racing=racing)
    return study, dispatcher


#: ``run_blackbox`` rows per (aggregate, seed), shared by both worker counts
_BATCHED_RACES: dict = {}


def _raced_run(ensemble, aggregate, seed, driver, **extra):
    runner = OptimizationRunner(ensemble, space=RACE_SPACE, aggregate=aggregate)
    return getattr(runner, driver)(
        n_trials=30,
        sampler=NSGA2Sampler(population_size=10, seed=seed),
        storage="memory://",
        study_name="raced",
        racing="rungs=2,full",
        **extra,
    )


def _raced_rows(result) -> list:
    return [
        (
            t.number,
            dict(t.params),
            t.values,
            t.state,
            t.system_attrs.get(RACING_RUNG_ATTR),
            dict(t.intermediate) if t.state == TrialState.PRUNED else None,
        )
        for t in result.study.trials
    ]


class TestSpecZeroBitIdentity:
    """speculate=0 → the exact generation-batched run, worker-count free."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_plain_matches_batched_runner(self, houston_month, workers, loop_dispatch):
        reference = trial_rows(run_driver(houston_month, "blackbox"))
        piped = run_driver(houston_month, "pipelined", workers=workers)
        assert trial_rows(piped) == reference

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("aggregate", ["worst", "mean", "cvar:0.4"])
    def test_racing_matches_batched_runner(
        self, houston_ensemble, aggregate, seed, workers
    ):
        """Both drivers race through one core: the same prune decisions,
        rung attrs, surviving values and pruned trials' partial reports
        as ``run_blackbox``'s generation-batched racer on a real
        five-member ensemble, for every aggregate."""
        key = (aggregate, seed)
        if key not in _BATCHED_RACES:
            _BATCHED_RACES[key] = _raced_rows(
                _raced_run(houston_ensemble, aggregate, seed, "run_blackbox")
            )
        reference = _BATCHED_RACES[key]
        piped = _raced_run(
            houston_ensemble, aggregate, seed, "run_pipelined", workers=workers
        )
        assert _raced_rows(piped) == reference

    def test_batched_reference_races_prune(self, houston_ensemble):
        """The equivalence above is not vacuous: the batched racer prunes
        at these settings."""
        result = _raced_run(houston_ensemble, "worst", 0, "run_blackbox")
        assert result.n_pruned > 0
        assert result.racing.promoted_back + result.racing.pruned > 0

    def test_racing_matches_serial_executor(self):
        """Rung climbs as queue items: same prune decisions, same partial
        reports, same rung attrs, same surviving values on 4 threads as
        on the inline executor."""
        reference, _ = _run_pipelined(
            RacedSphere(), workers=1, executor="serial", racing="rungs=2,full"
        )
        piped, _ = _run_pipelined(RacedSphere(), workers=4, racing="rungs=2,full")
        assert _snapshot(piped) == _snapshot(reference)
        pruned = [t for t in piped.trials if t.state == TrialState.PRUNED]
        assert pruned, "racing never pruned — vacuous equivalence"
        objective = RacedSphere()
        for trial in piped.trials:
            if trial.state == TrialState.COMPLETE:
                assert tuple(objective(dict(trial.params))) == trial.values


class DivergingSphere(RacedSphere):
    """``RacedSphere`` whose member 0 — only in the full rung — fails
    for every ``k == 0`` candidate."""

    def member_values(self, params, member_indices):
        if params["k"] == 0 and 0 in member_indices:
            raise ValueError("member 0 diverged")
        return super().member_values(params, member_indices)


class TestRacedFailures:
    def _run(self, workers, catch=(ValueError,)):
        study = _study()
        PipelinedDispatcher(study, SPACE, workers=workers, batch_size=BATCH).optimize(
            DivergingSphere(), n_trials=N_TRIALS, catch=catch, racing="rungs=2,full"
        )
        return study

    def test_a_failed_rung_item_fails_its_trial_and_leaves_the_race(self):
        study = self._run(workers=1)
        states = {t.state for t in study.trials if t.params["k"] == 0}
        assert TrialState.FAILED in states and TrialState.COMPLETE not in states
        for trial in study.trials:
            if trial.state == TrialState.FAILED:
                assert trial.params["k"] == 0
            else:
                assert trial.state in (TrialState.COMPLETE, TrialState.PRUNED)
        assert _snapshot(self._run(workers=4)) == _snapshot(study)

    def test_an_uncaught_rung_failure_is_raised(self):
        with pytest.raises(ValueError, match="diverged"):
            self._run(workers=2, catch=())


class TestRacedFrontSoundness:
    """Racing never loses a front point on the pipelined path."""

    @pytest.mark.parametrize(
        "aggregate, seed", [("mean", 4), ("mean", 5), ("cvar:0.4", 10)]
    )
    def test_complete_front_is_the_exact_front(self, houston_ensemble, aggregate, seed):
        """The front over a raced study's COMPLETE trials equals the
        front of a full evaluation of every composition its trials
        asked for (a rule without the promote-back proof pruned a front
        point at each of these settings)."""
        runner = OptimizationRunner(houston_ensemble, space=RACE_SPACE, aggregate=aggregate)
        study = runner.run_pipelined(
            n_trials=30,
            sampler=NSGA2Sampler(population_size=10, seed=seed),
            racing="rungs=2,full",
        ).study
        comps = list(
            dict.fromkeys(RACE_SPACE.from_params(t.params) for t in study.trials)
        )
        exact = [e.objectives(runner.objectives) for e in runner.evaluate(comps)]
        told = [
            (RACE_SPACE.from_params(t.params), t.values)
            for t in study.trials
            if t.state == TrialState.COMPLETE
        ]
        assert {told[i] for i in pareto_front_indices([v for _, v in told])} == {
            (comps[i], exact[i]) for i in pareto_front_indices(exact)
        }


class TestSpeculativeDeterminism:
    def test_identical_across_worker_counts(self):
        """The epoch schedule is a pure function of the trial number, so
        1, 2, and 4 workers must breed the identical sequence."""
        runs = {
            w: _run_pipelined(sphere, speculate=4, workers=w)
            for w in (1, 2, 4)
        }
        snapshots = {w: _snapshot(study) for w, (study, _) in runs.items()}
        assert snapshots[1] == snapshots[2] == snapshots[4]
        assert runs[4][1].stats.n_speculative > 0, (
            "no trial was bred speculatively — the determinism claim is vacuous"
        )

    def test_speculative_trials_breed_from_the_previous_generation(self):
        study, dispatcher = _run_pipelined(sphere, speculate=4, workers=4)
        for trial in study.trials:
            attrs = trial.system_attrs
            assert attrs[PIPELINE_ASK_ATTR] == trial.number
            assert attrs[PARENT_EPOCH_ATTR] == dispatcher._epoch(trial.number)
            generation, offset = divmod(trial.number, BATCH)
            if generation >= 1 and offset < 4:
                assert attrs[PARENT_EPOCH_ATTR] == (generation - 1) * BATCH
            else:
                assert attrs[PARENT_EPOCH_ATTR] == generation * BATCH


class TestNoEndOfRunReevaluation:
    """The told trials are the pipelined driver's record: nothing is
    re-simulated once the dispatcher returns, and the CLI summary prints
    only what the run measured."""

    def test_no_evaluation_after_the_dispatcher_returns(self, houston_month, monkeypatch):
        from repro.core import study_runner

        returned, calls = [], []
        optimize = PipelinedDispatcher.optimize

        def spied_optimize(self, *args, **kwargs):
            try:
                return optimize(self, *args, **kwargs)
            finally:
                returned.append(True)

        def spy(name, function):
            def wrapper(*args, **kwargs):
                calls.append((name, bool(returned)))
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(PipelinedDispatcher, "optimize", spied_optimize)
        monkeypatch.setattr(
            study_runner,
            "evaluate_across_scenarios",
            spy("evaluate_across_scenarios", study_runner.evaluate_across_scenarios),
        )
        monkeypatch.setattr(
            OptimizationRunner, "evaluate", spy("evaluate", OptimizationRunner.evaluate)
        )
        result = OptimizationRunner(houston_month, space=RACE_SPACE).run_pipelined(
            n_trials=20,
            sampler=NSGA2Sampler(population_size=10, seed=42),
            executor="serial",
        )
        assert returned and calls, "the spies saw no evaluation at all"
        assert [name for name, late in calls if late] == []
        assert len(result.study.trials) == 20
        assert result.evaluated == [] and result.n_simulations is None

    def test_study_run_prints_the_stored_front_size(self, tmp_path, capsys):
        import re

        from repro.cli import main

        store = str(tmp_path / "piped.jsonl")
        assert main(
            ["study", "run", "--storage", store, "--site", "houston", "--trials", "20",
             "--population", "10", "--seed", "7", "--set", "scenario.n_hours=720",
             "--pipeline"]
        ) == 0
        run_out = capsys.readouterr().out
        assert main(["study", "status", "--storage", store]) == 0
        status_out = capsys.readouterr().out
        sizes = re.findall(r"front size (\d+)", run_out)
        assert sizes and int(sizes[0]) > 0
        assert sizes == re.findall(r"front size (\d+)", status_out)
        assert "simulations" not in run_out  # the pipelined driver counts none


class TestPipelineSpec:
    def test_round_trip(self):
        assert parse_pipeline_spec(pipeline_spec_string(3)) == 3
        assert parse_pipeline_spec("speculate=0") == 0

    @pytest.mark.parametrize("bad", ["", "speculate=", "speculate=x", "deep=3"])
    def test_malformed_specs_are_errors(self, bad):
        with pytest.raises(OptimizationError):
            parse_pipeline_spec(bad)


def _storage_url(kind: str, tmp_path: Path) -> str:
    if kind == "journal":
        return str(tmp_path / "pipe.jsonl")
    return f"sqlite:///{tmp_path / 'pipe.db'}"


def _stored_study(url: str, load: bool = False) -> Study:
    return create_study(
        directions=["minimize", "minimize"],
        sampler=NSGA2Sampler(population_size=BATCH, seed=7),
        storage=url,
        study_name="pipe",
        load_if_exists=load,
    )


def _pipelined_on_storage(url: str, n_trials: int, load: bool = False) -> Study:
    study = _stored_study(url, load)
    PipelinedDispatcher(
        study, SPACE, workers=2, executor="thread", speculate=4, batch_size=BATCH
    ).optimize(sphere, n_trials=n_trials)
    return study


class TestTagPersistence:
    @pytest.mark.parametrize("kind", ["journal", "sqlite"])
    def test_epoch_tags_survive_reload(self, kind, tmp_path):
        url = _storage_url(kind, tmp_path)
        _pipelined_on_storage(url, N_TRIALS)
        reloaded = _stored_study(url, load=True)
        assert len(reloaded.trials) == N_TRIALS
        assert reloaded.metadata["pipeline"] == "speculate=4"
        assert reloaded.metadata["batch"] == BATCH
        for trial in reloaded.trials:
            generation, offset = divmod(trial.number, BATCH)
            expected = (
                (generation - 1) * BATCH
                if generation >= 1 and offset < 4
                else generation * BATCH
            )
            assert trial.system_attrs[PIPELINE_ASK_ATTR] == trial.number
            assert trial.system_attrs[PARENT_EPOCH_ATTR] == expected

    def test_pipeline_stats_land_in_metadata(self, tmp_path):
        study = _pipelined_on_storage(_storage_url("journal", tmp_path), N_TRIALS)
        stats = study.metadata["pipeline_stats"]
        assert stats["workers"] == 2
        assert stats["n_trials"] == N_TRIALS
        assert 0.0 <= stats["idle"] <= 1.0


class TestResumeValidation:
    def test_different_speculation_depth_is_a_hard_error(self, tmp_path):
        url = _storage_url("journal", tmp_path)
        _pipelined_on_storage(url, N_TRIALS)
        study = _stored_study(url, load=True)
        dispatcher = PipelinedDispatcher(
            study, SPACE, workers=2, executor="thread", speculate=2, batch_size=BATCH
        )
        with pytest.raises(OptimizationError, match="speculation depth"):
            dispatcher.optimize(sphere, n_trials=N_TRIALS + BATCH)

    def test_different_batch_size_is_a_hard_error(self, tmp_path):
        url = _storage_url("journal", tmp_path)
        _pipelined_on_storage(url, N_TRIALS)
        study = _stored_study(url, load=True)
        dispatcher = PipelinedDispatcher(
            study, SPACE, workers=2, executor="thread", speculate=4, batch_size=4
        )
        with pytest.raises(OptimizationError, match="batch"):
            dispatcher.optimize(sphere, n_trials=N_TRIALS + BATCH)


KILL_CHILD = textwrap.dedent(
    """
    import os
    import signal
    import sys

    from repro.blackbox import NSGA2Sampler, create_study
    from repro.blackbox.distributions import FloatDistribution, IntDistribution
    from repro.blackbox.parallel import PipelinedDispatcher
    from repro.blackbox.storage import JournalStorage, SQLiteStorage

    kind, path, kill_after = sys.argv[1], sys.argv[2], int(sys.argv[3])
    base = JournalStorage if kind == "journal" else SQLiteStorage

    class KillingStorage(base):
        finishes = 0

        def record_trial_finish(self, study_name, trial):
            super().record_trial_finish(study_name, trial)
            KillingStorage.finishes += 1
            if KillingStorage.finishes >= kill_after:
                os.kill(os.getpid(), signal.SIGKILL)  # the real thing

    SPACE = {"x": FloatDistribution(-2.0, 2.0), "k": IntDistribution(0, 5)}

    def sphere(params):
        return (params["x"] ** 2 + params["k"], (params["x"] - 1.0) ** 2)

    study = create_study(
        directions=["minimize", "minimize"],
        sampler=NSGA2Sampler(population_size=8, seed=7),
        storage=KillingStorage(path),
        study_name="pipe",
    )
    PipelinedDispatcher(
        study, SPACE, workers=2, executor="thread", speculate=4, batch_size=8
    ).optimize(sphere, n_trials=24)
    """
)


class TestKillDashNineMidPipeline:
    """A genuine ``kill -9`` while speculative trials are in flight: the
    store holds a partial generation plus early next-generation trials
    whose tags must pass the resume audit — on both durable backends."""

    @pytest.mark.parametrize("kind", ["journal", "sqlite"])
    def test_sigkill_then_resume_identical_trials(self, kind, tmp_path):
        path = tmp_path / ("pipe.jsonl" if kind == "journal" else "pipe.db")
        script = tmp_path / "child.py"
        script.write_text(KILL_CHILD)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), kind, str(path), "13"],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        url = str(path) if kind == "journal" else f"sqlite:///{path}"
        resumed = _pipelined_on_storage(url, N_TRIALS, load=True)
        reference = _pipelined_on_storage(
            _storage_url(kind, tmp_path / "ref"), N_TRIALS
        )
        assert _snapshot(resumed) == _snapshot(reference)
