"""Racing invariants (DESIGN.md §8).

The contract the racing engine must keep:

* rung subsets are nested, deterministic under the schedule spec, and
  survive a parse/spec_string round trip;
* the raced Pareto front is identical to the full-ensemble front — on
  both paper sites, for sound-bound and heuristic-bound aggregates
  alike (the promote-back verification closes every elimination);
* a ``kill -9`` mid-rung plus ``study resume`` reaches the identical
  front an uninterrupted raced run reaches;
* pruned trials carry their per-rung partial values as intermediate
  reports and the rung reached as a system attr (persisted, so
  ``study status`` can histogram rungs after a crash).
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
from repro.blackbox.parallel import PipelinedDispatcher
from repro.blackbox.trial import TrialState
from repro.core.ensemble import (
    EnsembleSpec,
    build_ensemble,
    evaluate_ensemble,
    member_subset,
)
from repro.core.parameterspace import ParameterSpace
from repro.core.pareto import pareto_front
from repro.core.racing import (
    RacingEvaluator,
    RungSchedule,
    partial_lower_bound,
    race_front,
)
from repro.core.fidelity import fidelity_race_front, sibling_stack
from repro.core.study_runner import (
    RACING_RUNG_ATTR,
    CompositionObjective,
    OptimizationRunner,
)
from repro.exceptions import ConfigurationError

SMALL_SPACE = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=2)


@pytest.fixture(scope="module")
def houston_ensemble():
    """Five-member weather-year ensemble, two weeks each (fast)."""
    spec = EnsembleSpec.parse("years=2020-2024", sites=("houston",), n_hours=24 * 14)
    return build_ensemble(spec)


@pytest.fixture(scope="module")
def berkeley_ensemble():
    spec = EnsembleSpec.parse("years=2020-2024", sites=("berkeley",), n_hours=24 * 14)
    return build_ensemble(spec)


def _front_key(front):
    return {(e.composition, e.objectives()) for e in front}


class TestRungSchedule:
    def test_parse_round_trip(self):
        for spec in ("rungs=2,8,full", "rungs=1,4,full,order=seeded,seed=3", "rungs=full"):
            schedule = RungSchedule.parse(spec)
            assert schedule.spec_string() == spec
            assert RungSchedule.parse(schedule.spec_string()) == schedule

    def test_parse_accepts_bare_rung_list(self):
        assert RungSchedule.parse("2,8,full") == RungSchedule(rungs=(2, 8, None))

    def test_parse_rejects_garbage(self):
        for bad in ("rungs=2,8", "rungs=full,2,full", "rungs=8,2,full",
                    "rungs=0,full", "rungs=2,x,full", "rungs=2,full,order=bogus",
                    "rungs=2,full,seed=x", "bogus=1", "",
                    # stray bare tokens must not extend order=/seed=
                    "rungs=2,full,seed=3,9", "rungs=2,full,order=seeded,hardest"):
            with pytest.raises(ConfigurationError):
                RungSchedule.parse(bad)

    def test_resolve_collapses_oversized_rungs(self):
        schedule = RungSchedule.parse("rungs=2,8,full")
        assert schedule.resolve(20) == (2, 8, 20)
        assert schedule.resolve(5) == (2, 5)
        assert schedule.resolve(2) == (2,)
        assert schedule.resolve(1) == (1,)


class TestNestedSubsets:
    def test_subsets_nest_and_are_deterministic(self):
        schedule = RungSchedule.parse("rungs=2,8,full,order=seeded,seed=11")
        first = schedule.subsets(20)
        again = schedule.subsets(20)
        assert first == again
        for smaller, larger in zip(first, first[1:]):
            assert set(smaller) < set(larger)
        assert first[-1] == tuple(range(20))

    def test_seed_changes_the_subsets(self):
        a = member_subset(20, 8, seed=0)
        b = member_subset(20, 8, seed=1)
        assert a != b
        assert member_subset(20, 8, seed=0) == a

    def test_subsets_survive_a_spec_round_trip(self):
        schedule = RungSchedule.parse("rungs=3,9,full,order=seeded,seed=5")
        rebuilt = RungSchedule.parse(schedule.spec_string())
        assert rebuilt.subsets(17) == schedule.subsets(17)

    def test_hardest_order_is_deterministic_per_ensemble(self, houston_ensemble):
        evaluators = [
            RacingEvaluator(houston_ensemble, RungSchedule.parse("rungs=2,full"))
            for _ in range(2)
        ]
        assert evaluators[0].subsets == evaluators[1].subsets
        for smaller, larger in zip(evaluators[0].subsets, evaluators[0].subsets[1:]):
            assert set(smaller) < set(larger)

    def test_bare_schedule_refuses_to_guess_the_hardest_order(self):
        """Regression: subsets() must not silently fall back to the
        seeded permutation when the spec says order=hardest."""
        with pytest.raises(ConfigurationError):
            RungSchedule.parse("rungs=2,full").subsets(10)
        # explicit rankings and the seeded order still work
        assert RungSchedule.parse("rungs=2,full").subsets_from_order(
            [3, 1, 0, 2]
        ) == [(1, 3), (0, 1, 2, 3)]
        assert RungSchedule.parse("rungs=2,full,order=seeded").subsets(4)

    def test_parallel_and_serial_drivers_race_identical_subsets(self, houston_ensemble):
        """The hardest-first subsets must not depend on the driver."""
        from repro.core.racing import difficulty_ranking

        schedule = RungSchedule.parse("rungs=2,full")
        evaluator = RacingEvaluator(houston_ensemble, schedule)
        objective = CompositionObjective(tuple(houston_ensemble), space=SMALL_SPACE)
        assert evaluator.subsets == schedule.subsets_from_order(
            difficulty_ranking(objective.member_difficulty())
        )


class TestLowerBound:
    def test_padded_bound_never_exceeds_the_exact_aggregate(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        for aggregate in ("worst", "mean", "cvar:0.4", "quantile:0.5"):
            from repro.core.metrics import aggregate_values

            exact = aggregate_values(values, aggregate)
            for k in range(1, len(values) + 1):
                bound = partial_lower_bound(values[:k], len(values), aggregate)
                assert bound is not None and bound <= exact + 1e-12

    def test_negative_values_void_the_bound(self):
        assert partial_lower_bound([-1.0, 2.0], 4, "mean") is None

    def test_worst_bound_is_sound_for_any_sign(self):
        # max(seen) can only grow with more members, negative or not
        assert partial_lower_bound([-5.0, -2.0], 4, "worst") == -2.0

    def test_uncertified_objectives_void_padded_bounds(self):
        # all-positive *seen* values prove nothing about unseen members
        # unless the objective is non-negative by construction
        assert partial_lower_bound([3.0, 4.0], 4, "mean", nonnegative=False) is None
        assert partial_lower_bound([3.0, 4.0], 4, "worst", nonnegative=False) == 4.0

    def test_too_many_values_raise(self):
        with pytest.raises(ConfigurationError):
            partial_lower_bound([1.0, 2.0], 1, "worst")


class TestRacedFrontExactness:
    """The tentpole guarantee: raced front == full front, both sites."""

    @pytest.mark.parametrize("site", ["houston", "berkeley"])
    @pytest.mark.parametrize("aggregate", ["worst", "cvar:0.4", "mean"])
    def test_front_identical_to_full_evaluation(
        self, site, aggregate, houston_ensemble, berkeley_ensemble
    ):
        ensemble = houston_ensemble if site == "houston" else berkeley_ensemble
        comps = SMALL_SPACE.all_compositions()
        full_front = pareto_front(evaluate_ensemble(ensemble, comps, aggregate=aggregate))
        raced_front, outcome = race_front(
            ensemble, comps, RungSchedule.parse("rungs=2,full"), aggregate=aggregate
        )
        assert _front_key(full_front) == _front_key(raced_front)
        # everything returned as evaluated is genuinely full-fidelity
        assert all(
            len(e.per_scenario) == len(ensemble)
            for e in outcome.evaluated.values()
        )
        # accounting is consistent
        stats = outcome.stats
        assert stats.pruned + len(outcome.evaluated) == stats.candidates
        assert stats.member_evals <= stats.full_member_evals + len(ensemble)

    def test_seeded_order_is_also_exact(self, houston_ensemble):
        comps = SMALL_SPACE.all_compositions()
        full_front = pareto_front(evaluate_ensemble(houston_ensemble, comps))
        raced_front, _ = race_front(
            houston_ensemble,
            comps,
            RungSchedule.parse("rungs=2,full,order=seeded,seed=4"),
        )
        assert _front_key(full_front) == _front_key(raced_front)

    def test_known_evaluations_are_reused_not_recomputed(self, houston_ensemble):
        comps = SMALL_SPACE.all_compositions()
        evaluator = RacingEvaluator(houston_ensemble, RungSchedule.parse("rungs=2,full"))
        first = evaluator.race(comps)
        again = evaluator.race(comps, known=dict(first.evaluated))
        assert again.stats.member_evals == 0 or set(again.pruned) == set(first.pruned)
        # candidates already exact pay zero member evaluations
        assert again.stats.member_evals < first.stats.member_evals


class TestEngineMatrix:
    """The dispatch path ``run_dispatch`` picks (DESIGN.md §9) must not
    change racing."""

    # ``run_dispatch`` sends every call of a race to the segments engine;
    # the parameter names the path compared with the loop.
    @pytest.mark.parametrize("engine", ["segments"])
    def test_raced_front_bit_identical_across_engines(self, engine, houston_ensemble, request):
        comps = SMALL_SPACE.all_compositions()
        schedule = RungSchedule.parse("rungs=2,full")
        front, outcome = race_front(houston_ensemble, comps, schedule)
        request.getfixturevalue("loop_dispatch")
        ref_front, ref_outcome = race_front(houston_ensemble, comps, schedule)
        assert _front_key(front) == _front_key(ref_front)
        # not just the front: every full-fidelity evaluation and every
        # elimination decision must be bit-identical
        assert set(outcome.pruned) == set(ref_outcome.pruned)
        assert set(outcome.evaluated) == set(ref_outcome.evaluated)
        for comp, e in outcome.evaluated.items():
            assert e.objectives() == ref_outcome.evaluated[comp].objectives(), comp


class TestStudyRacing:
    def _run(self, ensemble, storage, n_trials, load=False, racing="rungs=2,full"):
        return OptimizationRunner(ensemble, space=SMALL_SPACE).run_blackbox(
            n_trials=n_trials,
            sampler=NSGA2Sampler(population_size=10, seed=42),
            storage=storage,
            study_name="raced",
            load_if_exists=load,
            racing=racing,
        )

    def test_pruned_trials_carry_reports_and_rung_attr(self, houston_ensemble, tmp_path):
        result = self._run(houston_ensemble, str(tmp_path / "r.jsonl"), 30)
        pruned = [t for t in result.study.trials if t.state == TrialState.PRUNED]
        assert pruned and result.n_pruned == len(pruned)
        for trial in pruned:
            assert trial.intermediate, "pruned trial has no per-rung reports"
            assert trial.system_attrs[RACING_RUNG_ATTR] < len(houston_ensemble)
        for trial in result.study.trials:
            if trial.state == TrialState.COMPLETE:
                assert trial.system_attrs[RACING_RUNG_ATTR] == len(houston_ensemble)
        # the racing schedule is persisted for resume
        assert result.study.metadata["racing"] == "rungs=2,full"

    def test_resume_reaches_identical_front(self, houston_ensemble, tmp_path):
        full = self._run(houston_ensemble, str(tmp_path / "full.jsonl"), 40)
        self._run(houston_ensemble, str(tmp_path / "cut.jsonl"), 15)
        resumed = self._run(houston_ensemble, str(tmp_path / "cut.jsonl"), 40, load=True)
        assert [
            (t.params, t.values, t.state) for t in resumed.study.trials
        ] == [(t.params, t.values, t.state) for t in full.study.trials]
        assert _front_key(resumed.front()) == _front_key(full.front())

    def test_resume_enforces_the_persisted_schedule(self, houston_ensemble, tmp_path):
        """Regression: resuming a raced study without (or with another)
        schedule would silently breed a different population while the
        metadata still claims the original rungs — hard error instead."""
        from repro.exceptions import OptimizationError

        path = str(tmp_path / "r.jsonl")
        self._run(houston_ensemble, path, 15)
        for wrong in (None, "rungs=3,full"):
            with pytest.raises(OptimizationError, match="racing"):
                self._run(houston_ensemble, path, 40, load=True, racing=wrong)
        # and racing cannot be *added* to a study that never raced
        plain = str(tmp_path / "plain.jsonl")
        self._run(houston_ensemble, plain, 15, racing=None)
        with pytest.raises(OptimizationError, match="racing"):
            self._run(houston_ensemble, plain, 40, load=True)


KILL_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.blackbox import JournalStorage, NSGA2Sampler
    from repro.core.ensemble import EnsembleSpec, build_ensemble
    from repro.core.parameterspace import ParameterSpace
    from repro.core.study_runner import OptimizationRunner

    path, kill_after = sys.argv[1], int(sys.argv[2])

    class KillingJournal(JournalStorage):
        finishes = 0
        def record_trial_finish(self, study_name, trial):
            super().record_trial_finish(study_name, trial)
            KillingJournal.finishes += 1
            if KillingJournal.finishes >= kill_after:
                os.kill(os.getpid(), signal.SIGKILL)  # the real thing

    ensemble = build_ensemble(
        EnsembleSpec.parse("years=2020-2024", sites=("houston",), n_hours=24 * 14)
    )
    space = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=2)
    OptimizationRunner(ensemble, space=space).run_blackbox(
        n_trials=40,
        sampler=NSGA2Sampler(population_size=10, seed=42),
        storage=KillingJournal(path),
        study_name="raced",
        racing="rungs=2,full",
    )
    """
)


class TestKillDashNineMidRung:
    """A genuine ``kill -9`` while a raced generation is being told —
    the journal holds a partial mix of PRUNED and COMPLETE records —
    must resume to the identical front an uninterrupted raced run
    reaches."""

    def test_sigkill_then_resume_identical_front(self, tmp_path, houston_ensemble):
        path = tmp_path / "raced.jsonl"
        script = tmp_path / "child.py"
        script.write_text(KILL_CHILD)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(path), "17"],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        resumed = OptimizationRunner(houston_ensemble, space=SMALL_SPACE).run_blackbox(
            n_trials=40,
            sampler=NSGA2Sampler(population_size=10, seed=42),
            storage=str(path),
            study_name="raced",
            load_if_exists=True,
            racing="rungs=2,full",
        )
        # storage enables the per-trial RNG streams resume replays, so
        # the uninterrupted reference needs a journal of its own too
        reference = OptimizationRunner(houston_ensemble, space=SMALL_SPACE).run_blackbox(
            n_trials=40,
            sampler=NSGA2Sampler(population_size=10, seed=42),
            storage=str(tmp_path / "reference.jsonl"),
            study_name="raced",
            racing="rungs=2,full",
        )
        assert [
            (t.params, t.values, t.state) for t in resumed.study.trials
        ] == [(t.params, t.values, t.state) for t in reference.study.trials]
        assert _front_key(resumed.front()) == _front_key(reference.front())


class TestParallelRungDispatch:
    def _run(self, ensemble):
        objective = CompositionObjective(
            tuple(ensemble), space=SMALL_SPACE, aggregate="worst"
        )
        study = create_study(
            directions=["minimize", "minimize"],
            sampler=NSGA2Sampler(population_size=8, seed=5),
        )
        dispatcher = PipelinedDispatcher(study, SMALL_SPACE.distributions(), batch_size=8)
        dispatcher.optimize(objective, n_trials=24, racing="rungs=2,full")
        return study, objective

    def test_deterministic_and_bit_identical_survivors(self, houston_ensemble):
        (s1, objective), (s2, _) = self._run(houston_ensemble), self._run(houston_ensemble)
        assert [(t.params, t.values, t.state) for t in s1.trials] == [
            (t.params, t.values, t.state) for t in s2.trials
        ]
        pruned = [t for t in s1.trials if t.state == TrialState.PRUNED]
        assert pruned, "racing never pruned a trial"
        for trial in pruned:
            assert trial.intermediate
        for trial in s1.trials:
            if trial.state == TrialState.COMPLETE:
                # survivors pay the unchanged full-fidelity objective
                assert tuple(objective(dict(trial.params))) == trial.values

    def test_racing_requires_multi_fidelity_hooks(self):
        from repro.exceptions import OptimizationError

        study = create_study(sampler=NSGA2Sampler(population_size=4, seed=1))
        dispatcher = PipelinedDispatcher(study, SMALL_SPACE.distributions(), batch_size=4)
        with pytest.raises(OptimizationError):
            dispatcher.optimize(lambda params: 0.0, n_trials=4, racing="rungs=2,full")

    def test_parallel_resume_enforces_the_persisted_schedule(
        self, houston_ensemble, tmp_path
    ):
        """Same identity rule as the serial driver: a resumed study must
        race the persisted schedule (and the schedule is persisted even
        on the storage-attach path, so this is detectable at all)."""
        from repro.exceptions import OptimizationError

        objective = CompositionObjective(
            tuple(houston_ensemble), space=SMALL_SPACE, aggregate="worst"
        )
        path = str(tmp_path / "p.jsonl")
        study = create_study(
            directions=["minimize", "minimize"],
            sampler=NSGA2Sampler(population_size=8, seed=5),
        )
        PipelinedDispatcher(
            study, SMALL_SPACE.distributions(), batch_size=8, storage=path
        ).optimize(objective, n_trials=8, racing="rungs=2,full")
        assert study.metadata["racing"] == "rungs=2,full"

        resumed = create_study(
            directions=["minimize", "minimize"],
            sampler=NSGA2Sampler(population_size=8, seed=5),
            storage=path,
            load_if_exists=True,
        )
        dispatcher = PipelinedDispatcher(
            resumed, SMALL_SPACE.distributions(), batch_size=8
        )
        for wrong in (None, "rungs=3,full"):
            with pytest.raises(OptimizationError, match="racing"):
                dispatcher.optimize(objective, n_trials=16, racing=wrong)
        dispatcher.optimize(objective, n_trials=16, racing="rungs=2,full")
        assert len(resumed.trials) == 16

    def test_rungs_never_resimulate_a_member(self, houston_ensemble):
        """Nested subsets + incremental dispatch: each (trial, member)
        cell is evaluated at most once, and a survivor pays exactly the
        full ensemble — racing can never cost more than not racing."""
        calls: "list[tuple[tuple, tuple[int, ...]]]" = []

        class CountingObjective(CompositionObjective):
            def member_values(self, params, member_indices):
                calls.append((tuple(sorted(params.items())), tuple(member_indices)))
                return super().member_values(params, member_indices)

        objective = CountingObjective(
            tuple(houston_ensemble), space=SMALL_SPACE, aggregate="worst"
        )
        study = create_study(
            directions=["minimize", "minimize"],
            sampler=NSGA2Sampler(population_size=8, seed=5),
        )
        dispatcher = PipelinedDispatcher(study, SMALL_SPACE.distributions(), batch_size=8)
        dispatcher.optimize(objective, n_trials=16, racing="rungs=2,full")

        n_members = len(houston_ensemble)
        trial_count: "dict[tuple, int]" = {}
        for trial in study.trials:
            key = tuple(sorted(trial.params.items()))
            trial_count[key] = trial_count.get(key, 0) + 1
        per_key_members: "dict[tuple, list[int]]" = {}
        for params_key, members in calls:
            per_key_members.setdefault(params_key, []).extend(members)
        for params_key, members in per_key_members.items():
            # each of the key's trials sees a member at most once
            for member in set(members):
                assert members.count(member) <= trial_count[params_key], (
                    f"member {member} re-simulated for {params_key}"
                )
            assert len(members) <= trial_count[params_key] * n_members
        # racing never costs more than the non-raced run, and pruning
        # means it costs strictly less
        total = sum(len(members) for _, members in calls)
        n_complete = sum(1 for t in study.trials if t.state == TrialState.COMPLETE)
        assert n_complete * n_members <= total < len(study.trials) * n_members


# -- fidelity-ladder racing (DESIGN.md §11) -----------------------------------


class TestFidelityRacedFrontExactness:
    """The fidelity tentpole guarantee: a ladder-raced front is
    bit-identical to evaluating every candidate at ladder-top (full)
    physics — on both paper sites, for every aggregate, including
    member-rung × fidelity-rung combined schedules."""

    LADDER = "fidelity=lo,mid,full"

    @pytest.mark.parametrize("site", ["houston", "berkeley"])
    @pytest.mark.parametrize("aggregate", ["worst", "cvar:0.25", "mean"])
    def test_front_identical_to_full_fidelity_evaluation(
        self, site, aggregate, houston_ensemble, berkeley_ensemble
    ):
        ensemble = houston_ensemble if site == "houston" else berkeley_ensemble
        comps = SMALL_SPACE.all_compositions()
        full_front = pareto_front(
            evaluate_ensemble(
                sibling_stack(ensemble, "full"), comps, aggregate=aggregate
            )
        )
        front, outcome = fidelity_race_front(
            ensemble,
            comps,
            ladder=self.LADDER,
            schedule="rungs=2,full",
            aggregate=aggregate,
        )
        assert _front_key(full_front) == _front_key(front)
        # everything returned as evaluated is genuinely full-physics and
        # full-ensemble
        assert all(
            len(e.per_scenario) == len(ensemble)
            for e in outcome.evaluated.values()
        )
        stats = outcome.stats
        assert stats.pruned + len(outcome.evaluated) == stats.candidates
        assert stats.low_fidelity_evals > 0, "cheap screening never ran"

    @pytest.mark.parametrize(
        "schedule",
        ["rungs=full,order=seeded", "rungs=2,full", "rungs=2,3,full"],
    )
    def test_member_rungs_times_fidelity_rungs(self, schedule, houston_ensemble):
        """The two racing axes compose: member rungs inside each fidelity
        level, candidates climbing both — front still exact."""
        comps = SMALL_SPACE.all_compositions()
        full_front = pareto_front(
            evaluate_ensemble(sibling_stack(houston_ensemble, "full"), comps)
        )
        front, outcome = fidelity_race_front(
            houston_ensemble, comps, ladder=self.LADDER, schedule=schedule
        )
        assert _front_key(full_front) == _front_key(front)
        assert outcome.stats.low_fidelity_evals > 0

    def test_screening_proofs_fire(self, houston_ensemble):
        """Non-vacuity: under ``worst`` some candidates are eliminated
        entirely at cheap physics, paying zero full-physics evals."""
        comps = SMALL_SPACE.all_compositions()
        _, outcome = fidelity_race_front(
            houston_ensemble, comps, ladder=self.LADDER, schedule="rungs=2,full"
        )
        assert outcome.stats.screened > 0
        # every screened candidate is among pruned with a proof recorded
        assert outcome.stats.screened <= outcome.stats.pruned

    def test_race_front_fidelity_axis_delegates(self, houston_ensemble):
        """``race_front(..., fidelity=...)`` is the fidelity engine."""
        comps = SMALL_SPACE.all_compositions()
        via_axis, _ = race_front(
            houston_ensemble,
            comps,
            RungSchedule.parse("rungs=2,full"),
            fidelity="fidelity=lo,full",
        )
        direct, _ = fidelity_race_front(
            houston_ensemble, comps, ladder="fidelity=lo,full", schedule="rungs=2,full"
        )
        assert _front_key(via_axis) == _front_key(direct)

    def test_two_level_ladder_is_also_exact(self, berkeley_ensemble):
        comps = SMALL_SPACE.all_compositions()
        full_front = pareto_front(
            evaluate_ensemble(sibling_stack(berkeley_ensemble, "full"), comps)
        )
        front, _ = fidelity_race_front(
            berkeley_ensemble, comps, ladder="fidelity=lo,full", schedule="rungs=2,full"
        )
        assert _front_key(full_front) == _front_key(front)


class TestStudyFidelityRacing:
    """The study drivers persist the ladder as resume identity."""

    LADDER = "fidelity=lo,mid,full"

    def _run(
        self,
        ensemble,
        storage,
        n_trials,
        load=False,
        racing="rungs=2,full",
        fidelity="fidelity=lo,mid,full",
    ):
        return OptimizationRunner(
            ensemble, space=SMALL_SPACE, fidelity=fidelity
        ).run_blackbox(
            n_trials=n_trials,
            sampler=NSGA2Sampler(population_size=10, seed=42),
            storage=storage,
            study_name="laddered",
            load_if_exists=load,
            racing=racing,
        )

    def test_ladder_persisted_and_values_are_full_physics(
        self, houston_ensemble, tmp_path
    ):
        result = self._run(houston_ensemble, str(tmp_path / "f.jsonl"), 30)
        assert result.study.metadata["fidelity"] == self.LADDER
        assert result.study.metadata["racing"] == "rungs=2,full"
        # COMPLETE values are bit-identical to ladder-top evaluation
        full_stack = tuple(sibling_stack(houston_ensemble, "full"))
        objective = CompositionObjective(full_stack, space=SMALL_SPACE)
        for trial in result.study.trials:
            if trial.state == TrialState.COMPLETE:
                assert tuple(objective(dict(trial.params))) == trial.values

    def test_resume_reaches_identical_front(self, houston_ensemble, tmp_path):
        full = self._run(houston_ensemble, str(tmp_path / "full.jsonl"), 40)
        self._run(houston_ensemble, str(tmp_path / "cut.jsonl"), 15)
        resumed = self._run(
            houston_ensemble, str(tmp_path / "cut.jsonl"), 40, load=True
        )
        assert [
            (t.params, t.values, t.state) for t in resumed.study.trials
        ] == [(t.params, t.values, t.state) for t in full.study.trials]
        assert _front_key(resumed.front()) == _front_key(full.front())

    def test_resume_enforces_the_persisted_ladder(self, houston_ensemble, tmp_path):
        """Resuming with another (or no) ladder would mix physics rungs
        across generations while the metadata still claims the original
        spec — hard error instead."""
        from repro.exceptions import OptimizationError

        path = str(tmp_path / "f.jsonl")
        self._run(houston_ensemble, path, 15)
        for wrong in (None, "fidelity=lo,full", "fidelity=lo,mid,full,margin=0.9"):
            with pytest.raises(OptimizationError, match="fidelity"):
                self._run(houston_ensemble, path, 40, load=True, fidelity=wrong)
        # and a ladder cannot be *added* to a study that never had one
        plain = str(tmp_path / "plain.jsonl")
        self._run(houston_ensemble, plain, 15, fidelity=None)
        with pytest.raises(OptimizationError, match="fidelity"):
            self._run(houston_ensemble, plain, 40, load=True)


KILL_CHILD_FIDELITY = textwrap.dedent(
    """
    import os, signal, sys

    from repro.blackbox import JournalStorage, NSGA2Sampler, SQLiteStorage
    from repro.core.ensemble import EnsembleSpec, build_ensemble
    from repro.core.parameterspace import ParameterSpace
    from repro.core.study_runner import OptimizationRunner

    path, kill_after = sys.argv[1], int(sys.argv[2])
    Base = JournalStorage if path.endswith(".jsonl") else SQLiteStorage

    class KillingStorage(Base):
        finishes = 0
        def record_trial_finish(self, study_name, trial):
            super().record_trial_finish(study_name, trial)
            KillingStorage.finishes += 1
            if KillingStorage.finishes >= kill_after:
                os.kill(os.getpid(), signal.SIGKILL)  # the real thing

    ensemble = build_ensemble(
        EnsembleSpec.parse("years=2020-2024", sites=("houston",), n_hours=24 * 14)
    )
    space = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=2)
    OptimizationRunner(
        ensemble, space=space, fidelity="fidelity=lo,mid,full"
    ).run_blackbox(
        n_trials=40,
        sampler=NSGA2Sampler(population_size=10, seed=42),
        storage=KillingStorage(path),
        study_name="laddered",
        racing="rungs=2,full",
    )
    """
)


class TestKillDashNineMidFidelityRung:
    """A genuine ``kill -9`` while a fidelity-laddered raced generation
    is being told: the persisted ladder spec plus the per-trial RNG
    streams must carry the resumed study to the identical front an
    uninterrupted run reaches — on the journal and SQLite backends
    alike.  Resuming against the crashed store with a *different*
    ladder is a hard error."""

    @pytest.mark.parametrize("kind", ["journal", "sqlite"])
    def test_sigkill_then_resume_identical_front(
        self, tmp_path, kind, houston_ensemble
    ):
        from repro.blackbox import storage_from_url
        from repro.exceptions import OptimizationError

        path = tmp_path / ("laddered.jsonl" if kind == "journal" else "laddered.db")
        script = tmp_path / "child.py"
        script.write_text(KILL_CHILD_FIDELITY)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(path), "17"],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        # the crashed store already carries the full resume identity
        crashed = storage_from_url(str(path)).load_study("laddered")
        assert crashed.metadata["fidelity"] == "fidelity=lo,mid,full"
        assert crashed.metadata["racing"] == "rungs=2,full"

        def run(storage, load=False, fidelity="fidelity=lo,mid,full"):
            return OptimizationRunner(
                houston_ensemble, space=SMALL_SPACE, fidelity=fidelity
            ).run_blackbox(
                n_trials=40,
                sampler=NSGA2Sampler(population_size=10, seed=42),
                storage=storage,
                study_name="laddered",
                load_if_exists=load,
                racing="rungs=2,full",
            )

        with pytest.raises(OptimizationError, match="fidelity"):
            run(str(path), load=True, fidelity="fidelity=lo,full")

        resumed = run(str(path), load=True)
        reference = run(
            str(tmp_path / ("ref.jsonl" if kind == "journal" else "ref.db"))
        )
        assert [
            (t.params, t.values, t.state) for t in resumed.study.trials
        ] == [(t.params, t.values, t.state) for t in reference.study.trials]
        assert _front_key(resumed.front()) == _front_key(reference.front())
