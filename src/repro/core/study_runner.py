"""Optimization drivers: exhaustive and black-box composition search.

Couples the black-box layer (:mod:`repro.blackbox`) to composition
evaluation, reproducing the paper's two search modes:

* **exhaustive** — evaluate all 1 089 grid points (via the vectorized
  batch evaluator, so this is seconds, not the paper's >24 h of
  co-simulations);
* **black-box** — an NSGA-II study (350 trials, population 50 by
  default) where each trial maps to one composition and is scored by the
  batch evaluator; results cached per composition so repeated visits are
  free (matching how Optuna-with-Vessim would memoize identical configs).

Both modes compose with the persistence/parallelism subsystem
(DESIGN.md §3–§4):

* pass ``storage=JournalStorage(path)`` — or any storage spec the URL
  registry resolves, e.g. ``"sqlite:///study.db"`` (DESIGN.md §7) —
  (and later ``load_if_exists=True``) to ``run_blackbox`` and an
  interrupted search resumes to the *identical* Pareto front an
  uninterrupted run produces under the same seed — the CLI verbs
  ``repro study run / resume / status`` drive exactly this path;
* call ``run_pipelined`` to stream trials through the dispatcher's
  thread, process or remote worker pool (DESIGN.md §4, §10); the
  batched driver itself always evaluates in-process.

Multi-scenario robustness (DESIGN.md §5–§6): pass a *list* of scenarios
(``OptimizationRunner([berkeley, houston], aggregate="worst")`` — or an
ensemble built by :func:`repro.core.ensemble.build_ensemble`) and every
candidate is scored against all scenarios in one stacked N×S time loop;
objectives seen by the sampler are the per-candidate robust aggregates
(``worst``, ``mean``, ``cvar:alpha``, or ``quantile:q`` across
scenarios — the :func:`repro.core.metrics.parse_aggregate` grammar).
``policy`` swaps the dispatch strategy on the same fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..blackbox.multiobjective import pareto_recovery_rate
from ..blackbox.samplers.base import Sampler
from ..blackbox.samplers.nsga2 import NSGA2Sampler
from ..blackbox.storage import StudyStorage, resolve_storage
from ..blackbox.study import Study, create_study
from ..blackbox.trial import RACING_RUNG_ATTR, TrialState
from ..exceptions import OptimizationError
from .composition import MicrogridComposition
from .dispatch import VectorizedPolicy
from .fastsim import evaluate_across_scenarios, evaluate_member_slice
from .metrics import (
    EvaluatedComposition,
    RobustEvaluatedComposition,
    parse_aggregate,
    robust_evaluations,
)
from .fidelity import FidelityLadder, FidelityRacingEvaluator, sibling_stack
from .parameterspace import PAPER_SPACE, ParameterSpace
from .pareto import pareto_front, pareto_points
from .racing import RacingEvaluator, RacingStats, RungSchedule, tell_race
from .scenario import Scenario
from .study_spec import check_resume_identity

#: Either a plain single-scenario evaluation or its multi-scenario wrapper —
#: both expose ``composition`` and ``objectives(names)``.
AnyEvaluated = "EvaluatedComposition | RobustEvaluatedComposition"


def _as_scenarios(scenario: "Scenario | Sequence[Scenario]") -> tuple[Scenario, ...]:
    if isinstance(scenario, Scenario):
        return (scenario,)
    scenarios = tuple(scenario)
    if not scenarios:
        raise OptimizationError("need at least one scenario")
    return scenarios


@dataclass
class SearchResult:
    """Outcome of a composition search.  From the pipelined driver it has
    an empty ``evaluated`` and no simulation count: its record is ``study``."""

    evaluated: "list[AnyEvaluated]"
    study: Study | None = None
    #: unique simulations this run; ``None`` when the driver does not count them
    n_simulations: "int | None" = 0
    #: trials pruned by the racing engine (0 without ``racing``)
    n_pruned: int = 0
    #: accumulated racing work accounting (None without ``racing``)
    racing: "RacingStats | None" = None

    def front(
        self, objectives: Sequence[str] = ("embodied", "operational")
    ) -> "list[AnyEvaluated]":
        return pareto_front(self.evaluated, objectives)


@dataclass
class CompositionObjective:
    """Picklable objective: trial params → objective vector.

    The worker-process counterpart of ``ParameterSpace.suggest``: rebuild
    the composition from the suggested parameters, evaluate it, and
    return the requested objectives.  Instances ship cleanly through
    a process pool (scenarios, space, and dispatch policies are plain
    picklable dataclasses), so this is the natural objective for
    :class:`~repro.blackbox.parallel.PipelinedDispatcher`.

    ``scenario`` may be a single scenario or a sequence; with several,
    the trial is scored by the robust ``aggregate`` across all of them
    (one stacked time loop on the fast path; per-scenario co-simulations
    with the policy's scalar twin when ``cosim=True``).

    ``cosim=True`` scores through the full co-simulator (the paper's
    faithful-but-slow path, DESIGN.md §2) — the case where fanning trials
    across processes actually pays; the default fast path evaluates via
    the vectorized :class:`~repro.core.fastsim.BatchEvaluator`.
    """

    scenario: "Scenario | Sequence[Scenario]"
    space: ParameterSpace = field(default_factory=lambda: PAPER_SPACE)
    objectives: tuple[str, ...] = ("operational", "embodied")
    cosim: bool = False
    policy: VectorizedPolicy | None = None
    aggregate: str = "worst"

    def __call__(self, params: dict[str, Any]) -> tuple[float, ...]:
        comp = self.space.from_params(params)
        scenarios = _as_scenarios(self.scenario)
        if self.cosim:
            from .evaluator import CompositionEvaluator

            per_scenario = [
                [
                    CompositionEvaluator(
                        sc,
                        policy=(
                            self.policy.cosim_twin(sc, i)
                            if self.policy is not None
                            else None
                        ),
                    ).evaluate(comp)
                ]
                for i, sc in enumerate(scenarios)
            ]
        else:
            per_scenario = evaluate_across_scenarios(scenarios, [comp], policy=self.policy)
        if len(scenarios) == 1:
            evaluated: "AnyEvaluated" = per_scenario[0][0]
        else:
            evaluated = robust_evaluations(per_scenario, self.aggregate)[0]
        return evaluated.objectives(self.objectives)

    # -- multi-fidelity hooks (racing rung dispatch, DESIGN.md §8) ------------

    @property
    def n_members(self) -> int:
        """Ensemble size — the racing engine's full-fidelity resource."""
        return len(_as_scenarios(self.scenario))

    def member_difficulty(self) -> list[float]:
        """Per-member first-objective values of the fixed probe build.

        Ranks the ensemble for the ``hardest`` rung order when this
        objective drives :class:`~repro.blackbox.parallel.
        PipelinedDispatcher` racing — the same probe
        :class:`~repro.core.racing.RacingEvaluator` uses, so both
        drivers race identical subsets for a given ensemble.
        """
        from .racing import PROBE_COMPOSITION

        per_member = evaluate_across_scenarios(
            _as_scenarios(self.scenario),
            [PROBE_COMPOSITION],
            policy=self.policy,
        )
        return [row[0].objectives(self.objectives)[0] for row in per_member]

    def member_values(
        self, params: dict[str, Any], member_indices: Sequence[int]
    ) -> tuple[tuple[float, ...], ...]:
        """Per-member objective vectors on a member slice (fast path).

        The rung evaluation :class:`~repro.blackbox.parallel.
        PipelinedDispatcher` fans across workers: one vector per named
        member, in slice order.  Returning *per-member* values (rather
        than a pre-reduced aggregate) is what lets the parent fill each
        trial's member matrix incrementally — a rung only ever pays for
        its new members — and reduce in canonical member order, so a
        finalist's parent-side aggregate is bit-identical to
        ``__call__``'s.
        """
        comp = self.space.from_params(params)
        per_scenario = evaluate_member_slice(
            _as_scenarios(self.scenario),
            member_indices,
            [comp],
            policy=self.policy,
        )
        return tuple(row[0].objectives(self.objectives) for row in per_scenario)


@dataclass
class OptimizationRunner:
    """Runs composition searches against one scenario — or several.

    With a sequence of scenarios — paper sites or a full scenario
    ensemble (DESIGN.md §6) — every batch is evaluated as one stacked
    N-candidates × S-scenarios time loop (DESIGN.md §5) and the search
    optimizes the robust ``aggregate`` (``worst``, ``mean``,
    ``cvar:alpha``, ``quantile:q``) of each objective across scenarios.

    The batched paths (:meth:`evaluate`, :meth:`run_exhaustive`,
    :meth:`run_blackbox`) run in-process: one generation is one vector
    call, which costs less than a spawned worker's imports.  Spreading
    trials over processes or remote workers is :meth:`run_pipelined`'s
    job (DESIGN.md §4).
    """

    scenario: "Scenario | Sequence[Scenario]"
    space: ParameterSpace = field(default_factory=lambda: PAPER_SPACE)
    objectives: tuple[str, ...] = ("operational", "embodied")
    policy: VectorizedPolicy | None = None
    aggregate: str = "worst"
    #: model-fidelity ladder (DESIGN.md §11): when set, the runner's
    #: scenario stack is lifted to the ladder-top (``full``) physics
    #: siblings for every evaluation path, and raced generations screen
    #: candidates on the cheap levels first (front unchanged — the
    #: envelope proofs guarantee it)
    fidelity: "FidelityLadder | str | None" = None

    def __post_init__(self) -> None:
        parse_aggregate(self.aggregate)  # fail fast, before any evaluation
        self.scenarios: tuple[Scenario, ...] = _as_scenarios(self.scenario)
        self._base_scenarios: tuple[Scenario, ...] = self.scenarios
        self._fidelity: "FidelityLadder | None" = None
        if self.fidelity is not None:
            self._fidelity = FidelityLadder.parse(self.fidelity)
            # Every evaluation path — batch, rung slice, pipelined
            # objective — runs the ladder-top physics, so raced and
            # non-raced fronts agree and resume identity is physical.
            self.scenarios = tuple(sibling_stack(list(self.scenarios), "full"))
        self._cache: "dict[MicrogridComposition, AnyEvaluated]" = {}

    # -- evaluation with memoization ------------------------------------------

    def evaluate(
        self, comps: Sequence[MicrogridComposition]
    ) -> "list[AnyEvaluated]":
        """Evaluate compositions, reusing cached results."""
        missing = [c for c in dict.fromkeys(comps) if c not in self._cache]
        if missing:
            per_scenario = evaluate_across_scenarios(self.scenarios, missing, policy=self.policy)
            results = (
                per_scenario[0]
                if len(self.scenarios) == 1
                else robust_evaluations(per_scenario, self.aggregate)
            )
            for res in results:
                self._cache[res.composition] = res
        return [self._cache[c] for c in comps]

    @property
    def n_simulations(self) -> int:
        """Distinct compositions actually simulated so far."""
        return len(self._cache)

    # -- search modes ---------------------------------------------------------

    def run_exhaustive(self) -> SearchResult:
        """Evaluate the full parameter space (§4.4 baseline)."""
        comps = self.space.all_compositions()
        evaluated = self.evaluate(comps)
        return SearchResult(evaluated=evaluated, n_simulations=len(comps))

    def run_blackbox(
        self,
        n_trials: int = 350,
        sampler: Sampler | None = None,
        seed: int | None = None,
        batch_size: int | None = None,
        storage: "StudyStorage | str | None" = None,
        study_name: str | None = None,
        load_if_exists: bool = False,
        metadata: dict[str, Any] | None = None,
        racing: "RungSchedule | str | None" = None,
    ) -> SearchResult:
        """Multi-objective black-box search (§4.4: NSGA-II, pop. 50).

        Trials are asked and told in generation-sized batches so each
        generation is simulated as **one** vectorized batch-evaluator call
        — semantically identical to per-trial evaluation for generational
        samplers (NSGA-II only consults *completed* trials when breeding),
        but ~population× faster.  The paper parallelizes the same step
        across cluster nodes through Hydra; here the batch axis is the
        vector axis.

        **Persistence/resume** (DESIGN.md §3): with ``storage`` set every
        trial is journaled, and the sampler switches to deterministic
        per-trial RNG streams.  With ``load_if_exists=True`` a previously
        interrupted study is reloaded; any trailing partial generation is
        discarded and re-run so the sampler sees exactly the
        completed-trial history an uninterrupted run would have seen at
        that generation boundary — which makes the resumed final Pareto
        front *identical* to the uninterrupted one under a fixed seed.
        ``SearchResult.n_simulations`` counts simulations performed by
        this call (a resumed call re-simulates the reloaded compositions
        once — cheap, vectorized, and hitting the runner's memo cache
        thereafter).

        **Racing** (DESIGN.md §8): with ``racing`` set to a
        :class:`~repro.core.racing.RungSchedule` (or its spec string,
        e.g. ``"rungs=2,8,full"``) each generation races through
        progressively larger ensemble-member subsets; candidates proven
        off the generation's front are told PRUNED (their per-rung
        partial aggregates become intermediate reports), survivors are
        evaluated at full fidelity — their told values are bit-identical
        to a non-raced evaluation.  The schedule is persisted in the
        study metadata, so a resumed raced study replays the identical
        rung subsets and reaches the identical front an uninterrupted
        raced run reaches.
        """
        if n_trials <= 0:
            raise OptimizationError("n_trials must be positive")
        if racing is not None:
            racing = RungSchedule.parse(racing)
        sampler = sampler or NSGA2Sampler(population_size=50, seed=seed)
        batch = batch_size or getattr(sampler, "population_size", 25)
        storage = resolve_storage(storage)  # spec strings → backend (§7)
        prior_seeding = sampler.per_trial_seeding
        if storage is not None:
            # Persist everything resume needs to rebuild this exact
            # search — a journal without these keys used to resume with
            # default sampler parameters and silently produce a
            # *different* front.  Caller-supplied metadata (e.g. the
            # CLI's) wins; these fill the gaps for direct runner calls.
            metadata = dict(metadata or {})
            metadata.setdefault("n_trials", n_trials)
            metadata.setdefault("seed", sampler.seed)
            metadata.setdefault("batch", batch)
            population = getattr(sampler, "population_size", None)
            if population is not None:
                metadata.setdefault("population", population)
            if racing is not None:
                # Resume must race the identical rung subsets; the spec
                # string round-trips through RungSchedule.parse (§8).
                metadata.setdefault("racing", racing.spec_string())
            if self._fidelity is not None:
                # The ladder decides which physics scored every trial —
                # resume identity, like the racing spec (§11).
                metadata.setdefault("fidelity", self._fidelity.spec_string())
            # Resume must replay the exact RNG draws of the original run.
            # Restored afterwards so a caller-supplied sampler keeps its
            # documented single-stream behaviour outside this run.
            sampler.per_trial_seeding = True
        try:
            return self._run_blackbox_study(
                n_trials, sampler, batch, storage, study_name, load_if_exists,
                metadata, racing,
            )
        finally:
            sampler.per_trial_seeding = prior_seeding

    def _default_study_name(self) -> str:
        return "-".join(sc.name for sc in self.scenarios) + "-blackbox"

    def _run_blackbox_study(
        self,
        n_trials: int,
        sampler: Sampler,
        batch: int,
        storage: StudyStorage | None,
        study_name: str | None,
        load_if_exists: bool,
        metadata: dict[str, Any] | None,
        racing: "RungSchedule | None" = None,
    ) -> SearchResult:
        study = create_study(
            directions=["minimize"] * len(self.objectives),
            sampler=sampler,
            study_name=study_name or self._default_study_name(),
            storage=storage,
            load_if_exists=load_if_exists,
            metadata=metadata,
        )
        if storage is not None:
            # Identity checks route through the one shared validator
            # (DESIGN.md §12): the rung schedule decides which trials
            # get pruned and the fidelity ladder which physics scored
            # them, so resuming either differently silently breeds a
            # different population than the original run.  A fresh
            # study always matches (run_blackbox just persisted both).
            check_resume_identity(
                study.study_name,
                study.metadata,
                {
                    "racing": (
                        racing.spec_string() if racing is not None else None
                    ),
                    "fidelity": (
                        self._fidelity.spec_string()
                        if self._fidelity is not None
                        else None
                    ),
                },
            )
        racer: "RacingEvaluator | FidelityRacingEvaluator | None" = None
        racing_stats: "RacingStats | None" = None
        n_pruned = 0
        if racing is not None:
            if self._fidelity is not None:
                racer = FidelityRacingEvaluator(
                    self._base_scenarios,
                    ladder=self._fidelity,
                    schedule=racing,
                    aggregate=self.aggregate,
                    objectives=self.objectives,
                    policy=self.policy,
                )
            else:
                racer = RacingEvaluator(
                    self.scenarios,
                    schedule=racing,
                    aggregate=self.aggregate,
                    objectives=self.objectives,
                    policy=self.policy,
                )
            racing_stats = RacingStats()
        seen: "list[AnyEvaluated]" = []
        before = self.n_simulations

        if study.trials:
            # Resumed study: drop the trailing partial generation (its
            # trials were bred from a history an uninterrupted run never
            # sees) and rebuild the evaluation record for the rest.  A
            # study that already reached its target needs no alignment —
            # trimming would only re-run finished work.
            #
            # The generation boundary is the *original* run's batch size
            # (persisted in the study metadata), not this call's:
            # trimming a pop-50 history at a resumed batch of 40 would
            # hand the sampler a history no uninterrupted run ever saw.
            # A mismatch cannot be aligned, so it is a hard error.
            check_resume_identity(study.study_name, study.metadata, {"batch": batch})
            if len(study.trials) < n_trials:
                study.drop_trailing_partial_batch(batch)
            # Rebuild the evaluation record for COMPLETE trials only: a
            # racing study's PRUNED trials were never fully evaluated,
            # and exactly re-evaluating them here would hand the final
            # front candidates the original run never scored (the same
            # accounting keeps FAILED trials out of non-raced resumes).
            comps = [
                self.space.from_params(t.params)
                for t in study.trials
                if t.state == TrialState.COMPLETE
            ]
            seen.extend(self.evaluate(comps))

        remaining = max(n_trials - len(study.trials), 0)
        while remaining > 0:
            k = min(batch, remaining)
            trials = [study.ask() for _ in range(k)]
            comps = [self.space.suggest(t) for t in trials]
            if racer is None:
                evaluated = self.evaluate(comps)
                for trial, result in zip(trials, evaluated):
                    trial.set_user_attr("composition", result.composition)
                    study.tell(trial, result.objectives(self.objectives))
                    seen.append(result)
            else:
                n_pruned += self._race_generation(
                    study, racer, racing_stats, trials, comps, seen
                )
            remaining -= k

        # Deduplicate evaluations (GA revisits elite genomes).
        unique = list({e.composition: e for e in seen}.values())
        return SearchResult(
            evaluated=unique,
            study=study,
            n_simulations=self.n_simulations - before,
            n_pruned=n_pruned,
            racing=racing_stats,
        )

    def _race_generation(
        self,
        study: Study,
        racer: "RacingEvaluator | FidelityRacingEvaluator",
        racing_stats: RacingStats,
        trials: "list[Any]",
        comps: "list[MicrogridComposition]",
        seen: "list[AnyEvaluated]",
    ) -> int:
        """Race one generation's candidates through the rung ladder and
        tell them through :func:`~repro.core.racing.tell_race`; return
        the number of pruned trials."""
        unique = list(dict.fromkeys(comps))
        known = {c: self._cache[c] for c in unique if c in self._cache}
        outcome = racer.race(unique, known=known)
        racing_stats.merge(outcome.stats)
        for comp, evaluated in outcome.evaluated.items():
            # Survivors join the memo cache: revisited elite genomes pay
            # nothing in later generations (and sharpen their proofs).
            self._cache.setdefault(comp, evaluated)

        for trial, comp in zip(trials, comps):
            if comp in outcome.evaluated:
                evaluated = outcome.evaluated[comp]
                trial.set_user_attr("composition", evaluated.composition)
                seen.append(evaluated)
        return tell_race(
            study,
            trials,
            comps,
            outcome,
            values=lambda evaluated: evaluated.objectives(self.objectives),
        )

    def run_pipelined(
        self,
        n_trials: int = 350,
        sampler: Sampler | None = None,
        seed: int | None = None,
        batch_size: int | None = None,
        storage: "StudyStorage | str | None" = None,
        study_name: str | None = None,
        load_if_exists: bool = False,
        metadata: dict[str, Any] | None = None,
        racing: "RungSchedule | str | None" = None,
        workers: int = 1,
        executor: "str | Any" = "thread",
        speculate: int = 0,
    ) -> SearchResult:
        """Generation-free search through the pipelined dispatcher.

        Same study semantics as :meth:`run_blackbox` — NSGA-II over the
        composition space, persisted/resumable, optionally raced — but
        candidates stream through worker slots individually instead of
        in barrier-synchronized generations (DESIGN.md §10).  With
        ``speculate=0`` the final front is bit-identical to
        :meth:`run_blackbox` under the same seed; with ``speculate=D``
        the first ``D`` candidates of each generation are bred one
        generation early (deterministic for a fixed seed, independent of
        ``workers``).

        ``workers``/``executor`` pick the slot pool (``thread`` |
        ``process`` | ``serial``) — per-slot futures, the repo's one
        worker pool (DESIGN.md §4).
        ``executor`` may also be an executor *object* exposing
        ``submit_trial``/``submit_rung`` (the remote seam, DESIGN.md
        §13): candidates then stream to remote workers instead of a
        local pool, with ``workers`` capping the in-flight count.
        """
        from ..blackbox.parallel import PipelinedDispatcher, pipeline_spec_string

        if n_trials <= 0:
            raise OptimizationError("n_trials must be positive")
        if racing is not None:
            racing = RungSchedule.parse(racing)
        sampler = sampler or NSGA2Sampler(population_size=50, seed=seed)
        batch = batch_size or getattr(sampler, "population_size", 25)
        storage = resolve_storage(storage)
        if storage is not None:
            metadata = dict(metadata or {})
            metadata.setdefault("n_trials", n_trials)
            metadata.setdefault("seed", sampler.seed)
            metadata.setdefault("batch", batch)
            metadata.setdefault("pipeline", pipeline_spec_string(speculate))
            population = getattr(sampler, "population_size", None)
            if population is not None:
                metadata.setdefault("population", population)
            if racing is not None:
                metadata.setdefault("racing", racing.spec_string())
            if self._fidelity is not None:
                metadata.setdefault("fidelity", self._fidelity.spec_string())
        study = create_study(
            directions=["minimize"] * len(self.objectives),
            sampler=sampler,
            study_name=study_name or self._default_study_name(),
            storage=storage,
            load_if_exists=load_if_exists,
            metadata=metadata,
        )
        # Pipelined trials stream individually, so candidates are scored
        # straight at the ladder-top physics (self.scenarios is already
        # the full-sibling stack when a fidelity ladder is set); the
        # cheap-level screening is a generation-batched feature of
        # run_blackbox.  The ladder still persists as resume identity.
        objective = CompositionObjective(
            self.scenarios,
            space=self.space,
            objectives=self.objectives,
            policy=self.policy,
            aggregate=self.aggregate,
        )
        dispatcher = PipelinedDispatcher(
            study,
            self.space.distributions(),
            workers=workers,
            executor=executor,
            speculate=speculate,
            batch_size=batch,
        )
        dispatcher.optimize(
            objective,
            n_trials,
            racing=racing,
            fidelity=(
                self._fidelity.spec_string() if self._fidelity is not None else None
            ),
        )
        return SearchResult(
            evaluated=[],
            study=study,
            n_simulations=None,
            n_pruned=sum(1 for t in study.trials if t.state == TrialState.PRUNED),
            racing=dispatcher.racing_stats,
        )

    # -- search-quality analysis (§4.4) -----------------------------------------

    def recovery_rate(
        self,
        found: SearchResult,
        exhaustive: SearchResult,
        objectives: Sequence[str] | None = None,
    ) -> float:
        """Fraction of true Pareto-optimal points the search recovered."""
        objs = tuple(objectives or self.objectives)
        true_front = pareto_points(exhaustive.front(objs), objs)
        found_points = pareto_points(found.evaluated, objs) if found.evaluated else np.empty((0, len(objs)))
        return pareto_recovery_rate(found_points, true_front)


def run_exhaustive_search(
    scenario: "Scenario | Sequence[Scenario]",
    space: ParameterSpace | None = None,
    policy: VectorizedPolicy | None = None,
    aggregate: str = "worst",
) -> SearchResult:
    """Convenience: exhaustive sweep of the (default) paper space."""
    runner = OptimizationRunner(
        scenario, space=space or PAPER_SPACE, policy=policy, aggregate=aggregate
    )
    return runner.run_exhaustive()


def run_blackbox_search(
    scenario: "Scenario | Sequence[Scenario]",
    n_trials: int = 350,
    population_size: int = 50,
    seed: int | None = None,
    space: ParameterSpace | None = None,
    storage: "StudyStorage | str | None" = None,
    study_name: str | None = None,
    load_if_exists: bool = False,
    metadata: dict[str, Any] | None = None,
    policy: VectorizedPolicy | None = None,
    aggregate: str = "worst",
    racing: "RungSchedule | str | None" = None,
    fidelity: "FidelityLadder | str | None" = None,
) -> SearchResult:
    """Convenience: the paper's NSGA-II configuration.

    Storage-aware: ``storage``/``load_if_exists`` give journaled,
    resumable studies (DESIGN.md §3).  A scenario
    sequence plus ``aggregate`` gives robust multi-site search, and
    ``policy`` swaps the dispatch strategy (DESIGN.md §5).  ``racing``
    races each generation over ensemble-member subsets (DESIGN.md §8);
    ``fidelity`` adds the model-fidelity ladder on the orthogonal axis
    (DESIGN.md §11) — trials are scored at the ladder-top physics and
    raced generations screen on the cheap levels first.  The CLI's
    ``repro study run / resume`` verbs call straight through here.
    """
    runner = OptimizationRunner(
        scenario,
        space=space or PAPER_SPACE,
        policy=policy,
        aggregate=aggregate,
        fidelity=fidelity,
    )
    return runner.run_blackbox(
        n_trials=n_trials,
        sampler=NSGA2Sampler(population_size=population_size, seed=seed),
        storage=storage,
        study_name=study_name,
        load_if_exists=load_if_exists,
        metadata=metadata,
        racing=racing,
    )

