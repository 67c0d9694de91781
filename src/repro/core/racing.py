"""Multi-fidelity ensemble racing: successive halving over members.

The paper names "dynamic pruning or early stopping for non-promising
simulation runs" as future work (§4.4).  This module (DESIGN.md §8) is
that subsystem for *ensemble* evaluation: instead of paying the full
S-member stacked time loop for every candidate, each candidate races
through progressively larger member subsets — rungs, e.g. ``2 → 8 → S``
— and only candidates whose partial risk-aggregate still reaches the
surviving Pareto front are promoted to the next rung.

Three properties make the race exact rather than merely heuristic:

* **Nested, deterministic subsets** — rung subsets are prefixes of one
  fixed member ordering, so rung *k*'s members are contained in rung
  *k+1*'s and each rung only evaluates the members *new* to it.  The
  default ``order=hardest`` ranks members by the operational emissions
  of a fixed probe build (hardest futures first — so the first rung's
  partial ``worst`` is usually already the exact worst and the
  elimination bounds below are tight); ``order=seeded`` uses the seeded
  permutation of :func:`repro.core.ensemble.member_subset`.  Both
  derive only from the ensemble and the schedule spec — never from
  process state — so a resumed study replays identical subsets.
* **Per-cell bit-identity** — partial rungs ride
  :func:`repro.core.fastsim.evaluate_member_slice`, the same (S, N)
  tensor loop on a member slice; every (member, candidate) cell is
  independent of which other members/candidates share the stack, so a
  finalist's incrementally-filled full-ensemble evaluation is
  bit-for-bit what a never-raced evaluation produces.
* **A sound elimination proof** — a candidate may be discarded for
  good only once some exactly-evaluated candidate strictly dominates a
  certified *lower bound* on its exact aggregate — then the exact
  candidate dominates the discarded one's exact vector too, so the
  discard provably cannot change the front.  For ``worst`` the bound is
  the running maximum of the seen members (sound for any value sign);
  ``mean``/``cvar``/``quantile`` are monotone non-decreasing in each
  member value, so zero-padding the unseen members bounds them from
  below — certified only for objectives that are non-negative by
  construction (:data:`NONNEGATIVE_OBJECTIVES`; e.g. ``cost`` can go
  negative under export credits, so its padded bound is void and such
  candidates are simply promoted rather than proven).  Eliminated
  candidates whose bound is not yet proven dominated climb the
  remaining rungs (tightening the bound) until proven or fully
  evaluated.  Consequence: :func:`race_front` returns the **identical
  Pareto front** a full-ensemble evaluation returns, at a fraction of
  the member-evaluations (``benchmarks/bench_racing.py`` asserts ≥2×).

Study integration lives in :mod:`repro.core.study_runner`
(``run_blackbox(racing=...)``) and :mod:`repro.blackbox.parallel`
(rung dispatch across worker slots); the CLI flag is
``repro study run --racing rungs=2,8,full``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..blackbox.multiobjective import pareto_front_indices
from ..exceptions import ConfigurationError
from .composition import MicrogridComposition
from .dispatch import VectorizedPolicy
from .ensemble import member_subset
from .fastsim import evaluate_member_slice
from .metrics import (
    EvaluatedComposition,
    RobustEvaluatedComposition,
    aggregate_values,
    parse_aggregate,
)
from .pareto import pareto_front
from .scenario import Scenario

__all__ = [
    "NONNEGATIVE_OBJECTIVES",
    "PrunedCandidate",
    "RaceOutcome",
    "RacingEvaluator",
    "RacingStats",
    "RungSchedule",
    "difficulty_ranking",
    "partial_lower_bound",
    "race_front",
]

#: spec token meaning "the full ensemble" (the mandatory final rung)
FULL = "full"

#: member orderings the rung subsets can be prefixes of
ORDERS = ("hardest", "seeded")

#: objectives that are non-negative by construction (emissions, energy,
#: and fraction metrics cannot go below zero) — the zero-padded
#: elimination bounds for mean/cvar/quantile are certified only for
#: these.  ``cost`` is deliberately absent: export credits can drive it
#: negative, which would turn the padding into an over-estimate.
NONNEGATIVE_OBJECTIVES = frozenset(
    {"operational", "embodied", "cycles", "curtailment", "grid_dependence",
     "unreliability", "fade"}
)

#: fixed reference build whose per-member first-objective values define
#: the ``hardest`` member order.  Any fixed probe keeps the race sound
#: (subset choice only affects bound tightness, never validity); a
#: mid-size build separates scarce from plentiful futures well on the
#: paper's sites.  Probing costs S single-candidate member evaluations,
#: once per evaluator.
PROBE_COMPOSITION = MicrogridComposition(
    n_turbines=5, solar_kw=20_000.0, battery_units=4
)


@dataclass(frozen=True)
class RungSchedule:
    """A successive-halving rung ladder over ensemble members.

    ``rungs`` are member counts in strictly increasing order; ``None``
    means *all* members and must be (only) the final entry, so finalists
    are always exactly evaluated.  ``order`` picks the member ordering
    the nested subsets are prefixes of (``hardest`` — probe-ranked,
    default — or ``seeded``); ``subset_seed`` seeds the ``seeded``
    permutation.

    The CLI grammar round-trips: ``RungSchedule.parse(s).spec_string()``
    reproduces ``s`` up to normalization, which is what lets a journal's
    study metadata rebuild the identical rung subsets on resume.
    """

    rungs: tuple[int | None, ...] = (2, 8, None)
    order: str = "hardest"
    subset_seed: int = 0

    def __post_init__(self) -> None:
        if self.order not in ORDERS:
            raise ConfigurationError(
                f"unknown racing order '{self.order}' (known: {', '.join(ORDERS)})"
            )
        if not self.rungs:
            raise ConfigurationError("racing needs at least one rung")
        if self.rungs[-1] is not None:
            raise ConfigurationError(
                "the final rung must be 'full' so finalists are exactly "
                f"evaluated (got {self.rungs})"
            )
        sizes = self.rungs[:-1]
        if any(r is None for r in sizes):
            raise ConfigurationError(f"'full' must be the final rung (got {self.rungs})")
        for r in sizes:
            if int(r) < 1:
                raise ConfigurationError(f"rung sizes must be >= 1, got {r}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigurationError(
                f"rung sizes must be strictly increasing, got {self.rungs}"
            )

    @classmethod
    def parse(cls, text: "str | RungSchedule") -> "RungSchedule":
        """Parse the CLI grammar, e.g. ``rungs=2,8,full`` or
        ``rungs=2,8,full,order=seeded,seed=7``.

        Comma-separated tokens; a ``key=`` prefix starts a key
        (``rungs``, ``order``, or ``seed``), bare tokens continue the
        current ``rungs`` list.  A leading bare token is an implicit
        ``rungs`` entry, so plain ``2,8,full`` parses too.
        """
        if isinstance(text, RungSchedule):
            return text
        key = "rungs"
        rungs_raw: list[str] = []
        order = "hardest"
        seed = 0
        for token in str(text).split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, value = token.partition("=")
            if sep:
                key = name.strip()
                token = value.strip()
                if not token:
                    raise ConfigurationError(f"malformed racing token '{name}='")
            elif key != "rungs":
                # Only the rungs list continues across commas; a stray
                # bare token after order=/seed= would silently overwrite
                # the resume-identity spec.
                raise ConfigurationError(
                    f"unexpected racing token '{token}' after '{key}=' "
                    "(only the rungs list takes comma-separated values)"
                )
            if key == "rungs":
                rungs_raw.append(token)
            elif key == "order":
                order = token.lower()
            elif key == "seed":
                try:
                    seed = int(token)
                except ValueError:
                    raise ConfigurationError(
                        f"malformed racing seed '{token}'"
                    ) from None
            else:
                raise ConfigurationError(
                    f"unknown racing key '{key}' (known: rungs, order, seed)"
                )
        if not rungs_raw:
            raise ConfigurationError(f"racing spec '{text}' names no rungs")
        rungs: list[int | None] = []
        for raw in rungs_raw:
            if raw.lower() == FULL:
                rungs.append(None)
            else:
                try:
                    rungs.append(int(raw))
                except ValueError:
                    raise ConfigurationError(
                        f"malformed rung size '{raw}' (use an integer or '{FULL}')"
                    ) from None
        return cls(rungs=tuple(rungs), order=order, subset_seed=seed)

    def spec_string(self) -> str:
        """Round-trippable spec (journal metadata; DESIGN.md §8)."""
        sizes = ",".join(FULL if r is None else str(r) for r in self.rungs)
        suffix = "" if self.order == "hardest" else f",order={self.order}"
        if self.subset_seed:
            suffix += f",seed={self.subset_seed}"
        return f"rungs={sizes}{suffix}"

    def resolve(self, n_members: int) -> tuple[int, ...]:
        """Concrete rung sizes for an ``n_members`` ensemble.

        Rungs at or above the ensemble size collapse into the final
        full rung, so a ``2,8,full`` schedule degrades gracefully on a
        5-member ensemble (→ ``2, 5``) and on a single scenario (→
        ``1``, i.e. no racing at all).
        """
        if n_members <= 0:
            raise ConfigurationError(f"n_members must be positive, got {n_members}")
        sizes = [int(r) for r in self.rungs[:-1] if int(r) < n_members]
        return tuple(sizes) + (n_members,)

    def subsets(self, n_members: int) -> list[tuple[int, ...]]:
        """Nested member-index subsets, one per resolved rung.

        Only defined for ``order=seeded`` (or a single-member ensemble,
        where every order is the same): the ``hardest`` order needs a
        probe evaluation of the actual ensemble, which a bare schedule
        cannot perform — rank the members first and call
        :meth:`subsets_from_order`, as :class:`RacingEvaluator` and the
        parallel rung dispatch do.  Raising here (instead of silently
        falling back to the seeded permutation) keeps every racing
        driver honest about the order the spec string records.
        """
        if self.order == "hardest" and n_members > 1:
            raise ConfigurationError(
                "the 'hardest' order ranks members with a probe evaluation; "
                "pass the ranking to subsets_from_order() (or use "
                "order=seeded)"
            )
        return [
            member_subset(n_members, size, seed=self.subset_seed)
            for size in self.resolve(n_members)
        ]

    def subsets_from_order(self, order: Sequence[int]) -> list[tuple[int, ...]]:
        """Nested subsets as prefixes of an explicit member ranking."""
        ranking = [int(i) for i in order]
        if sorted(ranking) != list(range(len(ranking))):
            raise ConfigurationError(
                f"member ranking must be a permutation of 0..{len(ranking) - 1}"
            )
        return [
            tuple(sorted(ranking[:size])) for size in self.resolve(len(ranking))
        ]


def difficulty_ranking(difficulty: Sequence[float]) -> list[int]:
    """Member indices hardest-first (stable, so ties keep ensemble order)."""
    return [int(i) for i in np.argsort(-np.asarray(difficulty), kind="stable")]


def resolve_rung_subsets(objective, schedule: "RungSchedule") -> list[tuple[int, ...]]:
    """Validate a multi-fidelity objective and resolve its rung subsets.

    The driver-side half of :class:`~repro.blackbox.parallel.
    PipelinedDispatcher`'s Optuna-style rung dispatch (DESIGN.md §8),
    racing the same subsets :class:`RacingEvaluator` races for a given
    ensemble: checks the objective exposes the ``n_members`` /
    ``aggregate`` / ``member_values`` hooks (plus ``member_difficulty``
    for the probe-ranked ``hardest`` order, which is evaluated once per
    call — the ranking is deterministic per ensemble) and returns the
    nested member subsets, one per rung.
    """
    from ..exceptions import OptimizationError

    hooks = ["n_members", "aggregate", "member_values"]
    if schedule.order == "hardest":
        hooks.append("member_difficulty")  # probe-ranked subsets
    for hook in hooks:
        if not hasattr(objective, hook):
            raise OptimizationError(
                "racing needs a multi-fidelity objective exposing "
                f"'{hook}' (see CompositionObjective)"
            )
    n_members = int(objective.n_members)
    if schedule.order == "hardest" and n_members > 1:
        return schedule.subsets_from_order(
            difficulty_ranking(objective.member_difficulty())
        )
    return schedule.subsets(n_members)


def partial_lower_bound(
    seen_values: Sequence[float],
    n_members: int,
    aggregate: str,
    nonnegative: bool = True,
) -> "float | None":
    """Certified lower bound on an aggregate from a member subset.

    For ``worst`` the bound is the maximum of the seen members —
    unconditionally sound, unseen members can only raise a maximum.
    The other aggregates are monotone non-decreasing in each member
    value, so replacing the unseen members with zero bounds them from
    below — *provided every member value is ≥ 0*, including the unseen
    ones.  Callers certify that with ``nonnegative`` (see
    :data:`NONNEGATIVE_OBJECTIVES`); with ``nonnegative=False``, or
    when a seen value is already negative, there is no sound bound and
    ``None`` is returned — the candidate must then be treated as
    unproven (promoted, never silently pruned).
    """
    values = [float(v) for v in seen_values]
    if len(values) > n_members:
        raise ConfigurationError(
            f"{len(values)} seen values for an {n_members}-member ensemble"
        )
    parsed = parse_aggregate(aggregate)
    if parsed.kind == "worst":
        return max(values) if values else None
    if not nonnegative or any(v < 0.0 for v in values):
        return None
    padded = values + [0.0] * (n_members - len(values))
    return aggregate_values(padded, parsed)


@dataclass
class RacingStats:
    """Work accounting for one race (merged across generations)."""

    n_members: int = 0
    rung_sizes: tuple[int, ...] = ()
    candidates: int = 0
    #: eliminated candidates *proven* dominated (never fully evaluated)
    pruned: int = 0
    #: eliminated candidates rescued by the exactness check
    promoted_back: int = 0
    #: (candidate, member) cells actually simulated at *full physics*
    member_evals: int = 0
    #: candidates × S — what a non-raced evaluation would have simulated
    full_member_evals: int = 0
    #: (candidate, member) cells simulated on cheap fidelity siblings
    #: (screening + calibration; zero for a plain member-rung race)
    low_fidelity_evals: int = 0
    #: eliminated candidates proven dominated with *zero* full-physics
    #: member evaluations (fidelity-envelope proofs; DESIGN.md §11)
    screened: int = 0
    #: candidates entering each rung, keyed by rung size
    alive_per_rung: dict[int, int] = field(default_factory=dict)

    @property
    def savings(self) -> float:
        """Work-reduction factor vs full-ensemble evaluation."""
        if self.member_evals <= 0:
            return 1.0
        return self.full_member_evals / self.member_evals

    def merge(self, other: "RacingStats") -> None:
        """Accumulate another race's counters (per-generation merging)."""
        self.n_members = other.n_members
        self.rung_sizes = other.rung_sizes
        self.candidates += other.candidates
        self.pruned += other.pruned
        self.promoted_back += other.promoted_back
        self.member_evals += other.member_evals
        self.full_member_evals += other.full_member_evals
        self.low_fidelity_evals += other.low_fidelity_evals
        self.screened += other.screened
        for size, count in other.alive_per_rung.items():
            self.alive_per_rung[size] = self.alive_per_rung.get(size, 0) + count


@dataclass(frozen=True)
class PrunedCandidate:
    """Race record of a candidate proven off the front before full fidelity."""

    composition: MicrogridComposition
    #: members seen when the elimination proof closed
    rung_size: int
    #: ``(rung_size, partial objective vector)`` per rung climbed
    partials: tuple[tuple[int, tuple[float, ...]], ...]


@dataclass
class RaceOutcome:
    """Result of racing one candidate set."""

    #: exact full-ensemble evaluations: finalists and promoted-back
    #: candidates (plus any ``known`` evaluations passed in)
    evaluated: dict[MicrogridComposition, RobustEvaluatedComposition]
    #: candidates proven dominated, with their partial-value history
    pruned: dict[MicrogridComposition, PrunedCandidate]
    stats: RacingStats


#: ``evaluate_slice(member_indices, comps) -> result[j][i]`` pairing
#: slice position ``j`` with candidate ``i`` — the signature of
#: :func:`repro.core.fastsim.evaluate_member_slice` with the scenario
#: list bound; tests substitute a fake to observe or steer rung calls.
SliceEvaluator = Callable[
    [Sequence[int], "list[MicrogridComposition]"],
    "list[list[EvaluatedComposition]]",
]


def _strictly_dominated(bound: np.ndarray, exact: np.ndarray) -> bool:
    """True if some exact row dominates ``bound`` (≤ all, < somewhere).

    Then that row also dominates the candidate's *exact* vector (which
    is ≥ its bound componentwise), so the candidate is provably off the
    front.
    """
    if exact.size == 0:
        return False
    le = np.all(exact <= bound, axis=1)
    lt = np.any(exact < bound, axis=1)
    return bool(np.any(le & lt))


class RacingEvaluator:
    """Races candidate sets through the rung ladder to an exact front.

    One instance per (ensemble, schedule, aggregate, objectives); call
    :meth:`race` per candidate batch (e.g. one NSGA-II generation).
    ``evaluate_slice`` defaults to the in-process stacked tensor loop
    (DESIGN.md §8); tests substitute a fake one.
    """

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        schedule: "RungSchedule | str" = RungSchedule(),
        aggregate: str = "worst",
        objectives: Sequence[str] = ("operational", "embodied"),
        policy: VectorizedPolicy | None = None,
        evaluate_slice: "SliceEvaluator | None" = None,
        member_order: "Sequence[int] | None" = None,
    ) -> None:
        self.scenarios = list(scenarios)
        if not self.scenarios:
            raise ConfigurationError("racing needs at least one scenario")
        self.schedule = RungSchedule.parse(schedule)
        parse_aggregate(aggregate)  # fail fast
        self.aggregate = aggregate
        self.objectives = tuple(objectives)
        self.policy = policy
        self._evaluate_slice = evaluate_slice or self._default_slice
        self.sizes = self.schedule.resolve(len(self.scenarios))
        #: explicit member ranking (hardest-first) replacing the probe —
        #: the fidelity ladder ranks members once at its cheapest level
        #: and shares the order so every level races identical subsets
        self._member_order = list(member_order) if member_order is not None else None
        self._subsets: "list[tuple[int, ...]] | None" = None
        #: member evals spent probing the 'hardest' order, charged to the
        #: first race's stats
        self._probe_evals_pending = 0

    def _default_slice(
        self, member_indices: Sequence[int], comps: "list[MicrogridComposition]"
    ) -> "list[list[EvaluatedComposition]]":
        return evaluate_member_slice(self.scenarios, member_indices, comps, policy=self.policy)

    @property
    def subsets(self) -> "list[tuple[int, ...]]":
        """Nested member subsets, one per rung (computed on first use)."""
        if self._subsets is None:
            n = len(self.scenarios)
            if self._member_order is not None:
                self._subsets = self.schedule.subsets_from_order(self._member_order)
            elif self.schedule.order == "hardest" and n > 1:
                self._subsets = self.schedule.subsets_from_order(
                    self._difficulty_order()
                )
                self._probe_evals_pending = n
            else:
                self._subsets = self.schedule.subsets(n)
        return self._subsets

    def _difficulty_order(self) -> "list[int]":
        """Members ranked hardest-first by a fixed probe build.

        One single-candidate evaluation of every member, sorted by the
        first objective descending (stable, so ties keep ensemble
        order).  Deterministic given the ensemble — resume rebuilds the
        ensemble from its persisted spec and therefore the same order.
        """
        per_member = self._evaluate_slice(
            list(range(len(self.scenarios))), [PROBE_COMPOSITION]
        )
        return difficulty_ranking(
            [row[0].objectives(self.objectives)[0] for row in per_member]
        )

    # -- per-candidate bookkeeping helpers ------------------------------------

    def _fill(
        self,
        evals: "dict[MicrogridComposition, dict[int, EvaluatedComposition]]",
        comps: "list[MicrogridComposition]",
        new_members: "list[int]",
        stats: RacingStats,
    ) -> None:
        """Evaluate ``comps`` on ``new_members`` and record per-cell results."""
        if not comps or not new_members:
            return
        per_member = self._evaluate_slice(new_members, comps)
        stats.member_evals += len(new_members) * len(comps)
        for j, m in enumerate(new_members):
            for i, comp in enumerate(comps):
                evals[comp][m] = per_member[j][i]

    def _partial_vector(
        self, member_evals: "dict[int, EvaluatedComposition]"
    ) -> tuple[float, ...]:
        """Aggregate the seen members' objective vectors (any subset size)."""
        vectors = [member_evals[m].objectives(self.objectives) for m in sorted(member_evals)]
        return tuple(
            aggregate_values(column, self.aggregate) for column in zip(*vectors)
        )

    def _exact(
        self,
        comp: MicrogridComposition,
        member_evals: "dict[int, EvaluatedComposition]",
    ) -> RobustEvaluatedComposition:
        """Exact wrapper over the full member set, in canonical order.

        Built exactly like :func:`repro.core.metrics.robust_evaluations`
        builds it from a full-stack evaluation, so ``objectives()`` runs
        the identical float reduction — finalists are bit-for-bit.
        """
        per_scenario = tuple(member_evals[m] for m in range(len(self.scenarios)))
        return RobustEvaluatedComposition(
            composition=comp,
            embodied_kg=per_scenario[0].embodied_kg,
            per_scenario=per_scenario,
            aggregate=self.aggregate,
        )

    def _lower_bounds(
        self,
        comps: "list[MicrogridComposition]",
        evals: "dict[MicrogridComposition, dict[int, EvaluatedComposition]]",
    ) -> "list[np.ndarray | None]":
        """Certified lower-bound vectors (None where no sound bound exists)."""
        n = len(self.scenarios)
        out: "list[np.ndarray | None]" = []
        for comp in comps:
            seen = [evals[comp][m].objectives(self.objectives) for m in sorted(evals[comp])]
            bounds = [
                partial_lower_bound(
                    column,
                    n,
                    self.aggregate,
                    nonnegative=name in NONNEGATIVE_OBJECTIVES,
                )
                for name, column in zip(self.objectives, zip(*seen))
            ]
            out.append(None if any(b is None for b in bounds) else np.array(bounds))
        return out

    # -- the race -------------------------------------------------------------

    def race(
        self,
        compositions: Sequence[MicrogridComposition],
        known: "dict[MicrogridComposition, RobustEvaluatedComposition] | None" = None,
    ) -> RaceOutcome:
        """Race a candidate set; return exact survivors + proven-pruned.

        ``known`` passes already-exact evaluations (e.g. the study
        runner's memo cache for revisited genomes): they pay nothing,
        and their exact vectors sharpen both the promotion fronts and
        the elimination proofs.

        Every returned ``evaluated`` entry is a full-ensemble
        evaluation; every ``pruned`` entry is *proven* strictly
        dominated by one of them, so the Pareto front over ``evaluated``
        is exactly the front a full evaluation of all candidates would
        report.
        """
        comps = list(dict.fromkeys(compositions))
        exact: "dict[MicrogridComposition, RobustEvaluatedComposition]" = dict(known or {})
        unknown = [c for c in comps if c not in exact]

        subsets = self.subsets  # may probe the member order (first race)
        stats = RacingStats(
            n_members=len(self.scenarios),
            rung_sizes=self.sizes,
            candidates=len(unknown),
            full_member_evals=len(unknown) * len(self.scenarios),
            member_evals=self._probe_evals_pending,
        )
        self._probe_evals_pending = 0
        evals: "dict[MicrogridComposition, dict[int, EvaluatedComposition]]" = {
            c: {} for c in unknown
        }
        partials: "dict[MicrogridComposition, list[tuple[int, tuple[float, ...]]]]" = {
            c: [] for c in unknown
        }
        eliminated: "list[MicrogridComposition]" = []

        known_vectors = [exact[c].objectives(self.objectives) for c in comps if c in exact]
        alive = unknown
        seen: tuple[int, ...] = ()
        for rung_index, (size, subset) in enumerate(zip(self.sizes, subsets)):
            if not alive:
                break
            stats.alive_per_rung[size] = len(alive)
            new_members = [m for m in subset if m not in seen]
            self._fill(evals, alive, new_members, stats)
            seen = subset
            if rung_index == len(self.sizes) - 1:
                for comp in alive:
                    exact[comp] = self._exact(comp, evals[comp])
                break
            vectors = [self._partial_vector(evals[c]) for c in alive]
            for comp, vec in zip(alive, vectors):
                partials[comp].append((size, vec))
            # Promotion rule: a candidate survives the rung only if its
            # partial aggregate reaches the surviving front.  Known
            # exact vectors join the pool — being dominated by an exact
            # candidate is already a closed elimination proof.
            pool = np.array(vectors + known_vectors, dtype=np.float64)
            front = set(int(i) for i in pareto_front_indices(pool))
            next_alive = [c for i, c in enumerate(alive) if i in front]
            eliminated.extend(c for i, c in enumerate(alive) if i not in front)
            alive = next_alive

        self._verify(exact, evals, partials, eliminated, stats)

        pruned = {
            c: PrunedCandidate(
                composition=c,
                rung_size=len(evals[c]),
                partials=tuple(partials[c]),
            )
            for c in unknown
            if c not in exact
        }
        stats.pruned = len(pruned)
        return RaceOutcome(evaluated=exact, pruned=pruned, stats=stats)

    def _verify(
        self,
        exact: "dict[MicrogridComposition, RobustEvaluatedComposition]",
        evals: "dict[MicrogridComposition, dict[int, EvaluatedComposition]]",
        partials: "dict[MicrogridComposition, list[tuple[int, tuple[float, ...]]]]",
        eliminated: "list[MicrogridComposition]",
        stats: RacingStats,
    ) -> None:
        """Close every elimination with a proof, or climb until exact.

        An eliminated candidate whose certified lower bound is not
        strictly dominated by some exact evaluation climbs to the next
        rung size (tightening the bound) and is re-checked; a candidate
        that reaches full fidelity joins the exact set (promoted back).
        The loop terminates because every pass either proves a candidate
        dominated or strictly grows its member set.
        """
        n = len(self.scenarios)
        pending = list(eliminated)
        while pending:
            exact_matrix = np.array(
                [e.objectives(self.objectives) for e in exact.values()],
                dtype=np.float64,
            )
            bounds = self._lower_bounds(pending, evals)
            unproven = [
                comp
                for comp, bound in zip(pending, bounds)
                if bound is None or not _strictly_dominated(bound, exact_matrix)
            ]
            if not unproven:
                break
            # Advance every unproven candidate to its next rung size,
            # grouped by how many members it has seen (so each group is
            # one vectorized slice evaluation).
            by_size: "dict[int, list[MicrogridComposition]]" = {}
            for comp in unproven:
                by_size.setdefault(len(evals[comp]), []).append(comp)
            subset_of_size = dict(zip(self.sizes, self.subsets))
            for seen_count, group in by_size.items():
                target = next((s for s in self.sizes if s > seen_count), n)
                new_members = [
                    m for m in subset_of_size[target] if m not in evals[group[0]]
                ]
                self._fill(evals, group, new_members, stats)
                for comp in group:
                    if len(evals[comp]) >= n:
                        exact[comp] = self._exact(comp, evals[comp])
                        stats.promoted_back += 1
                    else:
                        partials[comp].append(
                            (len(evals[comp]), self._partial_vector(evals[comp]))
                        )
            pending = [c for c in unproven if c not in exact]


def race_front(
    scenarios: Sequence[Scenario],
    compositions: Sequence[MicrogridComposition],
    schedule: "RungSchedule | str" = RungSchedule(),
    aggregate: str = "worst",
    objectives: Sequence[str] = ("operational", "embodied"),
    policy: VectorizedPolicy | None = None,
    evaluate_slice: "SliceEvaluator | None" = None,
    fidelity: "Any | None" = None,
) -> "tuple[list[RobustEvaluatedComposition], RaceOutcome]":
    """Exact Pareto front of a candidate set via successive halving.

    Returns ``(front, outcome)`` — the front is identical to
    ``pareto_front(evaluate_ensemble(scenarios, compositions, ...))``
    (the elimination proofs of :class:`RacingEvaluator` guarantee it)
    while ``outcome.stats`` records the member-evaluation savings.

    ``fidelity`` (a spec string or
    :class:`~repro.core.fidelity.FidelityLadder`) adds the model-fidelity
    axis orthogonal to the member rungs (DESIGN.md §11): candidates are
    screened on cheap physics siblings and only climb to full physics
    when their envelope-widened bounds cannot prove them off the front.
    The returned front is then over the ladder-top (``full``) physics and
    still bit-identical to a full evaluation of every candidate on it.
    """
    if fidelity is not None:
        from .fidelity import fidelity_race_front

        return fidelity_race_front(
            scenarios,
            compositions,
            ladder=fidelity,
            schedule=schedule,
            aggregate=aggregate,
            objectives=objectives,
            policy=policy,
        )
    evaluator = RacingEvaluator(
        scenarios,
        schedule=schedule,
        aggregate=aggregate,
        objectives=objectives,
        policy=policy,
        evaluate_slice=evaluate_slice,
    )
    outcome = evaluator.race(compositions)
    front = pareto_front(list(outcome.evaluated.values()), objectives)
    return front, outcome
