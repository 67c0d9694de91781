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

The race itself is one resumable core, :func:`race_steps`: a generator
that yields ``(member_indices, keys)`` slice requests and returns the
:class:`RaceOutcome`.  :meth:`RacingEvaluator.race` answers it in-process
(the batched driver, :mod:`repro.core.study_runner`, and the fidelity
ladder's full-physics race); :class:`~repro.blackbox.parallel.
PipelinedDispatcher` answers it with one work item per candidate on a
local or remote pool.  Both tell the study through :func:`tell_race`,
so every driver prunes the same trials.  The CLI flag is
``repro study run --racing rungs=2,8,full``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Hashable, Mapping, Sequence

import numpy as np

from ..blackbox.multiobjective import pareto_front_indices
from ..blackbox.trial import RACING_RUNG_ATTR, TrialState
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
    "race_steps",
    "tell_race",
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

    def subsets(
        self,
        n_members: int,
        difficulty: "Callable[[], Sequence[float]] | None" = None,
    ) -> list[tuple[int, ...]]:
        """Nested member-index subsets, one per resolved rung — where
        every racing driver resolves them.  ``order=hardest`` ranks the
        members by ``difficulty()`` (per-member values of a fixed probe
        build) and, rather than silently falling back to the seeded
        permutation, raises without it on a multi-member ensemble."""
        if self.order == "hardest" and n_members > 1:
            if difficulty is None:
                raise ConfigurationError(
                    "the 'hardest' order ranks members with a probe evaluation; "
                    "pass its difficulty (or use order=seeded)"
                )
            return self.subsets_from_order(difficulty_ranking(difficulty()))
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
    (DESIGN.md §8); tests substitute a fake one.  ``subsets`` replaces
    the probe-ranked member subsets — the fidelity ladder ranks members
    once at its cheapest level and shares the subsets so every level
    races identical ones.
    """

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        schedule: "RungSchedule | str" = RungSchedule(),
        aggregate: str = "worst",
        objectives: Sequence[str] = ("operational", "embodied"),
        policy: VectorizedPolicy | None = None,
        evaluate_slice: "SliceEvaluator | None" = None,
        subsets: "Sequence[tuple[int, ...]] | None" = None,
    ) -> None:
        self.scenarios = list(scenarios)
        if not self.scenarios:
            raise ConfigurationError("racing needs at least one scenario")
        self.schedule = RungSchedule.parse(schedule)
        parse_aggregate(aggregate)  # fail fast
        self.aggregate = aggregate
        self.objectives = tuple(objectives)
        self.policy = policy
        self._evaluate_slice = evaluate_slice or (
            lambda members, comps: evaluate_member_slice(
                self.scenarios, members, comps, policy=self.policy
            )
        )
        self._subsets = list(subsets) if subsets is not None else None
        #: member evals spent probing the 'hardest' order, charged to the
        #: first race's stats
        self._probe_evals_pending = 0

    @property
    def subsets(self) -> "list[tuple[int, ...]]":
        """Nested member subsets, one per rung (computed on first use)."""
        if self._subsets is None:
            self._subsets = self.schedule.subsets(
                len(self.scenarios), difficulty=self._probe
            )
        return self._subsets

    def _probe(self) -> "list[float]":
        """Per-member first-objective values of the fixed probe build.

        One single-candidate evaluation of every member, charged to the
        first race.  Deterministic given the ensemble — resume rebuilds
        the ensemble from its persisted spec and therefore the same
        order.
        """
        n = len(self.scenarios)
        per_member = self._evaluate_slice(list(range(n)), [PROBE_COMPOSITION])
        self._probe_evals_pending = n
        return [row[0].objectives(self.objectives)[0] for row in per_member]

    def race(
        self,
        compositions: Sequence[MicrogridComposition],
        known: "dict[MicrogridComposition, RobustEvaluatedComposition] | None" = None,
    ) -> RaceOutcome:
        """Race a candidate set; return exact survivors + proven-pruned.

        Drives :func:`race_steps` in-process, one slice evaluation per
        request.  ``known`` passes already-exact evaluations (e.g. the
        study runner's memo cache for revisited genomes): they pay
        nothing and sharpen the promotion fronts and the proofs.  Every
        ``evaluated`` entry is a full-ensemble evaluation (bit-for-bit:
        built like :func:`repro.core.metrics.robust_evaluations` builds
        it), every ``pruned`` one is proven strictly dominated by one of
        them, so the front over ``evaluated`` is the full front.
        """
        known = dict(known or {})
        cells: "dict[MicrogridComposition, dict[int, EvaluatedComposition]]" = {}
        steps = race_steps(
            compositions,
            {c: e.objectives(self.objectives) for c, e in known.items()},
            self.subsets,  # may probe the member order (first race)
            self.aggregate,
            [name in NONNEGATIVE_OBJECTIVES for name in self.objectives],
        )
        try:
            members, comps = next(steps)
            while True:
                per_member = self._evaluate_slice(members, comps)
                for j, m in enumerate(members):
                    for i, comp in enumerate(comps):
                        cells.setdefault(comp, {})[m] = per_member[j][i]
                members, comps = steps.send(
                    [[cells[c][m].objectives(self.objectives) for m in members] for c in comps]
                )
        except StopIteration as stop:
            outcome = stop.value
        outcome.stats.member_evals += self._probe_evals_pending
        self._probe_evals_pending = 0
        n = len(self.scenarios)
        outcome.evaluated = {
            c: known[c]
            if c in known
            else RobustEvaluatedComposition(
                composition=c,
                embodied_kg=cells[c][0].embodied_kg,
                per_scenario=tuple(cells[c][m] for m in range(n)),
                aggregate=self.aggregate,
            )
            for c in outcome.evaluated
        }
        return outcome


def _aggregate_rows(rows: "Sequence[Sequence[float]]", aggregate: str) -> tuple[float, ...]:
    """Reduce per-member objective vectors column-wise by ``aggregate``."""
    return tuple(aggregate_values(column, aggregate) for column in zip(*rows))


def race_steps(
    candidates: "Sequence[Hashable]",
    known: "Mapping[Hashable, Sequence[float]]",
    subsets: "Sequence[tuple[int, ...]]",
    aggregate: str,
    nonnegative: "Sequence[bool] | None",
    minimized: "Callable[[list], np.ndarray] | None" = None,
) -> "Generator[tuple[tuple[int, ...], list], list, RaceOutcome]":
    """The one race core every driver answers (DESIGN.md §8).

    Yields ``(member_indices, keys)`` requests; the driver sends back one
    row per key — its per-member objective vectors in slice order, or
    ``None`` when the candidate failed and leaves the race.  Returns the
    :class:`RaceOutcome`, keyed like ``candidates`` (a repeat races
    once): ``evaluated`` holds every exact aggregate vector, ``known``
    ones included, ``pruned`` every key proven dominated; failed keys
    are in neither.  ``subsets`` are the nested rung subsets.
    ``nonnegative`` certifies, per objective, the zero-padded bound of
    :func:`partial_lower_bound` (``None``: no bound at all, so every
    eliminated key climbs to full fidelity); ``minimized`` maps vectors
    onto the all-minimize orientation every comparison runs in.

    A rung keeps the keys whose partial aggregate reaches the front of
    the alive and known vectors.  The proof then closes every
    elimination: a key whose certified lower bound no exact vector
    strictly dominates climbs to its next rung size and is re-checked,
    and one that reaches full fidelity is promoted back.
    """
    matrix = minimized or (lambda rows: np.array(rows, dtype=np.float64))
    n = len(subsets[-1])
    sizes = tuple(len(s) for s in subsets)
    keys = list(dict.fromkeys(candidates))
    exact = {k: tuple(v) for k, v in known.items()}
    unknown = [k for k in keys if k not in exact]
    stats = RacingStats(
        n_members=n,
        rung_sizes=sizes,
        candidates=len(unknown),
        full_member_evals=len(unknown) * n,
    )
    evals: "dict[Hashable, dict[int, tuple]]" = {k: {} for k in unknown}
    partials: "dict[Hashable, list]" = {k: [] for k in unknown}
    failed: "set[Hashable]" = set()

    def seen_rows(key):
        return [evals[key][m] for m in sorted(evals[key])]

    def fill(group, members):
        """Ask for ``members`` on ``group``; return the keys still racing."""
        if not group or not members:
            return group
        rows = yield tuple(members), list(group)
        failed.update(k for k, row in zip(group, rows) if row is None)
        for key, row in zip(group, rows):
            if row is not None:
                stats.member_evals += len(members)
                evals[key].update(zip(members, map(tuple, row)))
        return [k for k in group if k not in failed]

    def proven(key, exact_matrix) -> bool:
        if nonnegative is None:
            return False
        bounds = [
            partial_lower_bound(column, n, aggregate, nonnegative=flag)
            for flag, column in zip(nonnegative, zip(*seen_rows(key)))
        ]
        return None not in bounds and _strictly_dominated(np.array(bounds), exact_matrix)

    known_vectors = [exact[k] for k in keys if k in exact]
    eliminated: list = []
    alive = unknown
    for rung, (size, subset) in enumerate(zip(sizes, subsets)):
        if not alive:
            break
        stats.alive_per_rung[size] = len(alive)
        seen = subsets[rung - 1] if rung else ()
        alive = yield from fill(alive, [m for m in subset if m not in seen])
        if rung == len(sizes) - 1:
            exact.update((k, _aggregate_rows(seen_rows(k), aggregate)) for k in alive)
            break
        vectors = [_aggregate_rows(seen_rows(k), aggregate) for k in alive]
        for key, vec in zip(alive, vectors):
            partials[key].append((size, vec))
        # Known exact vectors join the pool: being dominated by an exact
        # candidate is already a closed elimination proof.
        front = set(pareto_front_indices(matrix(vectors + known_vectors)).tolist()) if alive else set()
        eliminated += [k for i, k in enumerate(alive) if i not in front]
        alive = [k for i, k in enumerate(alive) if i in front]

    pending = eliminated
    while pending:
        exact_matrix = matrix(list(exact.values()))
        unproven = [k for k in pending if not proven(k, exact_matrix)]
        by_size: "dict[int, list]" = {}  # one request per members-seen count
        for key in unproven:
            by_size.setdefault(len(evals[key]), []).append(key)
        for seen_count, group in by_size.items():
            target = subsets[next((i for i, s in enumerate(sizes) if s > seen_count))]
            new_members = [m for m in target if m not in evals[group[0]]]
            for key in (yield from fill(group, new_members)):
                if len(evals[key]) >= n:
                    exact[key] = _aggregate_rows(seen_rows(key), aggregate)
                    stats.promoted_back += 1
                else:
                    partials[key].append(
                        (len(evals[key]), _aggregate_rows(seen_rows(key), aggregate))
                    )
        pending = [k for k in unproven if k not in exact and k not in failed]

    pruned = {
        k: PrunedCandidate(k, rung_size=len(evals[k]), partials=tuple(partials[k]))
        for k in unknown
        if k not in exact and k not in failed
    }
    stats.pruned = len(pruned)
    return RaceOutcome(evaluated=exact, pruned=pruned, stats=stats)


def tell_race(
    study: Any,
    trials: Sequence[Any],
    keys: Sequence[Hashable],
    outcome: RaceOutcome,
    values: "Callable[[Any], Sequence[float]]" = tuple,
) -> int:
    """Tell raced trials their outcome (every driver's one tell); return
    the number pruned.  An exact key's trial is told COMPLETE with
    ``values(evaluated)`` and ``racing:rung`` = the ensemble size; a
    pruned one PRUNED, with each rung's partial aggregate reported at
    ``step = members seen`` and the rung reached in ``racing:rung``.  A
    key in neither failed mid-race; its trial was told already."""
    n_pruned = 0
    for trial, key in zip(trials, keys):
        if key in outcome.evaluated:
            trial.set_system_attr(RACING_RUNG_ATTR, outcome.stats.n_members)
            study.tell(trial, values(outcome.evaluated[key]))
        elif key in outcome.pruned:
            pruned = outcome.pruned[key]
            for rung_size, partial in pruned.partials:
                trial.report(partial[0], step=rung_size)
            trial.set_system_attr(RACING_RUNG_ATTR, pruned.rung_size)
            study.tell(trial, state=TrialState.PRUNED)
            n_pruned += 1
    return n_pruned


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
