"""Model-fidelity ladder: race across physics rungs with certified bounds.

The racing engine (DESIGN.md §8) prunes along one axis — *ensemble
members*.  This module (DESIGN.md §11) adds the orthogonal axis the
paper's cost model actually dominates on: *model fidelity*.  Every
scenario has cheap physics siblings — swap the Perez transposition for a
clear-sky scaling, the SAPM cell temperature for NOCT, rainflow battery
degradation for a closed-form linear law — that evaluate the same
candidate far faster (the cheap siblings skip the per-step SoC trace
and the rainflow count).  A fidelity ladder names an ordered subset of
:data:`FIDELITY_LEVELS` ending at ``full`` and races candidates *up*
it:

1. **Siblings** — :func:`sibling_scenario` rebuilds only the per-unit
   solar profile (one 1 kW PVWatts run on the shared
   :class:`~repro.data.solar_resource.SolarResource`) and retags the
   battery degradation law; workload, wind, carbon, and tariff arrays
   are shared, so a cheap sibling stack costs one model run per member.
2. **Calibration** — per (site, cheap level), a fixed probe set
   (:data:`CALIBRATION_PROBES`, corners + interior of the paper's design
   grid) is evaluated at the cheap level *and* at ``full``; the observed
   signed per-member error ``full − cheap`` per objective, widened by a
   margin proportional to its spread and scale, becomes a
   :class:`FidelityEnvelope`.
3. **Screening** — candidates climb the member rungs of each cheap
   level; only the partial-aggregate Pareto front survives a rung.
   Screening is deliberately aggressive because it is *not* trusted:
4. **Proof or rescue** — after the survivors are raced at full physics
   (the ordinary member-rung race), every screened candidate's cheap
   values are shifted by its envelope's lower bounds, clipped to the
   non-negativity of the objective, and folded through
   :func:`~repro.core.racing.partial_lower_bound`.  If some exactly
   evaluated candidate strictly dominates that certified bound, the
   elimination is proven (``stats.screened``) and the candidate never
   touches full physics; otherwise it is rescued into a full-physics
   race.  Consequence: **the returned front is bit-identical to a full
   evaluation of every candidate on the ladder-top physics** — the
   envelopes only decide how much full-physics work is avoided, never
   what the front is (``benchmarks/bench_fidelity.py`` asserts ≥2×
   fewer full-physics member evaluations; the envelope soundness itself
   is property-fuzzed in ``tests/test_fidelity_differential.py``).

The member *difficulty order* is probed once at the ladder's cheapest
level and shared with the full-physics racer (its ``subsets``), so
every level races prefixes of the same member ranking and the schedules
compose into a (member rung × fidelity rung) grid.

The ladder spec round-trips (``FidelityLadder.parse`` /
``spec_string``) and is persisted as study resume identity alongside
the racing spec: resuming a study under a different ladder is a hard
error (:mod:`repro.core.study_runner`, :mod:`repro.blackbox.parallel`).
The CLI flag is ``repro study run --fidelity fidelity=lo,mid,full``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..blackbox.multiobjective import pareto_front_indices
from ..exceptions import ConfigurationError
from ..sam.solar.irradiance import TRANSPOSITION_MODELS
from ..sam.solar.pvwatts import per_kw_profile
from .composition import MicrogridComposition
from .dispatch import VectorizedPolicy
from .fastsim import evaluate_member_slice
from .metrics import (
    EvaluatedComposition,
    RobustEvaluatedComposition,
    parse_aggregate,
)
from .pareto import pareto_front
from .racing import (
    NONNEGATIVE_OBJECTIVES,
    PROBE_COMPOSITION,
    PrunedCandidate,
    RaceOutcome,
    RacingEvaluator,
    RacingStats,
    RungSchedule,
    SliceEvaluator,
    _aggregate_rows,
    _strictly_dominated,
    partial_lower_bound,
)
from .scenario import Scenario

__all__ = [
    "CALIBRATION_PROBES",
    "FIDELITY_LEVELS",
    "FidelityEnvelope",
    "FidelityLadder",
    "FidelityLevel",
    "FidelityRacingEvaluator",
    "LEVEL_ORDER",
    "calibrate_envelope",
    "clear_fidelity_cache",
    "envelope_from_errors",
    "fidelity_race_front",
    "sibling_scenario",
    "sibling_stack",
]

#: spec token for the mandatory ladder top
FULL_LEVEL = "full"


@dataclass(frozen=True)
class FidelityLevel:
    """One rung of the physics ladder: which models the stack runs."""

    name: str
    #: sky-diffuse transposition model (:data:`TRANSPOSITION_MODELS`)
    transposition: str
    #: cell temperature model (``noct`` or ``sapm``)
    temperature_model: str
    #: battery degradation law (``None``, ``linear``, or ``rainflow``)
    battery_degradation: "str | None"

    def __post_init__(self) -> None:
        if self.transposition not in TRANSPOSITION_MODELS:
            raise ConfigurationError(
                f"unknown transposition model '{self.transposition}' "
                f"(known: {', '.join(TRANSPOSITION_MODELS)})"
            )
        if self.temperature_model not in ("noct", "sapm"):
            raise ConfigurationError(
                f"unknown temperature model '{self.temperature_model}'"
            )
        if self.battery_degradation not in (None, "linear", "rainflow"):
            raise ConfigurationError(
                f"unknown battery degradation '{self.battery_degradation}'"
            )


#: The named physics rungs, cheapest first.  ``lo`` runs the clear-sky
#: clearness-scaled transposition with NOCT temperature and the linear
#: degradation law (no SoC trace needed); ``mid`` upgrades transposition
#: to Hay–Davies; ``full`` is the SAM-faithful top — Perez 1990
#: transposition, SAPM cell temperature, and rainflow cycle counting
#: (which needs a per-step SoC trace and a Python cycle count per cell,
#: making the full rung the expensive one the ladder tries to avoid).
FIDELITY_LEVELS: "dict[str, FidelityLevel]" = {
    "lo": FidelityLevel("lo", "clearsky", "noct", "linear"),
    "mid": FidelityLevel("mid", "haydavies", "noct", "linear"),
    "full": FidelityLevel("full", "perez", "sapm", "rainflow"),
}

#: canonical cheap-to-full ordering of the named levels
LEVEL_ORDER = ("lo", "mid", "full")


@dataclass(frozen=True)
class FidelityLadder:
    """An ordered subset of :data:`FIDELITY_LEVELS` ending at ``full``.

    ``margin`` widens the calibrated error envelopes: the certified
    bounds pad the observed error range by ``margin × spread`` (plus a
    5 % scale term and an absolute epsilon).  Larger margins make
    envelope proofs rarer but even harder to violate; the front is
    identical either way — only the full-physics work saved changes.

    The spec grammar round-trips, e.g. ``fidelity=lo,mid,full`` or
    ``fidelity=lo,full,margin=1.0`` — the normalized
    :meth:`spec_string` is what studies persist as resume identity.
    """

    levels: tuple[str, ...] = ("lo", "mid", "full")
    margin: float = 0.5

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigurationError("a fidelity ladder needs at least one level")
        for name in self.levels:
            if name not in FIDELITY_LEVELS:
                raise ConfigurationError(
                    f"unknown fidelity level '{name}' "
                    f"(known: {', '.join(LEVEL_ORDER)})"
                )
        if self.levels[-1] != FULL_LEVEL:
            raise ConfigurationError(
                f"the final fidelity level must be '{FULL_LEVEL}' so the "
                f"front is exact at top physics (got {self.levels})"
            )
        ranks = [LEVEL_ORDER.index(name) for name in self.levels]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise ConfigurationError(
                f"fidelity levels must climb strictly cheap-to-full, got {self.levels}"
            )
        if not self.margin >= 0.0:
            raise ConfigurationError(
                f"fidelity margin must be >= 0, got {self.margin}"
            )

    @classmethod
    def parse(cls, text: "str | FidelityLadder") -> "FidelityLadder":
        """Parse the CLI grammar, e.g. ``fidelity=lo,mid,full`` or
        ``lo,full,margin=0.75``.

        Mirrors :meth:`RungSchedule.parse`: comma-separated tokens, a
        ``key=`` prefix starts a key (``fidelity`` or ``margin``), bare
        tokens continue the levels list, and a leading bare token is an
        implicit ``fidelity`` entry.
        """
        if isinstance(text, FidelityLadder):
            return text
        key = "fidelity"
        levels: list[str] = []
        margin = 0.5
        for token in str(text).split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, value = token.partition("=")
            if sep:
                key = name.strip()
                token = value.strip()
                if not token:
                    raise ConfigurationError(f"malformed fidelity token '{name}='")
            elif key != "fidelity":
                # Only the levels list continues across commas — a bare
                # token after margin= would silently corrupt the
                # resume-identity spec.
                raise ConfigurationError(
                    f"unexpected fidelity token '{token}' after '{key}=' "
                    "(only the levels list takes comma-separated values)"
                )
            if key == "fidelity":
                levels.append(token.lower())
            elif key == "margin":
                try:
                    margin = float(token)
                except ValueError:
                    raise ConfigurationError(
                        f"malformed fidelity margin '{token}'"
                    ) from None
            else:
                raise ConfigurationError(
                    f"unknown fidelity key '{key}' (known: fidelity, margin)"
                )
        if not levels:
            raise ConfigurationError(f"fidelity spec '{text}' names no levels")
        return cls(levels=tuple(levels), margin=margin)

    def spec_string(self) -> str:
        """Round-trippable spec (journal metadata; DESIGN.md §11)."""
        suffix = "" if self.margin == 0.5 else f",margin={self.margin:g}"
        return f"fidelity={','.join(self.levels)}{suffix}"

    @property
    def cheap_levels(self) -> "tuple[FidelityLevel, ...]":
        """The screening rungs — every level below the ``full`` top."""
        return tuple(FIDELITY_LEVELS[name] for name in self.levels[:-1])


# -- cheap physics siblings ----------------------------------------------------

# Scenarios hold ndarrays, so they are not hashable: the sibling cache
# keys on id().  The companion refs dict keeps every base scenario
# strongly referenced so a recycled id() can never alias a dead key.
_SIBLING_CACHE: "dict[tuple[int, str], Scenario]" = {}
_SIBLING_REFS: "dict[int, Scenario]" = {}


def _resolve_level(level: "str | FidelityLevel") -> FidelityLevel:
    if isinstance(level, FidelityLevel):
        return level
    if level not in FIDELITY_LEVELS:
        raise ConfigurationError(
            f"unknown fidelity level '{level}' (known: {', '.join(LEVEL_ORDER)})"
        )
    return FIDELITY_LEVELS[level]


def sibling_scenario(scenario: Scenario, level: "str | FidelityLevel") -> Scenario:
    """The ``level``-physics sibling of a scenario (cached).

    Re-runs only the 1 kW PVWatts chain on the scenario's existing
    :class:`~repro.data.solar_resource.SolarResource` with the level's
    transposition/temperature models and retags the battery degradation
    law; every other field (workload, wind profile, carbon, tariff) is
    shared with the base scenario.  Siblings of the same base at the
    same level are cached, so an ensemble stack pays one model run per
    (member, level).
    """
    lvl = _resolve_level(level)
    key = (id(scenario), lvl.name)
    cached = _SIBLING_CACHE.get(key)
    if cached is not None:
        return cached
    profile = per_kw_profile(
        scenario.solar_resource,
        transposition_model=lvl.transposition,
        temperature_model=lvl.temperature_model,
    )
    sibling = dataclasses.replace(
        scenario,
        solar_per_kw_w=profile,
        battery_degradation=lvl.battery_degradation,
    )
    _SIBLING_REFS[id(scenario)] = scenario
    _SIBLING_CACHE[key] = sibling
    return sibling


def sibling_stack(
    scenarios: Sequence[Scenario], level: "str | FidelityLevel"
) -> "list[Scenario]":
    """The ``level``-physics sibling of a whole ensemble stack."""
    lvl = _resolve_level(level)
    return [sibling_scenario(s, lvl) for s in scenarios]


def clear_fidelity_cache() -> None:
    """Drop all cached siblings (test isolation)."""
    _SIBLING_CACHE.clear()
    _SIBLING_REFS.clear()


# -- calibration ---------------------------------------------------------------

#: Fixed probe builds the calibration pass evaluates at every fidelity
#: level: the corners of the paper's design grid (§4), a mid-size
#: interior build, and — critically — the *low-capacity interior*
#: (small solar and/or small battery, little or no wind), where the
#: per-unit model error peaks: at low solar every transposed Wh shifts
#: grid import one-for-one, and a small battery cycles hardest, so the
#: rainflow-vs-linear fade gap is widest there.  Corners alone do NOT
#: bracket the error — large solar saturates the load and large wind
#: swamps the solar profile, both shrinking the observable error — so
#: the probe set must straddle the peak, not just the hull.  Probes
#: are *never* entered into the candidate pool or the domination
#: matrix — they only calibrate envelopes.
CALIBRATION_PROBES: "tuple[MicrogridComposition, ...]" = (
    # design-grid corners
    MicrogridComposition(n_turbines=0, solar_kw=0.0, battery_units=0),
    MicrogridComposition(n_turbines=0, solar_kw=40_000.0, battery_units=0),
    MicrogridComposition(n_turbines=0, solar_kw=40_000.0, battery_units=8),
    MicrogridComposition(n_turbines=10, solar_kw=0.0, battery_units=0),
    MicrogridComposition(n_turbines=10, solar_kw=0.0, battery_units=8),
    MicrogridComposition(n_turbines=10, solar_kw=40_000.0, battery_units=8),
    # mid-size interior
    MicrogridComposition(n_turbines=5, solar_kw=20_000.0, battery_units=4),
    MicrogridComposition(n_turbines=2, solar_kw=8_000.0, battery_units=1),
    # low-capacity interior: peak per-unit transposition error.  The
    # solar-heavy small-battery regime gets *two* neighbours so no
    # single probe is load-bearing for the fade-axis extreme (the
    # leave-one-probe-out cross-validation in
    # tests/test_fidelity_differential.py pins that redundancy).
    MicrogridComposition(n_turbines=0, solar_kw=4_000.0, battery_units=0),
    MicrogridComposition(n_turbines=0, solar_kw=8_000.0, battery_units=2),
    MicrogridComposition(n_turbines=0, solar_kw=12_000.0, battery_units=1),
    MicrogridComposition(n_turbines=0, solar_kw=16_000.0, battery_units=1),
    MicrogridComposition(n_turbines=0, solar_kw=20_000.0, battery_units=2),
    MicrogridComposition(n_turbines=1, solar_kw=4_000.0, battery_units=1),
    # wind-dominated small battery: peak rainflow-vs-linear fade gap
    MicrogridComposition(n_turbines=2, solar_kw=0.0, battery_units=1),
    MicrogridComposition(n_turbines=1, solar_kw=0.0, battery_units=2),
)


@dataclass(frozen=True)
class FidelityEnvelope:
    """Certified per-site bounds on the (full − level) member error.

    ``lower[site][k] <= full_value[m, k] - level_value[m, k] <=
    upper[site][k]`` is the certified claim for every member *m* of the
    site, per objective *k* — calibrated on :data:`CALIBRATION_PROBES`
    and widened by the ladder margin.  The differential fuzz suite
    (``tests/test_fidelity_differential.py``) hard-fails any observed
    violation on random candidates.
    """

    level: str
    objectives: tuple[str, ...]
    #: site name → per-objective certified lower bound on the error
    lower: "dict[str, np.ndarray]"
    #: site name → per-objective certified upper bound on the error
    upper: "dict[str, np.ndarray]"
    n_probes: int

    def contains(self, site: str, error: "np.ndarray") -> bool:
        """Whether an observed per-member error vector is inside bounds."""
        if site not in self.lower:
            return False
        err = np.asarray(error, dtype=np.float64)
        return bool(
            np.all(err >= self.lower[site]) and np.all(err <= self.upper[site])
        )


def envelope_from_errors(
    level: str,
    objectives: Sequence[str],
    errors: "np.ndarray",
    sites: Sequence[str],
    margin: float = 0.5,
) -> FidelityEnvelope:
    """Build a certified envelope from observed probe errors.

    ``errors[m, p, k]`` is the signed error ``full − level`` of member
    *m* on probe *p*, objective *k*; ``sites[m]`` names member *m*'s
    site.  Per (site, objective) the observed range ``[emin, emax]`` is
    widened to ``[emin − pad, emax + pad]`` with ``pad = margin × (emax
    − emin) + 0.25 × max(|emin|, |emax|) + 1e-9`` — the spread term
    covers interpolation between probes, the scale term systematic
    drift, and the epsilon keeps a degenerate (constant-error) range
    from collapsing to a zero-width interval.  The soundness of the
    resulting bounds over the whole design grid is what
    ``tests/test_fidelity_differential.py`` fuzzes — a violated
    envelope there means the pad or :data:`CALIBRATION_PROBES` must be
    strengthened, because :class:`FidelityRacingEvaluator` screening
    proofs lean on these bounds.
    """
    err = np.asarray(errors, dtype=np.float64)
    if err.ndim != 3 or err.shape[0] != len(sites):
        raise ConfigurationError(
            f"errors must be (members, probes, objectives), got {err.shape}"
        )
    lower: "dict[str, np.ndarray]" = {}
    upper: "dict[str, np.ndarray]" = {}
    for site in dict.fromkeys(sites):
        rows = err[[m for m, s in enumerate(sites) if s == site]]
        flat = rows.reshape(-1, err.shape[2])
        emin = flat.min(axis=0)
        emax = flat.max(axis=0)
        pad = margin * (emax - emin) + 0.25 * np.maximum(np.abs(emin), np.abs(emax)) + 1e-9
        lower[site] = emin - pad
        upper[site] = emax + pad
    return FidelityEnvelope(
        level=level,
        objectives=tuple(objectives),
        lower=lower,
        upper=upper,
        n_probes=err.shape[1],
    )


def calibrate_envelope(
    scenarios: Sequence[Scenario],
    level: "str | FidelityLevel",
    objectives: Sequence[str] = ("operational", "embodied"),
    margin: float = 0.5,
    policy: "VectorizedPolicy | None" = None,
    probes: "Sequence[MicrogridComposition]" = CALIBRATION_PROBES,
) -> FidelityEnvelope:
    """Calibrate one cheap level's envelope against full physics.

    The standalone (in-process) form of the calibration pass the
    :class:`FidelityRacingEvaluator` runs lazily — exposed for the
    differential fuzz harness and notebooks.
    """
    lvl = _resolve_level(level)
    members = list(range(len(scenarios)))
    if not members:
        raise ConfigurationError("calibration needs at least one scenario")
    names = tuple(objectives)
    full_rows = evaluate_member_slice(
        sibling_stack(scenarios, FULL_LEVEL), members, list(probes), policy=policy
    )
    lvl_rows = evaluate_member_slice(
        sibling_stack(scenarios, lvl), members, list(probes), policy=policy
    )
    full_obj = np.array(
        [[e.objectives(names) for e in row] for row in full_rows], dtype=np.float64
    )
    lvl_obj = np.array(
        [[e.objectives(names) for e in row] for row in lvl_rows], dtype=np.float64
    )
    return envelope_from_errors(
        lvl.name,
        names,
        full_obj - lvl_obj,
        [s.location.name for s in scenarios],
        margin=margin,
    )


# -- the fidelity-raced evaluator ----------------------------------------------


class FidelityRacingEvaluator:
    """Races candidates up both axes: member rungs × fidelity rungs.

    One instance per (ensemble, ladder, schedule, aggregate,
    objectives); call :meth:`race` per candidate batch.  The sibling
    stacks, the shared member-difficulty order (probed at the cheapest
    level), and the calibrated envelopes are all built lazily on the
    first race and charged to its stats.  Every level evaluates through
    the in-process stacked tensor loop.
    """

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        ladder: "FidelityLadder | str" = FidelityLadder(),
        schedule: "RungSchedule | str" = RungSchedule(),
        aggregate: str = "worst",
        objectives: Sequence[str] = ("operational", "embodied"),
        policy: "VectorizedPolicy | None" = None,
        probes: "Sequence[MicrogridComposition]" = CALIBRATION_PROBES,
    ) -> None:
        self.base = list(scenarios)
        if not self.base:
            raise ConfigurationError("fidelity racing needs at least one scenario")
        self.ladder = FidelityLadder.parse(ladder)
        self.schedule = RungSchedule.parse(schedule)
        parse_aggregate(aggregate)  # fail fast
        self.aggregate = aggregate
        self.objectives = tuple(objectives)
        self.policy = policy
        self._probes = list(probes)
        self.sizes = self.schedule.resolve(len(self.base))
        self._stacks: "dict[str, list[Scenario]] | None" = None
        self._slices: "dict[str, SliceEvaluator]" = {}
        self._subsets: "list[tuple[int, ...]] | None" = None
        self._envelopes: "dict[str, FidelityEnvelope]" = {}
        self._full: "RacingEvaluator | None" = None
        #: full-physics / cheap member evals spent on setup (difficulty
        #: probe + calibration), charged to the first race's stats
        self._pending_full = 0
        self._pending_cheap = 0

    def _slice_for(self, stack: "list[Scenario]") -> SliceEvaluator:
        def _slice(member_indices, comps):
            return evaluate_member_slice(stack, member_indices, comps, policy=self.policy)

        return _slice

    @property
    def envelopes(self) -> "dict[str, FidelityEnvelope]":
        """Calibrated envelopes per cheap level (built on first use)."""
        self._prepare()
        return self._envelopes

    # -- lazy setup ------------------------------------------------------------

    def _prepare(self) -> None:
        if self._stacks is not None:
            return
        self._stacks = {
            name: sibling_stack(self.base, name) for name in self.ladder.levels
        }
        self._slices = {
            name: self._slice_for(stack) for name, stack in self._stacks.items()
        }
        n = len(self.base)
        cheapest = self.ladder.levels[0]

        def difficulty() -> "list[float]":
            # Rank member difficulty once, at the *cheapest* level, and
            # share the subsets with every rung of every level (including
            # the inner full-physics racer) so all subsets are prefixes
            # of one ranking.
            rows = self._slices[cheapest](list(range(n)), [PROBE_COMPOSITION])
            if cheapest == FULL_LEVEL:
                self._pending_full += n
            else:
                self._pending_cheap += n
            return [row[0].objectives(self.objectives)[0] for row in rows]

        self._subsets = self.schedule.subsets(n, difficulty=difficulty)
        self._full = RacingEvaluator(
            self._stacks[FULL_LEVEL],
            schedule=self.schedule,
            aggregate=self.aggregate,
            objectives=self.objectives,
            evaluate_slice=self._slices[FULL_LEVEL],
            subsets=self._subsets,
        )
        self._calibrate()

    def _calibrate(self) -> None:
        cheap = self.ladder.cheap_levels
        if not cheap:
            return
        members = list(range(len(self.base)))
        sites = [s.location.name for s in self.base]
        probes = self._probes
        full_rows = self._slices[FULL_LEVEL](members, probes)
        self._pending_full += len(members) * len(probes)
        full_obj = np.array(
            [[e.objectives(self.objectives) for e in row] for row in full_rows],
            dtype=np.float64,
        )
        for lvl in cheap:
            rows = self._slices[lvl.name](members, probes)
            self._pending_cheap += len(members) * len(probes)
            lvl_obj = np.array(
                [[e.objectives(self.objectives) for e in row] for row in rows],
                dtype=np.float64,
            )
            self._envelopes[lvl.name] = envelope_from_errors(
                lvl.name,
                self.objectives,
                full_obj - lvl_obj,
                sites,
                margin=self.ladder.margin,
            )

    # -- screening -------------------------------------------------------------

    def _screen(
        self,
        level: FidelityLevel,
        alive: "list[MicrogridComposition]",
        stats: RacingStats,
    ) -> "tuple[list[MicrogridComposition], list[tuple]]":
        """Race ``alive`` through one cheap level's member rungs.

        Only the partial-aggregate Pareto front survives each rung —
        deliberately aggressive, because every drop is later proven by
        an envelope bound or rescued at full physics.  Returns the
        survivors and the dropped ``(comp, level name, member evals,
        partial history)`` records.
        """
        if not alive:
            return [], []
        slice_fn = self._slices[level.name]
        evals: "dict[MicrogridComposition, dict[int, EvaluatedComposition]]" = {
            c: {} for c in alive
        }
        history: "dict[MicrogridComposition, list]" = {c: [] for c in alive}
        dropped: "list[tuple]" = []
        seen: "tuple[int, ...]" = ()
        for size, subset in zip(self.sizes, self._subsets):
            if not alive:
                break
            new_members = [m for m in subset if m not in seen]
            if new_members:
                rows = slice_fn(new_members, alive)
                stats.low_fidelity_evals += len(new_members) * len(alive)
                for j, m in enumerate(new_members):
                    for i, comp in enumerate(alive):
                        evals[comp][m] = rows[j][i]
            seen = subset
            vectors = [
                _aggregate_rows(
                    [evals[c][m].objectives(self.objectives) for m in sorted(evals[c])],
                    self.aggregate,
                )
                for c in alive
            ]
            for comp, vec in zip(alive, vectors):
                history[comp].append((size, vec))
            front = set(
                int(i)
                for i in pareto_front_indices(np.array(vectors, dtype=np.float64))
            )
            dropped.extend(
                (c, level.name, evals[c], history[c])
                for i, c in enumerate(alive)
                if i not in front
            )
            alive = [c for i, c in enumerate(alive) if i in front]
        return alive, dropped

    # -- envelope proofs -------------------------------------------------------

    def _certified_bound(
        self,
        level_name: str,
        member_evals: "dict[int, EvaluatedComposition]",
    ) -> "np.ndarray | None":
        """Envelope-widened lower bound on the candidate's *full* aggregate.

        Each seen cheap member value is shifted down by the envelope's
        certified lower error bound (making it a sound lower bound on
        the member's full-physics value), clipped at zero for
        non-negative objectives, and folded through
        :func:`partial_lower_bound`.  ``None`` when no sound bound
        exists — the candidate must then be rescued, never pruned.
        """
        env = self._envelopes.get(level_name)
        if env is None or not member_evals:
            return None
        n = len(self.base)
        members = sorted(member_evals)
        rows = []
        for m in members:
            site = self.base[m].location.name
            if site not in env.lower:
                return None
            value = np.asarray(
                member_evals[m].objectives(self.objectives), dtype=np.float64
            )
            rows.append(value + env.lower[site])
        adjusted = np.array(rows, dtype=np.float64)
        bounds = []
        for k, name in enumerate(self.objectives):
            nonneg = name in NONNEGATIVE_OBJECTIVES
            column = adjusted[:, k]
            if nonneg:
                # The true full-physics values are >= 0 by construction,
                # so clipping the shifted bound at zero stays sound.
                column = np.maximum(column, 0.0)
            bound = partial_lower_bound(
                column.tolist(), n, self.aggregate, nonnegative=nonneg
            )
            if bound is None:
                return None
            bounds.append(bound)
        return np.array(bounds, dtype=np.float64)

    # -- the race --------------------------------------------------------------

    def race(
        self,
        compositions: Sequence[MicrogridComposition],
        known: "dict[MicrogridComposition, RobustEvaluatedComposition] | None" = None,
    ) -> RaceOutcome:
        """Race a candidate set up the fidelity ladder to an exact front.

        Screens at each cheap level, races the survivors at full
        physics, then closes every screening drop with an
        envelope-widened domination proof — or rescues it into a
        full-physics race.  Every ``evaluated`` entry is a full-ensemble
        *full-physics* evaluation; every ``pruned`` entry is proven
        strictly dominated by one of them, so the Pareto front over
        ``evaluated`` is exactly what full evaluation of every candidate
        would report.  ``stats.screened`` counts the candidates that
        never paid a single full-physics member evaluation.
        """
        self._prepare()
        comps = list(dict.fromkeys(compositions))
        exact: "dict[MicrogridComposition, RobustEvaluatedComposition]" = dict(
            known or {}
        )
        unknown = [c for c in comps if c not in exact]
        n = len(self.base)
        stats = RacingStats(
            n_members=n,
            rung_sizes=self.sizes,
            candidates=len(unknown),
            full_member_evals=len(unknown) * n,
            member_evals=self._pending_full,
            low_fidelity_evals=self._pending_cheap,
        )
        self._pending_full = 0
        self._pending_cheap = 0

        alive = unknown
        screened: "list[tuple]" = []
        for level in self.ladder.cheap_levels:
            alive, dropped = self._screen(level, alive, stats)
            screened.extend(dropped)

        full_outcome = self._full.race(alive, known=exact)
        self._absorb(stats, full_outcome.stats)
        stats.promoted_back += full_outcome.stats.promoted_back
        exact = full_outcome.evaluated
        pruned = dict(full_outcome.pruned)

        exact_matrix = np.array(
            [e.objectives(self.objectives) for e in exact.values()], dtype=np.float64
        ).reshape(len(exact), len(self.objectives))
        proven: "list[tuple]" = []
        rescued: "list[tuple]" = []
        for record in screened:
            comp, level_name, member_evals, history = record
            bound = self._certified_bound(level_name, member_evals)
            if bound is not None and _strictly_dominated(bound, exact_matrix):
                proven.append(record)
            else:
                rescued.append(record)
        stats.screened += len(proven)

        if rescued:
            rescue_outcome = self._full.race([r[0] for r in rescued], known=exact)
            self._absorb(stats, rescue_outcome.stats)
            stats.promoted_back += sum(
                1 for r in rescued if r[0] in rescue_outcome.evaluated
            )
            exact = rescue_outcome.evaluated
            pruned.update(rescue_outcome.pruned)

        for comp, level_name, member_evals, history in proven:
            pruned[comp] = PrunedCandidate(
                composition=comp,
                rung_size=len(member_evals),
                partials=tuple(history),
            )
        stats.pruned = len(pruned)
        return RaceOutcome(evaluated=exact, pruned=pruned, stats=stats)

    @staticmethod
    def _absorb(stats: RacingStats, inner: RacingStats) -> None:
        """Fold an inner full-physics race's work into the outer stats.

        Only the *work* counters — candidates / full_member_evals /
        pruned are outer-level quantities (the inner race would double
        count them, and its promoted_back needs rescue-aware handling
        by the caller).
        """
        stats.member_evals += inner.member_evals
        stats.low_fidelity_evals += inner.low_fidelity_evals
        for size, count in inner.alive_per_rung.items():
            stats.alive_per_rung[size] = stats.alive_per_rung.get(size, 0) + count


def fidelity_race_front(
    scenarios: Sequence[Scenario],
    compositions: Sequence[MicrogridComposition],
    ladder: "FidelityLadder | str" = FidelityLadder(),
    schedule: "RungSchedule | str" = RungSchedule(),
    aggregate: str = "worst",
    objectives: Sequence[str] = ("operational", "embodied"),
    policy: "VectorizedPolicy | None" = None,
) -> "tuple[list[RobustEvaluatedComposition], RaceOutcome]":
    """Exact ladder-top Pareto front via fidelity-laddered racing.

    Returns ``(front, outcome)`` — the front is identical to
    ``pareto_front(evaluate_ensemble(sibling_stack(scenarios, "full"),
    compositions, ...))``; ``outcome.stats`` records the full-physics
    member evaluations avoided (``member_evals`` vs
    ``full_member_evals``) and the candidates screened entirely at cheap
    physics (``screened``).
    """
    evaluator = FidelityRacingEvaluator(
        scenarios,
        ladder=ladder,
        schedule=schedule,
        aggregate=aggregate,
        objectives=objectives,
        policy=policy,
    )
    outcome = evaluator.race(compositions)
    front = pareto_front(list(outcome.evaluated.values()), objectives)
    return front, outcome
