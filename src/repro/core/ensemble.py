"""Scenario ensembles: weather × growth × carbon × tariff × severity.

The paper sizes each microgrid against a single resource year; real
sizing must survive every future the planner can imagine.  This module
(DESIGN.md §6) composes the axes the repo already models — but never
crossed — into one first-class object:

* **years** — weather-year labels, each an independent realization of
  the site climatology (with its own dunkelflaute events);
* **growth** — workload-growth factors scaling the data-center mean
  power (the 1.62 MW Perlmutter anchor times 1.0, 1.15, 1.3, …);
* **carbon** — named grid-decarbonization trajectories
  (:data:`repro.data.carbon_intensity.CARBON_TRAJECTORIES`);
* **tariff** — rate-structure variants
  (:data:`repro.data.tariffs.TARIFF_VARIANTS`);
* **severity** — dunkelflaute severity multipliers (deeper/longer
  coordinated droughts);
* **sites** — and the original site axis, so multi-site robustness is
  just another factor of the cross product.

An :class:`EnsembleSpec` crosses them into a named, seeded member list;
:func:`build_ensemble` materializes the members as
:class:`~repro.core.scenario.Scenario` objects — computing the
expensive per-unit profiles for *unique* (site, year, severity) keys
only and sharing them across all members via the scenario layer's
unit-profile cache.  The members then flow as one stacked S × N tensor through
:func:`repro.core.fastsim.evaluate_across_scenarios`, and the risk
reducers of :mod:`repro.core.metrics` (``worst`` / ``mean`` /
``cvar:alpha`` / ``quantile:q``) turn the per-member outcomes into the
robust objectives NSGA-II optimizes.

Seeding (DESIGN.md §6): every random draw keeps its pre-ensemble
``seed_for`` namespace — weather streams key on ``(channel, site,
year)``, the workload on its mean power — and the new axes (severity,
carbon trajectory, tariff variant) are deterministic *transforms*
applied downstream of the draws.  Adding an axis therefore never
perturbs existing members: a ``years=2020-2024`` ensemble's members are
bit-identical whether or not a growth or severity axis is later crossed
in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Sequence

import numpy as np

from ..data.carbon_intensity import carbon_trajectory_multiplier
from ..data.locations import get_location
from ..data.tariffs import TARIFF_VARIANTS
from ..exceptions import ConfigurationError
from ..rng import seed_for
from ..units import PERLMUTTER_MEAN_POWER_W
from .composition import MicrogridComposition
from .dispatch import VectorizedPolicy
from .fastsim import evaluate_across_scenarios
from .metrics import RobustEvaluatedComposition, parse_aggregate, robust_evaluations
from .scenario import Scenario, build_scenario

__all__ = [
    "EnsembleMember",
    "EnsembleSpec",
    "build_ensemble",
    "evaluate_ensemble",
    "member_permutation",
    "member_subset",
]

#: Axis names in canonical order — also the member-name suffix order.
AXES = ("sites", "years", "growth", "carbon", "tariff", "severity")


@dataclass(frozen=True)
class EnsembleMember:
    """One fully specified future: a point in the axis cross product."""

    site: str
    year_label: int
    growth: float
    carbon_trajectory: str
    tariff_variant: str
    event_severity: float

    def name(self) -> str:
        """Compact unique member name, e.g. ``houston-2021+g1.15+x1.5``.

        Default axis values are omitted so single-axis ensembles keep
        the familiar ``site-year`` naming.
        """
        parts = [f"{self.site}-{self.year_label}"]
        if self.growth != 1.0:
            parts.append(f"+g{self.growth:g}")
        if self.carbon_trajectory != "baseline":
            parts.append(f"+c{self.carbon_trajectory}")
        if self.tariff_variant != "default":
            parts.append(f"+t{self.tariff_variant}")
        if self.event_severity != 1.0:
            parts.append(f"+x{self.event_severity:g}")
        return "".join(parts)


def _parse_years(raw: str) -> tuple[int, ...]:
    """``2020-2024`` (inclusive range) or ``2020:2022:2024`` (list)."""
    raw = raw.strip()
    if "-" in raw:
        lo_s, _, hi_s = raw.partition("-")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigurationError(f"malformed year range '{raw}'") from None
        if hi < lo:
            raise ConfigurationError(f"empty year range '{raw}'")
        return tuple(range(lo, hi + 1))
    try:
        return tuple(int(v) for v in raw.split(":") if v.strip())
    except ValueError:
        raise ConfigurationError(f"malformed years '{raw}'") from None


def _parse_floats(raw: str, axis: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(":") if v.strip())
    except ValueError:
        raise ConfigurationError(f"malformed {axis} values '{raw}'") from None


@dataclass(frozen=True)
class EnsembleSpec:
    """A cross product of scenario axes (DESIGN.md §6).

    The member list is ``itertools.product`` over the axes in
    :data:`AXES` order — deterministic, so journal metadata
    (:meth:`spec_string`) round-trips to the identical member ordering
    on resume.
    """

    sites: tuple[str, ...] = ("houston",)
    years: tuple[int, ...] = (2024,)
    growth: tuple[float, ...] = (1.0,)
    carbon: tuple[str, ...] = ("baseline",)
    tariff: tuple[str, ...] = ("default",)
    severity: tuple[float, ...] = (1.0,)
    n_hours: int = 8_760
    mean_power_w: float = PERLMUTTER_MEAN_POWER_W

    def __post_init__(self) -> None:
        for axis in AXES:
            values = getattr(self, axis)
            if not values:
                raise ConfigurationError(f"ensemble axis '{axis}' is empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"ensemble axis '{axis}' has duplicates: {values}")
        for site in self.sites:
            get_location(site)  # raises ConfigurationError for unknown sites
        for trajectory in self.carbon:
            carbon_trajectory_multiplier(trajectory)
        for variant in self.tariff:
            if variant not in TARIFF_VARIANTS:
                known = ", ".join(TARIFF_VARIANTS)
                raise ConfigurationError(
                    f"unknown tariff variant '{variant}' (known: {known})"
                )
        for g in self.growth:
            if g <= 0.0:
                raise ConfigurationError(f"growth factors must be positive, got {g}")
        for s in self.severity:
            if s <= 0.0:
                raise ConfigurationError(f"severity factors must be positive, got {s}")
        if self.n_hours <= 0:
            raise ConfigurationError(f"n_hours must be positive, got {self.n_hours}")
        if self.mean_power_w <= 0:
            raise ConfigurationError("mean power must be positive")

    def __len__(self) -> int:
        n = 1
        for axis in AXES:
            n *= len(getattr(self, axis))
        return n

    def members(self) -> list[EnsembleMember]:
        """The crossed member list, in canonical axis order."""
        return [
            EnsembleMember(
                site=site,
                year_label=year,
                growth=growth,
                carbon_trajectory=carbon,
                tariff_variant=tariff,
                event_severity=severity,
            )
            for site, year, growth, carbon, tariff, severity in product(
                self.sites, self.years, self.growth, self.carbon,
                self.tariff, self.severity,
            )
        ]

    @classmethod
    def parse(
        cls,
        text: str,
        sites: Sequence[str] = ("houston",),
        n_hours: int = 8_760,
        mean_power_w: float = PERLMUTTER_MEAN_POWER_W,
    ) -> "EnsembleSpec":
        """Parse the CLI grammar, e.g. ``years=2020-2029,growth=1.0:1.3``.

        Comma-separated ``axis=values`` pairs; values are ``:``-separated
        lists, and ``years`` additionally accepts an inclusive ``A-B``
        range.  An explicit ``sites=a:b`` axis overrides the ``sites``
        default (which usually comes from ``--site``/``--sites``).
        Unknown axes and malformed values raise
        :class:`~repro.exceptions.ConfigurationError`.
        """
        fields: dict[str, Any] = {
            "sites": tuple(s.strip().lower() for s in sites),
            "n_hours": n_hours,
            "mean_power_w": mean_power_w,
        }
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            axis, sep, raw = chunk.partition("=")
            axis = axis.strip()
            if not sep or not raw.strip():
                raise ConfigurationError(f"malformed ensemble axis '{chunk}'")
            if axis == "years":
                fields["years"] = _parse_years(raw)
            elif axis in ("growth", "severity"):
                fields[axis] = _parse_floats(raw, axis)
            elif axis in ("carbon", "tariff", "sites"):
                fields[axis] = tuple(
                    v.strip().lower() for v in raw.split(":") if v.strip()
                )
            else:
                known = ", ".join(AXES)
                raise ConfigurationError(
                    f"unknown ensemble axis '{axis}' (known: {known})"
                )
        return cls(**fields)

    def spec_string(self) -> str:
        """Round-trippable spec (journal metadata; DESIGN.md §6).

        Every axis is explicit, so ``EnsembleSpec.parse(spec_string())``
        rebuilds the identical member list regardless of defaults.
        """
        return ",".join(
            f"{axis}={':'.join(str(v) for v in getattr(self, axis))}"
            for axis in AXES
        )


def member_permutation(n_members: int, seed: int = 0) -> tuple[int, ...]:
    """Deterministic member ordering for nested racing subsets (DESIGN.md §8).

    The permutation depends only on ``(seed, n_members)`` — never on
    process state — so every rung subset a :class:`~repro.core.racing.
    RungSchedule` derives from it is reproducible across processes,
    resumes, and machines.
    """
    if n_members <= 0:
        raise ConfigurationError(f"n_members must be positive, got {n_members}")
    rng = np.random.default_rng(seed_for("racing", "members", int(seed), int(n_members)))
    return tuple(int(i) for i in rng.permutation(n_members))


def member_subset(n_members: int, size: int, seed: int = 0) -> tuple[int, ...]:
    """Sorted ``size``-member subset: a prefix of the seeded permutation.

    Prefixes of one fixed permutation make subsets of increasing size
    *nest* — every member evaluated at rung *k* is also in rung *k+1* —
    which is what lets the racing engine evaluate only the members new
    to each rung.  Sorting keeps the member slice in canonical ensemble
    order, so partial-stack evaluation visits scenarios in the same
    order the full stack does.
    """
    if not 1 <= size <= n_members:
        raise ConfigurationError(
            f"subset size must be in [1, {n_members}], got {size}"
        )
    return tuple(sorted(member_permutation(n_members, seed)[:size]))


def build_ensemble(spec: EnsembleSpec) -> list[Scenario]:
    """Materialize the ensemble's members as scenarios, in member order.

    The expensive half of scenario construction — resource synthesis and
    the two SAM model runs — is computed once per *unique* (site, year,
    severity) key and shared across all members through the scenario
    layer's unit-profile cache (DESIGN.md §6); member assembly
    (workload, carbon, tariff) is cheap.
    """
    return [
        build_scenario(
            member.site,
            year_label=member.year_label,
            n_hours=spec.n_hours,
            mean_power_w=spec.mean_power_w * member.growth,
            event_severity=member.event_severity,
            carbon_trajectory=member.carbon_trajectory,
            tariff_variant=member.tariff_variant,
            name=member.name(),
        )
        for member in spec.members()
    ]


def evaluate_ensemble(
    spec: "EnsembleSpec | Sequence[Scenario]",
    compositions: Sequence[MicrogridComposition],
    aggregate: str = "worst",
    policy: VectorizedPolicy | None = None,
) -> list[RobustEvaluatedComposition]:
    """Score compositions against a whole ensemble in one stacked loop.

    Builds the members (if given a spec), advances the full S-members ×
    N-candidates tensor through one batched time loop, and reduces each
    objective by ``aggregate`` (the :func:`parse_aggregate` grammar) —
    bit-for-bit identical to evaluating every member serially
    (``benchmarks/bench_ensemble.py`` asserts this).
    """
    parse_aggregate(aggregate)
    scenarios = build_ensemble(spec) if isinstance(spec, EnsembleSpec) else list(spec)
    per_scenario = evaluate_across_scenarios(scenarios, list(compositions), policy=policy)
    return robust_evaluations(per_scenario, aggregate)
