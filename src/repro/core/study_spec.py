"""Declarative study identity: one spec, one validator, every driver.

A persisted study's **search identity** is the set of keys that decide
which Pareto front a fixed seed produces: the scenario keys (sites,
year, horizon, load), the objective keys (dispatch policy, robust
aggregate), the sampler keys (trials, population, seed), and the
optional driver specs (ensemble, racing rung schedule, fidelity
ladder, pipeline speculation depth).  Resuming a study
with *any* of them guessed instead of replayed silently produces a
different front than the original run — the single most dangerous
failure mode in the repo.  The batch size is the population; the
drivers persist and check it themselves.

Before this module that identity was assembled, persisted, and
resume-checked in three divergent copies (the CLI's metadata plumbing,
``OptimizationRunner``'s setdefault-plus-check blocks, and the
pipelined dispatcher's ``_validate_metadata``).  Now it lives in one
frozen dataclass:

* :class:`StudySpec` — the full identity as data, with a
  ``to_metadata()`` / ``from_metadata()`` round-trip onto the storage
  contract's study-metadata dict (DESIGN.md §7) and an
  :meth:`StudySpec.execute` that builds the scenario list, runner, and
  sampler and dispatches to the batched or pipelined driver;
* :func:`check_resume_identity` — THE resume validator.  Every driver
  (``OptimizationRunner._run_blackbox_study``, ``PipelinedDispatcher``)
  routes its persisted-vs-requested comparison through this one
  function, so the mismatch semantics (and error text) cannot drift
  between drivers.

The CLI's ``study run`` / ``study resume`` and the service layer
(:mod:`repro.service`) are thin builders over this spec — the HTTP API
submits a ``StudySpec``, the worker loop rebuilds one from persisted
metadata, and both are guaranteed to agree with the CLI because they
share this code, not a copy of it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..exceptions import OptimizationError
from ..units import PERLMUTTER_MEAN_POWER_W
from .dispatch import POLICY_NAMES
from .fidelity import FidelityLadder
from .metrics import parse_aggregate
from .racing import RungSchedule

#: metadata keys that define the search objective and sampler identity —
#: resuming with a *guessed* value for any of them silently produces a
#: different Pareto front than the original run, the exact failure mode
#: the persisted-metadata contract exists to prevent
RESUME_REQUIRED_KEYS = (
    "site", "year", "n_hours", "mean_power_mw",  # scenario identity
    "policy", "aggregate",                       # objective identity
    "population", "seed", "n_trials",            # sampler identity
)

#: why each identity key is unchangeable mid-study — surfaced verbatim
#: in every mismatch error, whichever driver raises it
_IDENTITY_REASONS = {
    "batch": "generation boundaries cannot be aligned across batch sizes",
    "racing": (
        "the rung schedule decides which trials are pruned, so resume "
        "must race the identical schedule"
    ),
    "fidelity": (
        "the fidelity ladder decides which physics scored every trial, "
        "so resume must use the identical ladder"
    ),
    "pipeline": (
        "the speculation depth decides every trial's parent epoch, so "
        "resume must pipeline identically"
    ),
    "ensemble": (
        "the ensemble spec decides the member list every aggregate "
        "reduced, so resume must rebuild the identical ensemble"
    ),
}

#: per-key normalizers so ``5`` and ``"5"`` (a JSON round-trip) compare
#: equal without ever letting a real mismatch through
_INT_KEYS = frozenset(
    {"batch", "year", "n_hours", "population", "seed", "n_trials", "shards"}
)
_FLOAT_KEYS = frozenset({"mean_power_mw"})


def _normalize(key: str, value: Any) -> Any:
    if value is None:
        return None
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key == "sites":
        if isinstance(value, str):
            value = value.split(",")
        return ",".join(str(s).strip().lower() for s in value)
    return str(value)


def check_resume_identity(
    study_name: str,
    persisted: Mapping[str, Any],
    requested: Mapping[str, Any],
    *,
    lenient: Sequence[str] = ("batch",),
) -> None:
    """The one resume validator every driver shares (DESIGN.md §12).

    Compares the ``requested`` identity keys against the ``persisted``
    study metadata and raises :class:`OptimizationError` on the first
    mismatch, naming the key, both values, and why that key cannot
    change mid-study.  Keys listed in ``lenient`` are skipped when
    either side is ``None`` (unpinned), mirroring the historical batch
    semantics; all other keys treat ``None`` as "feature off", which
    must also match.

    Key order in ``requested`` is the check order, so callers control
    which mismatch a multi-way divergence reports first.
    """
    for key, req in requested.items():
        per = persisted.get(key)
        if key in lenient and (per is None or req is None):
            continue
        per_n, req_n = _normalize(key, per), _normalize(key, req)
        if per_n != req_n:
            label = "batch/population" if key == "batch" else key
            reason = _IDENTITY_REASONS.get(
                key, "resume must replay the identical value"
            )
            raise OptimizationError(
                f"study '{study_name}' was persisted with {label}="
                f"{per_n if per_n is not None else '<none>'}, resumed with "
                f"{req_n if req_n is not None else '<none>'}; {reason}"
            )


def _missing_metadata_error(missing: Sequence[str], source: str) -> OptimizationError:
    return OptimizationError(
        f"cannot resume from {source}: study metadata is missing "
        f"{', '.join(repr(k) for k in missing)}. Resuming with defaults "
        "would silently produce a different Pareto front than the "
        "original run.  The study predates the persisted-search-"
        "parameter contract (or was written by a custom driver); "
        "re-run it with current code to resume safely."
    )


@dataclass(frozen=True)
class StudySpec:
    """The full search identity of one persisted study, as data.

    Construction normalizes every spec string through its round-trip
    grammar (``RungSchedule`` / ``FidelityLadder`` / ``EnsembleSpec`` /
    pipeline spec), so two specs describing the same search compare
    equal regardless of how they were written, and ``to_metadata()``
    always persists canonical forms.
    """

    sites: tuple[str, ...] = ("houston",)
    year: int = 2024
    n_hours: int = 8_760
    mean_power_mw: float = PERLMUTTER_MEAN_POWER_W / 1e6
    policy: str = "default"
    aggregate: str = "worst"
    n_trials: int = 350
    population: int = 50
    seed: int = 42
    ensemble: "str | None" = None
    racing: "str | None" = None
    fidelity: "str | None" = None
    pipeline: "str | None" = None
    shards: "int | None" = None
    #: transport knobs (non-identity): how many remote worker slots the
    #: coordinator keeps in flight, and the lease TTL its work items
    #: carry.  Neither changes which candidates are bred — the epoch
    #: schedule is a pure function of the trial number — so both may
    #: differ freely between a run and its resume.
    remote_slots: "int | None" = None
    lease_ttl: "float | None" = None

    def __post_init__(self) -> None:
        sites = self.sites
        if isinstance(sites, str):
            sites = sites.split(",")
        sites = tuple(str(s).strip().lower() for s in sites if str(s).strip())
        if not sites:
            raise OptimizationError("a StudySpec needs at least one site")
        object.__setattr__(self, "sites", sites)
        for key in ("year", "n_hours", "n_trials", "population", "seed"):
            object.__setattr__(self, key, int(getattr(self, key)))
        object.__setattr__(self, "mean_power_mw", float(self.mean_power_mw))
        if self.shards is not None:
            object.__setattr__(self, "shards", int(self.shards))
            if self.shards < 1:
                raise OptimizationError(f"shards must be >= 1, got {self.shards}")
        if self.n_trials <= 0:
            raise OptimizationError("n_trials must be positive")
        if self.population <= 0:
            raise OptimizationError("population must be positive")
        if self.policy not in POLICY_NAMES:
            raise OptimizationError(
                f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}"
            )
        parse_aggregate(self.aggregate)  # fail fast on a bad grammar
        if self.racing is not None:
            object.__setattr__(
                self, "racing", RungSchedule.parse(self.racing).spec_string()
            )
        if self.fidelity is not None:
            object.__setattr__(
                self, "fidelity", FidelityLadder.parse(self.fidelity).spec_string()
            )
        if self.ensemble is not None:
            from .ensemble import EnsembleSpec

            spec = EnsembleSpec.parse(
                str(self.ensemble),
                sites=list(self.sites),
                n_hours=self.n_hours,
                mean_power_w=self.mean_power_mw * 1e6,
            )
            object.__setattr__(self, "ensemble", spec.spec_string())
        if self.remote_slots is not None:
            object.__setattr__(self, "remote_slots", int(self.remote_slots))
            if self.remote_slots < 1:
                raise OptimizationError("remote_slots must be >= 1")
            if self.pipeline is None:
                # Remote dispatch rides the pipelined driver (it needs
                # slot-granular futures); speculate=0 breeds the trial
                # params run_blackbox breeds.
                object.__setattr__(self, "pipeline", "speculate=0")
        if self.lease_ttl is not None:
            object.__setattr__(self, "lease_ttl", float(self.lease_ttl))
            if self.lease_ttl <= 0:
                raise OptimizationError("lease_ttl must be positive")
        if self.pipeline is not None:
            from ..blackbox.parallel import (
                parse_pipeline_spec,
                pipeline_spec_string,
            )

            object.__setattr__(
                self,
                "pipeline",
                pipeline_spec_string(parse_pipeline_spec(str(self.pipeline))),
            )

    # -- round-trip onto the storage contract's metadata dict ----------------

    def to_metadata(self) -> dict[str, Any]:
        """The study-metadata dict this spec persists (DESIGN.md §7).

        Key-compatible with what ``cmd_study_run`` historically wrote, so
        every pre-spec study round-trips through :meth:`from_metadata`.
        """
        metadata: dict[str, Any] = {
            "site": self.sites[0],
            "sites": list(self.sites),
            "policy": self.policy,
            "aggregate": self.aggregate,
            "year": self.year,
            "n_hours": self.n_hours,
            "mean_power_mw": self.mean_power_mw,
            "n_trials": self.n_trials,
            "population": self.population,
            "seed": self.seed,
        }
        if self.shards is not None and self.shards > 1:
            metadata["shards"] = self.shards
        for key in ("ensemble", "racing", "fidelity", "pipeline"):
            value = getattr(self, key)
            if value is not None:
                metadata[key] = value
        if self.remote_slots is not None or self.lease_ttl is not None:
            # Transport envelope — informational only: slots and TTLs
            # shape scheduling, never the bred candidates, so they are
            # excluded from every resume-identity check.
            transport: dict[str, Any] = {}
            if self.remote_slots is not None:
                transport["slots"] = self.remote_slots
            if self.lease_ttl is not None:
                transport["lease_ttl_s"] = self.lease_ttl
            metadata["transport"] = transport
        return metadata

    @classmethod
    def from_metadata(
        cls,
        metadata: Mapping[str, Any],
        *,
        source: str = "study metadata",
        trials_override: "int | None" = None,
    ) -> "StudySpec":
        """Rebuild the identity a persisted study was run with.

        Fails loudly — naming every missing key — instead of defaulting:
        a guessed value silently produces a different front.  ``source``
        names the store in the error; ``trials_override`` waives the
        ``n_trials`` requirement (and takes its place), matching the
        CLI's ``study resume --trials``.  Keys it does not read are
        ignored: a store that carries the ``engine`` key older versions
        persisted resumes as if it had none (that key was never identity),
        and the ``batch`` key the drivers persist is theirs to check.
        """
        required = [
            k
            for k in RESUME_REQUIRED_KEYS
            if not (k == "n_trials" and trials_override is not None)
        ]
        missing = [k for k in required if metadata.get(k) is None]
        if missing:
            raise _missing_metadata_error(missing, source)
        sites = metadata.get("sites") or [metadata["site"]]
        n_trials = (
            trials_override
            if trials_override is not None
            else metadata["n_trials"]
        )
        return cls(
            sites=tuple(str(s) for s in sites),
            year=metadata["year"],
            n_hours=metadata["n_hours"],
            mean_power_mw=metadata["mean_power_mw"],
            policy=str(metadata["policy"]),
            aggregate=str(metadata["aggregate"]),
            n_trials=n_trials,
            population=metadata["population"],
            seed=metadata["seed"],
            ensemble=metadata.get("ensemble"),
            racing=metadata.get("racing"),
            fidelity=metadata.get("fidelity"),
            pipeline=metadata.get("pipeline"),
            shards=metadata.get("shards"),
            remote_slots=(metadata.get("transport") or {}).get("slots"),
            lease_ttl=(metadata.get("transport") or {}).get("lease_ttl_s"),
        )

    def validate_resume(
        self, persisted: Mapping[str, Any], study_name: "str | None" = None
    ) -> None:
        """Check this spec against a persisted study's metadata.

        Subsumes the historical per-driver validators: every identity
        key — scenario, objective, sampler, and driver specs — is
        compared through :func:`check_resume_identity` in one pass.
        """
        requested: dict[str, Any] = {
            "sites": ",".join(self.sites),
            "year": self.year,
            "n_hours": self.n_hours,
            "mean_power_mw": self.mean_power_mw,
            "policy": self.policy,
            "aggregate": self.aggregate,
            "population": self.population,
            "seed": self.seed,
            "ensemble": self.ensemble,
            "racing": self.racing,
            "fidelity": self.fidelity,
            "pipeline": self.pipeline,
        }
        check_resume_identity(
            study_name or self.default_name,
            persisted,
            requested,
            lenient=("sites",),
        )

    # -- derived views --------------------------------------------------------

    @property
    def default_name(self) -> str:
        """The CLI's historical default study name for this spec."""
        suffix = "-ensemble-blackbox" if self.ensemble else "-blackbox"
        return "-".join(self.sites) + suffix

    @property
    def speculate(self) -> "int | None":
        """Pipeline speculation depth, or ``None`` for the batched driver."""
        if self.pipeline is None:
            return None
        from ..blackbox.parallel import parse_pipeline_spec

        return parse_pipeline_spec(self.pipeline)

    # -- execution -------------------------------------------------------------

    def build_scenarios(self):
        """The scenario list this identity evaluates candidates against."""
        from .scenario import build_scenario

        if self.ensemble is None:
            return [
                build_scenario(
                    site,
                    year_label=self.year,
                    n_hours=self.n_hours,
                    mean_power_w=self.mean_power_mw * 1e6,
                )
                for site in self.sites
            ]
        from .ensemble import EnsembleSpec, build_ensemble

        spec = EnsembleSpec.parse(
            self.ensemble,
            sites=list(self.sites),
            n_hours=self.n_hours,
            mean_power_w=self.mean_power_mw * 1e6,
        )
        return build_ensemble(spec)

    def build_runner(self):
        """The scenario stack + runner this identity evaluates through."""
        from .dispatch import make_policy
        from .study_runner import OptimizationRunner

        scenarios = self.build_scenarios()
        return OptimizationRunner(
            scenarios,
            policy=make_policy(self.policy, scenarios),
            aggregate=self.aggregate,
            fidelity=self.fidelity,
        )

    def build_objective(self):
        """The exact params → objectives callable this identity scores with.

        Remote workers rebuild it from the coordinator's persisted
        metadata (``GET /studies/{name}/spec`` →
        :meth:`from_metadata` → this), so a leased candidate evaluates
        through the *same* scenario stack, policy, aggregate, and
        physics as a local run — the reason a remote front is
        bit-identical (DESIGN.md §13).
        """
        from .study_runner import CompositionObjective

        runner = self.build_runner()
        return CompositionObjective(
            runner.scenarios,
            space=runner.space,
            objectives=runner.objectives,
            policy=runner.policy,
            aggregate=runner.aggregate,
        )

    def execute(
        self,
        storage,
        study_name: "str | None" = None,
        *,
        workers: int = 1,
        load_if_exists: bool = False,
        executor=None,
    ):
        """Run (or resume) this study and return the ``SearchResult``.

        The one driver dispatch shared by the CLI and the service
        worker loop: builds the scenarios/runner/sampler from the spec
        and picks the pipelined or batched driver by whether
        ``pipeline`` is set.  ``storage`` is a resolved backend or any
        URL spec the registry accepts.

        ``workers`` sizes the pipelined driver's process pool.  It must
        be >= 1, and > 1 only with ``pipeline`` or an ``executor``: the
        batched driver evaluates in-process (DESIGN.md §4).

        ``executor`` is the remote seam: pass an executor *object* (a
        :class:`~repro.service.lease.LeasedWorkQueue`) and the
        pipelined driver streams candidates to it — up to
        ``remote_slots`` in flight — instead of a local pool.
        """
        from ..blackbox.samplers.nsga2 import NSGA2Sampler

        if workers < 1:
            raise OptimizationError(f"workers must be >= 1, got {workers}")
        if workers > 1 and self.pipeline is None and executor is None:
            raise OptimizationError(
                f"workers={workers} needs --pipeline: the batched driver "
                "evaluates each generation in-process"
            )
        runner = self.build_runner()
        sampler = NSGA2Sampler(population_size=self.population, seed=self.seed)
        name = study_name or self.default_name
        metadata = self.to_metadata()
        if executor is not None:
            return runner.run_pipelined(
                n_trials=self.n_trials,
                sampler=sampler,
                storage=storage,
                study_name=name,
                load_if_exists=load_if_exists,
                metadata=metadata,
                racing=self.racing,
                workers=self.remote_slots or workers,
                executor=executor,
                speculate=self.speculate or 0,
            )
        if self.pipeline is not None:
            return runner.run_pipelined(
                n_trials=self.n_trials,
                sampler=sampler,
                storage=storage,
                study_name=name,
                load_if_exists=load_if_exists,
                metadata=metadata,
                racing=self.racing,
                workers=workers,
                executor="process" if workers > 1 else "thread",
                speculate=self.speculate or 0,
            )
        return runner.run_blackbox(
            n_trials=self.n_trials,
            sampler=sampler,
            storage=storage,
            study_name=name,
            load_if_exists=load_if_exists,
            metadata=metadata,
            racing=self.racing,
        )

    def replaced(self, **changes: Any) -> "StudySpec":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)
