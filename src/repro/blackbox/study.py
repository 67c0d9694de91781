"""Studies: the optimization driver (Optuna's ``Study`` equivalent).

Supports single- and multi-objective optimization with the ask/tell
protocol and the higher-level ``optimize`` loop, trial bookkeeping,
Pareto-front extraction (``best_trials``), and pluggable samplers.

Studies are **storage-aware** (DESIGN.md §3): pass a
:class:`~repro.blackbox.storage.StudyStorage` — or a storage spec
string such as ``sqlite:///study.db`` resolved through the URL registry
(DESIGN.md §7) — to :func:`create_study` and every ``ask``/``tell`` is
recorded through it; with ``load_if_exists=True`` a previously
persisted study is reloaded and continues where it stopped
(Optuna-style resume).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..exceptions import OptimizationError, TrialPruned
from .multiobjective import pareto_front_indices
from .samplers.base import Sampler
from .samplers.random import RandomSampler
from .trial import FrozenTrial, Trial, TrialState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage import StudyStorage

ObjectiveFn = Callable[[Trial], "float | Sequence[float]"]


class StudyDirection(enum.Enum):
    """Optimization direction of one objective."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def is_minimize(self) -> bool:
        return self is StudyDirection.MINIMIZE

    @classmethod
    def parse(cls, value: "str | StudyDirection") -> "StudyDirection":
        if isinstance(value, StudyDirection):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise OptimizationError(
                f"unknown direction '{value}' (use 'minimize' or 'maximize')"
            ) from None


class Study:
    """A collection of trials optimizing one or more objectives."""

    def __init__(
        self,
        directions: Sequence["str | StudyDirection"] = ("minimize",),
        sampler: Sampler | None = None,
        study_name: str = "study",
        storage: "StudyStorage | str | None" = None,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        if not directions:
            raise OptimizationError("need at least one direction")
        from .storage import resolve_storage

        self.directions = [StudyDirection.parse(d) for d in directions]
        self.sampler = sampler or RandomSampler()
        self.study_name = study_name
        #: persistence backend; ``None`` keeps the study purely in-process
        #: (spec strings resolve through the URL registry, DESIGN.md §7)
        self.storage = resolve_storage(storage)
        #: free-form study metadata, persisted with the study record
        self.metadata: dict[str, Any] = dict(metadata or {})
        self.trials: list[FrozenTrial] = []

    # -- properties -----------------------------------------------------------

    @property
    def n_objectives(self) -> int:
        return len(self.directions)

    @property
    def direction(self) -> StudyDirection:
        if self.n_objectives != 1:
            raise OptimizationError("multi-objective study; use .directions")
        return self.directions[0]

    # -- ask / tell -------------------------------------------------------------

    def ask(self) -> Trial:
        """Create a new running trial (recorded in storage, if any)."""
        frozen = FrozenTrial(number=len(self.trials))
        self.trials.append(frozen)
        if self.storage is not None:
            self.storage.record_trial_start(self.study_name, frozen)
        return Trial(self, frozen)

    def tell(
        self,
        trial: "Trial | int",
        values: "float | Sequence[float] | None" = None,
        state: TrialState = TrialState.COMPLETE,
    ) -> FrozenTrial:
        """Finish a trial with its objective value(s) or a terminal state.

        Storage-aware: the finished trial's full snapshot is recorded
        through the study's storage backend (if any) before the sampler
        is notified.
        """
        number = trial if isinstance(trial, int) else trial.number
        if not 0 <= number < len(self.trials):
            raise OptimizationError(f"unknown trial number {number}")
        frozen = self.trials[number]
        if frozen.state.is_finished():
            raise OptimizationError(f"trial {number} already finished ({frozen.state})")

        if state == TrialState.COMPLETE:
            if values is None:
                raise OptimizationError("COMPLETE trials need objective values")
            vals = (values,) if np.isscalar(values) else tuple(values)
            if len(vals) != self.n_objectives:
                raise OptimizationError(
                    f"objective returned {len(vals)} values, study has "
                    f"{self.n_objectives} directions"
                )
            if not all(np.isfinite(v) for v in vals):
                raise OptimizationError(f"non-finite objective values: {vals}")
            frozen.values = tuple(float(v) for v in vals)
        frozen.state = state
        if self.storage is not None:
            self.storage.record_trial_finish(self.study_name, frozen)
        self.sampler.tell(self, frozen)
        return frozen

    def drop_trailing_partial_batch(self, batch_size: int) -> int:
        """Discard trials beyond the last full ``batch_size`` boundary.

        Resume alignment for generational drivers (DESIGN.md §3): a
        reloaded study interrupted mid-generation must not let the
        sampler breed from a history an uninterrupted run never sees.
        Returns the number of trials kept; the dropped numbers are
        re-asked by the caller (the journal's last-write-wins replay
        keeps re-told trials consistent).
        """
        if batch_size <= 0:
            raise OptimizationError("batch_size must be positive")
        keep = (len(self.trials) // batch_size) * batch_size
        del self.trials[keep:]
        return keep

    # -- optimize loop ------------------------------------------------------------

    def optimize(
        self,
        objective: ObjectiveFn,
        n_trials: int,
        catch: tuple[type[Exception], ...] = (),
        callbacks: Sequence[Callable[["Study", FrozenTrial], None]] = (),
    ) -> None:
        """Run the classic optimize loop for ``n_trials`` trials."""
        if n_trials <= 0:
            raise OptimizationError(f"n_trials must be positive, got {n_trials}")
        for _ in range(n_trials):
            trial = self.ask()
            try:
                values = objective(trial)
            except TrialPruned:
                frozen = self.tell(trial, state=TrialState.PRUNED)
            except catch:
                frozen = self.tell(trial, state=TrialState.FAILED)
            else:
                frozen = self.tell(trial, values=values)
            for callback in callbacks:
                callback(self, frozen)

    # -- results --------------------------------------------------------------------

    def minimized_values(self, values_list: Sequence[Sequence[float]]) -> np.ndarray:
        """Objective matrix with maximize-directions negated (→ minimize)."""
        arr = np.asarray(values_list, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        signs = np.array(
            [1.0 if d.is_minimize() else -1.0 for d in self.directions]
        )
        return arr * signs

    def completed_trials(self) -> list[FrozenTrial]:
        return [t for t in self.trials if t.state == TrialState.COMPLETE]

    @property
    def best_trial(self) -> FrozenTrial:
        """Best completed trial (single-objective only)."""
        if self.n_objectives != 1:
            raise OptimizationError("multi-objective study; use .best_trials")
        completed = self.completed_trials()
        if not completed:
            raise OptimizationError("no completed trials")
        sign = 1.0 if self.directions[0].is_minimize() else -1.0
        return min(completed, key=lambda t: sign * t.values[0])

    @property
    def best_value(self) -> float:
        return self.best_trial.values[0]

    @property
    def best_params(self) -> dict[str, Any]:
        return dict(self.best_trial.params)

    @property
    def best_trials(self) -> list[FrozenTrial]:
        """Pareto-optimal completed trials (multi-objective result)."""
        completed = self.completed_trials()
        if not completed:
            return []
        values = self.minimized_values([t.values for t in completed])
        idx = pareto_front_indices(values)
        return [completed[i] for i in idx]


def create_study(
    directions: "Sequence[str | StudyDirection] | None" = None,
    direction: "str | StudyDirection | None" = None,
    sampler: Sampler | None = None,
    study_name: str = "study",
    storage: "StudyStorage | str | None" = None,
    load_if_exists: bool = False,
    metadata: dict[str, Any] | None = None,
) -> Study:
    """Factory mirroring ``optuna.create_study`` (storage-aware).

    ``storage`` may be a backend instance or a spec string
    (``journal:///p.jsonl``, ``sqlite:///p.db``, ``memory://``, or a
    bare path) resolved through the URL registry (DESIGN.md §7).
    With ``storage`` set, the study is registered in the backend and all
    subsequent ``ask``/``tell`` calls are recorded through it.  If the
    name already exists in the backend this raises — unless
    ``load_if_exists=True``, in which case the persisted finished trials
    are loaded back (Optuna-style resume).  Trials that were still
    RUNNING when the previous process died carry no parameters and are
    discarded; remaining trials are renumbered consecutively, so the
    resumed study re-asks the lost numbers (the journal's
    last-write-wins replay keeps this consistent, DESIGN.md §3).
    """
    if direction is not None and directions is not None:
        raise OptimizationError("pass either direction or directions, not both")
    if direction is not None:
        directions = [direction]
    if directions is None:
        directions = ["minimize"]
    study = Study(
        directions=directions,
        sampler=sampler,
        study_name=study_name,
        storage=storage,
        metadata=metadata,
    )
    storage = study.storage  # spec strings were resolved by Study.__init__
    if storage is None:
        return study

    direction_values = [d.value for d in study.directions]
    existing = storage.load_study(study_name)
    if existing is None:
        storage.create_study(study_name, direction_values, study.metadata)
        return study
    if not load_if_exists:
        raise OptimizationError(
            f"study '{study_name}' already exists in storage "
            "(pass load_if_exists=True to resume)"
        )
    if existing.directions != direction_values:
        raise OptimizationError(
            f"study '{study_name}' was persisted with directions "
            f"{existing.directions}, requested {direction_values}"
        )
    finished = existing.finished_trials()
    max_old = max((t.number for t in existing.trials), default=-1)
    renumbered = False
    for i, trial in enumerate(finished):
        if trial.number != i:
            # Compact numbering: list index == trial number.  The gap
            # means an unfinished trial sat *between* finished ones, so
            # the compacted numbers must be written back — otherwise the
            # surviving journal records (old numbers) collide with the
            # numbers the resumed study re-asks and a later resume would
            # drop or duplicate trials.
            trial.number = i
            renumbered = True
            storage.record_trial_finish(study_name, trial)
        study.trials.append(trial)
    if renumbered:
        # Tombstone the now-orphaned old numbers: a bare start record
        # makes their stale finish records replay as RUNNING, which the
        # next load discards.  (The contiguous case — unfinished trials
        # only at the tail, as the batch drivers produce — needs none of
        # this: numbers are unchanged and stale tails already end in a
        # start record.)
        for n in range(len(finished), max_old + 1):
            storage.record_trial_start(study_name, FrozenTrial(number=n))
    study.metadata = dict(existing.metadata)
    return study
