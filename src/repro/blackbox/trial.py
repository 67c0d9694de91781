"""Trials: one evaluation of the objective at one parameter assignment.

Mirrors ``optuna.trial``: a live :class:`Trial` handed to the objective
supports define-by-run parameter suggestion and intermediate reporting; a
:class:`FrozenTrial` is the immutable record stored by the study.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Sequence

from ..exceptions import OptimizationError, TrialPruned
from .distributions import (
    CategoricalDistribution,
    Distribution,
    FloatDistribution,
    IntDistribution,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .study import Study

#: system-attr key recording how many ensemble members a raced trial saw
#: (DESIGN.md §8) — shared by every racing driver and the CLI histogram
RACING_RUNG_ATTR = "racing:rung"

#: system-attr key recording the completed-history prefix length a
#: pipelined trial was bred from (its speculation *epoch*, DESIGN.md §10);
#: persisted through every storage backend and validated on resume
PARENT_EPOCH_ATTR = "nsga2:parent_epoch"

#: system-attr key recording the ask order of a pipelined trial — equal
#: to the trial number when written; a resume whose loaded numbering has
#: shifted (compaction renumbers past gaps) is detected by the mismatch
PIPELINE_ASK_ATTR = "pipeline:ask_number"


class TrialState(enum.Enum):
    """Lifecycle state of a trial."""

    RUNNING = "running"
    COMPLETE = "complete"
    PRUNED = "pruned"
    FAILED = "failed"

    def is_finished(self) -> bool:
        return self is not TrialState.RUNNING


@dataclass
class FrozenTrial:
    """Immutable record of a finished (or running) trial."""

    number: int
    state: TrialState = TrialState.RUNNING
    params: dict[str, Any] = field(default_factory=dict)
    distributions: dict[str, Distribution] = field(default_factory=dict)
    values: tuple[float, ...] | None = None
    intermediate: dict[int, float] = field(default_factory=dict)
    user_attrs: dict[str, Any] = field(default_factory=dict)
    system_attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def value(self) -> float | None:
        """Single-objective value (raises for multi-objective trials)."""
        if self.values is None:
            return None
        if len(self.values) != 1:
            raise OptimizationError(
                f"trial {self.number} is multi-objective; use .values"
            )
        return self.values[0]


class Trial:
    """Live trial handed to the objective function."""

    def __init__(self, study: "Study", frozen: FrozenTrial) -> None:
        self._study = study
        self._frozen = frozen

    @property
    def number(self) -> int:
        return self._frozen.number

    @property
    def params(self) -> dict[str, Any]:
        return dict(self._frozen.params)

    # -- suggestion API -----------------------------------------------------

    def _suggest(self, name: str, distribution: Distribution) -> Any:
        frozen = self._frozen
        if name in frozen.params:
            existing_dist = frozen.distributions.get(name)
            if existing_dist is not None and existing_dist != distribution:
                raise OptimizationError(
                    f"parameter '{name}' re-suggested with a different domain"
                )
            return frozen.params[name]
        if not frozen.params:
            # First suggestion of this trial: give the sampler its
            # per-trial RNG stream (no-op unless per_trial_seeding).
            self._study.sampler.begin_trial(frozen.number)
        value = self._study.sampler.sample(self._study, frozen, name, distribution)
        if not distribution.contains(value):
            raise OptimizationError(
                f"sampler produced out-of-domain value {value!r} for '{name}'"
            )
        frozen.params[name] = value
        frozen.distributions[name] = distribution
        return value

    def suggest_float(
        self,
        name: str,
        low: float,
        high: float,
        *,
        step: float | None = None,
        log: bool = False,
    ) -> float:
        return float(self._suggest(name, FloatDistribution(low, high, step=step, log=log)))

    def suggest_int(self, name: str, low: int, high: int, *, step: int = 1) -> int:
        return int(self._suggest(name, IntDistribution(low, high, step=step)))

    def suggest_categorical(self, name: str, choices: Sequence[Hashable]) -> Hashable:
        return self._suggest(name, CategoricalDistribution(choices))

    # -- intermediate reporting / pruning -------------------------------------

    def report(self, value: float, step: int) -> None:
        """Report an intermediate objective value at ``step``."""
        if step < 0:
            raise OptimizationError("step must be non-negative")
        self._frozen.intermediate[int(step)] = float(value)

    def prune(self) -> None:
        """Unconditionally abandon this trial."""
        raise TrialPruned(f"trial {self.number} pruned")

    # -- attributes -----------------------------------------------------------

    def set_user_attr(self, key: str, value: Any) -> None:
        self._frozen.user_attrs[key] = value

    def set_system_attr(self, key: str, value: Any) -> None:
        """Framework-internal attribute (e.g. the racing rung reached)."""
        self._frozen.system_attrs[key] = value

    @property
    def user_attrs(self) -> dict[str, Any]:
        return dict(self._frozen.user_attrs)
