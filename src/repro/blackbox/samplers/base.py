"""Sampler interface.

Samplers speak two protocols over the same drawing logic:

* **define-by-run** (``sample``): asked for one parameter at a time as
  the objective suggests them; implementations can stash a genome in the
  trial's ``system_attrs`` on the first suggestion and serve subsequent
  parameters from it (how :class:`~repro.blackbox.samplers.nsga2.NSGA2Sampler`
  does crossover over the full search space).
* **ask/tell** (``ask``/``tell``): given a declared search space, plan a
  complete candidate up front and observe finished trials explicitly —
  the protocol the parallel drivers (and any future remote workers)
  stream candidates through (DESIGN.md §10).  Both protocols consume the
  sampler's RNG identically, so for a fixed history ``ask`` returns
  exactly the params the define-by-run loop would have suggested.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from ...rng import seed_for
from ..distributions import Distribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..study import Study
    from ..trial import FrozenTrial


class Sampler(ABC):
    """Strategy for proposing parameter values.

    Samplers own one RNG stream (``self.rng``).  By default it is a
    single sequential stream, so results depend on the exact trial
    history.  Setting :attr:`per_trial_seeding` switches to
    deterministic per-trial streams derived via :func:`repro.rng.seed_for`
    from ``(sampler, seed, trial number)`` — then a resumed study draws
    exactly the values an uninterrupted run would have drawn, which is
    what makes storage-backed resume (DESIGN.md §3) and parallel
    execution (DESIGN.md §4) reproducible.  The storage-aware drivers
    (``PipelinedDispatcher``, ``OptimizationRunner.run_blackbox`` with a
    storage) enable it automatically.
    """

    def __init__(self, seed: int | None = None) -> None:
        if seed is None:
            seed = seed_for("sampler", type(self).__name__)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: when True, ``begin_trial`` rebinds ``self.rng`` per trial
        self.per_trial_seeding = False
        #: ``(COMPLETE trials, history)`` of the last ``completed_history`` call
        self._history_memo: "tuple[list[FrozenTrial], Any] | None" = None

    def begin_trial(self, trial_number: int) -> None:
        """Hook invoked when a trial's first parameter is suggested.

        Under :attr:`per_trial_seeding` this rebinds ``self.rng`` to the
        trial's own deterministic stream; otherwise it is a no-op (the
        historical single-stream behaviour).
        """
        if self.per_trial_seeding:
            self.rng = np.random.default_rng(
                seed_for("sampler", type(self).__name__, self.seed, int(trial_number))
            )

    @abstractmethod
    def sample(
        self,
        study: "Study",
        trial: "FrozenTrial",
        name: str,
        distribution: Distribution,
    ) -> Any:
        """Value for parameter ``name`` of ``trial``."""

    @abstractmethod
    def ask(
        self,
        study: "Study",
        trial_number: int,
        space: dict[str, Distribution],
    ) -> dict[str, Any]:
        """Plan a complete candidate for trial ``trial_number``.

        Returns a value for every parameter in ``space`` (in declaration
        order), drawing from this sampler's RNG exactly like the
        define-by-run path does, so the two protocols are bit-identical
        for a fixed (seed, trial number, completed history).
        """

    def tell(self, study: "Study", trial: "FrozenTrial") -> None:
        """Observe a finished trial (ask/tell protocol).

        Default delegates to the historical ``on_trial_complete`` hook,
        so subclasses may override either.
        """
        self.on_trial_complete(study, trial)

    def on_trial_complete(self, study: "Study", trial: "FrozenTrial") -> None:
        """Hook invoked after a trial reaches a terminal state."""

    def completed_history(
        self, study: "Study"
    ) -> "tuple[list[FrozenTrial], dict[str, Distribution]]":
        """Completed trials (with values) and the observed search space.

        The observed space holds the parameters present in *all*
        COMPLETE trials with identical domains (Optuna-style) — the
        joint space the genetic samplers evolve over.

        Both are computed once per completed prefix (DESIGN.md §10):
        the result is memoized on the identity of the COMPLETE trial
        objects, so every ask that breeds from the same prefix — a whole
        generation of the batched driver, or the pipelined driver's
        fresh history views of it — gets the same tuple back.  A told
        trial never changes in place (``Study.tell`` refuses a finished
        trial), so a hit is always exact; a later completion, a dropped
        batch, a reloaded study or another study misses.
        """
        from ..trial import TrialState

        complete = [t for t in study.trials if t.state == TrialState.COMPLETE]
        memo = self._history_memo
        if (
            memo is not None
            and len(memo[0]) == len(complete)
            and all(map(operator.is_, memo[0], complete))
        ):
            return memo[1]
        space: dict[str, Distribution] = dict(complete[0].distributions) if complete else {}
        for t in complete[1:]:
            for name in list(space):
                if t.distributions.get(name) != space[name]:
                    del space[name]
        history = ([t for t in complete if t.values is not None], space)
        self._history_memo = (complete, history)
        return history
