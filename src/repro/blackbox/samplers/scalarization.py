"""Random-weight scalarization sampler (multi-objective baseline).

A classic alternative to dominance-based GAs: each new trial draws a
random weight vector w on the simplex, scores past trials by the
(normalized) **augmented Chebyshev** scalarization
``max_i w_i·f_i + ρ·Σ w_i·f_i``, and mutates the best-scoring past
candidate (hill-climbing under the sampled preference direction).
Different weight draws chase different regions of the Pareto front, so
over many trials the front fills in — without any non-dominated sorting.

Included as an extra baseline for the sampler-ablation bench.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ...exceptions import OptimizationError
from ..distributions import Distribution
from .base import Sampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..study import Study
    from ..trial import FrozenTrial

_GENOME_KEY = "chebyshev:genome"


class ScalarizationSampler(Sampler):
    """Augmented-Chebyshev random-weight hill climber."""

    def __init__(
        self,
        n_startup_trials: int = 20,
        mutation_prob: float = 0.4,
        rho: float = 0.05,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed)
        if n_startup_trials < 1:
            raise OptimizationError("need at least one startup trial")
        if not 0.0 < mutation_prob <= 1.0:
            raise OptimizationError("mutation_prob must be in (0, 1]")
        self.n_startup_trials = n_startup_trials
        self.mutation_prob = mutation_prob
        self.rho = rho

    def _make_genome(self, study: "Study") -> dict[str, Any]:
        completed, space = self.completed_history(study)
        if len(completed) < self.n_startup_trials or not space:
            return {}

        values = study.minimized_values([t.values for t in completed])
        # Normalize objectives to [0, 1] so weights are comparable.
        lo = values.min(axis=0)
        span = values.max(axis=0) - lo
        span[span <= 0] = 1.0
        normalized = (values - lo) / span

        weights = self.rng.dirichlet(np.ones(values.shape[1]))
        weighted = normalized * weights
        scores = weighted.max(axis=1) + self.rho * weighted.sum(axis=1)
        parent = completed[int(np.argmin(scores))]

        genome: dict[str, Any] = {}
        for name, dist in space.items():
            value = parent.params.get(name)
            if value is None or not dist.contains(value):
                value = dist.sample(self.rng)
            elif self.rng.random() < self.mutation_prob:
                value = dist.mutate(value, self.rng)
            genome[name] = value
        return genome

    def ask(
        self,
        study: "Study",
        trial_number: int,
        space: dict[str, Distribution],
    ) -> dict[str, Any]:
        """Hill-climb one full candidate (ask/tell, DESIGN.md §10) —
        same RNG consumption as the define-by-run path."""
        self.begin_trial(int(trial_number))
        genome = self._make_genome(study)
        params: dict[str, Any] = {}
        for name, dist in space.items():
            value = genome.get(name)
            if value is None or not dist.contains(value):
                value = dist.sample(self.rng)
            params[name] = value
        return params

    def sample(
        self,
        study: "Study",
        trial: "FrozenTrial",
        name: str,
        distribution: Distribution,
    ) -> Any:
        if _GENOME_KEY not in trial.system_attrs:
            trial.system_attrs[_GENOME_KEY] = self._make_genome(study)
        genome = trial.system_attrs[_GENOME_KEY]
        value = genome.get(name)
        if value is not None and distribution.contains(value):
            return value
        return distribution.sample(self.rng)
