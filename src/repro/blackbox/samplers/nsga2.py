"""NSGA-II sampler — the paper's search engine (§4.4).

Implements the elitist non-dominated-sorting genetic algorithm of Deb et
al. (2002) in the define-by-run setting, following the same construction
as Optuna's ``NSGAIISampler``:

* the first ``population_size`` trials are random (generation 0);
* afterwards, the *parent population* is selected from all completed
  trials by non-dominated rank then crowding distance;
* each new trial's genome is produced by binary-tournament parent
  selection, uniform crossover, and per-parameter mutation;
* the genome is built jointly over the search space observed so far and
  stashed in the trial's system attrs; parameters outside the observed
  space fall back to random sampling.

Selection draws no randomness and depends only on the completed history
a trial breeds from (its parent epoch, DESIGN.md §10), so the observed
space and the ranked parent population are computed once per completed
prefix and memoized on the identity of its trials; each ask then only
runs the two tournaments, crossover and mutation, whose RNG draws are
those of an unmemoized sampler.

The paper runs 350 trials with population 50 and recovers ≈80 % of the
exhaustive Pareto front — the configuration
``NSGA2Sampler(population_size=50)`` with ``n_trials=350`` reproduced by
``benchmarks/bench_search_performance.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ...exceptions import OptimizationError
from ..distributions import Distribution
from ..multiobjective import crowding_distance, non_dominated_sort
from .base import Sampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..study import Study
    from ..trial import FrozenTrial

_GENOME_KEY = "nsga2:genome"


class NSGA2Sampler(Sampler):
    """Elitist multi-objective genetic sampler."""

    def __init__(
        self,
        population_size: int = 50,
        mutation_prob: float | None = None,
        crossover_prob: float = 0.9,
        swap_prob: float = 0.5,
        seed: int | None = None,
    ) -> None:
        super().__init__(seed)
        if population_size < 2:
            raise OptimizationError("population size must be >= 2")
        if not 0.0 <= crossover_prob <= 1.0 or not 0.0 < swap_prob <= 1.0:
            raise OptimizationError("probabilities must lie in [0, 1]")
        self.population_size = population_size
        self.mutation_prob = mutation_prob  # default 1/len(space), set lazily
        self.crossover_prob = crossover_prob
        self.swap_prob = swap_prob
        #: ``(history, (space, ranked))`` of the last :meth:`_parent_population`
        self._ranked_memo: "tuple[Any, Any] | None" = None

    # -- population machinery -------------------------------------------------

    def _select_parents(
        self, study: "Study", completed: list["FrozenTrial"]
    ) -> list["FrozenTrial"]:
        """Environmental selection: rank + crowding over all completed."""
        values = study.minimized_values([t.values for t in completed])
        fronts = non_dominated_sort(values)
        parents: list[FrozenTrial] = []
        for front in fronts:
            if len(parents) + len(front) <= self.population_size:
                parents.extend(completed[i] for i in front)
            else:
                remaining = self.population_size - len(parents)
                crowd = crowding_distance(values[front])
                order = np.argsort(-crowd, kind="stable")[:remaining]
                parents.extend(completed[front[i]] for i in order)
                break
        return parents

    def _parent_population(
        self, study: "Study"
    ) -> "tuple[dict[str, Distribution], list[tuple[FrozenTrial, int, float]] | None]":
        """``(space, ranked)``: the observed space and the parents as
        ``(trial, rank, crowding)`` tuples, ``ranked`` being ``None`` in
        generation 0.  Draws no randomness, so it is memoized beside
        :meth:`~repro.blackbox.samplers.base.Sampler.completed_history`:
        one selection per completed prefix (DESIGN.md §10)."""
        history = self.completed_history(study)
        memo = self._ranked_memo
        if memo is not None and memo[0] is history:
            return memo[1]
        completed, space = history
        ranked = None
        if space and len(completed) >= self.population_size:
            parents = self._select_parents(study, completed)
            values = study.minimized_values([t.values for t in parents])
            fronts = non_dominated_sort(values)
            rank_of = np.empty(len(parents), dtype=np.int64)
            crowd_of = np.empty(len(parents))
            for rank, front in enumerate(fronts):
                rank_of[front] = rank
                crowd_of[front] = crowding_distance(values[front])
            ranked = [
                (parents[i], int(rank_of[i]), float(crowd_of[i]))
                for i in range(len(parents))
            ]
        self._ranked_memo = (history, (space, ranked))
        return self._ranked_memo[1]

    def _tournament(self, ranked: list[tuple["FrozenTrial", int, float]]) -> "FrozenTrial":
        """Binary tournament on (rank, -crowding)."""
        i, j = self.rng.integers(0, len(ranked), size=2)
        a, b = ranked[int(i)], ranked[int(j)]
        if (a[1], -a[2]) <= (b[1], -b[2]):
            return a[0]
        return b[0]

    def _make_genome(self, study: "Study") -> dict[str, Any]:
        space, ranked = self._parent_population(study)
        if ranked is None:
            return {}  # generation 0: every parameter random

        p1 = self._tournament(ranked)
        p2 = self._tournament(ranked)

        mutation_prob = (
            self.mutation_prob if self.mutation_prob is not None else 1.0 / max(len(space), 1)
        )

        genome: dict[str, Any] = {}
        do_crossover = self.rng.random() < self.crossover_prob
        for name, dist in space.items():
            if name in p1.params and name in p2.params:
                if do_crossover and self.rng.random() < self.swap_prob:
                    value = p2.params[name]
                else:
                    value = p1.params[name]
            elif name in p1.params:
                value = p1.params[name]
            else:
                value = dist.sample(self.rng)
            if self.rng.random() < mutation_prob:
                value = dist.mutate(value, self.rng)
            genome[name] = value
        return genome

    # -- Sampler interface -----------------------------------------------------

    def ask(
        self,
        study: "Study",
        trial_number: int,
        space: dict[str, Distribution],
    ) -> dict[str, Any]:
        """Breed one full candidate (ask/tell protocol, DESIGN.md §10).

        Same RNG consumption as the define-by-run path: one genome is
        bred jointly from the completed history, then each declared
        parameter takes its genome value or a fresh random draw.
        """
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
