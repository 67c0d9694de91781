"""Black-box optimization framework (Optuna stand-in).

The paper uses Optuna for multi-objective black-box search over microgrid
compositions (NSGA-II, 350 trials, population 50).  This package
reimplements the subset of Optuna's API the paper exercises:

* define-by-run parameter suggestion (``trial.suggest_int`` etc.),
* single- and multi-objective studies with ask/tell and ``optimize``,
* samplers: Random, Grid (the exhaustive baseline), **NSGA-II**
  (non-dominated sorting genetic algorithm — the paper's search engine),
  and a simplified TPE for the sampler-ablation bench,
* Pareto utilities (non-dominated sorting, crowding distance,
  hypervolume) shared with :mod:`repro.core.pareto`,
* **study persistence** (:mod:`repro.blackbox.storage`, DESIGN.md §3,
  §7) — ``create_study(storage=..., load_if_exists=True)`` resumes a
  killed study from a pluggable backend (in-memory, JSONL journal, or
  SQLite — any spec the URL registry resolves, e.g.
  ``sqlite:///study.db``), with sharded stores and offline merge for
  multi-worker runs,
* **parallel, generation-free dispatch** (:mod:`repro.blackbox.parallel`,
  DESIGN.md §4, §10) — :class:`PipelinedDispatcher` streams candidates
  to worker slots as they free, with deterministic per-trial RNG
  seeding, optionally breeding the next generation's first candidates
  speculatively.

Storage-aware APIs: ``create_study`` / ``Study.ask`` / ``Study.tell``
(record through a backend), ``PipelinedDispatcher`` (records trials as
they complete).  Samplers and distributions are pure
strategies and never touch storage themselves.
"""

from .distributions import (
    CategoricalDistribution,
    Distribution,
    FloatDistribution,
    IntDistribution,
)
from .multiobjective import (
    crowding_distance,
    dominates,
    hypervolume_2d,
    non_dominated_sort,
    pareto_front_indices,
)
from .samplers import GridSampler, NSGA2Sampler, RandomSampler, ScalarizationSampler, TPESampler
from .study import Study, StudyDirection, create_study
from .trial import FrozenTrial, Trial, TrialState
from .storage import (
    InMemoryStorage,
    JournalStorage,
    ShardedStorage,
    SQLiteStorage,
    StoredStudy,
    StudyStorage,
    merge_stores,
    storage_from_url,
)
from .parallel import PipelinedDispatcher

__all__ = [
    "StudyStorage",
    "StoredStudy",
    "InMemoryStorage",
    "JournalStorage",
    "SQLiteStorage",
    "ShardedStorage",
    "merge_stores",
    "storage_from_url",
    "PipelinedDispatcher",
    "Distribution",
    "FloatDistribution",
    "IntDistribution",
    "CategoricalDistribution",
    "dominates",
    "non_dominated_sort",
    "pareto_front_indices",
    "crowding_distance",
    "hypervolume_2d",
    "RandomSampler",
    "GridSampler",
    "NSGA2Sampler",
    "ScalarizationSampler",
    "TPESampler",
    "Study",
    "StudyDirection",
    "create_study",
    "Trial",
    "FrozenTrial",
    "TrialState",
]
