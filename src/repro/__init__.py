"""repro — reproduction of "Optimizing Microgrid Composition for
Sustainable Data Centers" (Irion, Wiesner, Bader & Kao, SC Workshops '25).

The package rebuilds the paper's full stack from scratch:

* :mod:`repro.cosim` — a Vessim-style computing/energy co-simulator on a
  mosaik-like discrete-event kernel;
* :mod:`repro.sam` — NREL SAM-style renewable models (PVWatts solar,
  Windpower wind) and the C/L/C lithium-ion battery model;
* :mod:`repro.data` — deterministic synthetic substitutes for NSRDB,
  the WIND Toolkit, the Perlmutter power trace, and Electricity Maps
  carbon intensity (see DESIGN.md for the substitution rationale);
* :mod:`repro.blackbox` — an Optuna-style black-box optimizer with an
  NSGA-II multi-objective sampler, journaled/resumable study storage
  (DESIGN.md §3) and process-parallel trial execution (DESIGN.md §4);
* :mod:`repro.confsys` — a Hydra-style YAML config + sweep system;
* :mod:`repro.core` — the paper's contribution: microgrid-composition
  optimization trading off embodied vs operational carbon;
* :mod:`repro.analysis` — the paper's tables and figures as data.

Quickstart::

    from repro import build_scenario, run_exhaustive_search, paper_candidates

    scenario = build_scenario("berkeley")
    result = run_exhaustive_search(scenario)
    for row in (c.table_row() for c in paper_candidates(result.evaluated)):
        print(row)
"""

from .core import (
    BatchEvaluator,
    CompositionEvaluator,
    EnsembleSpec,
    EvaluatedComposition,
    MicrogridComposition,
    OptimizationRunner,
    PAPER_SPACE,
    ParameterSpace,
    RobustEvaluatedComposition,
    Scenario,
    SimulationMetrics,
    VectorizedPolicy,
    build_ensemble,
    build_scenario,
    evaluate_across_scenarios,
    evaluate_ensemble,
    make_policy,
    embodied_carbon_tonnes,
    greedy_diversity_candidates,
    kmeans_candidates,
    paper_candidates,
    pareto_front,
    project_emissions,
    run_blackbox_search,
    run_exhaustive_search,
    threshold_candidates,
)
from .exceptions import ReproError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "MicrogridComposition",
    "ParameterSpace",
    "PAPER_SPACE",
    "Scenario",
    "build_scenario",
    "SimulationMetrics",
    "EvaluatedComposition",
    "RobustEvaluatedComposition",
    "BatchEvaluator",
    "CompositionEvaluator",
    "VectorizedPolicy",
    "EnsembleSpec",
    "build_ensemble",
    "evaluate_across_scenarios",
    "evaluate_ensemble",
    "make_policy",
    "OptimizationRunner",
    "run_exhaustive_search",
    "run_blackbox_search",
    "pareto_front",
    "paper_candidates",
    "threshold_candidates",
    "kmeans_candidates",
    "greedy_diversity_candidates",
    "project_emissions",
    "embodied_carbon_tonnes",
]
