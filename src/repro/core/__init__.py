"""The paper's primary contribution: the microgrid-composition
optimization framework.

Pipeline (Figure 1 of the paper):

1. a :class:`~repro.core.scenario.Scenario` bundles a site's resource
   year, the data-center workload, and the regional carbon intensity;
2. a :class:`~repro.core.parameterspace.ParameterSpace` spans candidate
   :class:`~repro.core.composition.MicrogridComposition`s (wind turbines ×
   solar capacity × battery units);
3. each candidate is evaluated — through the faithful co-simulation path
   (:mod:`repro.core.evaluator`) or the vectorized batch path
   (:mod:`repro.core.fastsim`), whose dispatch decisions come from the
   pluggable policy engine (:mod:`repro.core.dispatch`, DESIGN.md §5) —
   yielding :class:`~repro.core.metrics.SimulationMetrics`;
4. multi-objective search (:mod:`repro.core.study_runner`) produces a
   Pareto front over (embodied, operational) emissions;
5. candidate extraction (:mod:`repro.core.candidates`) and long-term
   projection (:mod:`repro.core.projection`) support the decision-making
   analyses of §4.
"""

from .composition import MicrogridComposition
from .parameterspace import PAPER_SPACE, ParameterSpace
from .embodied import embodied_carbon_kg, embodied_carbon_tonnes
from .metrics import (
    EvaluatedComposition,
    RobustEvaluatedComposition,
    SimulationMetrics,
    aggregate_values,
    parse_aggregate,
    robust_evaluations,
)
from .scenario import Scenario, build_scenario, unit_profiles
from .evaluator import CompositionEvaluator
from .dispatch import (
    POLICY_NAMES,
    CarbonAwareDispatch,
    DefaultDispatch,
    IslandedDispatch,
    TimeWindowDispatch,
    TouArbitrageDispatch,
    VectorizedPolicy,
    make_policy,
)
from .fastsim import BatchEvaluator, evaluate_across_scenarios
from .pareto import pareto_front, pareto_points
from .candidates import (
    greedy_diversity_candidates,
    kmeans_candidates,
    paper_candidates,
    threshold_candidates,
)
from .projection import CumulativeProjection, project_emissions
from .study_runner import (
    OptimizationRunner,
    run_blackbox_search,
    run_exhaustive_search,
)
from .study_spec import StudySpec, check_resume_identity
from .finance import (
    CostParameters,
    capex_usd,
    levelized_cost_usd_per_mwh,
    net_present_cost_usd,
)
from .multiyear import MultiYearOutcome, evaluate_across_years
from .ensemble import (
    EnsembleMember,
    EnsembleSpec,
    build_ensemble,
    evaluate_ensemble,
    member_subset,
)
from .fidelity import (
    FidelityEnvelope,
    FidelityLadder,
    FidelityLevel,
    FidelityRacingEvaluator,
    calibrate_envelope,
    fidelity_race_front,
    sibling_scenario,
    sibling_stack,
)
from .racing import RacingEvaluator, RacingStats, RungSchedule, race_front
from .sensitivity import (
    best_under_budget_stability,
    crossover_year_analytic,
    tornado,
)

__all__ = [
    "MicrogridComposition",
    "ParameterSpace",
    "PAPER_SPACE",
    "embodied_carbon_kg",
    "embodied_carbon_tonnes",
    "SimulationMetrics",
    "EvaluatedComposition",
    "RobustEvaluatedComposition",
    "robust_evaluations",
    "Scenario",
    "build_scenario",
    "CompositionEvaluator",
    "BatchEvaluator",
    "evaluate_across_scenarios",
    "VectorizedPolicy",
    "DefaultDispatch",
    "IslandedDispatch",
    "TimeWindowDispatch",
    "CarbonAwareDispatch",
    "TouArbitrageDispatch",
    "POLICY_NAMES",
    "make_policy",
    "pareto_front",
    "pareto_points",
    "threshold_candidates",
    "kmeans_candidates",
    "greedy_diversity_candidates",
    "paper_candidates",
    "CumulativeProjection",
    "project_emissions",
    "OptimizationRunner",
    "StudySpec",
    "check_resume_identity",
    "run_exhaustive_search",
    "run_blackbox_search",
    "CostParameters",
    "capex_usd",
    "net_present_cost_usd",
    "levelized_cost_usd_per_mwh",
    "MultiYearOutcome",
    "evaluate_across_years",
    "member_subset",
    "RungSchedule",
    "RacingEvaluator",
    "RacingStats",
    "race_front",
    "FidelityEnvelope",
    "FidelityLadder",
    "FidelityLevel",
    "FidelityRacingEvaluator",
    "calibrate_envelope",
    "fidelity_race_front",
    "sibling_scenario",
    "sibling_stack",
    "tornado",
    "crossover_year_analytic",
    "best_under_budget_stability",
]
