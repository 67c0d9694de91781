#!/usr/bin/env python
"""Hydra-style config-driven sweeps (paper §3.3 "Implementation").

The paper drives its experiments through YAML configs with a sweeper
that fans out across compute nodes.  This example shows the equivalent
workflow:

1. write a base YAML config and load it,
2. apply command-line-style overrides,
3. grid-sweep it over sites and battery sizes, one job after another,
4. run a black-box (NSGA-II) sweep over the composition space driven by
   the same config.
"""

import tempfile
from pathlib import Path

from repro.blackbox import NSGA2Sampler, create_study
from repro.blackbox.distributions import IntDistribution
from repro.confsys import (
    BlackboxSweeper,
    Config,
    GridSweeper,
    apply_overrides,
    load_config,
    save_config,
)
from repro.confsys.sweeper import SweepJob
from repro.core import MicrogridComposition, BatchEvaluator, build_scenario

BASE_CONFIG = {
    "scenario": {"location": "houston", "year": 2024},
    "composition": {"n_turbines": 3, "solar_increments": 2, "battery_units": 3},
    "objectives": ["operational", "embodied"],
}


def evaluate_job(job: SweepJob) -> dict:
    """One sweep job: simulate the configured composition at the site."""
    cfg = job.config
    scenario = build_scenario(cfg.scenario.location, year_label=cfg.scenario.year)
    comp = MicrogridComposition(
        n_turbines=cfg.composition.n_turbines,
        solar_kw=cfg.composition.solar_increments * 4_000.0,
        battery_units=cfg.composition.battery_units,
    )
    e = BatchEvaluator(scenario).evaluate_one(comp)
    return {
        "site": cfg.scenario.location,
        "composition": comp.label(),
        "operational_tco2_day": round(e.operational_tco2_per_day, 2),
        "coverage_pct": round(e.metrics.coverage * 100, 1),
    }


def main() -> None:
    # 1. YAML round trip, as the paper's configs are YAML files.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "experiment.yaml"
        save_config(Config(BASE_CONFIG), path)
        cfg = load_config(path)

    # 2. Hydra-style overrides.
    cfg = apply_overrides(cfg, ["composition.battery_units=4", "+tag=demo"])
    print("resolved config:", cfg.flat())

    # 3. Grid sweep over sites × battery sizes.
    sweeper = GridSweeper(
        cfg,
        {"scenario.location": ["houston", "berkeley"], "composition.battery_units": [0, 4]},
    )
    print(f"\ngrid sweep: {len(sweeper)} jobs")
    for job in sweeper.jobs():
        print("  ", evaluate_job(job))

    # 4. Black-box sweep: NSGA-II proposes composition configs.
    scenario = build_scenario("houston")
    evaluator = BatchEvaluator(scenario)

    def objective(config: Config):
        comp = MicrogridComposition(
            n_turbines=config.composition.n_turbines,
            solar_kw=config.composition.solar_increments * 4_000.0,
            battery_units=config.composition.battery_units,
        )
        e = evaluator.evaluate_one(comp)
        return e.objectives(("operational", "embodied"))

    study = create_study(
        directions=["minimize", "minimize"],
        sampler=NSGA2Sampler(population_size=16, seed=0),
    )
    BlackboxSweeper(
        cfg,
        {
            "composition.n_turbines": IntDistribution(0, 10),
            "composition.solar_increments": IntDistribution(0, 10),
            "composition.battery_units": IntDistribution(0, 8),
        },
        study,
    ).run(objective, n_trials=64)
    unique = {tuple(sorted(t.params.items())): t for t in study.best_trials}
    print(f"\nblack-box sweep: {len(unique)} distinct Pareto-optimal configs found")
    for trial in sorted(unique.values(), key=lambda t: t.values[1])[:5]:
        print(f"   params {trial.params}  →  (operational, embodied) = "
              f"({trial.values[0]:.2f} tCO2/d, {trial.values[1]:,.0f} tCO2)")


if __name__ == "__main__":
    main()
