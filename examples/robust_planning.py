#!/usr/bin/env python
"""Robust long-term planning (library extensions beyond the paper).

The paper sizes against a single historical year and projects linearly.
This example stress-tests a shortlist of Houston candidates with:

1. **multi-year ensembles** — five synthetic weather years evaluated as
   one stacked 5-years × N-candidates time loop (DESIGN.md §6), ranking
   compositions by CVaR (mean of the worst quartile, via the unified
   ``repro.core.metrics`` reducers) instead of the single-year value —
   richer ensembles (growth/carbon/tariff/severity axes) are
   ``examples/ensemble_study.py``;
2. **sensitivity/tornado analysis** — how the baseline-vs-buildout
   crossover year moves when the grid decarbonizes or hardware
   footprints change;
3. **budget-pick stability** — whether the best-under-5 000 tCO2 choice
   survives ±25 % embodied-footprint uncertainty;
4. **hybrid storage** — adding a hydrogen-like long-duration tier behind
   the battery and measuring the reliability gain during the worst
   dark-doldrum week.
"""

import numpy as np

from repro import MicrogridComposition, BatchEvaluator, build_scenario
from repro.core.metrics import aggregate_values
from repro.core.multiyear import evaluate_across_years
from repro.core.sensitivity import (
    best_under_budget_stability,
    crossover_year_analytic,
    tornado,
)
from repro.core.study_runner import run_exhaustive_search
from repro.cosim import (
    Actor,
    CLCBattery,
    ConstantSignal,
    LongDurationStorage,
    Microgrid,
    StackedStorage,
    TraceSignal,
)
from repro.cosim.policy import IslandedPolicy
from repro.data.weather_events import dunkelflaute_events
from repro.timeseries import TimeSeries

SHORTLIST = [
    MicrogridComposition(0, 0.0, 0),
    MicrogridComposition.from_mw(12.0, 0.0, 7.5),
    MicrogridComposition.from_mw(9.0, 8.0, 22.5),
    MicrogridComposition.from_mw(12.0, 12.0, 52.5),
    MicrogridComposition.from_mw(30.0, 40.0, 60.0),
]


def main() -> None:
    # -- 1. multi-year robustness (one stacked 5×N time loop) ----------------
    print("1) five-weather-year ensemble (Houston, one stacked time loop):")
    outcomes = evaluate_across_years(
        "houston", SHORTLIST, year_labels=(2020, 2021, 2022, 2023, 2024)
    )
    print(f"{'composition':>16} {'op mean':>8} {'op worst':>9} {'CVaR25':>7} {'cov worst':>10}")
    scored = [
        (aggregate_values(o.operational_tco2_day_by_year, "cvar:0.25"), o)
        for o in outcomes
    ]
    for cvar25, o in sorted(scored, key=lambda pair: pair[0]):
        print(
            f"{o.composition.label():>16} {o.operational_mean:>8.2f} "
            f"{o.operational_worst:>9.2f} {cvar25:>7.2f} "
            f"{o.coverage_worst * 100:>9.1f}%"
        )

    # -- 2. tornado on the crossover year ---------------------------------------
    scenario = build_scenario("houston")
    be = BatchEvaluator(scenario)
    baseline = be.evaluate_one(SHORTLIST[0])
    buildout = be.evaluate_one(SHORTLIST[-1])
    print("\n2) crossover-year sensitivity (baseline vs full build-out):")
    nominal = crossover_year_analytic(baseline, buildout)
    print(f"   nominal: {nominal:.1f} years")
    for res in tornado(baseline, buildout):
        lo, hi = res.values[0], res.values[-1]
        print(
            f"   {res.factor:>17}: x0.5 → {lo:5.1f} y   x1.5 → {hi:5.1f} y   "
            f"(swing {res.swing:.1f} y)"
        )

    # -- 3. budget-pick stability ---------------------------------------------
    result = run_exhaustive_search(scenario)
    picks = best_under_budget_stability(result.evaluated, budget_tco2=5_000.0)
    print("\n3) best-under-5,000 tCO2 pick vs embodied-footprint uncertainty:")
    for mult, comp in sorted(picks.items()):
        print(f"   footprints x{mult:>4.2f}: {comp.label()}")

    # -- 4. hybrid battery + hydrogen-like LDES during the worst doldrum -------
    events = dunkelflaute_events(scenario.location)
    worst = max(events, key=lambda e: e.duration_hours)
    comp = SHORTLIST[3]
    start_h = max(worst.start_hour - 12, 0)
    span_h = worst.duration_hours + 24

    def islanded_unserved(storage) -> float:
        gen = (
            scenario.solar_farm_profile_w(comp.solar_kw)
            + scenario.wind_farm_profile_w(comp.n_turbines)
        )[start_h : start_h + span_h]
        load = scenario.workload.power_w[start_h : start_h + span_h]
        mg = Microgrid(
            actors=[
                Actor("ren", TraceSignal(TimeSeries(gen, 3600.0))),
                Actor("dc", TraceSignal(TimeSeries(load, 3600.0)), is_consumer=True),
            ],
            storage=storage,
            policy=IslandedPolicy(),
        )
        unserved = 0.0
        for i in range(span_h):
            unserved += mg.step(i * 3600.0, 3600.0).unserved_w
        return unserved / 1e6  # MWh

    battery_only = CLCBattery(capacity_wh=comp.battery_wh, initial_soc=0.9)
    hybrid = StackedStorage(
        [
            CLCBattery(capacity_wh=comp.battery_wh, initial_soc=0.9),
            LongDurationStorage(
                capacity_wh=400e6, charge_power_w=2e6, discharge_power_w=2e6,
                initial_soc=0.8,
            ),
        ]
    )
    print(
        f"\n4) worst dunkelflaute ({worst.duration_hours} h): islanded unserved energy"
        f"\n   battery only          : {islanded_unserved(battery_only):7.1f} MWh"
        f"\n   battery + 400 MWh LDES: {islanded_unserved(hybrid):7.1f} MWh"
    )


if __name__ == "__main__":
    main()
