"""Differential oracle for the compiled dispatch engines (DESIGN.md §9).

Every engine in :mod:`repro.core.kernel` must agree with the reference
per-step loop **bit-for-bit** on all eight accumulators of every
(scenario, candidate) cell — not approximately, exactly.  This file is
the property-fuzz harness that enforces it:

* seeded random stacks (load/solar/wind/CI/price series), random
  C/L/C parameter draws (efficiencies, C-rates, taper, tight SoC
  windows, self-discharge), random candidate sets (grouped and
  ungrouped layouts, zero-capacity and saturating batteries), random
  policies of all five kinds with scalar and per-scenario ``(S, 1)``
  thresholds, and sub-hourly step sizes;
* three independent implementations checked against the loop: the
  segment-vectorized engine, the njit cell kernel (its pure-python body
  locally, the compiled version on the numba CI leg), and a scalar
  oracle built from the co-simulation twins (:class:`CLCBattery` + the
  ``cosim_twin`` policies) that shares no code with the batch loop;
* edge regimes called out in the kernel design: zero-capacity
  batteries, saturating charge limits, single-step horizons, and
  all-idle discharge windows;
* horizons that cross the segments engine's prologue/epilogue chunks in
  every chunk-width band, and a pin on its S·N = 1 sums until the fold
  there is fixed;
* SoC trace mode: the segments engine's trace and accumulators against
  the loop's, on random draws and end to end through rainflow fade on a
  real ensemble, plus the ``auto`` routing that keeps a single traced
  cell on the loop;
* the float32 racing fast path, which is *not* bitwise — its epsilon is
  pinned here instead (see DESIGN.md §9 and the racing rung tests).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import kernel
from repro.core.composition import MicrogridComposition
from repro.core.dispatch import (
    ISLANDED_EPS_W,
    CarbonAwareDispatch,
    DefaultDispatch,
    IslandedDispatch,
    ScenarioStack,
    TimeWindowDispatch,
    TouArbitrageDispatch,
    VectorizedPolicy,
    run_dispatch,
    stack_scenarios,
)
from repro.core.ensemble import EnsembleSpec, build_ensemble
from repro.core.fastsim import (
    BatchEvaluator,
    _candidate_vectors,
    evaluate_across_scenarios,
)
from repro.cosim.battery import CLCBattery
from repro.cosim.policy import (
    CarbonAwarePolicy,
    DefaultPolicy,
    IslandedPolicy,
    TimeWindowPolicy,
    TouArbitragePolicy,
)
from repro.exceptions import ConfigurationError
from repro.sam.batterymodels.clc import CLCParameters
from repro.units import SECONDS_PER_HOUR, WH_PER_KWH

FIELDS = (
    "import_wh",
    "export_wh",
    "charge_wh",
    "discharge_wh",
    "unserved_wh",
    "emissions_kg",
    "cost_usd",
    "islanded_steps",
)


def result_rows(res) -> np.ndarray:
    """Stack a DispatchResult's accumulators as an (8, S, N) array."""
    return np.stack([getattr(res, name) for name in FIELDS])


def assert_rows_equal(got: np.ndarray, want: np.ndarray, label: str) -> None:
    for row, name in enumerate(FIELDS):
        np.testing.assert_array_equal(
            got[row], want[row], err_msg=f"{label}: field {name!r} not bit-identical"
        )


# -- random problem generators ----------------------------------------------


def random_stack(rng: np.random.Generator, s: int, t: int, step_s: float) -> ScenarioStack:
    """A synthetic ScenarioStack with MW-scale profiles (no Scenario objects)."""
    return ScenarioStack(
        scenarios=(),
        load_w=rng.uniform(0.0, 2e6, (s, t)),
        solar_per_kw_w=rng.uniform(0.0, 1_000.0, (s, t)),
        wind_per_turbine_w=rng.uniform(0.0, 3e6, (s, t)),
        ci_g_per_kwh=rng.uniform(50.0, 900.0, (s, t)),
        prices_usd_kwh=rng.uniform(0.02, 0.5, (s, t)),
        export_credit_usd_kwh=rng.uniform(0.0, 0.1, (s, 1)),
        step_s=float(step_s),
    )


def random_params(rng: np.random.Generator) -> CLCParameters:
    soc_min = float(rng.uniform(0.0, 0.35))
    soc_max = float(min(soc_min + rng.uniform(0.1, 0.6), 1.0))
    return CLCParameters(
        capacity_wh=1.0,  # placeholder; per-candidate capacities are vectors
        eta_charge=float(rng.uniform(0.7, 1.0)),
        eta_discharge=float(rng.uniform(0.7, 1.0)),
        max_charge_c_rate=float(rng.uniform(0.1, 2.0)),
        max_discharge_c_rate=float(rng.uniform(0.1, 2.0)),
        taper_soc_threshold=float(rng.uniform(soc_min, soc_max)),
        soc_min=soc_min,
        soc_max=soc_max,
        self_discharge_per_hour=float(rng.uniform(0.0, 5e-3)),
    )


def random_candidates(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(solar_kw, turbine_factor, capacity_wh) with degenerate members mixed in."""
    solar_kw = rng.uniform(0.0, 2_000.0, n)
    turbine_factor = rng.uniform(0.0, 10.0, n)
    capacity_wh = rng.uniform(0.0, 5e7, n)
    capacity_wh[rng.integers(0, n)] = 0.0  # zero-capacity battery
    if n > 1:
        capacity_wh[rng.integers(0, n)] = 100.0  # tiny: limits always saturate
    return solar_kw, turbine_factor, capacity_wh


def random_policies(rng: np.random.Generator, s: int) -> list[VectorizedPolicy]:
    """One instance of each of the five lowerable kinds, random knobs.

    Carbon and TOU policies come in both scalar- and ``(S, 1)``
    array-threshold forms (the per-scenario shape ``make_policy`` builds).
    """
    start = float(rng.uniform(0.0, 23.9))
    end = float(rng.uniform(0.1, 24.0))
    charge_p = float(rng.uniform(0.03, 0.15))
    policies: list[VectorizedPolicy] = [
        DefaultDispatch(),
        IslandedDispatch(),
        TimeWindowDispatch(discharge_start_h=start, discharge_end_h=end),
        CarbonAwareDispatch(ci_discharge_g_per_kwh=float(rng.uniform(100.0, 800.0))),
        CarbonAwareDispatch(ci_discharge_g_per_kwh=rng.uniform(100.0, 800.0, (s, 1))),
        TouArbitrageDispatch(
            charge_price_usd_kwh=charge_p,
            discharge_price_usd_kwh=charge_p + float(rng.uniform(0.05, 0.3)),
        ),
    ]
    cp = rng.uniform(0.03, 0.15, (s, 1))
    policies.append(
        TouArbitrageDispatch(
            charge_price_usd_kwh=cp,
            discharge_price_usd_kwh=cp + rng.uniform(0.05, 0.3, (s, 1)),
        )
    )
    return policies


# -- the independent implementations ----------------------------------------


def njit_fallback(stack, solar_kw, turbine_factor, capacity_wh, params, policy, initial_soc=0.5):
    """Run the njit cell kernel's pure-python body (no numba needed)."""
    table = kernel.lower_policy(policy, stack)
    assert table is not None, f"{type(policy).__name__} failed to lower"
    s, n = stack.n_scenarios, int(np.asarray(solar_kw).size)
    cap = np.asarray(capacity_wh, dtype=np.float64)
    soc0 = float(np.clip(initial_soc, params.soc_min, params.soc_max))
    energy0 = np.concatenate([cap * soc0, cap * params.soc_min])
    dt_h = stack.step_s / SECONDS_PER_HOUR
    out = np.empty((8, s, n))
    kernel._njit_cell_loop(
        np.ascontiguousarray(stack.solar_per_kw_w.T),
        np.ascontiguousarray(stack.wind_per_turbine_w.T),
        np.ascontiguousarray(stack.load_w.T),
        np.ascontiguousarray(stack.ci_g_per_kwh.T),
        np.ascontiguousarray(stack.prices_usd_kwh.T),
        np.ascontiguousarray(stack.export_credit_usd_kwh[:, 0]),
        np.asarray(solar_kw, dtype=np.float64),
        np.asarray(turbine_factor, dtype=np.float64),
        cap,
        energy0,
        table,
        dt_h,
        params.eta_charge,
        params.eta_discharge,
        params.max_charge_c_rate,
        params.max_discharge_c_rate,
        params.taper_soc_threshold,
        params.soc_max,
        1.0 - params.self_discharge_per_hour * dt_h,
        bool(policy.islanded),
        out,
    )
    return out


def _scalar_twin(policy: VectorizedPolicy, stack: ScenarioStack, s: int):
    """Build the scalar co-simulation policy for scenario row ``s``.

    Mirrors ``cosim_twin`` but reads the signal series straight off the
    stack rows, so it works for synthetic stacks with no Scenario objects.
    """

    def row(x):
        return float(np.asarray(x).reshape(-1)[s]) if np.ndim(x) > 0 else float(x)

    if type(policy) is DefaultDispatch:
        return DefaultPolicy()
    if type(policy) is IslandedDispatch:
        return IslandedPolicy()
    if type(policy) is TimeWindowDispatch:
        return TimeWindowPolicy(policy.discharge_start_h, policy.discharge_end_h)
    if type(policy) is CarbonAwareDispatch:
        return CarbonAwarePolicy(
            ci_g_per_kwh=stack.ci_g_per_kwh[s],
            step_s=stack.step_s,
            ci_discharge_g_per_kwh=row(policy.ci_discharge_g_per_kwh),
        )
    if type(policy) is TouArbitrageDispatch:
        return TouArbitragePolicy(
            prices_usd_kwh=stack.prices_usd_kwh[s],
            step_s=stack.step_s,
            charge_price_usd_kwh=row(policy.charge_price_usd_kwh),
            discharge_price_usd_kwh=row(policy.discharge_price_usd_kwh),
        )
    raise AssertionError(f"no scalar twin for {type(policy).__name__}")


def scalar_oracle(stack, solar_kw, turbine_factor, capacity_wh, params, policy, initial_soc=0.5):
    """Cell-by-cell scalar simulation through CLCBattery + the cosim twins.

    Shares *no* code with the vectorized loop: battery physics go through
    the scalar ``clc_step`` wrapper, decisions through the co-simulation
    policy objects.  Accumulation mirrors the loop's epilogue expressions
    (same operations in the same order), so agreement is bit-for-bit.
    """
    s, t_steps = stack.n_scenarios, stack.n_steps
    n = int(np.asarray(solar_kw).size)
    dt_s = stack.step_s
    dt_h = dt_s / SECONDS_PER_HOUR
    eps_wh = ISLANDED_EPS_W * dt_h
    soc0 = float(np.clip(initial_soc, params.soc_min, params.soc_max))
    out = np.zeros((8, s, n))
    for si in range(s):
        sol = stack.solar_per_kw_w[si]
        wind = stack.wind_per_turbine_w[si]
        load = stack.load_w[si]
        ci = stack.ci_g_per_kwh[si]
        price = stack.prices_usd_kwh[si]
        credit = float(stack.export_credit_usd_kwh[si, 0])
        for ni in range(n):
            kw = float(np.asarray(solar_kw)[ni])
            tb = float(np.asarray(turbine_factor)[ni])
            cap = float(np.asarray(capacity_wh)[ni])
            battery = CLCBattery(
                cap,
                initial_soc=soc0,
                params=dataclasses.replace(params, capacity_wh=cap),
            )
            twin = _scalar_twin(policy, stack, si)
            acc = out[:, si, ni]
            for t in range(t_steps):
                net = sol[t] * kw + wind[t] * tb - load[t]
                d = twin.dispatch(net, battery, t * dt_s, dt_s)
                imp_t = d.grid_import_w * dt_h
                exp_t = d.grid_export_w * dt_h
                uns_t = d.unserved_w * dt_h
                acc[0] += imp_t
                acc[1] += exp_t
                acc[2] += d.storage_charge_w * dt_h
                acc[3] += d.storage_discharge_w * dt_h
                acc[4] += uns_t
                acc[5] += imp_t / WH_PER_KWH * ci[t] / 1_000.0
                acc[6] += imp_t / WH_PER_KWH * price[t] - exp_t / WH_PER_KWH * credit
                acc[7] += (imp_t <= eps_wh) & (uns_t <= eps_wh)
    return out


def run_all_engines(stack, solar_kw, turbine_factor, capacity_wh, params, policy):
    """Reference loop plus every compiled engine, as (8, S, N) stacks."""
    loop = result_rows(
        run_dispatch(
            stack, solar_kw, turbine_factor, capacity_wh, params, policy=policy, engine="loop"
        )
    )
    segments = result_rows(
        kernel.run_compiled(
            stack, solar_kw, turbine_factor, capacity_wh, params, policy=policy, engine="segments"
        )
    )
    njit_py = njit_fallback(stack, solar_kw, turbine_factor, capacity_wh, params, policy)
    out = {"segments": segments, "njit-python": njit_py}
    if kernel.HAS_NUMBA:
        out["njit"] = result_rows(
            kernel.run_compiled(
                stack, solar_kw, turbine_factor, capacity_wh, params, policy=policy, engine="njit"
            )
        )
    return loop, out


# -- property fuzz -----------------------------------------------------------


class TestPropertyFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_engines_bitwise_equal_on_random_problems(self, seed):
        """loop == segments == njit kernel, per cell, on random draws."""
        rng = np.random.default_rng(1_000 + seed)
        s = int(rng.integers(1, 4))
        t = int(rng.choice([1, 7, 25, 49]))
        step_s = float(rng.choice([900.0, 1_800.0, 3_600.0]))
        n = int(rng.choice([1, 5, 17]))
        stack = random_stack(rng, s, t, step_s)
        params = random_params(rng)
        cands = random_candidates(rng, n)
        for policy in random_policies(rng, s):
            loop, engines = run_all_engines(stack, *cands, params, policy)
            for name, rows in engines.items():
                assert_rows_equal(
                    rows, loop, f"seed={seed} {type(policy).__name__} {name}"
                )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_engines_match_scalar_cosim_oracle(self, seed):
        """Per-cell scalar co-simulation (CLCBattery + policy twins)
        reproduces the batch loop bit-for-bit — and therefore every
        compiled engine too (transitively, via the fuzz test above)."""
        rng = np.random.default_rng(7_000 + seed)
        stack = random_stack(rng, 2, 25, float(rng.choice([1_800.0, 3_600.0])))
        params = random_params(rng)
        cands = random_candidates(rng, 4)
        for policy in random_policies(rng, 2):
            loop = result_rows(
                run_dispatch(stack, *cands, params, policy=policy, engine="loop")
            )
            oracle = scalar_oracle(stack, *cands, params, policy)
            assert_rows_equal(loop, oracle, f"seed={seed} {type(policy).__name__} oracle")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_segments_soc_trace_bitwise_equal_on_random_problems(self, seed):
        """Trace mode: the segments engine's SoC trace and accumulators
        are the loop's, bit for bit, for every lowerable policy, over
        horizons that span several blocks and S·N > 1."""
        rng = np.random.default_rng(5_000 + seed)
        s = int(rng.integers(1, 4))
        n = int(rng.choice([2, 5, 9, 18])) if s == 1 else int(rng.choice([1, 5, 17]))
        t = int(rng.choice([9, 17, 25, 49]))
        stack = random_stack(rng, s, t, float(rng.choice([900.0, 3_600.0])))
        params = random_params(rng)
        cands = random_candidates(rng, n)
        for policy in random_policies(rng, s):
            label = f"seed={seed} S={s} N={n} T={t} {type(policy).__name__}"
            loop = run_dispatch(
                stack, *cands, params, policy=policy, engine="loop", trace_soc=True
            )
            for engine in ("segments", "auto"):
                got = run_dispatch(
                    stack, *cands, params, policy=policy, engine=engine, trace_soc=True
                )
                assert got.soc.shape == (s, n, t + 1)
                np.testing.assert_array_equal(
                    got.soc, loop.soc, err_msg=f"{label} {engine}: SoC trace"
                )
                assert_rows_equal(result_rows(got), result_rows(loop), f"{label} {engine}")

    def test_grouped_candidate_layout(self):
        """The paper-style repeated-(solar, wind) layout exercises the
        segments engine's grouped prologue; results must not change."""
        rng = np.random.default_rng(42)
        stack = random_stack(rng, 2, 49, 3_600.0)
        params = random_params(rng)
        g, pairs = 9, 4
        solar_kw = np.repeat(rng.uniform(0.0, 2_000.0, pairs), g)
        turbine = np.repeat(rng.uniform(0.0, 10.0, pairs), g)
        cap = rng.uniform(0.0, 5e7, pairs * g)
        cap[0] = 0.0
        for policy in random_policies(rng, 2):
            loop, engines = run_all_engines(stack, solar_kw, turbine, cap, params, policy)
            for name, rows in engines.items():
                assert_rows_equal(rows, loop, f"grouped {type(policy).__name__} {name}")


class TestEdgeRegimes:
    def _check(self, stack, solar_kw, turbine, cap, params, policy, label):
        loop, engines = run_all_engines(stack, solar_kw, turbine, cap, params, policy)
        for name, rows in engines.items():
            assert_rows_equal(rows, loop, f"{label} {name}")
        oracle = scalar_oracle(stack, solar_kw, turbine, cap, params, policy)
        assert_rows_equal(loop, oracle, f"{label} oracle")

    def test_zero_capacity_battery(self):
        rng = np.random.default_rng(11)
        stack = random_stack(rng, 2, 25, 3_600.0)
        cands = (np.array([500.0, 0.0]), np.array([2.0, 1.0]), np.zeros(2))
        for policy in random_policies(rng, 2):
            self._check(stack, *cands, random_params(rng), policy, "zero-cap")

    def test_saturating_charge_limits(self):
        """Tiny battery against MW-scale net: every limit binds every step."""
        rng = np.random.default_rng(12)
        stack = random_stack(rng, 2, 25, 3_600.0)
        cands = (
            np.array([5_000.0, 5_000.0, 0.0]),
            np.array([8.0, 0.0, 8.0]),
            np.array([100.0, 50.0, 10.0]),
        )
        params = CLCParameters(capacity_wh=1.0, max_charge_c_rate=0.2, max_discharge_c_rate=0.2)
        for policy in random_policies(rng, 2):
            self._check(stack, *cands, params, policy, "saturating")

    def test_single_step_horizon(self):
        rng = np.random.default_rng(13)
        stack = random_stack(rng, 3, 1, 3_600.0)
        cands = random_candidates(rng, 5)
        for policy in random_policies(rng, 3):
            self._check(stack, *cands, random_params(rng), policy, "single-step")

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: at S*N = 1 the segments engine's fold "
        "np.add.reduce runs over a contiguous axis, so numpy sums it "
        "pairwise instead of left to right",
    )
    def test_single_cell_long_horizon_segments_bitwise(self):
        """S=1, N=1, T=25 — a shape the fuzz seeds never draw with T >= 9."""
        rng = np.random.default_rng(15)
        stack = random_stack(rng, 1, 25, 3_600.0)
        cands = random_candidates(rng, 1)
        params = random_params(rng)
        policy = DefaultDispatch()
        loop = run_dispatch(stack, *cands, params, policy=policy, engine="loop")
        segments = kernel.run_compiled(
            stack, *cands, params, policy=policy, engine="segments"
        )
        assert_rows_equal(result_rows(segments), result_rows(loop), "S=N=1")

    #: The segments accumulators of the S = N = 1, T = 203 draw below, as
    #: the 8-step-block engine computed them (import, export, charge,
    #: discharge, unserved, emissions, cost, islanded steps).  Five of the
    #: eight differ from the loop's in the last bits.
    SINGLE_CELL_PINNED_HEX = (
        "0x1.ac7f47c8bd216p+25",
        "0x0.0p+0",
        "0x1.c9cecab6d6785p+24",
        "0x1.9d2b4aee19354p+24",
        "0x0.0p+0",
        "0x1.d930ceedf9fc5p+14",
        "0x1.d672eeb90126cp+13",
        "0x1.ac00000000000p+6",
    )

    def test_single_cell_multi_chunk_fold_is_pinned(self):
        """S = N = 1, T = 203: four prologue chunks and a partial last
        fold group.  The fold at S·N = 1 is inexact (the strict xfail
        above), so the chunk length must leave its 8-step grouping, and
        with it these sums, exactly as they were; otherwise the remote
        reference fronts move.  The benchmark change that fixes the fold
        replaces this pin with equality to the loop."""
        rng = np.random.default_rng(16)
        stack = random_stack(rng, 1, 203, 3_600.0)
        cands = (np.array([500.0]), np.array([0.3]), np.array([2.0e7]))
        params = random_params(rng)
        segments = kernel.run_compiled(
            stack, *cands, params, policy=DefaultDispatch(), engine="segments"
        )
        got = tuple(float(x).hex() for x in result_rows(segments).reshape(-1))
        assert got == self.SINGLE_CELL_PINNED_HEX

    def test_all_idle_discharge_window(self):
        """A window no hourly step ever lands in: charge-only everywhere."""
        rng = np.random.default_rng(14)
        stack = random_stack(rng, 2, 49, 3_600.0)
        policy = TimeWindowDispatch(discharge_start_h=23.5, discharge_end_h=23.75)
        table = kernel.lower_policy(policy, stack)
        assert np.all(table == kernel.MODE_CHARGE_ONLY)
        self._check(stack, *random_candidates(rng, 5), random_params(rng), policy, "all-idle")


class TestMultiChunkFuzz:
    """Horizons that cross the segments engine's prologue/epilogue chunks.

    The chunk length follows S·N (64 steps up to 64 cells, 24 at ~160
    cells, 8 from 512 cells), while the accumulator fold keeps 8-step
    groups.  Every band is driven across chunk edges (T = 63, 64, 65,
    130, 203), hourly and sub-hourly, untraced and with the SoC trace;
    so is the one-cell step (S·N = 1).
    """

    #: (S, N, expected chunk steps) per chunk-width band
    BANDS = {"narrow": (2, 9, 64), "mid": (2, 80, 24), "wide": (2, 260, 8)}

    def _check(self, stack, cands, params, label):
        s, n, t = stack.n_scenarios, cands[0].size, stack.n_steps
        for policy in random_policies(np.random.default_rng(t), s):
            tag = f"{label} {type(policy).__name__}"
            loop = run_dispatch(
                stack, *cands, params, policy=policy, engine="loop", trace_soc=True
            )
            for trace_soc in (False, True):
                got = run_dispatch(
                    stack, *cands, params, policy=policy, engine="segments",
                    trace_soc=trace_soc,
                )
                assert_rows_equal(
                    result_rows(got), result_rows(loop), f"{tag} trace={trace_soc}"
                )
                if trace_soc:
                    assert got.soc.shape == (s, n, t + 1)
                    np.testing.assert_array_equal(got.soc, loop.soc, err_msg=f"{tag}: SoC")

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    @pytest.mark.parametrize("t", [63, 64, 65, 130, 203])
    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_bitwise_across_chunks(self, band, t, step_s):
        s, n, chunk = self.BANDS[band]
        assert kernel._chunk_steps(s * n) == chunk
        rng = np.random.default_rng(9_000 + t)
        stack = random_stack(rng, s, t, step_s)
        self._check(
            stack, random_candidates(rng, n), random_params(rng), f"{band} T={t} dt={step_s}"
        )

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    def test_single_cell_step(self, step_s):
        """S·N = 1 runs the step's one-row updates out of place.  Its SoC
        trace is the loop's over four chunks; its accumulators are the
        loop's while the horizon fits one exact fold (T = 6, seven terms
        summed left to right; longer horizons hit the xfail above)."""
        rng = np.random.default_rng(9_100 + int(step_s))
        params = random_params(rng)
        for t, cap_wh in itertools.product((6, 203), (2e6, 5e7)):
            cands = (rng.uniform(0.0, 2_000.0, 1), rng.uniform(0.0, 10.0, 1), np.array([cap_wh]))
            stack = random_stack(rng, 1, t, step_s)
            for policy in random_policies(rng, 1):
                label = f"S=N=1 T={t} dt={step_s} cap={cap_wh} {type(policy).__name__}"
                loop = run_dispatch(
                    stack, *cands, params, policy=policy, engine="loop", trace_soc=True
                )
                got = run_dispatch(
                    stack, *cands, params, policy=policy, engine="segments", trace_soc=True
                )
                np.testing.assert_array_equal(got.soc, loop.soc, err_msg=f"{label}: SoC")
                if t == 6:
                    assert_rows_equal(result_rows(got), result_rows(loop), label)

    def test_grouped_layout_across_chunks(self):
        """Battery-fastest (solar, wind) groups: the prologue runs on the
        unique pairs and broadcasts back, chunk by chunk."""
        rng = np.random.default_rng(9_999)
        stack = random_stack(rng, 2, 203, 3_600.0)
        g, pairs = 9, 9
        solar_kw = np.repeat(rng.uniform(0.0, 2_000.0, pairs), g)
        turbine = np.repeat(rng.uniform(0.0, 10.0, pairs), g)
        cap = rng.uniform(0.0, 5e7, pairs * g)
        cap[0] = 0.0
        assert kernel._candidate_groups(solar_kw, turbine)[0] == g
        assert kernel._chunk_steps(2 * pairs * g) == 24
        self._check(stack, (solar_kw, turbine, cap), random_params(rng), "grouped")


# -- engine selection semantics ----------------------------------------------


class _CustomPolicy(VectorizedPolicy):
    def dispatch_arrays(self, net_w, soc, prices, ci, t_s, dt_s):
        return net_w * 0.5


class TestEngineResolution:
    def test_auto_picks_compiled_engine_for_standard_policies(self):
        expected = "njit" if kernel.HAS_NUMBA else "segments"
        assert kernel.resolve_engine("auto", DefaultDispatch()) == expected
        assert kernel.resolve_engine("auto", None) == expected

    def test_auto_falls_back_to_loop_for_tracing(self):
        """Per-step flows are recorded by the loop alone."""
        for trace_soc in (False, True):
            resolved = kernel.resolve_engine(
                "auto", DefaultDispatch(), trace_soc=trace_soc, trace_flows=True
            )
            assert resolved == "loop"

    def test_auto_routes_soc_trace_to_segments(self):
        """Even with numba installed: njit records no trace."""
        assert kernel.resolve_engine("auto", DefaultDispatch(), trace_soc=True) == "segments"
        assert kernel.resolve_engine("auto", _CustomPolicy(), trace_soc=True) == "loop"

    def test_auto_falls_back_to_loop_for_custom_policy(self):
        assert kernel.resolve_engine("auto", _CustomPolicy()) == "loop"

    def test_explicit_engine_refuses_tracing(self):
        with pytest.raises(ConfigurationError):
            kernel.resolve_engine("segments", DefaultDispatch(), trace_flows=True)
        with pytest.raises(ConfigurationError, match="SoC trace"):
            kernel.resolve_engine("njit", DefaultDispatch(), trace_soc=True)

    def test_explicit_segments_accepts_soc_trace(self):
        assert (
            kernel.resolve_engine("segments", DefaultDispatch(), trace_soc=True)
            == "segments"
        )

    def test_auto_single_cell_soc_trace_stays_on_loop(self):
        """S·N = 1 is where the segments fold is inexact (the strict xfail
        above, same draw), so a traced auto call keeps the loop's sums."""
        rng = np.random.default_rng(15)
        stack = random_stack(rng, 1, 25, 3_600.0)
        cands = random_candidates(rng, 1)
        params = random_params(rng)
        loop = run_dispatch(stack, *cands, params, engine="loop", trace_soc=True)
        auto = run_dispatch(stack, *cands, params, trace_soc=True)
        assert_rows_equal(result_rows(auto), result_rows(loop), "S=N=1 traced auto")
        np.testing.assert_array_equal(auto.soc, loop.soc)

    def test_explicit_engine_refuses_unlowerable_policy(self):
        with pytest.raises(ConfigurationError):
            kernel.resolve_engine("segments", _CustomPolicy())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            kernel.resolve_engine("turbo", DefaultDispatch())

    @pytest.mark.skipif(kernel.HAS_NUMBA, reason="numba is installed here")
    def test_explicit_njit_without_numba_refuses(self):
        with pytest.raises(ConfigurationError, match="numba"):
            kernel.resolve_engine("njit", DefaultDispatch())

    def test_auto_never_changes_results_vs_loop(self, houston_month, berkeley_month):
        """Tier-1 guard: the default engine is bit-for-bit the loop."""
        stack = stack_scenarios([houston_month, berkeley_month])
        solar_kw = np.array([0.0, 9_000.0, 24_000.0])
        turbine = np.array([0.0, 4.0, 12.0])
        cap = np.array([0.0, 2.25e7, 6.0e7])
        params = CLCParameters(capacity_wh=1.0)
        rng = np.random.default_rng(21)
        for policy in random_policies(rng, 2):
            auto = result_rows(
                run_dispatch(stack, solar_kw, turbine, cap, params, policy=policy)
            )
            loop = result_rows(
                run_dispatch(
                    stack, solar_kw, turbine, cap, params, policy=policy, engine="loop"
                )
            )
            assert_rows_equal(auto, loop, f"auto-vs-loop {type(policy).__name__}")


@pytest.fixture(scope="module")
def rainflow_members():
    """A real one-month, four-member Houston ensemble with rainflow fade."""
    spec = EnsembleSpec.parse(
        "years=2020-2021,severity=1.0:1.5", sites=("houston",), n_hours=24 * 30
    )
    return [
        dataclasses.replace(m, battery_degradation="rainflow")
        for m in build_ensemble(spec)
    ]


RAINFLOW_COMPS = [
    MicrogridComposition(n_turbines=0, solar_kw=40_000.0, battery_units=1),
    MicrogridComposition(n_turbines=4, solar_kw=8_000.0, battery_units=3),
    MicrogridComposition(n_turbines=10, solar_kw=0.0, battery_units=8),
    MicrogridComposition(n_turbines=2, solar_kw=24_000.0, battery_units=0),
]


class TestRainflowEndToEnd:
    """Rainflow fade counts cycles off the SoC trace, so ``auto`` runs it
    on the segments engine (the loop for one cell): every metric, fade
    included, must equal the loop's bit for bit."""

    @pytest.mark.parametrize("n_members, n_comps", [(4, 4), (1, 1)])
    def test_auto_equals_loop(self, rainflow_members, n_members, n_comps):
        members = rainflow_members[:n_members]
        comps = RAINFLOW_COMPS[:n_comps]
        auto = evaluate_across_scenarios(members, comps, engine="auto")
        loop = evaluate_across_scenarios(members, comps, engine="loop")
        for row_auto, row_loop in zip(auto, loop):
            for a, b in zip(row_auto, row_loop):
                assert dataclasses.asdict(a.metrics) == dataclasses.asdict(b.metrics)
        assert any(ev.metrics.battery_fade > 0.0 for row in auto for ev in row)

    def test_soc_history_equals_loop_trace(self, rainflow_members):
        """``soc_histories`` reads the segments trace through its
        transposed view; ``soc_history`` of one build runs the loop."""
        evaluator = BatchEvaluator(rainflow_members[0])
        loop = run_dispatch(
            stack_scenarios(rainflow_members[:1]),
            *_candidate_vectors(RAINFLOW_COMPS),
            evaluator.battery_params,
            engine="loop",
            trace_soc=True,
        ).soc[0].T
        np.testing.assert_array_equal(evaluator.soc_histories(RAINFLOW_COMPS), loop)
        for i, comp in enumerate(RAINFLOW_COMPS):
            if comp.battery_wh > 0:
                np.testing.assert_array_equal(evaluator.soc_history(comp), loop[:, i])


@pytest.mark.skipif(
    not kernel.HAS_NUMBA,
    reason="numba not installed — the compiled njit engine leg runs on the CI numba job",
)
class TestNjitCompiled:
    def test_compiled_njit_bitwise_equal_to_loop(self, houston_month, berkeley_month):
        stack = stack_scenarios([houston_month, berkeley_month])
        rng = np.random.default_rng(31)
        cands = random_candidates(rng, 9)
        params = CLCParameters(capacity_wh=1.0)
        for policy in random_policies(rng, 2):
            loop = result_rows(
                run_dispatch(stack, *cands, params, policy=policy, engine="loop")
            )
            njit = result_rows(
                run_dispatch(stack, *cands, params, policy=policy, engine="njit")
            )
            assert_rows_equal(njit, loop, f"njit {type(policy).__name__}")


# -- float32 racing fast path -------------------------------------------------

#: documented accuracy of the float32 segments variant on full aggregates
#: (DESIGN.md §9); racing rungs only need bounds, not bitwise equality.
FLOAT32_REL_EPS = 1e-4


class TestFloat32Rungs:
    def test_float32_aggregates_within_epsilon_on_both_sites(
        self, houston_month, berkeley_month
    ):
        params = CLCParameters(capacity_wh=1.0)
        solar_kw = np.array([0.0, 9_000.0, 24_000.0])
        turbine = np.array([0.0, 4.0, 12.0])
        cap = np.array([0.0, 2.25e7, 6.0e7])
        for scenario in (houston_month, berkeley_month):
            stack = stack_scenarios([scenario])
            f64 = result_rows(
                kernel.run_dispatch_segments(stack, solar_kw, turbine, cap, params)
            )
            f32 = result_rows(
                kernel.run_dispatch_segments(
                    stack, solar_kw, turbine, cap, params, dtype=np.float32
                )
            )
            scale = np.maximum(np.abs(f64), 1.0)
            rel = np.abs(f32 - f64) / scale
            assert rel.max() < FLOAT32_REL_EPS, (scenario.name, rel.max())

    def test_float32_output_is_float64_promoted(self, houston_month):
        stack = stack_scenarios([houston_month])
        res = kernel.run_dispatch_segments(
            stack,
            np.array([9_000.0]),
            np.array([4.0]),
            np.array([2.25e7]),
            CLCParameters(capacity_wh=1.0),
            dtype=np.float32,
        )
        for name in FIELDS:
            assert getattr(res, name).dtype == np.float64

    def test_float32_soc_trace_is_float64_promoted(self, houston_month):
        """The float32 trace widens to float64 and tracks the float64
        trace within the rung epsilon (not bitwise — float32 is not)."""
        stack = stack_scenarios([houston_month])
        cands = (np.array([0.0, 9_000.0]), np.array([4.0, 0.0]), np.array([2.25e7, 6.0e7]))
        params = CLCParameters(capacity_wh=1.0)
        f64 = kernel.run_dispatch_segments(stack, *cands, params, trace_soc=True)
        f32 = kernel.run_dispatch_segments(
            stack, *cands, params, dtype=np.float32, trace_soc=True
        )
        assert f32.soc.dtype == np.float64
        assert f32.soc.shape == f64.soc.shape == (1, 2, stack.n_steps + 1)
        assert np.abs(f32.soc - f64.soc).max() < FLOAT32_REL_EPS
