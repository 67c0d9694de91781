"""Differential oracle for the segments dispatch engine (DESIGN.md §9).

:func:`repro.core.kernel.run_dispatch_segments` must agree with the
reference per-step loop **bit-for-bit** on all eight accumulators of every
(scenario, candidate) cell — not approximately, exactly.  This file is
the property-fuzz harness that enforces it:

* seeded random stacks (load/solar/wind/CI/price series), random
  C/L/C parameter draws (efficiencies, C-rates, taper, tight SoC
  windows, self-discharge), random candidate sets (grouped and
  ungrouped layouts, zero-capacity and saturating batteries), random
  policies of all five kinds with scalar and per-scenario ``(S, 1)``
  thresholds, and sub-hourly step sizes;
* two independent implementations checked against the loop: the
  segment-vectorized engine, and a scalar oracle built from the
  co-simulation twins (:class:`CLCBattery` + the ``cosim_twin``
  policies) that shares no code with the batch loop;
* edge regimes called out in the kernel design: zero-capacity
  batteries, saturating charge limits, single-step horizons, and
  all-idle discharge windows;
* horizons that cross the segments engine's prologue/epilogue chunks in
  every chunk-width band, and pins on its S·N = 1 sums until the fold
  there is fixed;
* one-cell calls long enough for time lanes (a full Houston year among
  them) against the scalar path, bit for bit, and the chunk-wide S·N = 1
  fold (``kernel._fold_pairwise``) against numpy's per-group reduce;
* the segments engine's narrow path (the scalar body that narrow
  calls take, see ``kernel._SCALAR_CELLS``) against its vector
  path, bit for bit at every narrow width, and against the loop at
  S·N ≥ 2;
* SoC trace mode: the segments engine's trace and accumulators against
  the loop's, on random draws and end to end through rainflow fade on a
  real ensemble;
* ``run_dispatch``'s routing: flow traces, unlowerable policies and a
  single traced cell run on the loop, everything else on the segments
  engine.
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
    run_dispatch_loop,
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


def run_both(stack, solar_kw, turbine_factor, capacity_wh, params, policy):
    """The reference loop's and the segments engine's accumulators, as
    (8, S, N) stacks."""
    args = (stack, solar_kw, turbine_factor, capacity_wh, params)
    loop = result_rows(run_dispatch_loop(*args, policy=policy))
    return loop, result_rows(kernel.run_dispatch_segments(*args, policy=policy))


# -- property fuzz -----------------------------------------------------------


class TestPropertyFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_engines_bitwise_equal_on_random_problems(self, seed):
        """loop == segments, per cell, on random draws."""
        rng = np.random.default_rng(1_000 + seed)
        s = int(rng.integers(1, 4))
        t = int(rng.choice([1, 7, 25, 49]))
        step_s = float(rng.choice([900.0, 1_800.0, 3_600.0]))
        n = int(rng.choice([1, 5, 17]))
        stack = random_stack(rng, s, t, step_s)
        params = random_params(rng)
        cands = random_candidates(rng, n)
        for policy in random_policies(rng, s):
            loop, segments = run_both(stack, *cands, params, policy)
            assert_rows_equal(segments, loop, f"seed={seed} {type(policy).__name__}")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_engines_match_scalar_cosim_oracle(self, seed):
        """Per-cell scalar co-simulation (CLCBattery + policy twins)
        reproduces the batch loop bit-for-bit — and therefore the
        segments engine too (transitively, via the fuzz test above)."""
        rng = np.random.default_rng(7_000 + seed)
        stack = random_stack(rng, 2, 25, float(rng.choice([1_800.0, 3_600.0])))
        params = random_params(rng)
        cands = random_candidates(rng, 4)
        for policy in random_policies(rng, 2):
            loop = result_rows(run_dispatch_loop(stack, *cands, params, policy=policy))
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
            loop = run_dispatch_loop(stack, *cands, params, policy=policy, trace_soc=True)
            for engine in (kernel.run_dispatch_segments, run_dispatch):
                got = engine(stack, *cands, params, policy=policy, trace_soc=True)
                assert got.soc.shape == (s, n, t + 1)
                np.testing.assert_array_equal(
                    got.soc, loop.soc, err_msg=f"{label} {engine.__name__}: SoC trace"
                )
                assert_rows_equal(
                    result_rows(got), result_rows(loop), f"{label} {engine.__name__}"
                )

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
            loop, segments = run_both(stack, solar_kw, turbine, cap, params, policy)
            assert_rows_equal(segments, loop, f"grouped {type(policy).__name__}")


class TestEdgeRegimes:
    def _check(self, stack, solar_kw, turbine, cap, params, policy, label):
        loop, segments = run_both(stack, solar_kw, turbine, cap, params, policy)
        assert_rows_equal(segments, loop, label)
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

    def test_zero_candidates(self):
        """No candidates: every path returns ``(S, 0)`` totals, and an
        ``(S, 0, T+1)`` SoC trace when traced, as the loop does; the lane
        plan must not divide by S·N = 0."""
        rng = np.random.default_rng(17)
        none = np.empty(0)
        params = random_params(rng)
        for t in (25, 8_760):
            stack = random_stack(rng, 2, t, 3_600.0)
            for trace_soc in (False, True):
                loop = run_dispatch_loop(stack, none, none, none, params, trace_soc=trace_soc)
                runs = {
                    engine.__name__: engine(stack, none, none, none, params, trace_soc=trace_soc)
                    for engine in (run_dispatch, kernel.run_dispatch_segments)
                }
                for name, got in runs.items():
                    label = f"T={t} trace={trace_soc} {name}"
                    assert result_rows(got).shape == result_rows(loop).shape == (8, 2, 0), label
                    assert result_rows(got).dtype == np.float64, label
                    if trace_soc:
                        assert got.soc.shape == loop.soc.shape == (2, 0, t + 1), label
                    else:
                        assert got.soc is None and loop.soc is None, label

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
        loop = run_dispatch_loop(stack, *cands, params, policy=policy)
        segments = kernel.run_dispatch_segments(stack, *cands, params, policy=policy)
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
        """S = N = 1, T = 203: 25 full fold groups and a partial last
        one.  The fold at S·N = 1 is inexact (the strict xfail above):
        the scalar path reproduces the vector engine's pairwise 8-step
        group sums (``kernel._fold_group``), and these sums must stay
        exactly as they were; otherwise the remote reference fronts move.
        The benchmark change that fixes the fold replaces this pin with
        equality to the loop."""
        rng = np.random.default_rng(16)
        stack = random_stack(rng, 1, 203, 3_600.0)
        cands = (np.array([500.0]), np.array([0.3]), np.array([2.0e7]))
        params = random_params(rng)
        segments = kernel.run_dispatch_segments(stack, *cands, params, policy=DefaultDispatch())
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

    The chunk length c follows S·N (``kernel._chunk_steps``: 224 steps at
    18 cells, 24 at 160, 8 from 512, 4 096 at one cell), while the
    accumulator fold keeps 8-step groups at S·N = 1.  Every band is
    driven across chunk edges (T = c−1, c, c+1, 2c+2, 3c+11), hourly and
    sub-hourly, untraced and with the SoC trace; so are one-cell calls,
    on the scalar path (short) and in lanes (longer than a chunk).
    """

    #: (S, N) per chunk-width band
    BANDS = {"narrow": (2, 9), "mid": (2, 80), "wide": (2, 260)}
    #: Horizons across chunk edges as (chunks, extra steps): c−1, c, c+1,
    #: 2c+2, 3c+11.  Each case keeps the id it had when every band's
    #: horizon was counted in 64-step chunks (63, 64, 65, 130, 203).
    EDGES = {63: (1, -1), 64: (1, 0), 65: (1, 1), 130: (2, 2), 203: (3, 11)}

    def _check(self, stack, cands, params, label):
        s, n, t = stack.n_scenarios, cands[0].size, stack.n_steps
        for policy in random_policies(np.random.default_rng(t), s):
            tag = f"{label} {type(policy).__name__}"
            loop = run_dispatch_loop(stack, *cands, params, policy=policy, trace_soc=True)
            for trace_soc in (False, True):
                got = kernel.run_dispatch_segments(
                    stack, *cands, params, policy=policy, trace_soc=trace_soc
                )
                assert_rows_equal(
                    result_rows(got), result_rows(loop), f"{tag} trace={trace_soc}"
                )
                if trace_soc:
                    assert got.soc.shape == (s, n, t + 1)
                    np.testing.assert_array_equal(got.soc, loop.soc, err_msg=f"{tag}: SoC")

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    @pytest.mark.parametrize("edge", sorted(EDGES))
    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_bitwise_across_chunks(self, band, edge, step_s):
        s, n = self.BANDS[band]
        chunks, extra = self.EDGES[edge]
        t = chunks * kernel._chunk_steps(s * n) + extra
        rng = np.random.default_rng(9_000 + edge)
        stack = random_stack(rng, s, t, step_s)
        self._check(
            stack, random_candidates(rng, n), random_params(rng), f"{band} T={t} dt={step_s}"
        )

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    @pytest.mark.parametrize("chunks, extra", [(1, 1), (1, 7), (2, 2), (3, 11)])
    def test_single_cell_lanes_across_chunks(self, chunks, extra, step_s):
        """One cell, past one chunk and ending on a 1-7-step fold tail,
        runs in time lanes with the pairwise fold built per chunk
        (``kernel._fold_pairwise``): its accumulators and SoC trace must
        be ``_segments_scalar``'s bits (the loop's differ at S·N = 1)."""
        t = chunks * kernel._chunk_steps(1) + extra
        assert t > kernel._chunk_steps(1) and 1 <= t % kernel._FOLD_STEPS <= 7
        assert not scalar_routed(t, 1)
        rng = np.random.default_rng(9_200 + t)
        stack = random_stack(rng, 1, t, step_s)
        params = random_params(rng)
        for cap_wh in (0.0, 100.0, 3e7):
            cands = (rng.uniform(0.0, 2_000.0, 1), rng.uniform(0.0, 10.0, 1), np.array([cap_wh]))
            for policy in random_policies(rng, 1):
                label = f"T={t} dt={step_s} cap={cap_wh} {type(policy).__name__}"
                for trace_soc in (False, True):
                    want = kernel._segments_scalar(
                        stack, *cands, params, policy=policy, trace_soc=trace_soc
                    )
                    got = kernel.run_dispatch_segments(
                        stack, *cands, params, policy=policy, trace_soc=trace_soc
                    )
                    assert_bitwise(result_rows(got), result_rows(want), f"{label} {trace_soc}")
                    if trace_soc:
                        assert_bitwise(got.soc, want.soc, f"{label}: SoC")

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    def test_single_cell_step(self, step_s):
        """S·N = 1 runs the scalar path.  Its SoC trace is the loop's
        over T = 203; its accumulators are the loop's while the horizon
        fits one exact fold (T = 6, seven terms summed left to right;
        longer horizons hit the xfail above)."""
        rng = np.random.default_rng(9_100 + int(step_s))
        params = random_params(rng)
        for t, cap_wh in itertools.product((6, 203), (2e6, 5e7)):
            cands = (rng.uniform(0.0, 2_000.0, 1), rng.uniform(0.0, 10.0, 1), np.array([cap_wh]))
            stack = random_stack(rng, 1, t, step_s)
            for policy in random_policies(rng, 1):
                label = f"S=N=1 T={t} dt={step_s} cap={cap_wh} {type(policy).__name__}"
                loop = run_dispatch_loop(stack, *cands, params, policy=policy, trace_soc=True)
                got = kernel.run_dispatch_segments(
                    stack, *cands, params, policy=policy, trace_soc=True
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


def assert_bitwise(got: np.ndarray, want: np.ndarray, label: str) -> None:
    """Equal bit patterns: unlike ``==``, tells -0.0 from 0.0."""
    np.testing.assert_array_equal(
        np.asarray(got, dtype=np.float64).view(np.uint64),
        np.asarray(want, dtype=np.float64).view(np.uint64),
        err_msg=label,
    )


def scalar_routed(t: int, flat: int) -> bool:
    """Whether ``run_dispatch_segments`` sends a call T steps and
    S·N = ``flat`` cells wide to the scalar path."""
    lanes = kernel._lane_plan(t, flat)[0]
    return flat <= kernel._SCALAR_CELLS and flat * lanes <= kernel._SCALAR_LANE_CELLS


class TestNarrowPath:
    """The segments engine's scalar path against its vector path.

    ``run_dispatch_segments`` sends calls of at most
    ``kernel._SCALAR_CELLS`` cells whose lane step would be narrow to a
    per-cell body on Python floats (:func:`kernel._segments_scalar`,
    which lane re-runs mirror); its
    accumulators and SoC trace must be the vector path's bits at every
    width it is called at here, S·N = 1 fold included, and the loop's at
    S·N ≥ 2.  Layouts 1×k, k×1 and 2×2 up to seven cells; horizons end on
    a 7-step fold group (T = 15, pairwise without an eighth term) and a
    6-step one after a full chunk (T = 70, left to right).
    """

    #: Widest layout: one past the widest scalar-routed call (six cells).
    WIDEST = 7
    LAYOUTS = sorted(
        {(1, k) for k in range(1, WIDEST + 1)}
        | {(k, 1) for k in range(2, WIDEST + 1)}
        | {(2, 2)}
    )

    @staticmethod
    def candidates(rng: np.random.Generator, n: int):
        """Zero-capacity, saturating (100 Wh) and ordinary batteries in turn."""
        cap = np.array([(0.0, 100.0, 3e7)[i % 3] for i in range(n)])
        return rng.uniform(0.0, 2_000.0, n), rng.uniform(0.0, 10.0, n), cap

    def _check(self, stack, cands, params, label):
        s, n = stack.n_scenarios, cands[0].size
        for policy in random_policies(np.random.default_rng(stack.n_steps), s):
            tag = f"{label} {type(policy).__name__}"
            loop = run_dispatch_loop(stack, *cands, params, policy=policy, trace_soc=True)
            for trace_soc in (False, True):
                got = kernel._segments_scalar(
                    stack, *cands, params, policy=policy, trace_soc=trace_soc
                )
                want = kernel._segments_vector(
                    stack, *cands, params, policy=policy, trace_soc=trace_soc
                )
                if scalar_routed(stack.n_steps, s * n):
                    routed = kernel.run_dispatch_segments(
                        stack, *cands, params, policy=policy, trace_soc=trace_soc
                    )
                    assert_bitwise(result_rows(routed), result_rows(got), f"{tag} routed")
                assert_bitwise(result_rows(got), result_rows(want), f"{tag} trace={trace_soc}")
                if trace_soc:
                    assert_bitwise(got.soc, want.soc, f"{tag}: SoC")
                if s * n >= 2:
                    assert_rows_equal(result_rows(got), result_rows(loop), f"{tag} vs loop")
                    if trace_soc:
                        np.testing.assert_array_equal(got.soc, loop.soc, err_msg=f"{tag}: SoC")

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    @pytest.mark.parametrize("t", [15, 70])
    @pytest.mark.parametrize("s, n", LAYOUTS)
    def test_scalar_path_bitwise(self, s, n, t, step_s):
        rng = np.random.default_rng(12_000 + 100 * s + 10 * n + t)
        stack = random_stack(rng, s, t, step_s)
        self._check(stack, self.candidates(rng, n), random_params(rng), f"S={s} N={n} T={t}")

    def test_routing_follows_lane_plan(self, monkeypatch):
        """Narrow calls run the scalar path unless their lane step
        would hold more than ``_SCALAR_LANE_CELLS`` cells: a 720-step call
        (8 lanes) keeps two cells scalar and runs four in lanes; a 1 440-step
        one (16 lanes) keeps one cell scalar and runs two in lanes; a
        full-year one (128 lanes at one cell) runs one cell in lanes;
        anything short enough for one lane up to six cells stays scalar;
        seven cells never do."""
        taken = []
        for name in ("_segments_scalar", "_segments_vector"):
            monkeypatch.setattr(kernel, name, lambda *a, _n=name, **k: taken.append(_n))
        rng = np.random.default_rng(12_400)
        cases = (
            (720, 2, True), (720, 4, False), (1_440, 1, True), (1_440, 2, False),
            (8_760, 1, False), (100, 6, True), (100, 7, False),
        )
        for t, n, scalar in cases:
            assert scalar_routed(t, n) == scalar
            taken.clear()
            stack = random_stack(rng, 1, t, 3_600.0)
            kernel.run_dispatch_segments(stack, *random_candidates(rng, n), random_params(rng))
            want = "_segments_scalar" if scalar else "_segments_vector"
            assert taken == [want], (t, n)

    def test_net_load_hits_signed_zero(self):
        """Steps whose net load is exactly 0.0 or -0.0: idle generation
        against idle load, ``-0.0`` profile values, and generation that
        cancels the load exactly."""
        rng = np.random.default_rng(12_345)
        t = 24
        stack = random_stack(rng, 1, t, 3_600.0)
        solar_kw, turbine = np.array([1_000.0, 0.0]), np.array([1.0, 2.0])
        cap = np.array([3e7, 0.0])
        sol, wind, load = stack.solar_per_kw_w[0], stack.wind_per_turbine_w[0], stack.load_w[0]
        sol[0::3], wind[0::3], load[0::3] = 0.0, 0.0, 0.0
        sol[1::3], wind[1::3], load[1::3] = -0.0, -0.0, 0.0
        load[2::3] = sol[2::3] * solar_kw[0] + wind[2::3] * turbine[0]
        for layout in ((solar_kw, turbine, cap), (solar_kw[:1], turbine[:1], cap[:1])):
            net = sol[:, None] * layout[0] + wind[:, None] * layout[1] - load[:, None]
            assert np.all(net[:, 0][0::3] == 0.0) and np.all(np.signbit(net[:, 0][1::3]))
            self._check(stack, layout, random_params(rng), f"signed zero N={layout[0].size}")

    def test_nan_profile_steps(self):
        """A NaN load step: NaN propagates through every clamp as numpy
        propagates it, into the SoC trace and the sums."""
        rng = np.random.default_rng(12_346)
        stack = random_stack(rng, 1, 30, 3_600.0)
        stack.load_w[0, 20] = np.nan
        for n in (1, 2):
            self._check(stack, self.candidates(rng, n), random_params(rng), f"NaN N={n}")

    def test_numpy_min_max_semantics(self):
        """The scalar body writes ``np.maximum``/``np.minimum`` out as
        ``a if a > b or a != a else b`` (``<`` for the minimum): NaN from
        either side wins and a tie returns the second operand."""
        values = (0.0, -0.0, 1.0, np.nan)
        for a, b in itertools.product(values, repeat=2):
            for ufunc, beats in ((np.maximum, a > b), (np.minimum, a < b)):
                want = a if beats or a != a else b
                for width in (1, 2, 5):  # one cell, and numpy's SIMD widths
                    got = ufunc(np.full(width, a), np.full(width, b))
                    assert_bitwise(got, np.full(width, want), f"{ufunc.__name__}({a}, {b})")

    def test_fold_group_is_numpy_group_reduce(self):
        """``kernel._fold_group`` against numpy itself: one
        ``np.add.reduce`` over each contiguous ``[total, c1..c8]``, as the
        vector step folds at S·N = 1.  Every horizon 0..40 (so every tail
        length, the pairwise 7-step tail included), magnitudes 1e-3..1e9
        of either sign, and ±0.0, NaN and ±inf mixed in."""
        rng = np.random.default_rng(22_000)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        for draw in range(41 * 40):
            t = draw % 41
            steps = rng.uniform(-3.0, 9.0, (t, 7))
            steps = 10.0**steps * rng.choice([-1.0, 1.0], (t, 7))
            special = rng.random((t, 7)) < (draw % 4) * 0.05
            steps[special] = rng.choice(specials, int(special.sum()))
            want = np.zeros(7)
            with np.errstate(invalid="ignore"):  # inf - inf is part of the draw
                for g0 in range(0, t, kernel._FOLD_STEPS):
                    for j in range(7):
                        group = np.concatenate(([want[j]], steps[g0 : g0 + 8, j]))
                        want[j] = np.add.reduce(group)
            got = kernel._fold_group(iter(map(tuple, steps.tolist())), t)
            assert_bitwise(got, want, f"T={t} draw {draw}")


    @pytest.mark.parametrize("dtype", [np.float64])
    def test_fold_pairwise_is_numpy_group_reduce(self, dtype):
        """``kernel._fold_pairwise`` against numpy itself: one
        ``np.add.reduce`` over each contiguous ``[total, c1..c8]`` of a
        chunk, as the vector step folded at S·N = 1 group by group.  Two
        chunks in a row (the second continues the first's totals), every
        chunk length 0..40 (so every tail, the pairwise 7-step one
        included), magnitudes 1e-3..1e9 of either
        sign, ±0.0, NaN and ±inf mixed in; compared by bit pattern."""
        rng = np.random.default_rng(22_100)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        rows = np.empty((4 * 5 + 8, 8), dtype=dtype)
        for draw in range(41 * 12):
            lengths = (draw % 41, int(rng.integers(0, 41)))
            chunks = []
            for b in lengths:
                steps = 10.0 ** rng.uniform(-3.0, 9.0, (8, b)) * rng.choice([-1.0, 1.0], (8, b))
                special = rng.random((8, b)) < (draw % 4) * 0.05
                steps[special] = rng.choice(specials, int(special.sum()))
                chunks.append(steps.astype(dtype))
            want = np.zeros(8, dtype=dtype)
            got = np.zeros(8, dtype=dtype)
            with np.errstate(invalid="ignore"):  # inf - inf is part of the draw
                for steps in chunks:
                    for g0 in range(0, steps.shape[1], kernel._FOLD_STEPS):
                        for j in range(8):
                            group = np.concatenate(([want[j]], steps[j, g0 : g0 + 8]))
                            want[j] = np.add.reduce(group)
                    kernel._fold_pairwise(steps, got, rows)
            np.testing.assert_array_equal(
                got.view(bits), want.view(bits), err_msg=f"{lengths} draw {draw}"
            )


def run_lanes(stack, cands, params, policy=None, plan=(1, 0, None), trace_soc=False, guess=None):
    """``kernel._segments_lanes`` with a ``(lanes, overlap, window)`` plan;
    a window of None is the whole horizon."""
    lanes, overlap, window = plan
    return kernel._segments_lanes(
        stack, *cands, params, 0.5, policy, trace_soc, lanes, overlap, window or stack.n_steps,
        guess,
    )


class TestTimeLanes:
    """The segments engine's vector step in time lanes, against one lane.

    ``kernel._segments_lanes`` runs the battery recurrence of k lanes at
    once, each from a guessed energy some steps before its boundary,
    checks every boundary by bit pattern and re-runs the misses; one
    lane is the sequential step.  Accumulators and SoC traces must be
    the one-lane run's bits (uint64 views) for every lowerable policy,
    hourly and 15-minute steps, untraced and traced, on horizons that
    cross lane and window edges (short plans keep it fast).
    """

    #: (lanes, overlap, window): ragged lanes in several windows, lanes
    #: that start right at their boundary, more lanes than fit.
    PLANS = ((4, 8, 48), (3, 5, 40), (8, 0, 64), (16, 3, 1_000))

    def _check(self, stack, cands, params, label, plans=PLANS, guesses=(None,)):
        s = stack.n_scenarios
        for policy in random_policies(np.random.default_rng(stack.n_steps), s):
            for trace in (False, True):
                tag = f"{label} {type(policy).__name__} trace={trace}"
                want = run_lanes(stack, cands, params, policy, trace_soc=trace)
                for plan, guess in itertools.product(plans, guesses):
                    got = run_lanes(stack, cands, params, policy, plan, trace, guess)
                    assert_bitwise(
                        result_rows(got), result_rows(want), f"{tag} plan={plan} guess={guess}"
                    )
                    if trace:
                        assert_bitwise(got.soc, want.soc, f"{tag} plan={plan}: SoC")

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    @pytest.mark.parametrize("t", [37, 100, 203])
    def test_lanes_bitwise(self, t, step_s):
        rng = np.random.default_rng(31_000 + t)
        stack = random_stack(rng, 2, t, step_s)
        cands = list(random_candidates(rng, 5))
        cands[2][0] = 0.0  # a zero-capacity battery
        self._check(stack, cands, random_params(rng), f"T={t} dt={step_s}")

    def test_grouped_layout(self):
        """Battery-fastest (solar, wind) groups: both prologues (the
        lane-folded one and the chunked one) run on the unique pairs."""
        rng = np.random.default_rng(31_500)
        stack = random_stack(rng, 2, 150, 3_600.0)
        solar_kw = np.repeat(rng.uniform(0.0, 2_000.0, 3), 9)
        turbine = np.repeat(rng.uniform(0.0, 10.0, 3), 9)
        cap = rng.uniform(0.0, 5e7, 27)
        assert kernel._candidate_groups(solar_kw, turbine)[0] == 9
        self._check(stack, (solar_kw, turbine, cap), random_params(rng), "grouped")

    def test_nan_load_step(self):
        """A NaN load step: every later lane boundary misses (NaN against
        finite guesses) and the re-runs carry the NaN as numpy does."""
        rng = np.random.default_rng(31_600)
        stack = random_stack(rng, 1, 90, 3_600.0)
        stack.load_w[0, 30] = np.nan
        self._check(stack, random_candidates(rng, 3), random_params(rng), "NaN load")

    def test_wrong_guesses(self):
        """Lanes started from 0, from e_max and from NaN: whatever the
        guess, the checked trajectory and every output are the same."""
        rng = np.random.default_rng(31_700)
        stack = random_stack(rng, 2, 120, 3_600.0)
        cands = random_candidates(rng, 4)
        params = random_params(rng)
        e_max = np.tile(cands[2] * params.soc_max, 2)
        self._check(
            stack, cands, params, "guess", plans=((4, 8, 48), (6, 0, 1_000)),
            guesses=(0.0, e_max, np.nan),
        )

    def test_time_window_lanes_off_the_day(self):
        """TimeWindowDispatch derives hour-of-day from the step index; its
        mode table is lowered once on the whole stack, so lanes of 5, 7
        and 13 steps (not a day, nor a divisor of one) keep its bits."""
        rng = np.random.default_rng(31_800)
        params = random_params(rng)
        for step_s in (900.0, 3_600.0):
            stack = random_stack(rng, 1, 110, step_s)
            cands = random_candidates(rng, 4)
            for policy in (TimeWindowDispatch(14.0, 19.0), TimeWindowDispatch(20.0, 3.5)):
                want = run_lanes(stack, cands, params, policy)
                for plan in ((16, 4, 1_000), (8, 6, 1_000), (4, 9, 64)):
                    got = run_lanes(stack, cands, params, policy, plan, trace_soc=True)
                    assert_bitwise(result_rows(got), result_rows(want), f"{plan} dt={step_s}")

    def test_boundary_misses_are_rerun(self, monkeypatch):
        """With no overlap and a zero guess, boundaries miss: the re-runs
        happen, and the outputs are still the one-lane bits."""
        rng = np.random.default_rng(31_900)
        stack = random_stack(rng, 1, 96, 3_600.0)
        cands = random_candidates(rng, 6)
        params = random_params(rng)
        calls = []
        real = kernel._rerun

        def spy(*args):
            fixed = real(*args)
            calls.append(len(fixed))
            return fixed

        monkeypatch.setattr(kernel, "_rerun", spy)
        want = run_lanes(stack, cands, params)
        assert not calls  # one lane has no boundary to check
        got = run_lanes(stack, cands, params, plan=(8, 0, 1_000), guess=0.0)
        assert calls and sum(calls) > 0
        assert_bitwise(result_rows(got), result_rows(want), "re-run")

    def test_zero_generation_cells_rerun_each_step_once(self, houston_month, monkeypatch):
        """No solar, no turbines, 1-8 battery units: the battery only
        self-discharges, so lanes never meet the true trajectory and every
        boundary misses.  The re-runs still cover each of a cell's steps
        at most once (a scalar pass over the horizon, not one per lane),
        and the bits are the one-lane run's."""
        stack = stack_scenarios([houston_month])
        comps = [MicrogridComposition(0, 0.0, units) for units in range(1, 9)]
        cands = _candidate_vectors(comps)
        params = CLCParameters(capacity_wh=1.0)
        steps = {}
        real = kernel._rerun

        def spy(*args):
            fixed = real(*args)
            key = float(args[8][0])  # the cell's e_max
            steps[key] = steps.get(key, 0) + len(fixed)
            return fixed

        monkeypatch.setattr(kernel, "_rerun", spy)
        want = run_lanes(stack, cands, params)
        for plan in ((8, 64, None), (16, 64, 240)):
            steps.clear()
            got = run_lanes(stack, cands, params, plan=plan, trace_soc=True)
            assert_bitwise(result_rows(got), result_rows(want), f"zero generation {plan}")
            assert len(steps) == 8 and max(steps.values()) <= stack.n_steps

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    def test_rerun_is_the_scalar_trajectory(self, step_s):
        """``kernel._rerun`` mirrors the scalar path's battery step.  Run
        from a cell's start energy against stored energies it never meets
        (-1.0), it returns the cell's whole trajectory, whose SoC (energy
        over safe capacity) must be ``_segments_scalar``'s trace bit for
        bit: every lowerable policy, a zero-capacity battery, a NaN load
        step."""
        rng = np.random.default_rng(32_100 + int(step_s))
        s, n, t = 2, 4, 60
        stack = random_stack(rng, s, t, step_s)
        stack.load_w[1, 25] = np.nan
        solar_kw, turbine, cap = random_candidates(rng, n)
        cap[1] = 0.0
        params = random_params(rng)
        dt_h = step_s / SECONDS_PER_HOUR
        soc0 = float(np.clip(0.5, params.soc_min, params.soc_max))
        span = max(params.soc_max - params.taper_soc_threshold, 1e-9)
        profiles = (stack.solar_per_kw_w, stack.wind_per_turbine_w, stack.load_w)
        for policy in random_policies(np.random.default_rng(t), s):
            want = kernel._segments_scalar(
                stack, solar_kw, turbine, cap, params, policy=policy, trace_soc=True
            ).soc
            table = kernel._lowered(policy, stack)[1]
            for si, ni in itertools.product(range(s), range(n)):
                c = float(cap[ni])
                safe = max(c, 1e-12)
                consts = (
                    c * params.soc_max, c * params.soc_min, c * params.max_discharge_c_rate,
                    params.eta_discharge, c * params.max_charge_c_rate, safe, span,
                    params.eta_charge, 1.0 - params.self_discharge_per_hour * dt_h,
                    params.soc_max,
                )
                e0 = c * soc0
                energies = kernel._rerun(
                    e0, *(a[si].tolist() for a in profiles), table[:, si].tolist(),
                    [-1.0] * t, float(solar_kw[ni]), float(turbine[ni]), consts, dt_h,
                )
                assert len(energies) == t
                got = [e / safe for e in (e0, *energies)]
                assert_bitwise(got, want[si, ni], f"{type(policy).__name__} cell {si},{ni}")

    def test_lane_plan(self):
        """The lane rule: narrow long calls run in lanes, wide or short
        ones sequentially, and a window never holds more trajectory cells
        than its budget."""
        assert kernel._lane_plan(8_760, 1)[0] == 128
        assert kernel._lane_plan(8_760, 50)[0] == 16
        assert kernel._lane_plan(720, 60)[0] == 8
        assert kernel._lane_plan(8_760, 1_089)[0] == 1
        assert kernel._lane_plan(720, kernel._LANE_MAX_CELLS + 1)[0] == 1
        assert kernel._lane_plan(100, 20)[0] == 1
        for t, flat in itertools.product((24, 720, 8_760), (1, 7, 50, 160, 1_089, 4_000)):
            lanes, overlap, window = kernel._lane_plan(t, flat)
            assert lanes & (lanes - 1) == 0 and lanes * flat <= max(flat, 1_024)
            assert window % kernel._FOLD_STEPS == 0
            assert window * flat <= max(kernel._LANE_WINDOW_CELLS, 8 * flat)

    def test_full_year_call_memory(self, houston):
        """One full-year, 50-candidate Houston call: the trajectory window
        bounds the lanes' memory (the untraced call peaked at 0.39 MB and
        the traced one at 3.9 MB before lanes; a whole-year float64
        trajectory alone would be 3.5 MB)."""
        import tracemalloc

        rng = np.random.default_rng(32_000)
        comps = [
            MicrogridComposition(int(rng.integers(0, 11)), float(rng.uniform(0, 40_000)),
                                 int(rng.integers(0, 9)))
            for _ in range(50)
        ]
        stack = stack_scenarios([houston])
        cands = _candidate_vectors(comps)
        params = CLCParameters(capacity_wh=1.0)
        assert kernel._lane_plan(stack.n_steps, 50)[0] > 1
        for trace_soc, limit_mb in ((False, 1.5), (True, 3.9 + 1.0)):
            tracemalloc.start()
            try:
                kernel.run_dispatch_segments(stack, *cands, params, trace_soc=trace_soc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit_mb * 1e6, f"trace={trace_soc}: {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("step_s", [900.0, 3_600.0])
    def test_one_cell_full_year(self, houston, step_s):
        """One cell over a full Houston year runs in lanes (128 of them),
        bit for bit as ``_segments_scalar``, accumulators and SoC trace:
        a cell with no generation (every boundary misses and re-runs), a
        zero-capacity battery, and a NaN load step."""
        stack = dataclasses.replace(stack_scenarios([houston]), step_s=step_s)
        nan_load = dataclasses.replace(stack, load_w=stack.load_w.copy())
        nan_load.load_w[0, 4_000] = np.nan
        params = CLCParameters(capacity_wh=1.0)
        assert kernel._lane_plan(stack.n_steps, 1)[0] == 128
        assert not scalar_routed(stack.n_steps, 1)
        cases = (
            ("zero generation", stack, MicrogridComposition(0, 0.0, 4)),
            ("zero capacity", stack, MicrogridComposition(3, 12_000.0, 0)),
            ("NaN load", nan_load, MicrogridComposition(4, 20_000.0, 3)),
        )
        for label, st, comp in cases:
            cands = _candidate_vectors([comp])
            for trace_soc in (False, True):
                want = kernel._segments_scalar(st, *cands, params, trace_soc=trace_soc)
                got = kernel.run_dispatch_segments(st, *cands, params, trace_soc=trace_soc)
                tag = f"{label} dt={step_s} trace={trace_soc}"
                assert_bitwise(result_rows(got), result_rows(want), tag)
                if trace_soc:
                    assert_bitwise(got.soc, want.soc, f"{tag}: SoC")

    #: A full-year hourly one-cell Houston call (4 turbines, 20 MW solar,
    #: 3 battery units, default policy and battery), as the scalar path
    #: computed it before such calls ran in lanes: import, export, charge,
    #: discharge, unserved, emissions, cost, islanded steps.
    ONE_CELL_YEAR_HEX = (
        "0x1.cb27a4a1a7c8ap+28",
        "0x1.8c3b6a28b4f16p+35",
        "0x1.c758635b620f2p+30",
        "0x1.978bf5df14b87p+30",
        "0x0.0p+0",
        "0x1.6e2183c159c71p+17",
        "-0x1.7bdf1e026332dp+20",
        "0x1.0690000000000p+13",
    )

    def test_one_cell_full_year_is_pinned(self, houston):
        """A remote worker's call shape on the segments engine: its sums
        feed the remote reference fronts, so they must stay these bits
        until the S·N = 1 fold is fixed."""
        stack = stack_scenarios([houston])
        cands = _candidate_vectors([MicrogridComposition(4, 20_000.0, 3)])
        got = kernel.run_dispatch_segments(stack, *cands, CLCParameters(capacity_wh=1.0))
        assert tuple(float(x).hex() for x in result_rows(got).reshape(-1)) == self.ONE_CELL_YEAR_HEX

    def test_one_cell_full_year_memory(self, houston):
        """One full-year one-cell call in lanes: its chunk buffers (4 096
        steps), window and fold rows peaked at about 0.78 MB untraced and
        0.85 MB traced under tracemalloc (0.13 and 0.18 MB on the scalar
        path)."""
        import tracemalloc

        stack = stack_scenarios([houston])
        cands = _candidate_vectors([MicrogridComposition(4, 20_000.0, 3)])
        params = CLCParameters(capacity_wh=1.0)
        for trace_soc, limit_mb in ((False, 1.0), (True, 1.1)):
            tracemalloc.start()
            try:
                kernel.run_dispatch_segments(stack, *cands, params, trace_soc=trace_soc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit_mb * 1e6, f"trace={trace_soc}: {peak / 1e6:.2f} MB"


# -- run_dispatch's routing ----------------------------------------------------


class _CustomPolicy(VectorizedPolicy):
    def dispatch_arrays(self, net_w, soc, prices, ci, t_s, dt_s):
        return net_w * 0.5


class TestEngineResolution:
    """``run_dispatch`` picks its path from the call alone ("auto"):
    flow traces, unlowerable policies and a single traced cell run on
    the reference loop, everything else on the segments engine."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        real = kernel.run_dispatch_segments

        def spy(*args, **kwargs):
            calls.append(kwargs.get("trace_soc", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "run_dispatch_segments", spy)
        return calls

    @staticmethod
    def _problem(seed, n=3):
        rng = np.random.default_rng(seed)
        return random_stack(rng, 2, 25, 3_600.0), random_candidates(rng, n), random_params(rng)

    def test_auto_picks_compiled_engine_for_standard_policies(self, monkeypatch):
        calls = self._spy(monkeypatch)
        stack, cands, params = self._problem(40)
        for policy in (*random_policies(np.random.default_rng(40), 2), None):
            run_dispatch(stack, *cands, params, policy=policy)
        assert calls == [False] * 8

    def test_auto_falls_back_to_loop_for_tracing(self, monkeypatch):
        """Per-step flows are recorded by the loop alone."""
        calls = self._spy(monkeypatch)
        stack, cands, params = self._problem(41)
        for trace_soc in (False, True):
            got = run_dispatch(stack, *cands, params, trace_soc=trace_soc, trace_flows=True)
            want = run_dispatch_loop(stack, *cands, params, trace_soc=trace_soc, trace_flows=True)
            assert got.flows.keys() == want.flows.keys()
            for name, flow in want.flows.items():
                assert_bitwise(got.flows[name], flow, name)
            assert_rows_equal(result_rows(got), result_rows(want), f"flows trace_soc={trace_soc}")
        assert not calls

    def test_auto_routes_soc_trace_to_segments(self, monkeypatch):
        calls = self._spy(monkeypatch)
        stack, cands, params = self._problem(42)
        run_dispatch(stack, *cands, params, policy=DefaultDispatch(), trace_soc=True)
        run_dispatch(stack, *cands, params, policy=_CustomPolicy(), trace_soc=True)
        assert calls == [True]

    def test_auto_falls_back_to_loop_for_custom_policy(self, monkeypatch):
        calls = self._spy(monkeypatch)
        stack, cands, params = self._problem(43)
        got = run_dispatch(stack, *cands, params, policy=_CustomPolicy(), trace_soc=True)
        want = run_dispatch_loop(stack, *cands, params, policy=_CustomPolicy(), trace_soc=True)
        assert_rows_equal(result_rows(got), result_rows(want), "custom policy")
        assert_bitwise(got.soc, want.soc, "custom policy: SoC")
        assert not calls

    def test_explicit_engine_refuses_tracing(self):
        """The segments engine records no per-step flows: called directly
        it has no ``trace_flows`` to ask for, and a traced call returns
        the SoC alone."""
        stack, cands, params = self._problem(46)
        with pytest.raises(TypeError, match="trace_flows"):
            kernel.run_dispatch_segments(stack, *cands, params, trace_flows=True)
        assert kernel.run_dispatch_segments(stack, *cands, params, trace_soc=True).flows is None

    def test_explicit_segments_accepts_soc_trace(self):
        stack, cands, params = self._problem(44)
        got = kernel.run_dispatch_segments(stack, *cands, params, trace_soc=True)
        want = run_dispatch_loop(stack, *cands, params, trace_soc=True)
        assert_rows_equal(result_rows(got), result_rows(want), "segments traced")
        np.testing.assert_array_equal(got.soc, want.soc)

    def test_auto_single_cell_soc_trace_stays_on_loop(self, monkeypatch):
        """S·N = 1 is where the segments fold is inexact (the strict xfail
        above, same draw), so a traced call keeps the loop's sums."""
        calls = self._spy(monkeypatch)
        rng = np.random.default_rng(15)
        stack = random_stack(rng, 1, 25, 3_600.0)
        cands = random_candidates(rng, 1)
        params = random_params(rng)
        loop = run_dispatch_loop(stack, *cands, params, trace_soc=True)
        auto = run_dispatch(stack, *cands, params, trace_soc=True)
        assert_rows_equal(result_rows(auto), result_rows(loop), "S=N=1 traced")
        np.testing.assert_array_equal(auto.soc, loop.soc)
        assert not calls

    def test_explicit_engine_refuses_unlowerable_policy(self):
        stack, cands, params = self._problem(45)
        with pytest.raises(ConfigurationError, match="cannot be lowered") as err:
            kernel.run_dispatch_segments(stack, *cands, params, policy=_CustomPolicy())
        assert "engine" not in str(err.value)

    def test_unknown_engine_rejected(self):
        """No call names an engine any more: ``engine`` is an unknown
        argument to ``run_dispatch`` and ``StudySpec``, and ``--engine``
        an unknown flag of ``repro study run``/``resume``."""
        from repro.cli import main
        from repro.core.study_spec import StudySpec

        stack, cands, params = self._problem(47)
        with pytest.raises(TypeError, match="engine"):
            run_dispatch(stack, *cands, params, engine="segments")
        with pytest.raises(TypeError, match="engine"):
            StudySpec(engine="loop")
        for verb in ("run", "resume"):
            with pytest.raises(SystemExit):  # argparse: unrecognized arguments
                main(["study", verb, "--storage", "unused.jsonl", "--engine", "segments"])

    def test_auto_never_changes_results_vs_loop(self, houston_month, berkeley_month):
        """Tier-1 guard: the default path is bit-for-bit the loop."""
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
                run_dispatch_loop(stack, solar_kw, turbine, cap, params, policy=policy)
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
    """Rainflow fade counts cycles off the SoC trace, so ``run_dispatch``
    runs it on the segments engine (the loop for one cell): every metric,
    fade included, must equal the loop's bit for bit."""

    @pytest.mark.parametrize("n_members, n_comps", [(4, 4), (1, 1)])
    def test_auto_equals_loop(self, rainflow_members, n_members, n_comps, request):
        members = rainflow_members[:n_members]
        comps = RAINFLOW_COMPS[:n_comps]
        auto = evaluate_across_scenarios(members, comps)
        request.getfixturevalue("loop_dispatch")
        loop = evaluate_across_scenarios(members, comps)
        for row_auto, row_loop in zip(auto, loop):
            for a, b in zip(row_auto, row_loop):
                assert dataclasses.asdict(a.metrics) == dataclasses.asdict(b.metrics)
        assert any(ev.metrics.battery_fade > 0.0 for row in auto for ev in row)

    def test_soc_history_equals_loop_trace(self, rainflow_members):
        """``soc_histories`` reads the segments trace through its
        transposed view; ``soc_history`` of one build runs the loop."""
        evaluator = BatchEvaluator(rainflow_members[0])
        loop = run_dispatch_loop(
            stack_scenarios(rainflow_members[:1]),
            *_candidate_vectors(RAINFLOW_COMPS),
            evaluator.battery_params,
            trace_soc=True,
        ).soc[0].T
        np.testing.assert_array_equal(evaluator.soc_histories(RAINFLOW_COMPS), loop)
        for i, comp in enumerate(RAINFLOW_COMPS):
            if comp.battery_wh > 0:
                np.testing.assert_array_equal(evaluator.soc_history(comp), loop[:, i])
