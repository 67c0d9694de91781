"""Compiled / segment-vectorized dispatch engines (DESIGN.md §9).

The per-timestep Python loop in :func:`repro.core.dispatch.run_dispatch`
is the framework's hot path: every study, ensemble and racing rung funnels
through it.  This module provides two drop-in replacements that compute
**bit-for-bit identical** accumulators:

``segments``
    A pure-numpy reformulation, always available.  The policy decision is
    *lowered* ahead of time to a numeric mode table (one of three request
    modes per (step, scenario) — see :func:`lower_policy`), which turns
    the per-step policy callback into array masking.  The battery
    recurrence itself stays sequential (SoC couples consecutive steps),
    but everything around it is restructured for throughput:

    * time steps are processed in blocks — the net-load/request prologue
      and the grid/cost/emissions epilogue run once per block over
      ``(block, S, N)`` tensors instead of once per step;
    * the paper's candidate grid repeats each (solar, wind) pair over the
      battery axis, so net load is computed on the ~9× smaller set of
      unique pairs and broadcast back;
    * per-step battery state lives in one contiguous ``(rows, S·N)``
      workspace so adjacent rows can share fused ufunc calls, and every
      operation writes into preallocated buffers (zero allocations in the
      inner loop).

    Each replaced expression is an exact floating-point identity of the
    reference loop's (same IEEE-754 operations, same order), so the
    results are bitwise equal — not merely close.  The identities are
    pinned by ``tests/test_kernel_differential.py``.

``njit``
    A numba ``@njit`` scalar kernel over the same mode table, compiled
    only when numba is importable (``HAS_NUMBA``).  Numba's default
    ``fastmath=False`` keeps IEEE semantics (no FMA contraction or
    reassociation), so the scalar op order mirrors the reference loop
    exactly and the outputs are bitwise equal as well.

The segments engine also records the per-step SoC trace
(``trace_soc``) that rainflow degradation counts cycles off; njit does
not.  The reference loop **stays** the oracle: it is the simplest
statement of the semantics, the only engine that records per-step flows
(``trace_flows``), and accepts arbitrary policy objects.
:func:`resolve_engine` therefore routes SoC traces to ``"segments"``,
flow traces and non-lowerable policies to ``"loop"`` under
``engine="auto"``, and refuses what an explicitly requested compiled
engine cannot record.

A ``dtype=np.float32`` knob on the segments engine provides the racing
fast path: float32 halves memory traffic for the lower fidelity rungs
where only certified bounds matter (results are then *not* bitwise — the
rung-bound test documents the epsilon and shows the final front is
unchanged after float64 promotion).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..sam.batterymodels.clc import CLCParameters
from ..units import SECONDS_PER_HOUR, WH_PER_KWH
from .dispatch import (
    ISLANDED_EPS_W,
    UNLIMITED_CHARGE_W,
    CarbonAwareDispatch,
    DefaultDispatch,
    DispatchResult,
    IslandedDispatch,
    ScenarioStack,
    TimeWindowDispatch,
    TouArbitrageDispatch,
    VectorizedPolicy,
)

try:  # pragma: no cover - exercised only on numba-enabled CI legs
    from numba import njit as _numba_njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    _numba_njit = None
    HAS_NUMBA = False

__all__ = [
    "ENGINES",
    "HAS_NUMBA",
    "MODE_CHARGE_ONLY",
    "MODE_GREEDY",
    "MODE_UNLIMITED",
    "is_lowerable",
    "lower_policy",
    "resolve_engine",
    "run_compiled",
    "run_dispatch_segments",
]

#: accepted values of the ``engine`` knob
ENGINES = ("auto", "loop", "segments", "njit")

# -- policy lowering ---------------------------------------------------------
#
# Every VectorizedPolicy shipped with the framework reduces, per
# (step, scenario), to one of three *request modes* — how the raw net load
# is turned into the battery power request:

#: request the net balance as-is (charge surplus, discharge into deficits)
MODE_GREEDY = 0
#: charge from surplus only; never discharge (request = max(net, 0))
MODE_CHARGE_ONLY = 1
#: charge as fast as the battery allows (request = +inf, clipped by limits)
MODE_UNLIMITED = 2

_LOWERABLE = (
    DefaultDispatch,
    IslandedDispatch,
    TimeWindowDispatch,
    CarbonAwareDispatch,
    TouArbitrageDispatch,
)


def is_lowerable(policy: VectorizedPolicy | None) -> bool:
    """Whether the policy lowers to a mode table (strict type check —
    subclasses may override ``dispatch_arrays`` arbitrarily, so they
    conservatively fall back to the reference loop)."""
    if policy is None:
        return True
    return type(policy) in _LOWERABLE


def lower_policy(
    policy: VectorizedPolicy | None, stack: ScenarioStack
) -> np.ndarray | None:
    """Lower a policy to a ``(T, S)`` uint8 mode table, or ``None``.

    The table reproduces the decisions ``policy.dispatch_arrays`` makes
    inside the reference loop *exactly*: the same comparisons are applied
    to the same values (hour-of-day, carbon-intensity and price columns),
    so the lowered request decomposition is bit-for-bit equivalent.
    """
    policy = policy or DefaultDispatch()
    if not is_lowerable(policy):
        return None
    t_steps, s = stack.n_steps, stack.n_scenarios
    kind = type(policy)
    if kind in (DefaultDispatch, IslandedDispatch):
        return np.zeros((t_steps, s), dtype=np.uint8)
    if kind is TimeWindowDispatch:
        # Same arithmetic as in_daily_window(t * dt_s, start, end) per step.
        hours = (np.arange(t_steps, dtype=np.float64) * stack.step_s) / SECONDS_PER_HOUR
        hours %= 24.0
        start, end = policy.discharge_start_h, policy.discharge_end_h
        if start <= end:
            in_window = (hours >= start) & (hours < end)
        else:
            in_window = (hours >= start) | (hours < end)
        col = np.where(in_window, MODE_GREEDY, MODE_CHARGE_ONLY).astype(np.uint8)
        return np.ascontiguousarray(np.broadcast_to(col[:, None], (t_steps, s)))
    if kind is CarbonAwareDispatch:
        dirty = stack.ci_g_per_kwh >= np.asarray(policy.ci_discharge_g_per_kwh)
        table = np.where(dirty, MODE_GREEDY, MODE_CHARGE_ONLY).astype(np.uint8)
        return np.ascontiguousarray(table.T)
    # TouArbitrageDispatch: cheap beats peak (they are mutually exclusive
    # anyway — charge threshold is validated below the discharge one).
    cheap = stack.prices_usd_kwh <= np.asarray(policy.charge_price_usd_kwh)
    peak = stack.prices_usd_kwh >= np.asarray(policy.discharge_price_usd_kwh)
    table = np.full((s, t_steps), MODE_CHARGE_ONLY, dtype=np.uint8)
    table[peak] = MODE_GREEDY
    table[cheap] = MODE_UNLIMITED
    return np.ascontiguousarray(table.T)


# -- engine selection --------------------------------------------------------


def resolve_engine(
    engine: str,
    policy: VectorizedPolicy | None = None,
    trace_soc: bool = False,
    trace_flows: bool = False,
) -> str:
    """Resolve the ``engine`` knob to a concrete engine name.

    ``"auto"`` silently falls back to the reference loop whenever a
    compiled engine cannot reproduce it bit-for-bit (per-step flow
    traces, custom policies).  A SoC trace goes to ``"segments"``, the
    one compiled engine that records it; otherwise ``"auto"`` prefers
    njit > segments.  Explicitly requested compiled engines *refuse*
    instead of falling back, so a user who asked for ``"njit"`` never
    silently measures the loop.  (:func:`repro.core.dispatch.run_dispatch`
    keeps one more ``"auto"`` case on the loop: a SoC trace of a single
    cell, see the comment there.)
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine == "loop":
        return "loop"
    lowerable = is_lowerable(policy)
    if engine == "auto":
        if trace_flows or not lowerable:
            return "loop"
        if trace_soc:
            return "segments"
        return "njit" if HAS_NUMBA else "segments"
    if trace_flows:
        raise ConfigurationError(
            f"engine={engine!r} does not record per-step flows; "
            "use engine='loop' (or 'auto', which falls back to it)"
        )
    if trace_soc and engine == "njit":
        raise ConfigurationError(
            "engine='njit' does not record a SoC trace; "
            "use engine='segments' or 'auto'"
        )
    if not lowerable:
        raise ConfigurationError(
            f"policy {type(policy).__name__} cannot be lowered to a dispatch "
            "table; use engine='loop' (or 'auto', which falls back to it)"
        )
    if engine == "njit" and not HAS_NUMBA:
        raise ConfigurationError(
            "engine='njit' requires numba, which is not installed; "
            "use engine='segments' or 'auto'"
        )
    return engine


def run_compiled(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
    engine: str = "segments",
    dtype: "np.dtype | type" = np.float64,
    trace_soc: bool = False,
) -> DispatchResult:
    """Run a *resolved* compiled engine (``"segments"`` or ``"njit"``)."""
    if engine == "segments":
        return run_dispatch_segments(
            stack,
            solar_kw,
            turbine_factor,
            capacity_wh,
            params,
            initial_soc=initial_soc,
            policy=policy,
            dtype=dtype,
            trace_soc=trace_soc,
        )
    if trace_soc:
        raise ConfigurationError(f"engine={engine!r} does not record a SoC trace")
    if engine == "njit":
        return _run_dispatch_njit(
            stack,
            solar_kw,
            turbine_factor,
            capacity_wh,
            params,
            initial_soc=initial_soc,
            policy=policy,
        )
    raise ConfigurationError(f"run_compiled expects a compiled engine, got {engine!r}")


# -- the segment-vectorized engine -------------------------------------------


def _candidate_groups(
    solar_kw: np.ndarray, turbine_factor: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """Detect a repeated-group candidate layout.

    The paper's composition grid varies the battery axis fastest, so the
    (solar, wind) pair — all that net load depends on — repeats in
    consecutive runs of ``g`` candidates.  Returns ``(g, unique solar,
    unique turbine factors)``; ``g == 1`` means no grouping was found and
    the prologue runs at full width.
    """
    n = solar_kw.size
    for g in (9, 8, 12, 6, 4, 3, 2):
        if n % g == 0 and n > g:
            kw_u = solar_kw[0::g]
            tb_u = turbine_factor[0::g]
            if np.array_equal(np.repeat(kw_u, g), solar_kw) and np.array_equal(
                np.repeat(tb_u, g), turbine_factor
            ):
                return g, kw_u, tb_u
    return 1, solar_kw, turbine_factor


def run_dispatch_segments(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
    dtype: "np.dtype | type" = np.float64,
    block: int = 8,
    trace_soc: bool = False,
) -> DispatchResult:
    """Segment-vectorized dispatch: bitwise-equal to the reference loop.

    Restructures :func:`repro.core.dispatch.run_dispatch` around a mode
    table (policy decisions precomputed for all steps) and block
    processing, keeping every floating-point operation IEEE-identical to
    the loop.  ``dtype=np.float32`` selects the non-bitwise racing fast
    path.  ``block`` trades prologue/epilogue amortization against
    working-set size; correctness does not depend on it.  ``trace_soc``
    records the per-step SoC as the loop does, returned as an
    ``(S, N, T+1)`` view of one time-major buffer.
    """
    policy = policy or DefaultDispatch()
    table = lower_policy(policy, stack)
    if table is None:
        raise ConfigurationError(
            f"policy {type(policy).__name__} cannot be lowered; use engine='loop'"
        )
    if block <= 0:
        raise ConfigurationError(f"block must be positive, got {block}")
    f = np.dtype(dtype)
    if f not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ConfigurationError(f"dtype must be float64 or float32, got {dtype!r}")
    islanded = bool(policy.islanded)

    s = stack.n_scenarios
    n = int(solar_kw.size)
    t_steps = stack.n_steps
    dt_h = stack.step_s / SECONDS_PER_HOUR
    unit_dt = dt_h == 1.0
    flat = s * n
    blk = int(block)

    cap = np.asarray(capacity_wh, dtype=np.float64)
    safe_cap = np.maximum(cap, 1e-12)
    soc0 = float(np.clip(initial_soc, params.soc_min, params.soc_max))

    # Candidate grouping for the net-load prologue (see _candidate_groups).
    group, kw_u, tb_u = _candidate_groups(
        np.asarray(solar_kw, dtype=np.float64),
        np.asarray(turbine_factor, dtype=np.float64),
    )
    grouped = group > 1
    u = n // group
    kw_u = kw_u.astype(f, copy=False)
    tb_u = tb_u.astype(f, copy=False)

    # Battery workspace: one row per per-candidate state/constant, flat
    # (S·N) so adjacent rows can share fused ufunc calls below.
    #   0 e_max | 1 energy | 2 e_min | 3 headroom | 4 available
    #   5 p_lim | 6 discharge limit | 7 soc/taper | 8 safe_cap
    #   9 cap·c_rate | 10 span | 11 eta_c | 12 eta_d
    work = np.empty((13, flat), dtype=f)

    def _fill(row: int, values: "np.ndarray | float") -> None:
        np.copyto(work[row], np.broadcast_to(np.asarray(values, dtype=f), (s, n)).reshape(-1))

    _fill(0, cap * params.soc_max)
    _fill(1, cap * soc0)
    _fill(2, cap * params.soc_min)
    _fill(6, cap * params.max_discharge_c_rate)
    _fill(8, safe_cap)
    _fill(9, cap * params.max_charge_c_rate)
    span = max(params.soc_max - params.taper_soc_threshold, 1e-9)
    work[10] = span
    work[11] = params.eta_charge
    work[12] = params.eta_discharge

    e_max, energy, head, avail, p_lim, taper = (
        work[0],
        work[1],
        work[3],
        work[4],
        work[5],
        work[7],
    )
    safe_f, capr_f, span_f, etac_f, etad_f = work[8], work[9], work[10], work[11], work[12]
    # Fused row pairs: head/avail = (e_max, energy) − (energy, e_min) and
    # min((p_lim, d_lim), (head, avail)) each run as ONE two-row ufunc call.
    rows_eh = work[0:2]
    rows_ha = work[3:5]
    rows_pd = work[5:7]
    rows_ee = work[1:3]

    decay = 1.0 - params.self_discharge_per_hour * dt_h
    eps_wh = ISLANDED_EPS_W * dt_h
    soc_max = params.soc_max

    # Time-major contiguous profiles: one cheap row index per step instead
    # of a strided column slice (the reference loop now does the same).
    sol_t = np.ascontiguousarray(stack.solar_per_kw_w.T).astype(f, copy=False)
    wind_t = np.ascontiguousarray(stack.wind_per_turbine_w.T).astype(f, copy=False)
    load_t = np.ascontiguousarray(stack.load_w.T).astype(f, copy=False)
    ci_t = np.ascontiguousarray(stack.ci_g_per_kwh.T).astype(f, copy=False)
    price_t = np.ascontiguousarray(stack.prices_usd_kwh.T).astype(f, copy=False)
    credit = stack.export_credit_usd_kwh.astype(f, copy=False)

    has_modes = bool(table.any())
    charge_only = table == MODE_CHARGE_ONLY if has_modes else None
    unlimited = table == MODE_UNLIMITED if has_modes else None

    # Accumulator rows (matching the reference loop's += order):
    #   0 import | 1 export | 2 charge | 3 discharge | 4 unserved
    #   5 emissions | 6 cost | 7 islanded steps
    # Each block writes per-step contributions into contrib[:, 1:b+1] and
    # folds them with one strictly-sequential add.reduce whose row 0 is
    # the running total — the same left-to-right addition order as the
    # loop's per-step +=.
    n_acc = 8
    totals = np.zeros((n_acc, s, n), dtype=f)
    contrib = np.empty((n_acc, blk + 1, s, n), dtype=f)
    contrib[0 if islanded else 4] = 0.0  # inactive import/unserved row
    if islanded:
        contrib[5] = 0.0  # no grid import → no operational emissions

    # Block scratch. rp/rn double as kWh scratch in the epilogue.
    net = np.empty((blk, s, n), dtype=f)
    rp = np.empty((blk, s, n), dtype=f)
    rn = np.empty((blk, s, n), dtype=f)
    accepted = np.empty((blk, s, n), dtype=f)
    residual = np.empty((blk, s, n), dtype=f)
    if grouped:
        net_u = np.empty((blk, s, u), dtype=f)
        scratch_u = np.empty((blk, s, u), dtype=f)
        rp_u = np.empty((blk, s, u), dtype=f)
        rn_u = np.empty((blk, s, u), dtype=f)
        net_g = net.reshape(blk, s, u, group)
        rp_g = rp.reshape(blk, s, u, group)
        rn_g = rn.reshape(blk, s, u, group)
    else:
        net_u, rp_u, rn_u = net, rp, rn
        scratch_u = np.empty((blk, s, n), dtype=f)

    mul, div, sub, add = np.multiply, np.divide, np.subtract, np.add
    mx, mn = np.maximum, np.minimum
    # Flat per-step row views of the block buffers, built once per call.
    rp_rows = [rp[i].reshape(-1) for i in range(blk)]
    rn_rows = [rn[i].reshape(-1) for i in range(blk)]
    acc_rows = [accepted[i].reshape(-1) for i in range(blk)]
    pc_rows = [contrib[2, 1 + i].reshape(-1) for i in range(blk)]
    pd_rows = [contrib[3, 1 + i].reshape(-1) for i in range(blk)]

    # SoC trace, time-major so each step writes one contiguous row: the
    # loop's energy_wh / safe_cap, same operands and the same one divide.
    soc_rows = None
    if trace_soc:
        soc_rows = np.empty((t_steps + 1, flat), dtype=f)
        div(energy, safe_f, soc_rows[0])

    for t0 in range(0, t_steps, blk):
        t1 = min(t0 + blk, t_steps)
        b = t1 - t0

        # --- prologue: net load and request decomposition ----------------
        # request = net (greedy) lowered to rp = max(net, 0), rn = rp − net
        # (≡ max(−net, 0)); CHARGE_ONLY zeroes rn; UNLIMITED sets rp = +inf.
        sol_c = sol_t[t0:t1, :, None]
        wind_c = wind_t[t0:t1, :, None]
        load_c = load_t[t0:t1, :, None]
        nu = net_u[:b]
        mul(sol_c, kw_u, nu)
        mul(wind_c, tb_u, scratch_u[:b])
        add(nu, scratch_u[:b], nu)
        sub(nu, load_c, nu)
        mx(nu, 0.0, out=rp_u[:b])
        sub(rp_u[:b], nu, rn_u[:b])
        if has_modes:
            m1 = charge_only[t0:t1]
            if m1.any():
                rn_u[:b][m1] = 0.0
            m2 = unlimited[t0:t1]
            if m2.any():
                rp_u[:b][m2] = UNLIMITED_CHARGE_W
                rn_u[:b][m2] = 0.0
        if grouped:
            np.copyto(net_g[:b], net_u[:b, :, :, None])
            np.copyto(rp_g[:b], rp_u[:b, :, :, None])
            np.copyto(rn_g[:b], rn_u[:b, :, :, None])

        # --- sequential battery recurrence (C/L/C, exact op order) -------
        for i in range(b):
            p_charge = pc_rows[i]
            p_discharge = pd_rows[i]
            mul(energy, decay, energy)  # self-discharge (max(·,0) is a no-op: e ≥ 0)
            div(energy, safe_f, taper)
            sub(soc_max, taper, taper)
            div(taper, span_f, taper)
            mx(taper, 0.0, out=taper)
            mn(taper, 1.0, out=taper)
            mul(capr_f, taper, p_lim)
            sub(rows_eh, rows_ee, rows_ha)  # head = e_max − e ; avail = e − e_min
            if not unit_dt:
                div(head, dt_h, head)
            div(head, etac_f, head)
            mx(avail, 0.0, out=avail)
            if not unit_dt:
                div(avail, dt_h, avail)
            mul(avail, etad_f, avail)
            mn(rows_pd, rows_ha, out=rows_ha)  # min(p_lim, head) ; min(d_lim, avail)
            mn(rp_rows[i], head, out=p_charge)
            mn(rn_rows[i], avail, out=p_discharge)
            sub(p_charge, p_discharge, acc_rows[i])
            mul(p_charge, etac_f, head)  # stored gain (η_c·P_c)·dt
            if unit_dt:
                div(p_discharge, etad_f, avail)  # stored loss (P_d·dt)/η_d
            else:
                mul(head, dt_h, head)
                mul(p_discharge, dt_h, avail)
                div(avail, etad_f, avail)
            add(energy, head, energy)
            sub(energy, avail, energy)
            mx(energy, 0.0, out=energy)
            mn(energy, e_max, out=energy)
            if soc_rows is not None:
                div(energy, safe_f, soc_rows[t0 + i + 1])

        # --- epilogue: grid split, costs, emissions, islanding -----------
        acc_b = accepted[:b]
        export_c = contrib[1, 1 : b + 1]
        deficit_c = contrib[4 if islanded else 0, 1 : b + 1]
        cost_c = contrib[6, 1 : b + 1]
        isl_c = contrib[7, 1 : b + 1]
        res_b = residual[:b]
        sub(net[:b], acc_b, res_b)
        mx(res_b, 0.0, out=export_c)  # export power
        sub(export_c, res_b, deficit_c)  # import/unserved power (= max(−res, 0))
        if not unit_dt:
            mul(export_c, dt_h, export_c)
            mul(deficit_c, dt_h, deficit_c)
            mul(contrib[2:4, 1 : b + 1], dt_h, contrib[2:4, 1 : b + 1])
        export_kwh = rn[:b]
        div(export_c, WH_PER_KWH, export_kwh)
        mul(export_kwh, credit, export_kwh)
        if islanded:
            sub(0.0, export_kwh, cost_c)
        else:
            import_kwh = rp[:b]
            div(deficit_c, WH_PER_KWH, import_kwh)
            emissions_c = contrib[5, 1 : b + 1]
            mul(import_kwh, ci_t[t0:t1, :, None], emissions_c)
            div(emissions_c, 1000.0, emissions_c)
            mul(import_kwh, price_t[t0:t1, :, None], cost_c)
            sub(cost_c, export_kwh, cost_c)
        np.less_equal(deficit_c, eps_wh, out=isl_c)

        contrib[:, 0] = totals
        np.add.reduce(contrib[:, : b + 1], axis=1, out=totals)

    out = totals.astype(np.float64)  # exact for f64; exact widening for f32
    soc = None
    if soc_rows is not None:
        # A transposed view, not a copy: a copy would double the trace's
        # peak memory.
        soc = soc_rows.astype(np.float64, copy=False)
        soc = soc.reshape(t_steps + 1, s, n).transpose(1, 2, 0)
    return DispatchResult(
        import_wh=out[0],
        export_wh=out[1],
        charge_wh=out[2],
        discharge_wh=out[3],
        unserved_wh=out[4],
        emissions_kg=out[5],
        cost_usd=out[6],
        islanded_steps=out[7],
        soc=soc,
    )


# -- the numba kernel --------------------------------------------------------


def _njit_cell_loop(
    sol_t,
    wind_t,
    load_t,
    ci_t,
    price_t,
    credit,
    solar_kw,
    turbine_factor,
    cap,
    energy0,
    table,
    dt_h,
    eta_c,
    eta_d,
    c_rate,
    d_rate,
    taper_thr,
    soc_max,
    decay,
    islanded,
    out,
):
    """Scalar dispatch over all (scenario, candidate) cells.

    Mirrors the reference loop's floating-point op order exactly; with
    numba's default ``fastmath=False`` (strict IEEE, no contraction) the
    accumulators come out bitwise equal.  Kept as a plain function so the
    pure-python fallback stays importable (and testable) without numba.
    """
    t_steps, s = sol_t.shape
    n = solar_kw.shape[0]
    span = max(soc_max - taper_thr, 1e-9)
    eps_wh = ISLANDED_EPS_W * dt_h
    for si in range(s):
        cr = credit[si]
        for ni in range(n):
            c = cap[ni]
            safe = max(c, 1e-12)
            e_min = energy0[n + ni]
            e_max = c * soc_max
            p_cap = c * c_rate
            d_cap = c * d_rate
            e = energy0[ni]
            imp_a = 0.0
            exp_a = 0.0
            chg_a = 0.0
            dis_a = 0.0
            uns_a = 0.0
            em_a = 0.0
            cost_a = 0.0
            isl_a = 0.0
            for t in range(t_steps):
                net = (
                    sol_t[t, si] * solar_kw[ni]
                    + wind_t[t, si] * turbine_factor[ni]
                    - load_t[t, si]
                )
                mode = table[t, si]
                if mode == MODE_UNLIMITED:
                    rp = np.inf
                    rn = 0.0
                else:
                    rp = max(net, 0.0)
                    rn = 0.0 if mode == MODE_CHARGE_ONLY else rp - net
                e = e * decay
                taper = (soc_max - e / safe) / span
                if taper < 0.0:
                    taper = 0.0
                elif taper > 1.0:
                    taper = 1.0
                p_lim = p_cap * taper
                head = (e_max - e) / dt_h / eta_c
                avail = max(e - e_min, 0.0) / dt_h * eta_d
                p_charge = min(rp, min(p_lim, head))
                p_discharge = min(rn, min(d_cap, avail))
                acc = p_charge - p_discharge
                e = e + eta_c * p_charge * dt_h - p_discharge * dt_h / eta_d
                if e < 0.0:
                    e = 0.0
                elif e > e_max:
                    e = e_max
                res = net - acc
                exp_w = max(res, 0.0)
                def_w = exp_w - res
                exp_t = exp_w * dt_h
                def_t = def_w * dt_h
                exp_a += exp_t
                chg_a += p_charge * dt_h
                dis_a += p_discharge * dt_h
                exp_kwh = exp_t / WH_PER_KWH
                if islanded:
                    uns_a += def_t
                    cost_a += 0.0 - exp_kwh * cr
                else:
                    imp_a += def_t
                    imp_kwh = def_t / WH_PER_KWH
                    em_a += imp_kwh * ci_t[t, si] / 1000.0
                    cost_a += imp_kwh * price_t[t, si] - exp_kwh * cr
                if def_t <= eps_wh:
                    isl_a += 1.0
            out[0, si, ni] = imp_a
            out[1, si, ni] = exp_a
            out[2, si, ni] = chg_a
            out[3, si, ni] = dis_a
            out[4, si, ni] = uns_a
            out[5, si, ni] = em_a
            out[6, si, ni] = cost_a
            out[7, si, ni] = isl_a
    return out


if HAS_NUMBA:  # pragma: no cover - compiled leg runs on numba-enabled CI
    _njit_cell_loop_compiled = _numba_njit(cache=True)(_njit_cell_loop)
else:
    _njit_cell_loop_compiled = None


def _run_dispatch_njit(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
) -> DispatchResult:
    """njit engine front-end: lower the policy, call the compiled kernel."""
    if not HAS_NUMBA:
        raise ConfigurationError("engine='njit' requires numba, which is not installed")
    policy = policy or DefaultDispatch()
    table = lower_policy(policy, stack)
    if table is None:
        raise ConfigurationError(
            f"policy {type(policy).__name__} cannot be lowered; use engine='loop'"
        )
    s, n = stack.n_scenarios, int(solar_kw.size)
    cap = np.ascontiguousarray(capacity_wh, dtype=np.float64)
    soc0 = float(np.clip(initial_soc, params.soc_min, params.soc_max))
    # energy0 packs [initial energy | e_min] per candidate in one vector.
    energy0 = np.concatenate([cap * soc0, cap * params.soc_min])
    dt_h = stack.step_s / SECONDS_PER_HOUR
    out = np.empty((8, s, n), dtype=np.float64)
    _njit_cell_loop_compiled(
        np.ascontiguousarray(stack.solar_per_kw_w.T),
        np.ascontiguousarray(stack.wind_per_turbine_w.T),
        np.ascontiguousarray(stack.load_w.T),
        np.ascontiguousarray(stack.ci_g_per_kwh.T),
        np.ascontiguousarray(stack.prices_usd_kwh.T),
        np.ascontiguousarray(stack.export_credit_usd_kwh[:, 0]),
        np.ascontiguousarray(solar_kw, dtype=np.float64),
        np.ascontiguousarray(turbine_factor, dtype=np.float64),
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
    return DispatchResult(
        import_wh=out[0],
        export_wh=out[1],
        charge_wh=out[2],
        discharge_wh=out[3],
        unserved_wh=out[4],
        emissions_kg=out[5],
        cost_usd=out[6],
        islanded_steps=out[7],
    )
