"""The segments dispatch engine (DESIGN.md §9).

The per-timestep reference loop
(:func:`repro.core.dispatch.run_dispatch_loop`) states the dispatch
semantics, but dispatch is the framework's hot path: every study,
ensemble and racing rung funnels through it.
:func:`run_dispatch_segments` computes the loop's accumulators (and SoC
trace) **bit for bit** in pure numpy.  The policy decision is *lowered*
ahead of time to a numeric mode table (one of three request modes per
(step, scenario) — see :func:`lower_policy`), which turns the per-step
policy callback into array masking.  SoC couples consecutive steps;
everything is restructured for throughput:

* the battery recurrence runs in time lanes: each window of the
  horizon is cut into lanes that step side by side, each from a
  guessed energy some steps before its boundary.  A lane whose
  energy at its boundary has the bits of the previous lane's end is
  exact from there; the cells that differ are re-run on scalars.
  Each step's flows are then rebuilt from the checked energies;
* time steps are processed in chunks — the net-load/request prologue
  and the grid/cost/emissions epilogue run once per chunk over
  ``(chunk, S, N)`` tensors instead of once per step.  The chunk is
  sized from the call's width (4 096 steps at one cell, 8 from 512
  cells); the per-step contributions are folded into the totals left
  to right (at S·N = 1 as numpy's pairwise reduce of fixed 8-step
  groups, built for a whole chunk at once);
* the paper's candidate grid repeats each (solar, wind) pair over the
  battery axis, so net load is computed on the ~9× smaller set of
  unique pairs and broadcast back;
* per-step battery state lives in one contiguous ``(rows, S·N)``
  workspace so adjacent rows can share fused ufunc calls, its
  constants (including 0, 1 and the decay factor) are rows too, so
  every per-step ufunc takes array operands only, and every
  operation writes into preallocated buffers (zero allocations in
  the inner loop).  An hourly step costs 18 ufunc calls;
* those 18 dispatches cost about the same at any narrow width, so a
  call of a few cells too short for many lanes (a one-cell call of up
  to 1 440 steps, say) runs the same operations on Python floats
  instead, with the same bits.

Each replaced expression is an exact floating-point identity of the
reference loop's (same IEEE-754 operations, same order), so the
results are bitwise equal — not merely close.  The identities are
pinned by ``tests/test_kernel_differential.py``.

:func:`repro.core.dispatch.run_dispatch` picks the path from the call
alone: per-step flow traces (``trace_flows``), policies outside the five
lowerable ones and a SoC trace of a single cell run on the reference
loop, everything else here.
"""

from __future__ import annotations

from itertools import islice
from math import copysign

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

__all__ = [
    "MODE_CHARGE_ONLY",
    "MODE_GREEDY",
    "MODE_UNLIMITED",
    "is_lowerable",
    "lower_policy",
    "run_dispatch_segments",
]

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


#: Steps per accumulator fold: one ``np.add.reduce`` adds a group of this
#: many per-step contributions to the running total, left to right for
#: S·N > 1 as the loop's ``+=`` does, pairwise at S·N = 1 (the defect
#: :func:`_fold_group` describes), so the group size is part of those sums.
_FOLD_STEPS = 8
#: Cell budget (steps × S·N) of one prologue/epilogue chunk buffer.
_CHUNK_CELLS = 4096
#: Trajectory cells (steps × S·N) of one lane window: 480 KiB in float64.
#: A 512 KiB budget measured +1.0 MB of ensemble_ladder peak RSS, this one
#: +0.36 MB.
_LANE_WINDOW_CELLS = 61440
#: Most lanes, cells per lane step, and steps each lane warms up for.
#: The lane-step and lane-length bounds limit all but the narrowest long
#: calls: a full-year call gets 128 lanes up to 7 cells, 64 up to 14, 32
#: up to 29 and 16 up to 56; a 720-step call at most 8.  Against a cap of
#: 16 (with chunks of at most 64 steps), per call, min ms of interleaved
#: runs in one process (the host as in the ``_SCALAR_CELLS`` table):
#:
#:   calls (T × S·N)                  lanes      cap 16 → cap 128
#:   8 760 × 1                        128        10.9 (scalar path) → 2.8
#:   8 760 × 21 / 23 / 24             16 → 32    29.0 / 31.2 / 27.9 → 29.6 / 32.7 / 28.2
#:   8 760 × 30 / 32 / 41 / 50        16         27.5 / 28.7 / 40.6 / 40.4
#:                                               → 25.5 / 27.1 / 39.3 / 39.2
#:   a seed-42 paper_houston study's  16 or 32   230 → 228 (median of 21: 247 → 243)
#:     7 calls (8 760 × 21–50), summed
#:   a seed-42 ensemble_ladder        ≤ 8        463 → 466 (median of 11: 490 → 489)
#:     study's 88 calls (720 × 4–160), summed
_LANES_MAX = 128
_LANE_STEP_CELLS = 1024
_LANE_OVERLAP = 64
#: Widest call (S·N) run in lanes.  Past it a step's cost grows with its
#: cells more than lanes save in dispatches: one lane against the best
#: lane count, ms, 720 steps: 80 cells 13.8 / 10.7, 100 cells 15.3 / 15.4,
#: 128 cells 18.9 / 21.2; full year: 100 cells 140 / 100, 128 cells
#: 135 / 139, 160 cells 134 / 159.
_LANE_MAX_CELLS = 100
#: Widest call (S·N cells) that may run on the scalar path, and
#: the most cells (lanes × S·N) of the lane step it would take instead.
#: Houston calls, best of 9, vector / scalar ms, untraced (traced reads
#: the same within noise), on a shared 2-vCPU x86-64 host (CPython 3.11,
#: numpy 2.4):
#:
#:   T (lanes)       S·N = 2      3            4            6
#:   168 (1)         1.62 / 0.39  2.58 / 0.70  2.81 / 0.81  3.11 / 1.44
#:   264 (2)         2.67 / 0.59  2.47 / 1.07  2.45 / 1.44  2.66 / 1.91
#:   336 (4)         2.36 / 0.81  2.20 / 1.11  2.24 / 1.67  2.57 / 2.20
#:   720 (8)         2.50 / 1.57  2.53 / 2.23  2.53 / 3.14  2.65 / 4.87
#:   1 440 (16)      3.29 / 3.15  3.72 / 4.91  3.41 / 6.77  3.64 / 9.29
#:   8 760 (128)     5.07 / 17.6  6.34 / 26.2  9.35 / 35.4  8.07 / 53.3
#:
#: and at one cell (mean of six paper compositions):
#:
#:   T (lanes)       720 (8)      1 440 (16)   2 184 (32)   8 760 (128)
#:   S·N = 1         2.52 / 1.17  1.79 / 1.92  2.38 / 2.85  2.76 / 10.9
#:
#: Scalar wins, or ties, while lanes × S·N ≤ 16: one cell stays scalar up
#: to 1 440 steps, and a full-year one runs in 128 lanes.
_SCALAR_CELLS = 6
_SCALAR_LANE_CELLS = 16


def _lane_plan(t_steps: int, flat: int) -> tuple[int, int, int]:
    """Lanes, overlap and window (steps) of a vector call T steps and
    S·N = ``flat`` cells wide.

    The window holds ``_LANE_WINDOW_CELLS`` trajectory cells.  The lane
    count is the largest power of two up to ``_LANES_MAX`` whose lane
    step stays within ``_LANE_STEP_CELLS`` cells and whose lanes are at
    least ``_LANE_OVERLAP`` steps long: wider steps cost about as much
    per cell as the sequential ones, and shorter lanes spend most of
    their steps warming up.  Calls wider than ``_LANE_MAX_CELLS`` get one
    lane: the sequential step.
    """
    flat = max(flat, 1)  # a call with no cells plans as one cell
    window = max(_FOLD_STEPS, _LANE_WINDOW_CELLS // flat // _FOLD_STEPS * _FOLD_STEPS)
    long_enough = (min(window, t_steps) - _LANE_OVERLAP) // _LANE_OVERLAP
    fit = min(_LANES_MAX, _LANE_STEP_CELLS // flat, long_enough)
    if flat > _LANE_MAX_CELLS:
        fit = 1
    lanes = 1
    while lanes * 2 <= fit:
        lanes *= 2
    return lanes, _LANE_OVERLAP, window


def _chunk_steps(flat: int) -> int:
    """Steps per prologue/epilogue chunk for a call ``flat`` = S·N cells wide.

    Whole fold groups, as many as fit ``_CHUNK_CELLS``: narrow calls
    amortize the chunk's ufunc calls over many steps (4 096 at one cell,
    192 at 21 cells, 80 at 50), while wide calls (S·N ≥ 512) keep 8-step
    chunks, whose buffers stay in cache (a fixed 64-step chunk measured
    slower there).  No output's bits depend on the chunk length.
    """
    return _FOLD_STEPS * max(1, _CHUNK_CELLS // flat // _FOLD_STEPS)


def run_dispatch_segments(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
    trace_soc: bool = False,
) -> DispatchResult:
    """Segment-vectorized dispatch: bitwise-equal to the reference loop.

    Restructures :func:`repro.core.dispatch.run_dispatch_loop` around a
    mode table (policy decisions precomputed for all steps), keeping every
    floating-point operation IEEE-identical to the loop.  Calls of at
    most ``_SCALAR_CELLS`` cells whose lane plan (:func:`_lane_plan`)
    gives a lane step of at most ``_SCALAR_LANE_CELLS`` cells run
    :func:`_segments_scalar`, all others :func:`_segments_vector`, whose
    battery recurrence runs in those time lanes; both return the same
    bits.  ``trace_soc`` records the per-step SoC as the loop does,
    returned as an ``(S, N, T+1)`` view of one time-major buffer.  A
    policy outside the five lowerable ones raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    flat = stack.n_scenarios * int(solar_kw.size)
    if flat <= _SCALAR_CELLS and flat * _lane_plan(stack.n_steps, flat)[0] <= _SCALAR_LANE_CELLS:
        return _segments_scalar(
            stack, solar_kw, turbine_factor, capacity_wh, params, initial_soc, policy, trace_soc
        )
    return _segments_vector(
        stack, solar_kw, turbine_factor, capacity_wh, params, initial_soc, policy, trace_soc
    )


def _lowered(policy: VectorizedPolicy | None, stack: ScenarioStack):
    """The policy (default if None) and its mode table, or a refusal."""
    policy = policy or DefaultDispatch()
    table = lower_policy(policy, stack)
    if table is None:
        raise ConfigurationError(
            f"policy {type(policy).__name__} cannot be lowered to a dispatch "
            "table; run_dispatch runs it on the reference loop"
        )
    return policy, table


def _time_major(stack: ScenarioStack) -> list[np.ndarray]:
    """Solar, wind, load, CI and price as contiguous ``(T, S)`` arrays, so
    each step reads one row instead of a strided column (as the loop does)."""
    profiles = (stack.solar_per_kw_w, stack.wind_per_turbine_w, stack.load_w)
    profiles += (stack.ci_g_per_kwh, stack.prices_usd_kwh)
    return [np.ascontiguousarray(a.T, dtype=np.float64) for a in profiles]


def _dispatch_result(totals: np.ndarray, soc_rows: np.ndarray | None) -> DispatchResult:
    """Pack ``(8, S, N)`` totals and a ``(T+1, S·N)`` SoC trace."""
    soc = None
    if soc_rows is not None:
        # A transposed view, not a copy: a copy would double the trace's
        # peak memory.
        soc = soc_rows.reshape(len(soc_rows), *totals.shape[1:]).transpose(1, 2, 0)
    return DispatchResult(*totals, soc=soc)  # rows in the fields' order


def _fold_left(steps, totals=(0.0,) * 7) -> tuple[float, ...]:
    """Add each step's seven terms to the running totals, step by step, as
    the loop's ``+=`` does (the vector engine's fold at S·N > 1)."""
    a, b, c, d, e, f, g = totals
    for ta, tb, tc, td, te, tf, tg in steps:
        a += ta
        b += tb
        c += tc
        d += td
        e += te
        f += tf
        g += tg
    return a, b, c, d, e, f, g


def _sum8(t, c1, c2, c3, c4, c5, c6, c7, c8):
    return (((t + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))) + c8


def _sum7(t, c1, c2, c3, c4, c5, c6, c7):
    return ((t + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))


def _fold_group(steps, t_steps: int) -> tuple[float, ...]:
    """The vector engine's fold at S·N = 1: one ``np.add.reduce`` per
    contiguous ``[total, c1..c8]``, which numpy sums pairwise from eight
    elements on, ``((t+c1)+(c2+c3))+((c4+c5)+(c6+c7))`` then ``+ c8``,
    and left to right below eight, over ``t_steps`` step tuples.  Fixing
    that fold (the strict xfail
    ``test_single_cell_long_horizon_segments_bitwise``) replaces this
    helper with :func:`_fold_left`, and the vector reduce with an ordered
    one."""
    it = iter(steps)
    totals = (0.0,) * 7
    for group in islice(zip(it, it, it, it, it, it, it, it), t_steps // _FOLD_STEPS):
        totals = tuple(map(_sum8, totals, *group))
    tail = list(it)
    if len(tail) == _FOLD_STEPS - 1:
        return tuple(map(_sum7, totals, *tail))
    return _fold_left(tail, totals)


def _fold_pairwise(steps: np.ndarray, totals: np.ndarray, rows: np.ndarray) -> None:
    """The vector step's fold at S·N = 1, for a whole chunk at once.

    Adds ``steps`` (accumulators × b steps) into ``totals`` bit for bit
    as one ``np.add.reduce`` per contiguous ``[total, c1..c8]`` from the
    chunk's first step would.  numpy sums such a group pairwise, which is
    the left fold of the total over ``c1, c2+c3, (c4+c5)+(c6+c7), c8``;
    a 7-step tail drops ``c8``, and a shorter one adds left to right.
    Those terms are built for every group at once into ``rows`` (at least
    ``4·(b//8) + 8`` rows, accumulators the contiguous inner axis), and
    one reduce down the rows folds them left to right from the totals.
    Fixing the fold deletes this helper with :func:`_fold_group`.
    """
    n_acc, b = steps.shape
    if b == 0:
        return
    g, tail = divmod(b, _FOLD_STEPS)
    x = steps[:, : b - tail].reshape(n_acc, g, _FOLD_STEPS)
    terms = rows[1 : 1 + 4 * g].reshape(g, 4, n_acc).transpose(2, 0, 1)
    np.add(x[..., 1:7:2], x[..., 2:7:2], out=terms[..., 1:])  # c2+c3, c4+c5, c6+c7
    np.add(terms[..., 2], terms[..., 3], out=terms[..., 2])
    np.copyto(terms[..., ::3], x[..., ::7])  # c1, c8
    m = 1 + 4 * g
    last = steps[:, b - tail :].T
    if tail == _FOLD_STEPS - 1:
        rows[m] = last[0]
        np.add(last[1:7:2], last[2:7:2], out=rows[m + 1 : m + 4])
        np.add(rows[m + 2], rows[m + 3], out=rows[m + 2])
        m += 3
    else:
        rows[m : m + tail] = last
        m += tail
    rows[0] = totals
    np.add.reduce(rows[:m], axis=0, out=totals)


def _segments_scalar(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
    trace_soc: bool = False,
) -> DispatchResult:
    """The segments engine's narrow path: the vector step, cell by cell.

    Every float64 operation of :func:`_segments_vector`, on the same
    operands in the same order, on Python floats read through zero-copy
    ``memoryview``s: the same accumulators and SoC trace at any width.
    ``np.maximum``/``np.minimum`` are written out with numpy's semantics:
    NaN from either side wins, and a tie (0.0 against -0.0) returns the
    second operand.
    """
    policy, table = _lowered(policy, stack)
    islanded = bool(policy.islanded)
    s, n, t_steps = stack.n_scenarios, int(solar_kw.size), stack.n_steps
    flat = s * n
    dt_h = stack.step_s / SECONDS_PER_HOUR
    eps_wh = ISLANDED_EPS_W * dt_h
    soc0 = float(np.clip(initial_soc, params.soc_min, params.soc_max))
    eta_c, eta_d, soc_max = params.eta_charge, params.eta_discharge, params.soc_max
    span = max(soc_max - params.taper_soc_threshold, 1e-9)
    decay = 1.0 - params.self_discharge_per_hour * dt_h
    cap = np.broadcast_to(np.asarray(capacity_wh, dtype=np.float64), (s, n))
    group, kw_u, tb_u = _candidate_groups(
        np.asarray(solar_kw, dtype=np.float64),
        np.asarray(turbine_factor, dtype=np.float64),
    )
    cols = [memoryview(a.reshape(-1)) for a in (*_time_major(stack), table)]
    soc_rows = np.empty((t_steps + 1, flat)) if trace_soc else None
    soc_v = memoryview(soc_rows.reshape(-1)) if trace_soc else None

    def cell(columns, cr, c, kw, tb, k):
        """One cell's fold terms, step by step; writes its SoC trace."""
        safe = c if c > 1e-12 or c != c else 1e-12
        e_max, e_min = c * soc_max, c * params.soc_min
        p_cap, d_lim = c * params.max_charge_c_rate, c * params.max_discharge_c_rate
        e = c * soc0
        if soc_v is not None:
            soc_v[k] = e / safe
        for sol, wind, load, ci, price, mode in zip(*columns):
            # prologue: request decomposition
            net = sol * kw + wind * tb - load
            rp = net if net > 0.0 or net != net else 0.0
            rn = rp - net if mode == MODE_GREEDY else 0.0
            if mode == MODE_UNLIMITED:
                rp = UNLIMITED_CHARGE_W
            # battery step (C/L/C)
            e *= decay
            taper = (soc_max - e / safe) / span
            head = e_max - e
            avail = e - e_min
            avail = avail if avail > 0.0 or avail != avail else 0.0
            taper = taper if taper > 0.0 or taper != taper else 0.0
            # The vector step skips ·dt_h and /dt_h on the hour; they are
            # exact there (x·1 = x/1 = x), so this body always applies them.
            head /= dt_h
            avail /= dt_h
            head /= eta_c
            taper = taper if taper < 1.0 or taper != taper else 1.0
            avail *= eta_d
            p_lim = taper * p_cap
            head = p_lim if p_lim < head or p_lim != p_lim else head
            avail = d_lim if d_lim < avail or d_lim != d_lim else avail
            pc = rp if rp < head or rp != rp else head
            pd = rn if rn < avail or rn != rn else avail
            e = e + pc * eta_c * dt_h - pd * dt_h / eta_d
            e = e if e > 0.0 or e != e else 0.0
            e = e if e < e_max or e != e else e_max
            if soc_v is not None:
                k += flat
                soc_v[k] = e / safe
            # epilogue: grid split, costs, emissions, islanding
            res = net - (pc - pd)
            exp_w = res if res > 0.0 or res != res else 0.0
            dfc = (exp_w - res) * dt_h
            exp_w *= dt_h
            exp_kwh = exp_w / WH_PER_KWH * cr
            if islanded:
                em, cost = 0.0, 0.0 - exp_kwh
            else:
                imp_kwh = dfc / WH_PER_KWH
                em = imp_kwh * ci / 1000.0
                cost = imp_kwh * price - exp_kwh
            isl = 1.0 if dfc <= eps_wh else 0.0
            yield dfc, exp_w, pc * dt_h, pd * dt_h, em, cost, isl

    totals = np.zeros((8, s, n))
    # Accumulator row of each term: deficit (import, or unserved when
    # islanded), export, charge, discharge, emissions, cost, islanded.
    rows = [4 if islanded else 0, 1, 2, 3, 5, 6, 7]
    for si in range(s):
        columns = [col[si::s] for col in cols]
        cr = float(stack.export_credit_usd_kwh[si, 0])
        for ni in range(n):
            c, g = float(cap[si, ni]), ni // group
            steps = cell(columns, cr, c, float(kw_u[g]), float(tb_u[g]), si * n + ni)
            totals[rows, si, ni] = _fold_group(steps, t_steps) if flat == 1 else _fold_left(steps)
    return _dispatch_result(totals, soc_rows)


def _segments_vector(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float = 0.5,
    policy: VectorizedPolicy | None = None,
    trace_soc: bool = False,
) -> DispatchResult:
    """The segments engine's vector step, over all S·N cells at once, in
    the time lanes :func:`_lane_plan` picks for the call's T and S·N
    (:func:`_segments_lanes`; one lane is the plain sequential step)."""
    lanes, overlap, window = _lane_plan(stack.n_steps, stack.n_scenarios * int(solar_kw.size))
    return _segments_lanes(
        stack, solar_kw, turbine_factor, capacity_wh, params, initial_soc, policy, trace_soc,
        lanes, overlap, window,
    )


def _rerun(e, sol, wind, load, modes, stored, kw, tb, k, dt_h) -> list:
    """Re-run one cell's steps from its true energy ``e``.

    The vector step's operations on scalars, as :func:`_segments_scalar`
    writes them (``k`` holds the cell's workspace constants), over the
    cell's profile and mode columns, until a step's energy has the bit
    pattern ``stored`` holds for it: from there on the stored energies
    are exact.  Returns the energies after each step before that one
    (all of them if none matched), which replace the stored ones.
    """
    e_max, e_min, d_lim, eta_d, p_cap, safe, span, eta_c, decay, soc_max = k
    out = []
    for sol_w, wind_w, load_w, mode, s in zip(sol, wind, load, modes, stored):
        net = sol_w * kw + wind_w * tb - load_w
        rp = net if net > 0.0 or net != net else 0.0
        rn = rp - net if mode == MODE_GREEDY else 0.0
        if mode == MODE_UNLIMITED:
            rp = UNLIMITED_CHARGE_W
        e *= decay
        taper = (soc_max - e / safe) / span
        head = e_max - e
        avail = e - e_min
        avail = avail if avail > 0.0 or avail != avail else 0.0
        taper = taper if taper > 0.0 or taper != taper else 0.0
        head /= dt_h
        avail /= dt_h
        head /= eta_c
        taper = taper if taper < 1.0 or taper != taper else 1.0
        avail *= eta_d
        p_lim = taper * p_cap
        head = p_lim if p_lim < head or p_lim != p_lim else head
        avail = d_lim if d_lim < avail or d_lim != d_lim else avail
        pc = rp if rp < head or rp != rp else head
        pd = rn if rn < avail or rn != rn else avail
        e = e + pc * eta_c * dt_h - pd * dt_h / eta_d
        e = e if e > 0.0 or e != e else 0.0
        e = e if e < e_max or e != e else e_max
        # Same bit pattern, tested without packing each step: equal
        # values with the same sign bit, or two NaNs with equal bytes.
        if e == s:
            if e != 0.0 or copysign(1.0, e) == copysign(1.0, s):
                break
        elif e != e and s != s and np.asarray(e).tobytes() == np.asarray(s).tobytes():
            break
        out.append(e)
    return out


def _segments_lanes(
    stack: ScenarioStack,
    solar_kw: np.ndarray,
    turbine_factor: np.ndarray,
    capacity_wh: np.ndarray,
    params: CLCParameters,
    initial_soc: float,
    policy: VectorizedPolicy | None,
    trace_soc: bool,
    lanes: int,
    overlap: int,
    window: int,
    guess: "np.ndarray | float | None" = None,
) -> DispatchResult:
    """The vector step in time lanes (DESIGN.md §9), bit for bit the
    sequential step at any ``lanes``, ``overlap`` and ``window``.

    The horizon runs in windows of ``window`` steps (rounded up to whole
    fold groups), which bound the recorded trajectory.  In a window, the
    battery recurrence runs ``lanes`` lanes side by side as lanes·S·N
    cells, one lane every L steps: lane 0 from the window's checked start
    energy, lane j ≥ 1 from ``guess`` (default: that start energy),
    ``overlap`` steps before its boundary.  Each cell's energy is all a
    step hands to the next, so where lane j's energy at its boundary has
    the bits of lane j−1's checked end, lane j is exact; the other cells
    are re-run (:func:`_rerun`) from the true energy until they meet the
    lane's own.  Then each chunk, in time order, runs the net-load
    prologue, rebuilds its steps' charge and discharge from the checked
    trajectory with the step's own operations (vectorized over time),
    and runs the epilogue and the ``_FOLD_STEPS`` fold.
    """
    policy, table = _lowered(policy, stack)
    islanded = bool(policy.islanded)

    s = stack.n_scenarios
    n = int(solar_kw.size)
    t_steps = stack.n_steps
    dt_h = stack.step_s / SECONDS_PER_HOUR
    unit_dt = dt_h == 1.0
    flat = s * n
    if flat == 0:  # no cells, nothing to step (the constants below read cell 0)
        soc_rows = np.empty((t_steps + 1, 0)) if trace_soc else None
        return _dispatch_result(np.zeros((8, s, n)), soc_rows)
    blk = _chunk_steps(flat)
    if lanes == 1:
        window = blk  # one lane steps chunk by chunk, as the sequential step does
    window = _FOLD_STEPS * max(1, -(-min(window, t_steps) // _FOLD_STEPS))
    # Steps per lane-prologue chunk.
    lane_blk = blk if lanes == 1 else max(1, _CHUNK_CELLS // (lanes * flat))

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

    # Battery workspace: one (lanes, S·N) row per per-cell state/constant,
    # so adjacent rows can share fused ufunc calls below.  Scalars enter
    # the step as constant rows too: a ufunc with two array operands
    # dispatches about twice as fast as one with a Python float.
    #   0 e_max | 1 energy | 2 e_min | 3 headroom | 4 available
    #   5 taper, then p_lim | 6 discharge limit | 7 eta_d | 8 cap·c_rate
    #   9 safe_cap | 10 span | 11 eta_c | 12 decay | 13 soc_max
    #   14, 15 zero | 16 one | 17, 18 dt_h | 19 charge | 20 discharge
    work = np.empty((21, lanes, flat))

    def _cells(values: "np.ndarray | float") -> np.ndarray:
        return np.broadcast_to(np.asarray(values, dtype=np.float64), (s, n)).reshape(-1)

    for row, values in (
        (0, cap * params.soc_max),
        (2, cap * params.soc_min),
        (6, cap * params.max_discharge_c_rate),
        (7, params.eta_discharge),
        (8, cap * params.max_charge_c_rate),
        (9, safe_cap),
        (10, max(params.soc_max - params.taper_soc_threshold, 1e-9)),
        (11, params.eta_charge),
        (12, 1.0 - params.self_discharge_per_hour * dt_h),
        (13, params.soc_max),
        (14, 0.0),
        (15, 0.0),
        (16, 1.0),
        (17, dt_h),
        (18, dt_h),
    ):
        np.copyto(work[row], _cells(values))
    # Lane 0's per-cell rows and the call's scalars, for the
    # time-vectorized pass.
    emax0, emin0, dlim0, pcap0, safe0 = work[(0, 2, 6, 8, 9), 0]
    etad_s, span_s, etac_s, decay_s, socmax_s, dt_s = work[(7, 10, 11, 12, 13, 17), 0, 0]
    zero_s, one_s = np.float64(0.0), np.float64(1.0)
    # Re-runs read Python floats through zero-copy memoryviews.
    rerun_consts = [memoryview(r) for r in work[(0, 2, 6, 7, 8, 9, 10, 11, 12, 13), 0]]
    rerun_dt = float(work[17, 0, 0])
    kw_s, tb_s = memoryview(kw_u), memoryview(tb_u)

    eps_wh = ISLANDED_EPS_W * dt_h

    profiles = _time_major(stack)
    sol_t, wind_t, load_t, ci_t, price_t = profiles
    credit = stack.export_credit_usd_kwh

    has_modes = bool(table.any())
    charge_only = table == MODE_CHARGE_ONLY if has_modes else None
    unlimited = table == MODE_UNLIMITED if has_modes else None

    mul, div, sub, add = np.multiply, np.divide, np.subtract, np.add
    mx, mn = np.maximum, np.minimum

    def prologue(sol, wind, load, m1, m2, net, rp, rn, net_u, rp_u, rn_u):
        """Net load and request decomposition over (…, S) profile rows.
        request = net (greedy) lowered to rp = max(net, 0), rn = rp − net
        (≡ max(−net, 0)); CHARGE_ONLY zeroes rn; UNLIMITED sets rp = +inf."""
        mul(sol[..., None], kw_u, net_u)
        mul(wind[..., None], tb_u, rn_u)
        add(net_u, rn_u, net_u)
        sub(net_u, load[..., None], net_u)
        mx(net_u, 0.0, out=rp_u)
        sub(rp_u, net_u, rn_u)
        if m1 is not None and m1.any():
            rn_u[m1] = 0.0
        if m2 is not None and m2.any():
            rp_u[m2] = UNLIMITED_CHARGE_W
            rn_u[m2] = 0.0
        if grouped:
            np.copyto(net, net_u[..., None])
            np.copyto(rp, rp_u[..., None])
            np.copyto(rn, rn_u[..., None])

    def buffers(shape):
        """net, rp, rn (shape + (S, N)) and their unique-pair views, laid
        over the start of the shared pools below."""
        cells = 3 * s * int(np.prod(shape))
        full = pool[: cells * n].reshape(3, *shape, s, n)
        if not grouped:
            return (*full, *full)
        uniq = uniq_pool[: cells * u].reshape(3, *shape, s, u)
        return (*full.reshape(3, *shape, s, u, group), *uniq)

    # Accumulator rows (matching the reference loop's += order):
    #   0 import | 1 export | 2 charge | 3 discharge | 4 unserved
    #   5 emissions | 6 cost | 7 islanded steps
    # Each chunk writes per-step contributions into contrib[:, 1:b+1] and
    # folds them into the totals.  At S·N > 1 the running total goes into
    # column 0 and one add.reduce sums the chunk: numpy reduces that
    # (outer) step axis left to right, as the loop's += does.  At S·N = 1
    # it sums pairwise, in 8-step groups (_fold_pairwise).
    n_acc = 8
    totals = np.zeros((n_acc, s, n))
    contrib = np.empty((n_acc, blk + 1, s, n))
    contrib[0 if islanded else 4] = 0.0  # inactive import/unserved row
    if islanded:
        contrib[5] = 0.0  # no grid import → no operational emissions
    # Lane-prologue buffers and chunk buffers (rp/rn double as kWh scratch
    # in the epilogue, and net holds the residual there), and at S·N = 1
    # the fold's rows.  The lane pass and the chunk pass never overlap,
    # nor the epilogue and the fold, so they share one pool.  One lane's
    # prologue fills the chunk buffers (the same memory): its window is
    # the chunk.
    pool_steps = max(lane_blk * lanes, blk)
    pair_size = (4 * (blk // _FOLD_STEPS) + 8) * n_acc if flat == 1 else 0
    pool = np.empty(max(3 * pool_steps * flat, pair_size))
    uniq_pool = np.empty(3 * pool_steps * s * u) if grouped else None
    pair_rows = pool[:pair_size].reshape(-1, n_acc) if flat == 1 else None
    lane_bufs = buffers((lane_blk, lanes))
    lane_rp, lane_rn = (a.reshape(lane_blk, lanes, flat) for a in lane_bufs[1:3])
    chunk_bufs = buffers((blk,))
    net, rp, rn = (a.reshape(blk, s, n) for a in chunk_bufs[:3])
    # The time-vectorized step works in contrib rows: headroom becomes
    # the charge row, available the discharge row, and the export and
    # cost rows, which the epilogue rewrites, hold the decayed energy and
    # the taper.
    steps_c = contrib.reshape(n_acc, blk + 1, flat)[:, 1:]
    # The window's trajectory: the energy before each step, row 0 the
    # window's checked start.
    traj = np.empty((window + 1, flat))
    np.copyto(traj[0], _cells(cap * soc0))
    # One lane is exact from its start, so a one-lane call's steps write
    # their charge and discharge into the contrib rows, not rebuilt.
    kept = contrib[2:4, 1:].reshape(2, blk, 1, flat) if lanes == 1 else None

    as_strided = np.lib.stride_tricks.as_strided
    item = traj.itemsize
    row_b = flat * item

    # SoC trace, time-major so each step has one contiguous row: the
    # loop's energy_wh / safe_cap, same operands and the same one divide.
    soc_rows = None
    if trace_soc:
        soc_rows = np.empty((t_steps + 1, flat))
        div(traj[0], safe0, soc_rows[0])

    geometries = {}

    def lane_views(lane, i0, i1, k):
        """The step's views for offsets i0..i1−1 of k lanes `lane` steps
        apart: the workspace rows, and per-step rows of the trajectory,
        the flows and the requests.  Built once per geometry (every full
        window shares one), so the step itself only indexes lists."""
        key = (lane, i0, i1, k)
        if key not in geometries:
            ws = work[:, :k]
            # Lane j at offset i is window step jL + i: strided views put
            # the k lanes side by side.  Where lanes overlap, the lane that
            # owns a step writes it last.
            if k == 1:
                e_lanes = traj[i0 : i1 + 1, None]
            else:
                e_lanes = as_strided(traj[i0:], (i1 - i0 + 1, k, flat), (row_b, lane * row_b, item))
            if kept is None:
                flows = [ws[19]] * (i1 - i0), [ws[20]] * (i1 - i0)
            else:
                flows = list(kept[0, i0:i1]), list(kept[1, i0:i1])
            requests = [list(a[:, :k]) for a in (lane_rp, lane_rn)]
            # The workspace rows by name, then the fused row pairs (each
            # ONE two-row ufunc call per step):
            #   (head, avail) = (e_max, energy) − (energy, e_min)
            #   (avail, taper) = max((avail, taper), 0)
            #   (avail, p_lim) = (avail, taper) · (eta_d, cap·c_rate)
            #   (head, avail) = min((p_lim, d_lim), (head, avail))
            # and, off the hour, (head, avail) /= dt_h.
            rows = [ws[r] for r in (0, 1, 3, 4, 5, 7, 9, 10, 11, 12, 13, 14, 16, 17)]
            rows += [ws[r : r + 2] for r in (0, 1, 3, 4, 5, 7, 14, 17)]
            geometries[key] = (rows, list(e_lanes), *flows, *requests)
        return geometries[key]

    def run_lanes(w0, lane, w, i0, i1, k):
        """Offsets i0..i1−1 of k lanes `lane` steps apart from window
        step w0; returns the lanes' energies at offset w (their
        boundaries) if it ran that offset."""
        rows, e_rows, pc_rows, pd_rows, rp_rows, rn_rows = lane_views(lane, i0, i1, k)
        (e_max, energy, head, avail, taper, etad_f, safe_f, span_f, etac_f, decay_f,
         socmax_f, zero_f, one_f, dt_f, rows_eh, rows_ee, rows_ha, rows_at, rows_pd,
         rows_dc, zero2, dt2) = rows

        def folded(a):
            if k == 1:
                return a[w0 + i0 : w0 + i1, None]
            strides = (a.strides[0], lane * a.strides[0], *a.strides[1:])
            return as_strided(a[w0 + i0 :], (i1 - i0, k, *a.shape[1:]), strides, writeable=False)

        # The profiles and the mode table, lowered once on the whole
        # stack, folded into lanes.
        lane_in = [folded(a) for a in profiles[:3]]
        lane_in += [folded(m) if has_modes else None for m in (charge_only, unlimited)]
        bound = None
        for c0 in range(i0, i1, lane_blk):
            c1 = min(c0 + lane_blk, i1)
            prologue(
                *(a if a is None else a[c0 - i0 : c1 - i0] for a in lane_in),
                *(a[: c1 - c0, :k] for a in lane_bufs),
            )
            for i in range(c0, c1):
                if i == w and k > 1:
                    # Each lane's own energy at its boundary, before the
                    # previous lane writes its end there.
                    bound = traj[w :: lane][:k].copy()
                p_charge, p_discharge = pc_rows[i - i0], pd_rows[i - i0]
                # self-discharge (max(·,0) is a no-op: e ≥ 0)
                mul(e_rows[i - i0], decay_f, energy)
                div(energy, safe_f, taper)
                sub(socmax_f, taper, taper)
                div(taper, span_f, taper)
                sub(rows_eh, rows_ee, rows_ha)  # head = e_max − e ; avail = e − e_min
                mx(rows_at, zero2, out=rows_at)  # max(avail, 0) ; max(taper, 0)
                if not unit_dt:
                    div(rows_ha, dt2, rows_ha)
                div(head, etac_f, head)  # head / η_c
                mn(taper, one_f, out=taper)  # min(taper, 1)
                # avail·η_d ; p_lim = taper·(cap·c_rate), which IEEE rounds
                # exactly as the loop's (cap·c_rate)·taper
                mul(rows_at, rows_dc, rows_at)
                mn(rows_pd, rows_ha, out=rows_ha)  # min(p_lim, head) ; min(d_lim, avail)
                mn(rp_rows[i - c0], head, out=p_charge)
                mn(rn_rows[i - c0], avail, out=p_discharge)
                mul(p_charge, etac_f, head)  # stored gain (η_c·P_c)·dt
                if unit_dt:
                    div(p_discharge, etad_f, avail)  # stored loss (P_d·dt)/η_d
                else:
                    mul(head, dt_f, head)
                    mul(p_discharge, dt_f, avail)
                    div(avail, etad_f, avail)
                add(energy, head, energy)
                sub(energy, avail, energy)
                mx(energy, zero_f, out=energy)
                mn(energy, e_max, out=e_rows[i - i0 + 1])
        return bound

    def rebuild(e_prev, rp_b, rn_b, b):
        """The steps' charge and discharge from the energies before them:
        the battery step's operations, in its order, vectorized over
        time, into the contrib rows."""
        e_d, hd, av, tp = (steps_c[row, :b] for row in (1, 2, 3, 6))
        mul(e_prev, decay_s, e_d)
        div(e_d, safe0, tp)
        sub(socmax_s, tp, tp)
        div(tp, span_s, tp)
        sub(emax0, e_d, hd)
        sub(e_d, emin0, av)
        mx(av, zero_s, out=av)
        mx(tp, zero_s, out=tp)
        if not unit_dt:
            div(hd, dt_s, hd)
            div(av, dt_s, av)
        div(hd, etac_s, hd)
        mn(tp, one_s, out=tp)
        mul(av, etad_s, av)
        mul(tp, pcap0, tp)
        mn(tp, hd, out=hd)
        mn(dlim0, av, out=av)
        mn(rp_b, hd, out=hd)
        mn(rn_b, av, out=av)

    for w0 in range(0, t_steps, window):
        tw = min(window, t_steps - w0)

        # --- battery recurrence, in k lanes L steps apart -----------------
        # Lane j runs window steps jL .. jL+L+w−1 and owns the last L of
        # them (lane 0 all L+w).  The last lane stops at the window's end.
        k = lanes if tw - overlap >= lanes else 1
        w = overlap if k > 1 else 0
        lane = -(-(tw - w) // k)
        k = -(-(tw - w) // lane)  # no lane starts past the window's end
        steps = lane + w
        past = k * lane + w - tw  # offsets the last lane would run past it
        if k > 1:
            np.copyto(traj[lane : k * lane : lane], traj[0] if guess is None else guess)
        bound = run_lanes(w0, lane, w, 0, steps - past, k)
        if past:
            run_lanes(w0, lane, w, steps - past, steps, k - 1)

        # --- check each lane's boundary bit for bit, re-run the misses ----
        # Lane j−1's checked end (row jL+w) against lane j's own energy
        # there, by bit pattern: == would take -0.0 for 0.0 and never
        # match a NaN.  A re-run that reaches its lane's end has changed
        # that end, so its cell is checked again at the next boundary.
        if k > 1:
            ends = traj[lane + w :: lane][: k - 1]
            misses = np.nonzero(ends.view(np.uint64) != bound[1:].view(np.uint64))
            todo = [set() for _ in range(k)]
            for j, c in zip(*(idx.tolist() for idx in misses)):
                todo[j + 1].add(c)
            carry = set()
            for j in range(1, k):
                p0 = j * lane + w
                p1 = min(p0 + lane, tw)
                cells, carry = todo[j] | carry, set()
                for c in sorted(cells):
                    if traj[p0, c].tobytes() == bound[j, c].tobytes():
                        continue
                    si, ni = divmod(c, n)
                    t0, t1 = w0 + p0, w0 + p1
                    energies = memoryview(traj[p0 : p1 + 1, c])
                    fixed = _rerun(
                        energies[0],
                        *(memoryview(a[t0:t1, si]) for a in profiles[:3]),
                        memoryview(table[t0:t1, si]),
                        energies[1:],
                        kw_s[ni // group],
                        tb_s[ni // group],
                        [col[c] for col in rerun_consts],
                        rerun_dt,
                    )
                    traj[p0 + 1 : p0 + 1 + len(fixed), c] = fixed
                    if len(fixed) == p1 - p0:
                        carry.add(c)

        # --- per chunk, in time order ------------------------------------
        for c0 in range(0, tw, blk):
            c1 = min(c0 + blk, tw)
            b = c1 - c0
            t0, t1 = w0 + c0, w0 + c1
            if kept is None:
                # The prologue, then the steps' charge and discharge rebuilt
                # from the checked trajectory (one lane wrote both already).
                m1 = charge_only[t0:t1] if has_modes else None
                m2 = unlimited[t0:t1] if has_modes else None
                prologue(
                    sol_t[t0:t1], wind_t[t0:t1], load_t[t0:t1], m1, m2,
                    *(a[:b] for a in chunk_bufs),
                )
                rebuild(traj[c0:c1], rp[:b].reshape(b, flat), rn[:b].reshape(b, flat), b)
            if soc_rows is not None:
                div(traj[c0 + 1 : c1 + 1], safe0, soc_rows[t0 + 1 : t1 + 1])

            # --- epilogue: grid split, costs, emissions, islanding -------
            export_c = contrib[1, 1 : b + 1]
            deficit_c = contrib[4 if islanded else 0, 1 : b + 1]
            cost_c = contrib[6, 1 : b + 1]
            isl_c = contrib[7, 1 : b + 1]
            res_b = net[:b]
            sub(contrib[2, 1 : b + 1], contrib[3, 1 : b + 1], export_c)  # accepted power
            sub(res_b, export_c, res_b)
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

            if pair_rows is None:
                contrib[:, 0] = totals
                np.add.reduce(contrib[:, : b + 1], axis=1, out=totals)
            else:
                steps_b = contrib[:, 1 : b + 1].reshape(n_acc, b)
                _fold_pairwise(steps_b, totals.reshape(n_acc), pair_rows)

        np.copyto(traj[0], traj[tw])

    return _dispatch_result(totals, soc_rows)
