"""Pipelined dispatch vs the generation barrier: idle-time reclamation.

The perf-trajectory point for the pipelined dispatcher (DESIGN.md §10).
A deterministic **sleep-cost objective** with a heavy-tailed duration
distribution — most trials are cheap, a seeded minority are 20×
stragglers — is driven through a generation barrier and the pipelined
dispatcher on thread workers
(sleeping releases the GIL, so the bench measures real slot concurrency
even on a single CPU):

1. **Generation-batched** — a bench-owned generation loop: each
   generation's trials split into ``WORKERS`` even chunks on a thread
   pool, and the next generation waits for the slowest chunk at the
   barrier.  The loop times every dispatch and every trial to measure
   the worker-seconds the barrier wastes.
2. **Pipelined, speculation off** — :class:`PipelinedDispatcher` with
   ``speculate=0``: must produce the *bit-identical* trial sequence
   (params and values), asserted unconditionally.
3. **Pipelined, speculation on** — ``speculate=BATCH`` (full-depth):
   worker slots backfill across the generation boundary while the
   straggler finishes.

Headlines land in ``benchmarks/output/BENCH_pipeline.json`` for
``check_regression.py``: the wall-clock speedup of (3) over (1) and the
relative idle-time reduction.  The ≥1.5× / ≥60 % floor assertions are
opt-in (``bench`` marker) so loaded CI machines skip rather than flake;
the bit-identity assertion always runs.

The sampler is deliberately :class:`RandomSampler`: with per-trial RNG
streams its params are a pure function of the trial number, so all
three runs evaluate the *same* 48 sleeps — the comparison measures
scheduling alone, not sampling drift.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.blackbox.distributions import FloatDistribution
from repro.blackbox.parallel import PipelinedDispatcher, materialize_params
from repro.blackbox.samplers.random import RandomSampler
from repro.blackbox.study import Study

WORKERS = 4
BATCH = 16
N_TRIALS = 48
SEED = 11
SHORT = 0.01
LONG = 0.20
#: params below this are stragglers (~12 % of uniform draws)
TAIL_QUANTILE = 0.12
#: full-depth speculation: the whole next generation may breed early,
#: so slots stay full even through a 20x straggler
SPECULATE = BATCH

SPACE = {"x": FloatDistribution(0.0, 1.0), "y": FloatDistribution(0.0, 1.0)}

#: opt-in floors for the headline metrics (guarded by the bench marker)
SPEEDUP_FLOOR = 1.5
IDLE_REDUCTION_FLOOR = 0.60


def sleep_cost(params: dict) -> float:
    """Deterministic heavy-tailed duration: a pure function of params."""
    return LONG if params["x"] < TAIL_QUANTILE else SHORT


def sleepy_objective(params: dict) -> tuple[float, float]:
    time.sleep(sleep_cost(params))
    return (params["x"] ** 2 + params["y"], (params["x"] - 1.0) ** 2 + params["y"])


def _study() -> Study:
    return Study(
        directions=["minimize", "minimize"], sampler=RandomSampler(seed=SEED)
    )


def _snapshot(study: Study) -> list:
    return [(t.number, dict(t.params), t.values) for t in study.trials]


def chunk_evenly(items: list, n_chunks: int) -> "list[list]":
    """≤ ``n_chunks`` contiguous, order-preserving, near-equal chunks."""
    size = -(-len(items) // n_chunks)  # ceil division
    return [items[i : i + size] for i in range(0, len(items), size)]


def _timed_chunk(chunk: "list[dict]") -> "list[tuple[tuple[float, float], float]]":
    """Evaluate one worker's chunk, timing each trial worker-side."""
    outcomes = []
    for params in chunk:
        start = time.perf_counter()
        values = sleepy_objective(params)
        outcomes.append((values, time.perf_counter() - start))
    return outcomes


def run_generational() -> "tuple[Study, float, float]":
    """Generation barrier: ask a whole generation in the parent, fan it
    out in ``WORKERS`` even chunks, and wait for every chunk.

    Returns the study, the run's wall-clock, and its idle fraction —
    ``1 - busy / (WORKERS × dispatch wall)`` summed over generations.
    """
    study = _study()
    study.sampler.per_trial_seeding = True
    dispatch = busy = 0.0
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for first in range(0, N_TRIALS, BATCH):
            trials = [study.ask() for _ in range(min(BATCH, N_TRIALS - first))]
            for trial in trials:
                params = study.sampler.ask(study, trial.number, SPACE)
                materialize_params(trial, params, SPACE)
            batch_start = time.perf_counter()
            chunks = chunk_evenly([dict(t.params) for t in trials], WORKERS)
            outcomes = [o for chunk in pool.map(_timed_chunk, chunks) for o in chunk]
            dispatch += time.perf_counter() - batch_start
            for trial, (values, seconds) in zip(trials, outcomes):
                busy += seconds
                study.tell(trial, values)
    wall = time.perf_counter() - start
    idle = max(0.0, 1.0 - busy / (dispatch * WORKERS)) if dispatch > 0 else 0.0
    return study, wall, idle


def run_pipelined(speculate: int) -> "tuple[Study, PipelinedDispatcher, float]":
    study = _study()
    dispatcher = PipelinedDispatcher(
        study,
        SPACE,
        workers=WORKERS,
        executor="thread",
        speculate=speculate,
        batch_size=BATCH,
    )
    start = time.perf_counter()
    dispatcher.optimize(sleepy_objective, n_trials=N_TRIALS)
    return study, dispatcher, time.perf_counter() - start


@pytest.fixture(scope="module")
def pipeline_runs(output_dir):
    gen_study, t_gen, idle_gen = run_generational()
    pipe0_study, _, _ = run_pipelined(0)
    spec_study, spec_dispatcher, t_spec = run_pipelined(SPECULATE)

    idle_spec = spec_dispatcher.stats.idle_fraction
    speedup = t_gen / t_spec if t_spec > 0 else float("inf")
    idle_reduction = (idle_gen - idle_spec) / idle_gen if idle_gen > 0 else 0.0

    stragglers = sum(
        1 for t in gen_study.trials if sleep_cost(t.params) == LONG
    )
    report = (
        f"pipelined dispatch benchmark ({N_TRIALS} trials, batch {BATCH}, "
        f"{WORKERS} thread workers, {stragglers} stragglers "
        f"{LONG / SHORT:.0f}x the base cost):\n"
        f"  generation barrier  : {t_gen:6.2f} s (idle {100 * idle_gen:5.1f} %)\n"
        f"  pipelined spec={SPECULATE}   : {t_spec:6.2f} s "
        f"(idle {100 * idle_spec:5.1f} %, "
        f"{spec_dispatcher.stats.n_speculative} speculative)\n"
        f"  wall-clock speedup  : {speedup:5.2f}x\n"
        f"  idle-time reduction : {100 * idle_reduction:5.1f} %\n"
        f"  spec=0 bit-identical: yes\n"
    )
    print("\n" + report)
    (output_dir / "pipeline_dispatch.txt").write_text(report)
    (output_dir / "BENCH_pipeline.json").write_text(
        json.dumps(
            {
                "pipeline": {
                    "generated_by": "benchmarks/bench_pipeline.py",
                    "config": {
                        "trials": N_TRIALS,
                        "batch": BATCH,
                        "workers": WORKERS,
                        "speculate": SPECULATE,
                        "short_s": SHORT,
                        "long_s": LONG,
                        "stragglers": stragglers,
                    },
                    "generational_seconds": round(t_gen, 3),
                    "pipelined_seconds": round(t_spec, 3),
                    "generational_idle": round(idle_gen, 4),
                    "pipelined_idle": round(idle_spec, 4),
                    "n_speculative": spec_dispatcher.stats.n_speculative,
                    "wall_clock_speedup": round(speedup, 2),
                    "idle_reduction": round(idle_reduction, 4),
                }
            },
            indent=2,
        )
        + "\n"
    )
    return {
        "gen": _snapshot(gen_study),
        "pipe0": _snapshot(pipe0_study),
        "speedup": speedup,
        "idle_gen": idle_gen,
        "idle_spec": idle_spec,
        "idle_reduction": idle_reduction,
    }


def test_pipelined_spec0_bit_identical_to_barrier(pipeline_runs):
    """Always-on correctness gate: speculation off → the exact barrier run."""
    assert pipeline_runs["pipe0"] == pipeline_runs["gen"]


def test_barrier_wastes_worker_seconds(pipeline_runs):
    """The problem statement: the barrier idles a large slice of capacity."""
    assert pipeline_runs["idle_gen"] > 0.3


@pytest.mark.bench
def test_pipelined_wallclock_speedup(pipeline_runs):
    assert pipeline_runs["speedup"] >= SPEEDUP_FLOOR, (
        f"pipelined dispatch only {pipeline_runs['speedup']:.2f}x faster "
        f"than the generation barrier (want ≥ {SPEEDUP_FLOOR}x)"
    )


@pytest.mark.bench
def test_pipelined_idle_reduction(pipeline_runs):
    assert pipeline_runs["idle_reduction"] >= IDLE_REDUCTION_FLOOR, (
        f"pipelining reclaimed only {100 * pipeline_runs['idle_reduction']:.1f}% "
        f"of barrier idle time (want ≥ {100 * IDLE_REDUCTION_FLOOR:.0f}%)"
    )
