"""Job launchers: run independent jobs serially or across processes.

The paper parallelizes its search "across a cluster of compute nodes"
through Hydra; here the same seam is a launcher object.  The
multiprocessing launcher fans jobs out to worker processes — on a
multi-core machine this parallelizes scenario evaluation with no code
changes upstream (hpc-parallel guide: prefer process-level parallelism
for CPU-bound NumPy workloads, since the battery loop holds the GIL).

Launchers are payload-agnostic: a job is any picklable object (a
:class:`~repro.confsys.sweeper.SweepJob` for config sweeps, a
``(scenario, compositions)`` chunk for the parallel batch evaluator).
``fn`` and jobs must both be picklable (module-level functions/classes)
for the multiprocessing path, and results always come back in job order.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Any, Callable, Sequence

from ..exceptions import ConfigurationError

JobFn = Callable[[Any], Any]


def chunk_evenly(items: Sequence[Any], n_chunks: int) -> list[list[Any]]:
    """Split ``items`` into ≤ ``n_chunks`` contiguous, order-preserving
    chunks of near-equal size (the per-worker job shape of the chunked
    batch evaluator)."""
    if not items:
        return []
    size = -(-len(items) // max(n_chunks, 1))  # ceil division
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


class SerialLauncher:
    """Runs jobs in order in the current process."""

    def launch(self, fn: JobFn, jobs: Sequence[Any]) -> list[Any]:
        return [fn(job) for job in jobs]


def _invoke(args: tuple[JobFn, Any]) -> Any:  # pragma: no cover - subprocess
    fn, job = args
    return fn(job)


class MultiprocessingLauncher:
    """Fans jobs out to a process pool (order-preserving results)."""

    def __init__(self, n_workers: int | None = None, chunksize: int = 1) -> None:
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if chunksize < 1:
            raise ConfigurationError("chunksize must be >= 1")
        self.n_workers = n_workers or max(os.cpu_count() or 1, 1)
        self.chunksize = chunksize

    def launch(self, fn: JobFn, jobs: Sequence[Any]) -> list[Any]:
        if not jobs:
            return []
        if self.n_workers == 1 or len(jobs) == 1:
            return SerialLauncher().launch(fn, jobs)
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=min(self.n_workers, len(jobs))) as pool:
            return pool.map(_invoke, [(fn, job) for job in jobs], chunksize=self.chunksize)

