"""Study-level benchmark of the microgrid composition search.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_houston --seed 42 --seconds 25 --trace 0

Runs studies of one workload (see ``perfbench/README.md``), each in a
fresh interpreter (``study.py``), until ``--seconds`` have passed, checks
every study's Pareto front against the committed reference for that
workload and seed, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics (medians
over the run's studies); ``--trace 1`` alternates untraced and traced
studies and reports the per-layer metrics.  A readable summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import EXACT_COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
#: declares the metrics each mode reports, with their units
BENCHMARK = ROOT / "BENCHMARK.json"
#: every run must end within this many seconds, studies included
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    """Environment of every measured process: one BLAS/OpenMP thread and
    a fixed hash seed, with the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    return env


def host_reference_s() -> float:
    """Seconds for a fixed numpy + Python loop: how fast the host is now."""
    import numpy as np

    data = np.arange(4096, dtype=np.float64)
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += float(np.sort(data * 1.0001 + i)[-1])
    for i in range(200_000):
        acc += i % 7
    return time.perf_counter() - start


def run_study(workload: str, seed: int, workdir: Path, timeout: float, *flags: str) -> dict:
    """One ``study.py`` process; its JSON result, or ``{"error": ...}``."""
    out_dir = Path(tempfile.mkdtemp(dir=workdir))
    t0 = time.monotonic()
    argv = [
        sys.executable,
        str(HERE / "study.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--t0", repr(t0),
        "--workdir", str(out_dir),
        *flags,
    ]
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:  # interrupted: take the worker down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"study.py exited {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "study.py printed no result"}


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ``.perfbench_tmp/`` in the checkout,
    removed (with ``.perfbench_tmp/`` once empty) on exit."""
    root = ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()  # fails while another run still uses it


def load_reference(workload: str, seed: int) -> "dict | None":
    if not REFERENCES.is_file():
        return None
    return json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed))


class Checker:
    """Counts operations and checks each study's front.

    A front must equal the committed reference digest for the workload
    and seed.  For a seed without one, every front of the run must equal
    the run's first front (a study is deterministic in its seed), so such
    a run makes at least two studies.
    """

    def __init__(self, reference: "dict | None") -> None:
        self.reference = reference
        self.min_studies = 1 if reference is not None else 2
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def check(self, result: dict, label: str) -> None:
        self.attempted += 1
        problem = result.get("error")
        if problem is None:
            if self.reference is None:
                self.reference = {"digest": result["digest"]}
            if not result["front_valid"]:
                problem = "front is empty or not finite"
            elif result["digest"] != self.reference["digest"]:
                problem = "front differs from the reference"
        if problem is not None:
            self.failed += 1
            self.notes.append(f"{label}: {problem}")


def measure(args, workdir: Path, checker: Checker) -> dict:
    """Run studies for ``args.seconds``; return the reported metrics."""
    remote = WORKLOADS[args.workload]["mode"] == "remote"
    start = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    def study(label: str, *flags: str) -> "dict | None":
        """One study's result; ``None`` if it crashed.  A wrong front is
        a failed operation, but its timings still count."""
        result = run_study(args.workload, args.seed, workdir, remaining(), *flags)
        checker.check(result, label)
        return None if "error" in result else result

    plain, traced = [], []
    parity = {"parity.param_mismatches": 0, "parity.value_mismatches": 0}
    while True:
        n = checker.attempted
        if args.trace:
            first = remote and not plain
            result = study(f"study {n}", *(["--twin"] if first else []))
            if result is not None:
                plain.append(result)
                parity = result.get("parity", parity)
            result = study(f"study {n + 1} (traced)", "--trace", "1")
            if result is not None:
                traced.append(result)
        else:
            result = study(f"study {n}")
            if result is not None:
                plain.append(result)
        enough = checker.attempted >= checker.min_studies
        if (enough and time.monotonic() - start >= args.seconds) or remaining() <= 0:
            break
    if not plain or (args.trace and not traced):
        return {}
    tps = statistics.median(r["trials_per_s"] for r in plain)
    if not args.trace:
        return {
            "trials_per_s": tps,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    layers = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in traced[0]["layers"]
    }
    for key in EXACT_COUNTS:
        if len({r["layers"][key] for r in traced}) > 1:
            checker.notes.append(f"{key} differs between traced studies")
    layers.update(parity)
    traced_tps = statistics.median(r["trials_per_s"] for r in traced)
    layers["trace.overhead"] = tps / traced_tps - 1.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # set-up times read warm bytecode

    reference = load_reference(args.workload, args.seed)
    checker = Checker(reference)
    host_ref = host_reference_s()
    with scratch_dir() as workdir:
        values = measure(args, workdir, checker)
    if reference is None:
        checker.notes.append(
            f"no committed reference for seed {args.seed}: fronts were "
            "checked against each other only"
        )
    for note in checker.notes:
        print(f"run.py: {note}", file=sys.stderr)
    # The result line may hold no other key, so untraced runs report the
    # host reading here only.
    print(f"run.py: host.ref_s {host_ref:.6f} s", file=sys.stderr)
    if not values:
        print("run.py: no study finished; no result", file=sys.stderr)
        return 1
    values["host.ref_s"] = host_ref
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(
        f"{args.workload} seed {args.seed}: {checker.failed} of "
        f"{checker.attempted} operations failed",
        file=sys.stderr,
    )
    for key, metric in metrics.items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
