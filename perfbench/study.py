"""One measured study of one workload, in a fresh interpreter.

Started by ``run.py`` (never by hand) with the noise-control environment
already set.  Runs the workload's ``StudySpec`` through its public entry
point and prints one JSON line as the last line of standard output:

* ``paper_houston`` / ``ensemble_ladder``: ``StudySpec.execute`` on a
  ``memory://`` store;
* ``remote_1w``: ``StudyService.run_study`` behind ``make_server`` on a
  SQLite store, drained by one ``repro worker --connect`` subprocess.

``--t0`` is the runner's ``time.monotonic()`` just before it started
this process; set-up ends at the first ``Study.ask`` (in-process)
or the worker's first ``POST /lease`` (remote).  ``--trace 1`` installs
``tracing`` before anything is built and reports per-layer metrics.
``--twin`` (remote only) also runs the in-process batched study of the
same spec and trial count and compares every trial's params and values
bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, canonical_front, front_digest, spec_kwargs

HERE = Path(__file__).resolve().parent
STUDY = "bench"
#: seconds to wait for the worker's first lease before giving up
WORKER_START_TIMEOUT_S = 60.0


def on_first_call(cls, attr: str, callback) -> None:
    """Call ``callback(time.monotonic())`` at the first ``cls.attr`` call,
    then put the previous attribute back."""
    previous = cls.__dict__[attr]

    def marker(*args, **kwargs):
        if cls.__dict__[attr] is marker:
            setattr(cls, attr, previous)
            callback(time.monotonic())
        return previous(*args, **kwargs)

    setattr(cls, attr, marker)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def trial_rows(stored) -> dict:
    """trial number -> (params, values), floats in exact hex form."""
    rows = {}
    for trial in stored.trials:
        values = [float(v) for v in (trial.values or ())]
        canon = canonical_front(
            [{"trial": trial.number, "params": trial.params, "values": values}]
        )[0]
        rows[trial.number] = (canon[1], canon[2])
    return rows


def front_report(stored) -> dict:
    from repro.service.service import front_rows

    rows = front_rows(stored)
    finite = all(math.isfinite(v) for row in rows for v in row["values"])
    return {
        "trials": len(stored.finished_trials()),
        "front_size": len(rows),
        "front_valid": bool(rows) and finite,
        "digest": front_digest(rows),
    }


def run_inprocess(spec, marks: dict) -> dict:
    from repro.blackbox.storage import open_study_storage
    from repro.blackbox.study import Study

    storage = open_study_storage("memory://")
    spec.build_scenarios()
    on_first_call(Study, "ask", lambda t: marks.setdefault("ready", t))
    gc.collect()
    t_call = time.monotonic()
    spec.execute(storage, STUDY)
    t_ret = time.monotonic()
    out = {"t_call": t_call, "t_ret": t_ret, "rss_mb": peak_rss_mb(resource.RUSAGE_SELF)}
    out["stored"] = storage.load_study(STUDY)
    return out


def start_worker(url: str, trace_out: "Path | None") -> subprocess.Popen:
    cli = ["worker", "--connect", url, "--id", "bench-worker"]
    if trace_out is None:
        argv = [sys.executable, "-m", "repro.cli", *cli]
    else:
        argv = [sys.executable, str(HERE / "traced_worker.py"), str(trace_out), *cli]
    return subprocess.Popen(argv, stdout=subprocess.DEVNULL)


def stop_worker(worker: subprocess.Popen) -> None:
    if worker.poll() is None:
        worker.terminate()
        try:
            worker.wait(timeout=10)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()


def run_remote(spec, marks: dict, workdir: Path, traced: bool) -> dict:
    from repro.service.http import make_server
    from repro.service.service import StudyService

    spec.build_scenarios()
    service = StudyService(f"sqlite:///{workdir / 'study.db'}")
    ready = threading.Event()

    def first_lease(t: float) -> None:
        marks.setdefault("ready", t)
        ready.set()

    on_first_call(StudyService, "lease_work", first_lease)
    server = make_server(service)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    url = "http://{}:{}".format(*server.server_address[:2])
    trace_out = workdir / "worker_spans.json" if traced else None
    worker = start_worker(url, trace_out)
    out: dict = {}
    try:
        deadline = time.monotonic() + WORKER_START_TIMEOUT_S
        while not ready.wait(0.05):
            if worker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the worker never leased (exit %s)" % worker.poll())
        service.submit(spec, STUDY)
        gc.collect()
        out["t_call"] = time.monotonic()
        service.run_study(STUDY)
        out["t_ret"] = time.monotonic()
    finally:
        stop_worker(worker)
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    out["rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF) + peak_rss_mb(
        resource.RUSAGE_CHILDREN
    )
    out["stored"] = service.storage.load_study(STUDY)
    if trace_out is not None:
        out["worker_spans"] = [tuple(s) for s in json.loads(trace_out.read_text())]
    return out


def twin_parity(spec, remote_stored) -> dict:
    """Trials whose params / values differ between the remote study and
    the in-process batched study of the same spec and trial count."""
    from repro.blackbox.storage import open_study_storage

    storage = open_study_storage("memory://")
    spec.replaced(remote_slots=None, pipeline=None).execute(storage, STUDY)
    local = trial_rows(storage.load_study(STUDY))
    remote = trial_rows(remote_stored)
    numbers = set(local) | set(remote)

    def mismatches(part: int) -> int:
        return sum(
            n not in local or n not in remote or local[n][part] != remote[n][part]
            for n in numbers
        )

    return {
        "parity.param_mismatches": mismatches(0),
        "parity.value_mismatches": mismatches(1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--twin", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from repro.core.study_spec import StudySpec

    spec = StudySpec(**spec_kwargs(args.workload, args.seed))
    marks: dict = {}
    if WORKLOADS[args.workload]["mode"] == "remote":
        run = run_remote(spec, marks, args.workdir, bool(args.trace))
    else:
        run = run_inprocess(spec, marks)
    result = {"setup_s": marks["ready"] - args.t0}
    result.update(front_report(run["stored"]))
    result["trials_per_s"] = result["trials"] / (run["t_ret"] - run["t_call"])
    result["peak_rss_mb"] = run["rss_mb"]
    if tracer is not None:
        tracer.remove()
        spans = tracer.spans + run.get("worker_spans", [])
        result["layers"] = tracing.layer_metrics(
            spans, run["t_call"], run["t_ret"], result["trials"]
        )
    if args.twin:
        result["parity"] = twin_parity(spec, run["stored"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
