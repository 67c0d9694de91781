"""The benchmark's own checks: exact counts repeat across traced runs.

Run from the repository root (takes a few minutes; not part of tier-1)::

    python3 -m pytest perfbench/test_counts.py -q

Every workload is a fixed ``StudySpec`` plus a seed, so the work each
layer does is fixed too.  A count that moves between two traced runs of
the same workload and seed means the workload is not fixed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import EXACT_COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the layer each workload exists to exercise, as a count it must make
EXERCISED = {
    "paper_houston": ("sampler.asks", 350),
    "ensemble_ladder": ("race.low_fidelity_evals", None),
    "remote_1w": ("lease.grants", 100),
}


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "42",
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {key: metric["value"] for key, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    key, expected = EXERCISED[workload]
    if expected is None:
        assert first[key] > 0
    else:
        assert first[key] == expected


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
