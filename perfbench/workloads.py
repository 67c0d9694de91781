"""The benchmark's three study workloads, as fixed ``StudySpec`` keywords.

Each workload is one :class:`repro.core.study_spec.StudySpec` plus the
``--seed`` argument.  This module imports nothing from ``repro`` so the
runner can read workload names without paying the package import.
"""

from __future__ import annotations

import hashlib
import json
import math

#: workload name -> how it runs and the StudySpec keywords it fixes
WORKLOADS = {
    # The paper study: Houston, full year, NSGA-II population 50, 350
    # trials, batched in-process driver, memory:// storage.  The only
    # workload where the sampler carries a large share of the time.
    "paper_houston": {
        "mode": "inprocess",
        "spec": {"sites": ["houston"], "n_trials": 350, "population": 50},
    },
    # A 10-member Houston ensemble raced over member rungs and the
    # fidelity ladder.  Rainflow fade at the ladder top needs a SoC
    # trace, so engine=auto runs the reference loop engine.  Members
    # are shortened to 30 days so several studies fit in one run.
    "ensemble_ladder": {
        "mode": "inprocess",
        "spec": {
            "sites": ["houston"],
            "n_hours": 720,
            "n_trials": 350,
            "population": 50,
            "ensemble": "years=2020-2024,severity=1.0:1.5",
            "aggregate": "worst",
            "racing": "rungs=2,8,full",
            "fidelity": "lo,mid,full",
        },
    },
    # The paper spec dispatched to one `repro worker --connect` process
    # over HTTP + SQLite.  Two slots keep one item queued while the
    # worker evaluates the other, so the worker polls an empty queue
    # only at generation boundaries.  100 trials (one random generation
    # and a whole bred one) take about 35 s at 0.35 s per trial.
    "remote_1w": {
        "mode": "remote",
        "spec": {
            "sites": ["houston"],
            "n_trials": 100,
            "population": 50,
            "remote_slots": 2,
        },
    },
}


def spec_kwargs(workload: str, seed: int) -> dict:
    """The StudySpec keywords of ``workload`` at ``seed``."""
    kwargs = dict(WORKLOADS[workload]["spec"])
    kwargs["sites"] = tuple(kwargs["sites"])
    kwargs["seed"] = int(seed)
    return kwargs


def _exact(value):
    """A JSON-stable, bit-exact form of one param or objective value."""
    if isinstance(value, float):
        return float.hex(value) if math.isfinite(value) else repr(value)
    return value


def canonical_front(rows: list) -> list:
    """Front rows (trial, params, values) with every float in hex form."""
    return [
        [
            int(row["trial"]),
            [[key, _exact(row["params"][key])] for key in sorted(row["params"])],
            [_exact(float(v)) for v in row["values"]],
        ]
        for row in rows
    ]


def front_digest(rows: list) -> str:
    """SHA-256 of the canonical front: equal digests mean bit-equal fronts."""
    text = json.dumps(canonical_front(rows), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
