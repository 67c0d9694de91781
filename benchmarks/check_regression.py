"""Fail CI when a fresh bench pass regresses the committed headlines.

``benchmarks/run_all.py`` (``make bench``) rewrites the machine-readable
result files in ``benchmarks/output/`` on every pass; the *committed*
copies are the perf baseline each PR inherits.  This checker compares
the fresh working-tree numbers against that baseline and exits non-zero
on a >30 % throughput regression in any tracked metric, so the CI bench
job (non-blocking, ``.github/workflows/ci.yml``) turns silent slowdowns
into a visible red step with a named culprit.

Baselines come from ``git show <ref>:<path>`` by default (``make bench``
has already overwritten the working tree by the time this runs); pass
``--baseline DIR`` to compare against saved copies instead.  Missing
baselines — a brand-new bench file, a shallow checkout without git —
are reported and skipped rather than failed, so bootstrapping a new
benchmark never blocks the job that first records it.

Usage::

    make bench && make regression
    python benchmarks/check_regression.py --baseline-ref HEAD
    python benchmarks/check_regression.py --threshold 0.5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUTPUT = BENCH_DIR / "output"

#: tracked higher-is-better metrics: file -> JSON paths into it.  Only
#: throughputs and speedups belong here — wall-clock *durations* vary
#: with machine load in both directions and would be double-counted.
HEADLINE_METRICS: "dict[str, list[tuple[str, ...]]]" = {
    "BENCH_storage.json": [
        ("storage", "append_records_per_s", "journal"),
        ("storage", "append_records_per_s", "sqlite"),
        ("storage", "append_records_per_s", "memory"),
        ("storage", "load_speedup_vs_journal", "compacted_journal"),
        ("storage", "load_speedup_vs_journal", "sqlite"),
    ],
    "BENCH_racing.json": [
        ("racing", "full_cells_per_s"),
        ("racing", "raced_cells_per_s"),
        ("racing", "work_reduction"),
    ],
    # wall-clock is deliberately untracked for the fidelity ladder: the
    # in-process dispatch kernel costs the same at every level, so the
    # headline is the deterministic full-physics-evals-saved factor.
    "BENCH_fidelity.json": [
        ("fidelity", "full_evals_saved_factor"),
    ],
    "BENCH_dispatch.json": [
        ("dispatch", "cells_per_s", "loop"),
        ("dispatch", "cells_per_s", "segments"),
        ("dispatch", "speedup_vs_loop", "segments"),
    ],
    "BENCH_pipeline.json": [
        ("pipeline", "wall_clock_speedup"),
        ("pipeline", "idle_reduction"),
    ],
    "BENCH_remote.json": [
        ("remote", "trials_per_s", "workers_1"),
        ("remote", "trials_per_s", "workers_2"),
        ("remote", "scaling_2_workers"),
    ],
}


def _lookup(blob: dict, path: "tuple[str, ...]") -> "float | None":
    node = blob
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def _baseline_blob(name: str, ref: str, baseline_dir: "Path | None") -> "dict | None":
    if baseline_dir is not None:
        path = baseline_dir / name
        return json.loads(path.read_text()) if path.is_file() else None
    rel = (OUTPUT / name).relative_to(REPO)
    proc = subprocess.run(
        ["git", "show", f"{ref}:{rel.as_posix()}"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        metavar="REF",
        help="git ref holding the committed baseline files (default: HEAD)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="DIR",
        type=Path,
        help="directory of saved baseline JSON files (overrides --baseline-ref)",
    )
    parser.add_argument(
        "--threshold",
        default=0.30,
        type=float,
        metavar="FRACTION",
        help="maximum tolerated drop in any tracked metric (default: 0.30)",
    )
    args = parser.parse_args(argv)

    regressions: list[str] = []
    checked = 0
    for name, metrics in HEADLINE_METRICS.items():
        fresh_path = OUTPUT / name
        if not fresh_path.is_file():
            print(f"{name}: no fresh results (run `make bench` first) — skipped")
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = _baseline_blob(name, args.baseline_ref, args.baseline)
        if baseline is None:
            print(f"{name}: no committed baseline — skipped (new benchmark?)")
            continue
        for path in metrics:
            label = f"{name}:{'.'.join(path)}"
            old, new = _lookup(baseline, path), _lookup(fresh, path)
            if old is None or new is None or old <= 0:
                print(f"{label}: missing in {'baseline' if old is None else 'fresh run'} — skipped")
                continue
            checked += 1
            change = (new - old) / old
            verdict = "REGRESSION" if change < -args.threshold else "ok"
            print(f"{label}: {old:.1f} -> {new:.1f} ({change:+.1%}) {verdict}")
            if change < -args.threshold:
                regressions.append(f"{label} dropped {-change:.0%} (limit {args.threshold:.0%})")

    if regressions:
        print(f"\nFAILED: {len(regressions)} throughput regression(s):")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(f"\nok: {checked} headline metric(s) within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
