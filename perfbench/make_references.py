"""Regenerate the committed reference fronts in ``references.json``.

Usage (from the repository root)::

    python3 perfbench/make_references.py --workload paper_houston --seeds 0-31,42

Runs each (workload, seed) study once through the same ``study.py`` path
the benchmark measures and records its front digest and size.  Entries for other workloads and seeds are left as they are.  Only
regenerate after a change that is meant to move the fronts.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCES, run_study, scratch_dir
from workloads import WORKLOADS

def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-31,42")
    args = parser.parse_args(argv)

    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    with scratch_dir() as workdir:
        for workload in args.workload or sorted(WORKLOADS):
            entries = references.setdefault(workload, {})
            for seed in parse_seeds(args.seeds):
                result = run_study(workload, seed, workdir, 600.0)
                if "error" in result or not result["front_valid"]:
                    print(f"{workload} seed {seed}: {result}", file=sys.stderr)
                    return 1
                entries[str(seed)] = {
                    "digest": result["digest"],
                    "front_size": result["front_size"],
                }
                print(f"{workload} seed {seed}: {result['front_size']} front points", flush=True)
            references[workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
            REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
