"""``repro worker`` with the benchmark's layer tracing installed.

Usage: ``python3 perfbench/traced_worker.py SPANS_JSON worker --connect URL ...``

Runs the production CLI (``repro.cli.main``) unchanged.  On SIGTERM the
worker exits and writes its spans to ``SPANS_JSON`` for the coordinator
to merge.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_path, cli_args = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.remove()
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
