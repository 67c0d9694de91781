# Convenience targets — every command also works standalone with
# PYTHONPATH=src (no install needed; see README.md "Install").

.PHONY: test tier2 bench ci regression perfbench loc

# Tier-1 gate: what CI runs (pytest.ini deselects tier2/bench markers).
test:
	PYTHONPATH=src python -m pytest -x -q

# Slow tier: full-year policy cross-validations.
tier2:
	PYTHONPATH=src python -m pytest -m tier2 -q

# Every benchmark, with the perf trajectory recorded in
# benchmarks/output/BENCH_*.json (see benchmarks/run_all.py).
bench:
	PYTHONPATH=src python benchmarks/run_all.py

# Mirror of the blocking CI job (.github/workflows/ci.yml), verbatim:
# tier-1 gate + tier-2 and bench collection sanity (imports and markers
# stay valid without paying their wall-clock).  That job installs only
# numpy and pytest; where scipy is installed, tests/test_special.py also
# runs its scipy oracle for the wind Φ/Γ ports, as CI's scipy oracle job
# does.
ci:
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src python -m pytest -q tests/test_driver_contract.py tests/test_pipeline.py tests/test_racing.py tests/test_sampler_protocol.py
	PYTHONPATH=src python -m pytest -q tests/test_fidelity_differential.py
	PYTHONPATH=src python -m pytest -q tests/test_study_spec.py tests/test_service.py
	PYTHONPATH=src python -m pytest -q tests/test_lease.py tests/test_remote_worker.py
	PYTHONPATH=src python -m pytest -q tests/test_special.py
	PYTHONPATH=src python -m pytest -q tests/test_kernel_differential.py tests/test_dispatch_policies.py
	PYTHONPATH=src python -m pytest -m tier2 --collect-only -q
	PYTHONPATH=src python -m pytest benchmarks/ --collect-only -q

# Mirror of the non-blocking CI bench job's comparison step: fresh
# numbers (run `make bench` first) vs the committed baselines.
regression:
	PYTHONPATH=src python benchmarks/check_regression.py --baseline-ref HEAD

# Study benchmark (perfbench/README.md) as a front-parity gate: the
# paper's Houston study (segments engine), the raced ensemble whose
# rainflow fade runs the SoC-trace path, and the one-remote-worker study,
# all at seed 42.  remote_1w evaluates one candidate per call, so it is
# the only workload whose references pin the segments engine at S*N = 1
# (full-year one-cell calls, which run in time lanes).  A remote_1w
# study takes about 1 s on a 2-CPU host, so even a short
# PERFBENCH_SECONDS run makes a few studies.  run.py exits 0 even
# when a Pareto front differs from perfbench/references.json, so each
# run's last output line (JSON) is checked for "correct": true here.
PERFBENCH_SECONDS ?= 25
perfbench:
	for workload in paper_houston ensemble_ladder remote_1w; do \
	python3 perfbench/run.py --workload $$workload --seed 42 --seconds $(PERFBENCH_SECONDS) --trace 0 \
	| tail -n 1 | python3 -c 'import json, sys; line = sys.stdin.read(); print(line, end=""); \
	sys.exit(0 if json.loads(line).get("correct") is True else "perfbench: a Pareto front differs from perfbench/references.json")' \
	|| exit 1; done

# Python line counts per tree, as ROADMAP.md measures them (its size
# targets are stated in these numbers).
loc:
	@for dir in src tests benchmarks perfbench; do \
	printf '%-11s %s\n' $$dir "$$(find $$dir -name '*.py' | xargs cat | wc -l)"; done
