"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage (also ``python -m repro.cli``)::

    python -m repro.cli table --site houston
    python -m repro.cli pareto --site berkeley --csv front.csv
    python -m repro.cli projection --site houston --years 20
    python -m repro.cli coverage --site houston
    python -m repro.cli search --site houston --trials 350 --population 50
    python -m repro.cli report --site berkeley

Persistent, resumable, parallel studies (DESIGN.md §3–§4)::

    python -m repro.cli study run    --journal study.jsonl --site houston \
        --trials 350 --population 50 --seed 42
    python -m repro.cli study resume --journal study.jsonl
    python -m repro.cli study status --journal study.jsonl

Storage is pluggable (DESIGN.md §7): every verb also accepts
``--storage`` with a URL-style spec resolved through the storage
registry — ``journal:///study.jsonl``, ``sqlite:///study.db``, or a
bare path whose extension picks the backend.  Journals are compacted to
their last-write-wins fixed point with ``study compact``, and a study
sharded across per-worker stores (``study run --shards 4``) is folded
back into one store with ``study merge``::

    python -m repro.cli study run     --storage sqlite:///study.db --site houston
    python -m repro.cli study compact --journal study.jsonl
    python -m repro.cli study merge   --into merged.db \
        --from study.db.shard0 --from study.db.shard1

Robust multi-site search with an alternative dispatch policy
(DESIGN.md §5) — score every candidate against several scenarios in one
stacked time loop and optimize the worst case::

    python -m repro.cli study run --journal robust.jsonl \
        --sites berkeley,houston --policy tou_arbitrage --aggregate worst

Scenario-ensemble search (DESIGN.md §6) — cross weather years, workload
growth, carbon trajectories, tariff variants, and dunkelflaute severity
into one ensemble, and optimize a risk-aware aggregate (``worst``,
``mean``, ``cvar:alpha``, ``quantile:q``) across all members::

    python -m repro.cli study run --journal ensemble.jsonl \
        --ensemble years=2020-2029,growth=1.0:1.3 --aggregate cvar:0.25

Multi-fidelity racing (DESIGN.md §8) — evaluate each generation on
progressively larger ensemble subsets, pruning candidates proven off
the front before they ever pay for the full ensemble::

    python -m repro.cli study run --journal raced.jsonl \
        --ensemble years=2020-2029,severity=1.0:1.5 \
        --aggregate worst --racing rungs=2,8,full

``study run`` journals every trial; kill it at any point and ``study
resume`` continues to the identical final Pareto front (the scenario,
ensemble, racing, and search configuration are persisted in the
journal's study metadata, so ``resume`` needs only the journal path).

Study-as-a-service (DESIGN.md §12) — the same studies behind a
stdlib-only HTTP JSON API, with queue workers and persisted heartbeats::

    python -m repro.cli serve --storage sqlite:///studies.db --workers 2
    # POST /studies            GET /studies            GET /studies/{name}
    # GET /studies/{name}/front.csv                    POST /studies/{name}/resume

``study status --json`` prints the service's machine-readable status
documents (the exact JSON ``GET /studies/{name}`` returns).

Mirrors the Hydra-style entry point of the paper's implementation:
every command accepts ``--set key=value`` overrides applied to the
scenario config (e.g. ``--set scenario.mean_power_mw=3.0``).  With
``pip install -e .`` the console script ``repro`` is equivalent to
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .analysis.figures import (
    ascii_heatmap,
    ascii_scatter,
    coverage_heatmap_series,
    pareto_front_series,
    projection_series,
    write_csv,
)
from .analysis.report import experiment_report
from .analysis.tables import candidate_table, format_table
from .blackbox import NSGA2Sampler
from .blackbox.multiobjective import pareto_recovery_rate
from .confsys import Config, apply_overrides
from .core.candidates import paper_candidates
from .core.dispatch import POLICY_NAMES
from .core.fastsim import coverage_grid
from .core.pareto import pareto_front, pareto_points
from .core.projection import crossover_year, project_many
from .core.scenario import build_scenario
from .core.study_runner import OptimizationRunner
from .units import PERLMUTTER_MEAN_POWER_W

DEFAULT_CONFIG = {
    "scenario": {
        "location": "houston",
        "year": 2024,
        "n_hours": 8_760,
        "mean_power_mw": PERLMUTTER_MEAN_POWER_W / 1e6,
    }
}


def _scenario_from(cfg: Config):
    return build_scenario(
        cfg.scenario.location,
        year_label=cfg.scenario.year,
        n_hours=cfg.scenario.n_hours,
        mean_power_w=cfg.scenario.mean_power_mw * 1e6,
    )


def _parse_sites(args, cfg: Config) -> "list[str]":
    """``--sites a,b`` list, falling back to the single ``--site``."""
    raw = getattr(args, "sites", None) or cfg.scenario.location
    sites = [s.strip().lower() for s in raw.split(",") if s.strip()]
    if not sites:
        raise SystemExit(f"--sites parsed to an empty list from {raw!r}")
    return sites


def _exhaustive(cfg: Config):
    scenario = _scenario_from(cfg)
    return scenario, OptimizationRunner(scenario).run_exhaustive()


def cmd_table(cfg: Config, args) -> int:
    _, result = _exhaustive(cfg)
    rows = candidate_table(paper_candidates(result.evaluated))
    print(format_table(rows, title=f"Candidate solutions ({cfg.scenario.location})"))
    return 0


def cmd_pareto(cfg: Config, args) -> int:
    _, result = _exhaustive(cfg)
    front = pareto_front(result.evaluated)
    candidates = paper_candidates(result.evaluated)
    rows = pareto_front_series(front, candidates)
    if args.csv:
        path = write_csv(rows, args.csv)
        print(f"wrote {len(rows)} front points to {path}")
    print(
        ascii_scatter(
            [r["embodied_tco2"] for r in rows],
            [r["operational_tco2_day"] for r in rows],
            highlight=[r["is_candidate"] for r in rows],
            x_label="embodied tCO2",
            y_label="operational tCO2/day",
        )
    )
    return 0


def cmd_projection(cfg: Config, args) -> int:
    _, result = _exhaustive(cfg)
    candidates = paper_candidates(result.evaluated)
    projections = project_many(candidates, horizon_years=args.years)
    if args.csv:
        write_csv(projection_series(projections), args.csv)
    for proj in projections:
        print(
            f"{proj.label:>18}: start {proj.total_tco2[0]:>9,.0f} tCO2, "
            f"year {args.years:.0f}: {proj.total_tco2[-1]:>10,.0f} tCO2"
        )
    year = crossover_year(projections[0], projections[-1])
    if year is not None:
        print(f"baseline overtakes the largest build-out after {year:.1f} years")
    return 0


def cmd_coverage(cfg: Config, args) -> int:
    scenario = _scenario_from(cfg)
    solar_levels = [i * 4_000.0 for i in range(11)]
    wind_levels = list(range(11))
    grid = coverage_grid(scenario, solar_levels, wind_levels)
    if args.csv:
        write_csv(coverage_heatmap_series(solar_levels, wind_levels, grid), args.csv)
    print(
        ascii_heatmap(
            grid * 100.0,
            row_labels=[f"{s/1000:.0f}MW" for s in solar_levels],
            col_labels=[str(3 * k) for k in wind_levels],
            title=f"coverage [%] ({cfg.scenario.location}, no storage)",
        )
    )
    return 0


def cmd_search(cfg: Config, args) -> int:
    scenario = _scenario_from(cfg)
    runner = OptimizationRunner(scenario)
    t0 = time.perf_counter()
    exhaustive = runner.run_exhaustive()
    t1 = time.perf_counter()
    found = OptimizationRunner(scenario).run_blackbox(
        n_trials=args.trials,
        sampler=NSGA2Sampler(population_size=args.population, seed=args.seed),
    )
    t2 = time.perf_counter()
    objectives = ("operational", "embodied")
    true_front = pareto_points(exhaustive.front(objectives), objectives)
    found_points = pareto_points(found.evaluated, objectives)
    print(
        f"trials {args.trials}, unique simulations {found.n_simulations}, "
        f"recovery strict {pareto_recovery_rate(found_points, true_front):.2f}, "
        f"recovery@1% {pareto_recovery_rate(found_points, true_front, tol=0.01):.2f}, "
        f"speed-up {len(exhaustive.evaluated) / found.n_simulations:.1f}x "
        f"({len(exhaustive.evaluated)} / unique simulations), "
        f"measured {(t1 - t0) / (t2 - t1):.1f}x "
        f"(exhaustive {t1 - t0:.2f} s / search {t2 - t1:.2f} s)"
    )
    return 0


def _aggregate_arg(value: str) -> str:
    """argparse type: validate --aggregate via the shared grammar."""
    from .core.metrics import parse_aggregate
    from .exceptions import ConfigurationError

    try:
        parse_aggregate(value)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _racing_arg(value: str) -> str:
    """argparse type: validate --racing and normalize to the round-trip spec."""
    from .core.racing import RungSchedule
    from .exceptions import ConfigurationError

    try:
        return RungSchedule.parse(value).spec_string()
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fidelity_arg(value: str) -> str:
    """argparse type: validate --fidelity and normalize to the round-trip spec."""
    from .core.fidelity import FidelityLadder
    from .exceptions import ConfigurationError

    try:
        return FidelityLadder.parse(value).spec_string()
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _store_spec(args) -> str:
    """The storage spec string: ``--storage URL`` or the ``--journal`` path."""
    return args.storage or args.journal


def _open_storage(args, shards: "int | None" = None):
    """Resolve the study store, reopening an on-disk sharded topology."""
    from .blackbox.storage import open_study_storage, resolve_storage

    if shards is not None and shards > 1:
        return resolve_storage(_store_spec(args), shards=shards)
    return open_study_storage(_store_spec(args))


def _print_search_summary(result, storage, spec: str, name: str) -> None:
    from .service import stored_front_size

    line = f"study '{name}': {len(result.study.trials)} trials"
    if result.n_simulations is not None:
        line += f", {result.n_simulations} simulations this run"
    front_size = stored_front_size(storage.load_study(name)) or 0
    line += f", front size {front_size} (storage: {spec})"
    if result.racing is not None:
        st = result.racing
        line += (
            f"\n  racing: {result.n_pruned} trials pruned, "
            f"{st.member_evals}/{st.full_member_evals} member-evals "
            f"({st.savings:.1f}x work saved), {st.promoted_back} promoted back"
        )
        if st.low_fidelity_evals:
            line += (
                f"\n  fidelity: {st.screened} candidates screened at cheap "
                f"physics ({st.low_fidelity_evals} low-fidelity member-evals)"
            )
    print(line)


def _interrupted(spec: str) -> int:
    print(
        f"\ninterrupted — completed trials are persisted; continue with:\n"
        f"  repro study resume --storage {spec}"
    )
    return 130


def _spec_from_args(cfg: Config, args, sites: "list[str]"):
    """Build the :class:`~repro.core.study_spec.StudySpec` a ``study
    run`` invocation describes — the CLI is a thin builder over the
    spec seam (DESIGN.md §12), so the HTTP service and the CLI cannot
    drift."""
    from .core.study_spec import StudySpec

    pipeline = None
    if args.pipeline or args.speculate is not None:
        from .blackbox.parallel import pipeline_spec_string

        pipeline = pipeline_spec_string(args.speculate or 0)
    return StudySpec(
        sites=tuple(sites),
        year=cfg.scenario.year,
        n_hours=cfg.scenario.n_hours,
        mean_power_mw=cfg.scenario.mean_power_mw,
        policy=args.policy,
        aggregate=args.aggregate,
        n_trials=args.trials,
        population=args.population,
        seed=args.seed,
        ensemble=args.ensemble,
        racing=args.racing,
        fidelity=args.fidelity,
        pipeline=pipeline,
        shards=args.shards,
    )


def cmd_study_run(cfg: Config, args) -> int:
    from .exceptions import OptimizationError

    spec = _store_spec(args)
    sites = _parse_sites(args, cfg)
    try:
        study_spec = _spec_from_args(cfg, args, sites)
    except OptimizationError as exc:
        raise SystemExit(str(exc)) from None
    name = args.name or study_spec.default_name
    # Check for a pre-existing study before the (possibly multi-minute)
    # ensemble build, so the duplicate-run error path is near-instant.
    storage = _open_storage(args, shards=args.shards)
    if storage.load_study(name) is not None:
        print(
            f"study '{name}' already exists in {spec} — continue it with:\n"
            f"  repro study resume --storage {spec} --name {name}"
        )
        return 1
    try:
        result = study_spec.execute(storage, name, workers=args.workers)
    except OptimizationError as exc:
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:
        return _interrupted(spec)
    _print_search_summary(result, storage, spec, name)
    return 0


def cmd_study_resume(cfg: Config, args) -> int:
    from .core.study_spec import StudySpec, check_resume_identity
    from .exceptions import OptimizationError

    spec = _store_spec(args)
    storage = _open_storage(args)
    studies = storage.load_all()
    if not studies:
        print(f"no studies found in {spec}")
        return 1
    if args.name:
        if args.name not in studies:
            print(f"study '{args.name}' not in {spec} (has: {sorted(studies)})")
            return 1
        name = args.name
    elif len(studies) == 1:
        name = next(iter(studies))
    else:
        print(f"store holds several studies, pass --name (one of {sorted(studies)})")
        return 1

    md = studies[name].metadata
    try:
        # The persisted identity is authoritative: rebuild the exact
        # spec the study was run with (fails loudly, naming every
        # missing key, for pre-contract stores).
        study_spec = StudySpec.from_metadata(
            md, source=spec, trials_override=args.trials
        )
        # --racing/--fidelity on resume are explicit consistency checks
        # only — a mismatch against the persisted spec is a hard error,
        # through the same validator every driver uses.
        requested = {
            key: value
            for key, value in (("racing", args.racing), ("fidelity", args.fidelity))
            if value
        }
        if requested:
            check_resume_identity(name, md, requested)
    except OptimizationError as exc:
        raise SystemExit(str(exc)) from None
    try:
        result = study_spec.execute(
            storage, name, workers=args.workers, load_if_exists=True
        )
    except OptimizationError as exc:
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:
        return _interrupted(spec)
    _print_search_summary(result, storage, spec, name)
    return 0


def cmd_study_status(cfg: Config, args) -> int:
    from .blackbox.trial import TrialState
    from .service import stored_front_size, study_status_document

    spec = _store_spec(args)
    storage = _open_storage(args)
    studies = storage.load_all()
    if not studies:
        print(f"no studies found in {spec}")
        return 1
    if getattr(args, "json", False):
        # The service's status serializer, verbatim (DESIGN.md §12):
        # scripts and GET /studies/{name} read the same document.
        import json

        print(
            json.dumps(
                [study_status_document(studies[n]) for n in sorted(studies)],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for name in sorted(studies):
        stored = studies[name]
        trials = stored.trials
        counts = {state.value: 0 for state in TrialState}
        for t in trials:
            counts[t.state.value] += 1
        target = stored.metadata.get("n_trials")
        target_str = f"/{target}" if target else ""
        line = (
            f"{name}: directions={stored.directions}, "
            f"{counts['complete']}{target_str} complete, "
            f"{counts['running']} in-flight, {counts['pruned']} pruned, "
            f"{counts['failed']} failed"
        )
        front_size = stored_front_size(stored)
        if front_size is not None:
            line += f", front size {front_size}"
        sites = stored.metadata.get("sites") or (
            [stored.metadata["site"]] if stored.metadata.get("site") else []
        )
        ensemble = stored.metadata.get("ensemble")
        if sites:
            line += f" (sites: {','.join(str(s) for s in sites)}"
            if stored.metadata.get("policy"):
                line += f", policy: {stored.metadata['policy']}"
                if len(sites) > 1 or ensemble:
                    line += f", aggregate: {stored.metadata.get('aggregate', 'worst')}"
            line += ")"
        print(line)
        if ensemble:
            from .core.ensemble import EnsembleSpec

            n_members = len(EnsembleSpec.parse(str(ensemble)))
            print(f"  ensemble ({n_members} members): {ensemble}")
        racing = stored.metadata.get("racing")
        if racing:
            print(f"  racing: {racing}{_rung_stats(trials)}")
        fidelity = stored.metadata.get("fidelity")
        if fidelity:
            print(f"  fidelity: {fidelity}")
        pipeline = stored.metadata.get("pipeline")
        if pipeline:
            line = f"  pipeline: {pipeline}"
            stats = stored.metadata.get("pipeline_stats")
            if stats:
                line += (
                    f" — {stats.get('workers')} workers, "
                    f"idle {100 * float(stats.get('idle', 0.0)):.0f}%, "
                    f"{stats.get('n_speculative', 0)} speculative trials"
                )
            print(line)
        doc = study_status_document(stored)
        service = doc.get("service")
        heartbeat = doc.get("heartbeat")
        if service or heartbeat:
            line = f"  service: {(service or {}).get('state', 'unknown')}"
            reclaims = (service or {}).get("reclaims")
            if reclaims:
                line += f", reclaimed ×{reclaims}"
            if heartbeat:
                line += f", heartbeat {heartbeat['age_s']:.0f}s ago"
                if heartbeat.get("trials_done") is not None and target:
                    line += f" ({heartbeat['trials_done']}/{target} trials)"
                if heartbeat["stale"]:
                    line += (
                        " — STALE: worker presumed dead; the next "
                        "`repro serve` worker reclaims it automatically "
                        "(or re-queue now with `repro study resume`)"
                    )
            print(line)
        leases = doc.get("leases")
        if leases:
            workers = leases.get("workers") or {}
            line = (
                f"  leases: {leases.get('queued', 0)} queued, "
                f"{leases.get('leased', 0)} leased, "
                f"{leases.get('completed', 0)} completed, "
                f"{leases.get('reclaimed', 0)} reclaimed "
                f"(ttl {leases.get('ttl_s')}s)"
            )
            if workers:
                line += (
                    ", workers: "
                    + ", ".join(f"{w}×{n}" for w, n in sorted(workers.items()))
                )
            print(line)
    return 0


def _rung_stats(trials) -> str:
    """Per-rung trial histogram for a raced study's status line.

    Counts trials by the ``racing:rung`` system attr (members seen when
    the trial finished): pruned trials stop at a partial rung, survivors
    reach the full ensemble.
    """
    from .blackbox.trial import RACING_RUNG_ATTR, TrialState

    by_rung: "dict[int, list]" = {}
    for t in trials:
        rung = t.system_attrs.get(RACING_RUNG_ATTR)
        if rung is not None:
            by_rung.setdefault(int(rung), []).append(t)
    if not by_rung:
        return ""
    parts = []
    for rung in sorted(by_rung):
        cohort = by_rung[rung]
        pruned = sum(1 for t in cohort if t.state == TrialState.PRUNED)
        label = f"{len(cohort)} reached {rung}"
        if pruned:
            label += f" ({pruned} pruned)"
        parts.append(label)
    return " — " + ", ".join(parts)


def cmd_study_compact(cfg: Config, args) -> int:
    from .blackbox import JournalStorage

    spec = _store_spec(args)
    storage = _open_storage(args)
    stores = storage.shards if hasattr(storage, "shards") else [storage]
    if not all(isinstance(s, JournalStorage) for s in stores):
        print(
            f"{spec} is not journal-backed — compaction rewrites append-only "
            "journals; sqlite stores are already their own fixed point"
        )
        return 1
    for store in stores:
        before, after = store.compact()
        print(
            f"compacted {store.path}: {before} records -> {after} "
            f"({before - after} overwritten by later records)"
        )
    return 0


def cmd_study_merge(cfg: Config, args) -> int:
    from .blackbox.storage import merge_stores, storage_from_url

    sources = [storage_from_url(src) for src in args.sources]
    dest = storage_from_url(args.into)
    try:
        merged = merge_stores(sources, dest, study_name=args.name)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report, don't trace
        print(f"merge failed: {exc}")
        return 1
    from .service import stored_front_size

    line = (
        f"merged {len(args.sources)} stores into {args.into}: study "
        f"'{merged.name}', {len(merged.trials)} trials"
    )
    front_size = stored_front_size(merged)
    if front_size is not None:
        line += f", front size {front_size}"
    print(line)
    return 0


_STUDY_COMMANDS = {
    "run": cmd_study_run,
    "resume": cmd_study_resume,
    "status": cmd_study_status,
    "compact": cmd_study_compact,
    "merge": cmd_study_merge,
}


def cmd_study(cfg: Config, args) -> int:
    return _STUDY_COMMANDS[args.study_command](cfg, args)


def cmd_serve(cfg: Config, args) -> int:
    """Study-as-a-service (DESIGN.md §12): stdlib HTTP API + workers."""
    from .service import StudyService
    from .service.http import serve

    service = StudyService(args.storage)
    return serve(
        service, host=args.host, port=args.port, workers=args.workers
    )


def cmd_worker(cfg: Config, args) -> int:
    """Remote evaluation worker (DESIGN.md §13): lease, evaluate, ack."""
    import os
    import socket

    from .service.remote_worker import run_remote_worker

    worker_id = args.id or f"{socket.gethostname()}-{os.getpid()}"
    return run_remote_worker(
        args.connect,
        worker_id,
        poll_s=args.poll,
        lease_limit=args.lease_limit,
        max_items=args.max_items,
        max_idle=args.max_idle,
    )


def cmd_report(cfg: Config, args) -> int:
    _, result = _exhaustive(cfg)
    print(experiment_report(cfg.scenario.location, result, horizon_years=args.years))
    return 0


def cmd_all(cfg: Config, args) -> int:
    """Regenerate every artifact for both sites into ``--output-dir``."""
    from pathlib import Path

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for site in ("houston", "berkeley"):
        site_cfg = cfg.updated("scenario.location", site)
        scenario = _scenario_from(site_cfg)
        result = OptimizationRunner(scenario).run_exhaustive()
        candidates = paper_candidates(result.evaluated)
        front = pareto_front(result.evaluated)

        table = format_table(
            candidate_table(candidates), title=f"Candidate solutions ({site})"
        )
        (out / f"table_{site}.txt").write_text(table + "\n")
        write_csv(pareto_front_series(front, candidates), out / f"fig2_pareto_{site}.csv")
        write_csv(
            projection_series(project_many(candidates, horizon_years=20.0)),
            out / f"fig3_projection_{site}.csv",
        )
        solar_levels = [i * 4_000.0 for i in range(11)]
        wind_levels = list(range(11))
        grid = coverage_grid(scenario, solar_levels, wind_levels)
        write_csv(
            coverage_heatmap_series(solar_levels, wind_levels, grid),
            out / f"fig4_coverage_{site}.csv",
        )
        print(f"{site}: wrote table + fig2/fig3/fig4 series to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Microgrid-composition optimization (paper reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--site", default="houston", choices=["houston", "berkeley"])
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="config override, e.g. scenario.mean_power_mw=3.0",
        )
        return p

    common(sub.add_parser("table", help="candidate table (Tables 1-2)"))
    p = common(sub.add_parser("pareto", help="Pareto front (Figure 2)"))
    p.add_argument("--csv", default=None)
    p = common(sub.add_parser("projection", help="multi-year projection (Figure 3)"))
    p.add_argument("--years", type=float, default=20.0)
    p.add_argument("--csv", default=None)
    p = common(sub.add_parser("coverage", help="coverage surface (Figure 4)"))
    p.add_argument("--csv", default=None)
    p = common(sub.add_parser("search", help="NSGA-II vs exhaustive (section 4.4)"))
    p.add_argument("--trials", type=int, default=350)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p = common(sub.add_parser("report", help="full site report"))
    p.add_argument("--years", type=float, default=20.0)
    p = common(sub.add_parser("all", help="write every artifact for both sites"))
    p.add_argument("--output-dir", default="artifacts")

    def store_args(p):
        """``--journal`` (historical name) or ``--storage`` (any URL spec)."""
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument(
            "--journal",
            default=None,
            help="append-only JSONL journal path (shorthand for journal:// specs)",
        )
        g.add_argument(
            "--storage",
            default=None,
            metavar="URL",
            help="storage spec: journal:///p.jsonl | sqlite:///p.db | memory:// "
            "| bare path (.db/.sqlite → sqlite, else journal) (DESIGN.md §7)",
        )
        return p

    p = sub.add_parser("study", help="persistent, resumable, parallel studies")
    ssub = p.add_subparsers(dest="study_command", required=True)
    p_run = store_args(common(ssub.add_parser("run", help="run a persisted NSGA-II study")))
    p_run.add_argument("--name", default=None, help="study name (default: <sites>-blackbox)")
    p_run.add_argument("--trials", type=int, default=350)
    p_run.add_argument("--population", type=int, default=50)
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="size of the --pipeline process pool (default 1; the "
        "batched driver runs in-process)",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        default=None,
        help="fan trial records across N per-worker shard stores "
        "(<path>.shard0 … shardN-1); fold back with `repro study merge`",
    )
    p_run.add_argument(
        "--sites",
        default=None,
        metavar="SITE[,SITE...]",
        help="comma-separated sites for robust multi-scenario search "
        "(e.g. berkeley,houston; default: the single --site)",
    )
    p_run.add_argument(
        "--policy",
        default="default",
        choices=list(POLICY_NAMES),
        help="vectorized dispatch policy (DESIGN.md §5)",
    )
    p_run.add_argument(
        "--aggregate",
        default="worst",
        type=_aggregate_arg,
        help="robust reduction of each objective across scenarios: "
        "worst | mean | cvar:alpha | quantile:q (DESIGN.md §6)",
    )
    p_run.add_argument(
        "--ensemble",
        default=None,
        metavar="AXIS=VALUES[,AXIS=VALUES...]",
        help="scenario-ensemble axes crossed with the site(s), e.g. "
        "years=2020-2029,growth=1.0:1.3,carbon=baseline:cleaner,"
        "severity=1.0:1.5 (DESIGN.md §6)",
    )
    p_run.add_argument(
        "--racing",
        default=None,
        type=_racing_arg,
        metavar="rungs=A,B,full[,order=hardest|seeded][,seed=N]",
        help="multi-fidelity racing: evaluate each generation on "
        "progressively larger ensemble subsets, pruning candidates "
        "proven off the front, e.g. rungs=2,8,full (DESIGN.md §8)",
    )
    p_run.add_argument(
        "--fidelity",
        default=None,
        type=_fidelity_arg,
        metavar="fidelity=lo,mid,full[,margin=M]",
        help="model-fidelity ladder (DESIGN.md §11): score trials at the "
        "ladder-top physics (perez/sapm/rainflow) and, with --racing, "
        "screen candidates on cheap physics siblings first — the front "
        "is provably unchanged, e.g. fidelity=lo,mid,full",
    )
    p_run.add_argument(
        "--pipeline",
        action="store_true",
        help="stream trials through worker slots with no generation "
        "barrier (DESIGN.md §10); without --speculate the front is "
        "bit-identical to the generation-batched driver",
    )
    p_run.add_argument(
        "--speculate",
        type=int,
        default=None,
        metavar="D",
        help="pipelined speculation depth: breed the first D candidates "
        "of each generation from the previous generation's front "
        "(implies --pipeline; deterministic per seed, independent of "
        "--workers)",
    )
    p_res = store_args(ssub.add_parser("resume", help="resume an interrupted persisted study"))
    p_res.add_argument("--name", default=None, help="study name (needed if the store holds several)")
    p_res.add_argument("--trials", type=int, default=None, help="override the persisted trial target")
    p_res.add_argument(
        "--workers",
        type=int,
        default=1,
        help="size of the --pipeline process pool for a pipelined study "
        "(default 1; a batched study runs in-process)",
    )
    p_res.add_argument(
        "--racing",
        default=None,
        type=_racing_arg,
        metavar="rungs=A,B,full[,...]",
        help="consistency check only: must match the study's persisted "
        "rung schedule (resume always races the persisted schedule)",
    )
    p_res.add_argument(
        "--fidelity",
        default=None,
        type=_fidelity_arg,
        metavar="fidelity=lo,mid,full[,...]",
        help="consistency check only: must match the study's persisted "
        "fidelity ladder (resume always uses the persisted ladder)",
    )
    p_stat = store_args(ssub.add_parser("status", help="summarize the studies in a store"))
    p_stat.add_argument(
        "--json",
        action="store_true",
        help="print the service's machine-readable status documents "
        "(the same JSON GET /studies/{name} returns)",
    )
    store_args(
        ssub.add_parser(
            "compact",
            help="rewrite a journal to its last-write-wins fixed point "
            "(replay becomes O(live trials), not O(history))",
        )
    )
    p_serve = sub.add_parser(
        "serve",
        help="study-as-a-service: stdlib HTTP API + queue workers "
        "over one store (DESIGN.md §12)",
    )
    p_serve.add_argument(
        "--storage",
        required=True,
        metavar="URL",
        help="the store the service queues, runs, and serves studies from "
        "(journal:///p.jsonl | sqlite:///p.db | bare path)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="queue-draining worker threads pulling submitted studies",
    )

    p_worker = sub.add_parser(
        "worker",
        help="remote evaluation worker: lease candidate batches from a "
        "`repro serve` coordinator, evaluate, post results (DESIGN.md §13)",
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="the serve process to lease work from, e.g. http://host:8765",
    )
    p_worker.add_argument(
        "--id",
        default=None,
        help="worker id shown in lease stats (default: <hostname>-<pid>)",
    )
    p_worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds per empty lease poll; the coordinator holds each "
        "poll this long for work",
    )
    p_worker.add_argument(
        "--lease-limit",
        type=int,
        default=1,
        metavar="N",
        help="max candidate evaluations leased per poll",
    )
    p_worker.add_argument(
        "--max-items",
        type=int,
        default=None,
        metavar="N",
        help="exit after evaluating N items (default: run until idle/killed)",
    )
    p_worker.add_argument(
        "--max-idle",
        type=int,
        default=None,
        metavar="N",
        help="exit after N consecutive empty or unreachable polls "
        "(default: poll forever)",
    )

    p_merge = ssub.add_parser(
        "merge", help="fold shard stores into one store (renumbers trials)"
    )
    p_merge.add_argument(
        "--into", required=True, metavar="URL", help="destination storage spec"
    )
    p_merge.add_argument(
        "--from",
        dest="sources",
        action="append",
        required=True,
        metavar="URL",
        help="source shard store (repeat per shard)",
    )
    p_merge.add_argument(
        "--name", default=None, help="study to merge (needed if sources hold several)"
    )
    return parser


COMMANDS = {
    "table": cmd_table,
    "pareto": cmd_pareto,
    "projection": cmd_projection,
    "coverage": cmd_coverage,
    "search": cmd_search,
    "report": cmd_report,
    "all": cmd_all,
    "study": cmd_study,
    "serve": cmd_serve,
    "worker": cmd_worker,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # `study resume`/`study status` carry no --site; the journal metadata does.
    site = getattr(args, "site", DEFAULT_CONFIG["scenario"]["location"])
    cfg = Config(DEFAULT_CONFIG).updated("scenario.location", site)
    cfg = apply_overrides(cfg, getattr(args, "overrides", []))
    return COMMANDS[args.command](cfg, args)


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())
