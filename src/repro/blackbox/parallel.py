"""Parallel trial execution: stream independent trials across worker slots.

The paper's search "parallelize[s] ... across a cluster of compute
nodes" through Hydra; the co-simulated sweep it replaces took >24 h
serially.  :class:`PipelinedDispatcher` is the one parallel driver
(DESIGN.md §4, §10): a coordinator that keeps **all sampling in the
parent process** and hands each worker slot one candidate (or one
candidate's racing rung slice) at a time, on a thread pool, a spawn
process pool, inline, or a remote lease queue (DESIGN.md §13).  Raced
generations run the race core of :mod:`repro.core.racing`, the one the
batched driver runs, so both prune the same trials.  The in-process
batched path — one vectorized call per generation — is
:meth:`repro.core.study_runner.OptimizationRunner.run_blackbox`; at
speculation depth 0 the dispatcher breeds the identical trial sequence.

Determinism contract:

* Parameters are planned in the parent, in trial order, from the
  study's declared search space — workers only ever see a plain params
  dict and return objective values.
* The sampler is switched to deterministic per-trial RNG streams
  (:meth:`repro.blackbox.samplers.base.Sampler.begin_trial`, seeded via
  :func:`repro.rng.seed_for`), so the draw for trial *n* depends only on
  the sampler seed, the trial number, and the completed-trial history —
  not on wall-clock interleaving.
* Each trial breeds from a *parent epoch* — a completed-history prefix
  that is a pure function of its number — so the trial sequence never
  depends on worker count or scheduling.  With speculation off the
  epoch is the trial's generation boundary (the batch defaults to the
  sampler's ``population_size``), exactly the history the generational
  loop sees.

The dispatcher composes with storage (DESIGN.md §3, §7): give the study
a :class:`~repro.blackbox.storage.StudyStorage` — or pass the
dispatcher a ``storage`` spec string such as ``sqlite:///study.db`` —
and every trial is recorded as it completes, making a killed parallel
run resumable.

For a local process pool the objective must be picklable (a
module-level function, or an instance of a module-level class such as
:class:`repro.core.study_runner.CompositionObjective`) and maps a params
dict to a float or a sequence of floats.
"""

from __future__ import annotations

import pickle
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import OptimizationError, TrialPruned
from .distributions import Distribution
from .study import Study
from .trial import PARENT_EPOCH_ATTR, PIPELINE_ASK_ATTR, TrialState

ParamsObjective = Callable[[dict[str, Any]], "float | Sequence[float]"]


def _guarded(fn: "Callable[..., Any]", *args: Any) -> tuple[str, Any, float]:
    """Run one objective call, returning a transport-safe outcome.

    ``(tag, payload, seconds)`` — the duration is measured worker-side,
    so the parent can account busy time per trial
    (:class:`PipelineStats`) without trusting wall clocks across
    processes.  Returning outcomes as data keeps one failed trial from
    tearing down the pool; the parent re-raises uncaught exceptions
    after recording the trial as FAILED.  An exception ships back as a
    live object only if it survives a pickle round trip *here in the
    worker* — one that pickles but fails to reconstruct (e.g. a
    multi-arg ``__init__`` calling ``super().__init__`` with one
    argument) would otherwise kill the pool's result-handler thread and
    hang the parent.  Anything that doesn't round-trip degrades to an
    :class:`OptimizationError` carrying the original type, message, and
    traceback text.
    """
    start = time.perf_counter()
    try:
        result = fn(*args)
    except TrialPruned:
        return ("pruned", None, time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        try:
            pickle.loads(pickle.dumps(exc))
            payload: Any = exc
        except Exception:
            payload = OptimizationError(
                f"objective raised unpicklable {type(exc).__name__}: "
                f"{exc}\noriginal traceback:\n{traceback.format_exc()}"
            )
        return ("error", payload, time.perf_counter() - start)
    return ("ok", result, time.perf_counter() - start)


def materialize_params(
    trial: Any, params: dict[str, Any], space: dict[str, Distribution]
) -> None:
    """Write a sampler-planned candidate into a live trial.

    The ask/tell counterpart of the define-by-run ``Trial._suggest``
    loop: validates every declared parameter is present and in-domain,
    then records params and distributions on the frozen trial so the
    history the sampler later observes is indistinguishable from a
    define-by-run trial.
    """
    frozen = trial._frozen
    for name, dist in space.items():
        if name not in params:
            raise OptimizationError(
                f"sampler planned no value for declared parameter '{name}'"
            )
        value = params[name]
        if not dist.contains(value):
            raise OptimizationError(
                f"sampler produced out-of-domain value {value!r} for '{name}'"
            )
        frozen.params[name] = value
        frozen.distributions[name] = dist


# -- pipelined dispatch (DESIGN.md §10) ---------------------------------------


def pipeline_spec_string(speculate: int) -> str:
    """Round-trippable pipeline spec persisted in study metadata."""
    return f"speculate={int(speculate)}"


def parse_pipeline_spec(spec: str) -> int:
    """Speculation depth from a persisted pipeline spec string."""
    text = str(spec).strip()
    prefix = "speculate="
    if not text.startswith(prefix):
        raise OptimizationError(f"malformed pipeline spec {spec!r} (want 'speculate=N')")
    try:
        value = int(text[len(prefix):])
    except ValueError:
        raise OptimizationError(
            f"malformed pipeline spec {spec!r} (want 'speculate=N')"
        ) from None
    if value < 0:
        raise OptimizationError("speculation depth must be >= 0")
    return value


#: per-process objective installed by the process-pool initializer, so
#: each work item ships only a params dict — not the (possibly
#: scenario-embedding) objective — across the pipe
_PIPELINE_OBJECTIVE: Any = None


def _pipeline_worker_init(payload: bytes) -> None:  # pragma: no cover - subprocess
    global _PIPELINE_OBJECTIVE
    _PIPELINE_OBJECTIVE = pickle.loads(payload)


def _pipeline_eval(params: dict[str, Any]) -> tuple[str, Any, float]:  # pragma: no cover - subprocess
    return _guarded(_PIPELINE_OBJECTIVE, params)


def _pipeline_eval_members(
    params: dict[str, Any], member_indices: tuple[int, ...]
) -> tuple[str, Any, float]:  # pragma: no cover - subprocess
    return _guarded(_PIPELINE_OBJECTIVE.member_values, params, member_indices)


class _HistoryPrefix:
    """Read-only study view truncated to its first ``epoch`` trials.

    In pipelined mode, trials *later* than a candidate's parent epoch
    may already be COMPLETE at ask time (workers race ahead of the
    sampler).  Breeding must not see them — the epoch is the whole
    determinism contract — so the sampler is handed this view instead of
    the live study.  Everything except ``trials`` delegates.
    """

    def __init__(self, study: Study, epoch: int) -> None:
        self.trials = study.trials[:epoch]
        self._study = study

    def __getattr__(self, name: str) -> Any:
        return getattr(self._study, name)


class _InlineExecutor:
    """Degenerate executor: runs each submission synchronously.

    The ``workers=1`` fast path — same control flow as the pools, no
    thread hops, and trivially deterministic completion order.
    """

    def submit(self, fn: "Callable[..., Any]", *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        return None


@dataclass
class PipelineStats:
    """Utilization accounting for one pipelined ``optimize`` call."""

    wall: float = 0.0
    busy: float = 0.0
    workers: int = 1
    n_trials: int = 0
    #: trials bred speculatively (parent epoch one generation behind)
    n_speculative: int = 0

    @property
    def idle_fraction(self) -> float:
        """Fraction of worker-seconds spent waiting, 0 when perfectly full."""
        capacity = self.wall * max(self.workers, 1)
        if capacity <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy / capacity)

    def as_metadata(self) -> dict[str, Any]:
        return {
            "wall": round(self.wall, 6),
            "busy": round(self.busy, 6),
            "workers": self.workers,
            "n_trials": self.n_trials,
            "n_speculative": self.n_speculative,
            "idle": round(self.idle_fraction, 4),
        }


@dataclass
class _Race:
    """One generation racing through the shared core (DESIGN.md §8)."""

    first: int  # number of the generation's first trial
    expected: int  # trials the generation asks
    trials: list = field(default_factory=list)
    keys: list = field(default_factory=list)  # each trial's params key
    steps: Any = None  # the race_steps core, once started
    request: tuple = ((), ())  # the (members, keys) the core waits on
    step: int = 0  # request counter; -1 once told (every item is stale)
    results: dict = field(default_factory=dict)  # key -> (tag, payload)


@dataclass
class _Item:
    """One in-flight work item: a whole trial, or one candidate's rung slice."""

    kind: str  # "trial" | "rung"
    trial: Any = None
    race: "_Race | None" = None
    key: tuple = ()  # the candidate's sorted params items
    step: int = 0


class PipelinedDispatcher:
    """Generation-free parallel search: stream candidates through ask/tell.

    Rather than evaluating whole generations behind a barrier, this
    coordinator keeps every worker slot full (DESIGN.md §10):

    * candidates are dispatched *individually* the moment a slot frees;
    * with ``speculate=D > 0``, the first ``D`` candidates of each
      generation are bred early — from the previous generation's
      completed prefix — so workers never drain while a generation's
      slowest trial finishes.

    Determinism contract: trial *n* of generation ``g = n // batch`` is
    bred from the history prefix of length ``E(n)`` — ``(g-1)·batch`` for
    the ``D`` speculative offsets, ``g·batch`` otherwise.  ``E(n)`` is a
    pure function of the trial number, so together with per-trial RNG
    streams the planned params depend only on ``(seed, n, prefix)`` —
    never on worker count or scheduling.  Every trial records its epoch
    (``nsga2:parent_epoch``) and ask order (``pipeline:ask_number``) as
    system attrs; resume validates both against the recomputed schedule,
    exactly like the racing rung schedule, and re-runs anything that
    fails the audit.  With ``speculate=0`` the dispatched params are
    those of the generation-batched
    :meth:`~repro.core.study_runner.OptimizationRunner.run_blackbox`.

    **Racing integration**: a raced generation runs the one race core,
    :func:`repro.core.racing.race_steps` — the rung loop, promotion rule
    and promote-back proof of ``run_blackbox``'s racer — and every slice
    it asks for becomes one work item per candidate in the same queue.
    A trial's first-rung item is submitted when it is asked, so with
    speculation the next generation's items backfill slots while a
    climb runs.

    ``space`` is the declared ``{name: Distribution}`` search space
    (parameters are planned before the objective runs).  ``executor`` is
    ``"thread"``, ``"process"`` (spawn), ``"serial"`` (inline), or an
    object exposing ``submit_trial``/``submit_rung``/``shutdown`` (the
    remote seam, :class:`~repro.service.lease.LeasedWorkQueue`);
    ``batch_size`` defaults to the sampler's ``population_size``.
    ``storage`` (a backend or spec string, optionally fanned across
    ``shards`` stores) attaches to a not-yet-persistent study; to
    *resume*, build the study with ``create_study(storage=...,
    load_if_exists=True)`` instead.
    """

    def __init__(
        self,
        study: Study,
        space: dict[str, Distribution],
        workers: int = 1,
        executor: str = "thread",
        speculate: int = 0,
        batch_size: int | None = None,
        storage=None,
        shards: int | None = None,
    ) -> None:
        if not space:
            raise OptimizationError("parallel execution needs a declared search space")
        if workers < 1:
            raise OptimizationError("workers must be >= 1")
        if isinstance(executor, str):
            if executor not in ("thread", "process", "serial"):
                raise OptimizationError(
                    f"unknown executor '{executor}' (use thread | process | serial)"
                )
        elif not (
            hasattr(executor, "submit_trial") and hasattr(executor, "submit_rung")
        ):
            raise OptimizationError(
                "executor object must expose submit_trial/submit_rung/shutdown "
                "(the remote seam; see repro.service.lease.LeasedWorkQueue)"
            )
        if batch_size is not None and batch_size < 1:
            raise OptimizationError("batch_size must be >= 1")
        self.study = study
        self.space = dict(space)
        self.workers = int(workers)
        self.executor = executor
        self.batch_size = (
            batch_size
            or getattr(study.sampler, "population_size", None)
            or self.workers
        )
        if not 0 <= int(speculate) <= self.batch_size:
            raise OptimizationError(
                f"speculation depth must be in [0, batch_size={self.batch_size}]"
            )
        self.speculate = int(speculate)
        #: utilization accounting of the most recent ``optimize`` call
        self.stats = PipelineStats(workers=self.workers)
        #: racing work accounting of the most recent raced ``optimize``
        self.racing_stats = None
        if storage is not None:
            self._attach_storage(storage, shards)

    # -- setup / resume validation -------------------------------------------

    def _attach_storage(self, storage, shards: int | None) -> None:
        from .storage import resolve_storage

        if self.study.storage is not None:
            raise OptimizationError(
                "study already has a storage backend; build it with "
                "create_study(storage=..., load_if_exists=True) to resume"
            )
        backend = resolve_storage(storage, shards=shards)
        if backend.load_study(self.study.study_name) is not None:
            raise OptimizationError(
                f"study '{self.study.study_name}' already exists in that "
                "storage; resume it via create_study(load_if_exists=True)"
            )
        self.study.metadata.setdefault("batch", self.batch_size)
        self.study.metadata.setdefault(
            "pipeline", pipeline_spec_string(self.speculate)
        )
        backend.create_study(
            self.study.study_name,
            [d.value for d in self.study.directions],
            self.study.metadata,
        )
        self.study.storage = backend

    def _epoch(self, number: int) -> int:
        """Completed-history prefix length trial ``number`` breeds from."""
        generation, offset = divmod(int(number), self.batch_size)
        if generation >= 1 and offset < self.speculate:
            return (generation - 1) * self.batch_size
        return generation * self.batch_size

    def _validate_metadata(self, racing, fidelity=None) -> None:
        """Pipeline/batch/racing/fidelity identity checks: each persisted
        spec decides which history a resume may breed from (and which
        physics scored it), so a mismatch is a hard error, never a
        silent divergence."""
        md = self.study.metadata
        requested_pipeline = pipeline_spec_string(self.speculate)
        requested_racing = racing.spec_string() if racing is not None else None
        requested_fidelity = (
            fidelity.spec_string() if fidelity is not None else None
        )
        if self.study.storage is not None and not self.study.trials:
            dirty = False
            for key, value in (
                ("batch", self.batch_size),
                ("pipeline", requested_pipeline),
                ("racing", requested_racing),
                ("fidelity", requested_fidelity),
            ):
                if md.get(key) is None and value is not None:
                    md[key] = value
                    dirty = True
            if dirty:
                self.study.storage.update_metadata(self.study.study_name, md)
        # Identity checks route through the one shared validator
        # (DESIGN.md §12); the speculation depth joins batch/racing/
        # fidelity as an identity key because it decides every trial's
        # parent epoch.
        from ..core.study_spec import check_resume_identity

        if self.study.trials:
            check_resume_identity(
                self.study.study_name, md, {"batch": self.batch_size}
            )
        if self.study.storage is not None:
            check_resume_identity(
                self.study.study_name,
                md,
                {
                    "pipeline": requested_pipeline,
                    "racing": requested_racing,
                    "fidelity": requested_fidelity,
                },
            )

    def _validate_resume_prefix(self, racing) -> None:
        """Audit reloaded trials against the recomputed epoch schedule.

        Keeps the longest prefix whose persisted tags are exactly what
        this dispatcher would have written — ask order equal to the
        trial number (a compacting resume renumbers past gaps, which
        shifts trials onto the wrong per-trial RNG streams; the stale
        ask-number exposes it) and parent epoch equal to ``E(number)``.
        Everything after the first violation is dropped and re-asked;
        the kept prefix is, by construction, a prefix an uninterrupted
        run produced, so the resumed front is identical.  Under racing
        the cut additionally aligns to a generation boundary, because
        a race spans its whole generation.
        """
        keep = 0
        for trial in self.study.trials:
            attrs = trial.system_attrs
            if attrs.get(PIPELINE_ASK_ATTR) != trial.number:
                break
            if attrs.get(PARENT_EPOCH_ATTR) != self._epoch(trial.number):
                break
            keep += 1
        if racing is not None:
            keep = (keep // self.batch_size) * self.batch_size
        del self.study.trials[keep:]

    # -- the dispatch loop ----------------------------------------------------

    def optimize(
        self,
        objective: ParamsObjective,
        n_trials: int,
        catch: tuple[type[Exception], ...] = (),
        racing=None,
        fidelity=None,
    ) -> Study:
        """Stream trials through worker slots up to ``n_trials`` total.

        Mirrors ``Study.optimize`` semantics: ``TrialPruned`` marks the
        trial PRUNED, exceptions in ``catch`` mark it FAILED, anything
        else is recorded as FAILED and re-raised in the parent, after the
        plain trials still in flight on a local pool are told too.

        ``n_trials`` is the study's *total* trial target: on a study
        reloaded via ``create_study(load_if_exists=True)`` only the
        missing trials run, and pruned trials count toward the target.
        Resume alignment is per-trial (epoch tags), not per-generation —
        only trials whose persisted tags fail the epoch audit are re-run.

        **Racing** (DESIGN.md §8): with ``racing`` set to a
        :class:`~repro.core.racing.RungSchedule` (or spec string), the
        objective must expose ``n_members``, ``aggregate`` and
        ``member_values(params, member_indices)`` (plus
        ``member_difficulty`` for ``order=hardest``), as
        :class:`repro.core.study_runner.CompositionObjective` does.  Each
        generation races through ``run_blackbox``'s race core, keyed by
        params, and its work lands in :attr:`racing_stats`.

        ``fidelity`` persists/validates the model-fidelity ladder as
        resume identity (the objective already evaluates the ladder-top
        physics; DESIGN.md §11).
        """
        if n_trials <= 0:
            raise OptimizationError(f"n_trials must be positive, got {n_trials}")
        subsets = None
        if racing is not None:
            from ..core.racing import RungSchedule

            racing = RungSchedule.parse(racing)
            subsets = self._prepare_race(objective, racing)
        if fidelity is not None:
            from ..core.fidelity import FidelityLadder

            fidelity = FidelityLadder.parse(fidelity)
        sampler = self.study.sampler
        prior_seeding = sampler.per_trial_seeding
        sampler.per_trial_seeding = True
        try:
            self._validate_metadata(racing, fidelity)
            if len(self.study.trials) < n_trials:
                self._validate_resume_prefix(racing)
            pool = self._make_pool(objective)
            try:
                self._run(pool, objective, n_trials, catch, subsets)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            sampler.per_trial_seeding = prior_seeding
        return self.study

    def _make_pool(self, objective: ParamsObjective):
        if not isinstance(self.executor, str):
            # Remote seam: an executor *object* (LeasedWorkQueue) already
            # knows how to evaluate params elsewhere — hand it straight
            # through; workers bring their own objective.
            return self.executor
        if self.executor == "serial" or self.workers == 1 and self.executor == "thread":
            return _InlineExecutor()
        if self.executor == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        import multiprocessing as mp

        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp.get_context("spawn"),
            initializer=_pipeline_worker_init,
            initargs=(pickle.dumps(objective),),
        )

    def _run(self, pool, objective, n_trials, catch, subsets) -> None:
        study = self.study
        in_process = not isinstance(pool, ProcessPoolExecutor)
        # A pool with its own submit_trial/submit_rung is the remote seam:
        # items carry only params (the worker holds the objective), and the
        # returned futures resolve when a remote result is acknowledged.
        remote = hasattr(pool, "submit_trial")

        def submit_trial(params):
            if remote:
                return pool.submit_trial(params)
            if in_process:
                return pool.submit(_guarded, objective, params)
            return pool.submit(_pipeline_eval, params)

        def submit_rung(params, members):
            if remote:
                return pool.submit_rung(params, members)
            if in_process:
                return pool.submit(_guarded, objective.member_values, params, members)
            return pool.submit(_pipeline_eval_members, params, members)

        self._pending = pending = {}
        self._submit_rung = submit_rung
        self._catch = catch
        self._races: "dict[int, _Race]" = {}
        self.stats = stats = PipelineStats(workers=self.workers)
        wall_start = time.perf_counter()
        # Reloaded trials are all finished (RUNNING ones were discarded
        # on load), so the contiguous finished prefix starts here.
        self._finished = len(study.trials)
        next_ask = len(study.trials)

        while next_ask < n_trials or pending:
            while (
                next_ask < n_trials
                and len(pending) < self.workers
                and self._finished >= self._epoch(next_ask)
            ):
                trial = self._ask_trial(next_ask, stats)
                if subsets is None:
                    pending[submit_trial(dict(trial.params))] = _Item("trial", trial)
                else:
                    self._enroll(trial, n_trials)
                    self._start_races()
                next_ask += 1
            if not pending:
                if next_ask >= n_trials:
                    break
                raise OptimizationError(
                    "pipeline stalled: no work in flight and trial "
                    f"{next_ask} cannot be bred yet (finished prefix "
                    f"{self._finished} < epoch {self._epoch(next_ask)})"
                )
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            try:
                for future in done:
                    item = pending.pop(future)
                    tag, payload, seconds = future.result()
                    stats.busy += seconds
                    if item.kind == "trial":
                        self._tell_plain(item.trial, tag, payload, catch)
                    elif item.step == item.race.step:
                        # Anything else is stale: the race treats its
                        # candidate as known or as a repeat.
                        item.race.results[item.key] = (tag, payload)
                        self._pump(item.race)
                self._start_races()
            except Exception:
                if not remote:
                    self._drain(pending)
                raise
        stats.wall = time.perf_counter() - wall_start
        stats.n_trials = len(study.trials)
        if study.storage is not None:
            study.metadata["pipeline_stats"] = stats.as_metadata()
            study.storage.update_metadata(study.study_name, study.metadata)

    def _drain(self, pending: "dict[Future, _Item]") -> None:
        """Tell every plain trial still in flight when an uncaught error
        aborts the run, so which trials end RUNNING does not depend on
        which worker finished first.  The local pools' shutdown waits for
        this work anyway; a remote queue cancels it instead, so it is not
        drained."""
        for future in wait(list(pending)).done:
            item = pending.pop(future)
            if item.kind != "trial":
                continue
            try:
                tag, payload, _ = future.result()
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                tag, payload = "error", exc
            self._tell_plain(item.trial, tag, payload, catch=(Exception,))

    def _ask_trial(self, number: int, stats: PipelineStats):
        epoch = self._epoch(number)
        trial = self.study.ask()
        if trial.number != number:
            raise OptimizationError(
                f"pipeline ask misaligned: expected trial {number}, "
                f"study created {trial.number}"
            )
        view = _HistoryPrefix(self.study, epoch)
        params = self.study.sampler.ask(view, number, self.space)
        materialize_params(trial, params, self.space)
        trial.set_system_attr(PIPELINE_ASK_ATTR, number)
        trial.set_system_attr(PARENT_EPOCH_ATTR, epoch)
        if epoch < (number // self.batch_size) * self.batch_size:
            stats.n_speculative += 1
        return trial

    def _advance_finished(self) -> None:
        trials = self.study.trials
        i = self._finished
        while i < len(trials) and trials[i].state.is_finished():
            i += 1
        self._finished = i

    def _tell_plain(self, trial, tag, payload, catch) -> None:
        if tag == "ok":
            self.study.tell(trial, payload)
        elif tag == "pruned":
            self.study.tell(trial, state=TrialState.PRUNED)
        else:
            self.study.tell(trial, state=TrialState.FAILED)
            if not (catch and isinstance(payload, catch)):
                raise payload
        self._advance_finished()

    # -- racing (DESIGN.md §8) -----------------------------------------------

    def _prepare_race(self, objective, racing) -> "list[tuple[int, ...]]":
        """Check the objective's multi-fidelity hooks, fix the race's
        settings and resolve the rung subsets."""
        from ..core.racing import NONNEGATIVE_OBJECTIVES, RacingStats

        hooks = ["n_members", "aggregate", "member_values"]
        if racing.order == "hardest":
            hooks.append("member_difficulty")  # probe-ranked subsets
        for hook in hooks:
            if not hasattr(objective, hook):
                raise OptimizationError(
                    "racing needs a multi-fidelity objective exposing "
                    f"'{hook}' (see CompositionObjective)"
                )
        n = int(objective.n_members)
        self._subsets = racing.subsets(
            n, difficulty=getattr(objective, "member_difficulty", None)
        )
        self._aggregate = objective.aggregate
        # Zero-padded bounds are sound for minimized objectives that are
        # non-negative by construction; a maximize direction voids all.
        names = list(getattr(objective, "objectives", ()))
        names += [""] * (len(self.study.directions) - len(names))
        self._nonnegative = (
            [name in NONNEGATIVE_OBJECTIVES for name in names]
            if all(d.is_minimize() for d in self.study.directions)
            else None
        )
        # The probe's member evals are charged to the first race, as
        # RacingEvaluator charges them.
        self._probe_evals = n if racing.order == "hardest" and n > 1 else 0
        self.racing_stats = RacingStats()
        return self._subsets

    def _enroll(self, trial, n_trials: int) -> None:
        """Add an asked trial to its generation's race and submit its
        candidate's first-rung item, unless the generation has it."""
        generation = trial.number // self.batch_size
        first = generation * self.batch_size
        race = self._races.setdefault(
            generation, _Race(first, min(self.batch_size, n_trials - first))
        )
        key = tuple(sorted(trial.params.items()))
        if key not in race.keys:
            self._submit(race, key, self._subsets[0])
        race.trials.append(trial)
        race.keys.append(key)

    def _submit(self, race: _Race, key: tuple, members) -> None:
        future = self._submit_rung(dict(key), members)
        self._pending[future] = _Item("rung", race=race, key=key, step=race.step)

    def _start_races(self) -> None:
        """Start each generation's race once it is fully asked and every
        earlier trial is finished, which fixes its known values: the
        told values of earlier COMPLETE trials with the same params."""
        from ..core.racing import race_steps

        for race in list(self._races.values()):
            if race.steps is not None:
                continue
            if len(race.trials) < race.expected or self._finished < race.first:
                return
            known: "dict[tuple, tuple]" = {}
            for trial in self.study.trials[: race.first]:
                key = tuple(sorted(trial.params.items()))
                if trial.state == TrialState.COMPLETE and key in race.keys:
                    known.setdefault(key, tuple(trial.values))
            race.steps = race_steps(
                race.keys,
                known,
                self._subsets,
                self._aggregate,
                self._nonnegative,
                minimized=self.study.minimized_values,
            )
            self._advance(race, None)

    def _pump(self, race: _Race) -> None:
        """Answer the core's request once every candidate's item landed;
        a failed (or objective-pruned) candidate leaves the race."""
        keys = race.request[1]
        if race.steps is None or any(k not in race.results for k in keys):
            return
        rows = []
        for key in keys:
            tag, payload = race.results[key]
            ok = tag == "ok"
            rows.append([(v,) if np.isscalar(v) else v for v in payload] if ok else None)
            for trial, trial_key in zip(race.trials, race.keys):
                if not ok and trial_key == key:
                    self._tell_plain(trial, tag, payload, self._catch)
        self._advance(race, rows)

    def _advance(self, race: _Race, rows) -> None:
        """Send ``rows`` to the core (``None`` starts it) and submit its
        next request, or tell the generation the core's outcome."""
        from ..core.racing import tell_race

        try:
            race.request = next(race.steps) if rows is None else race.steps.send(rows)
        except StopIteration as stop:
            race.step = -1
            del self._races[race.first // self.batch_size]
            stop.value.stats.member_evals += self._probe_evals
            self._probe_evals = 0
            self.racing_stats.merge(stop.value.stats)
            tell_race(self.study, race.trials, race.keys, stop.value)
            self._advance_finished()
            return
        if rows is None:
            # The first request is the first rung, submitted at ask time.
            self._pump(race)
            return
        race.step += 1
        race.results = {}
        for key in race.request[1]:
            self._submit(race, key, race.request[0])
