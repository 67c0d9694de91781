"""Study-as-a-service: queue, run, and inspect studies over any store.

The service layer mounts directly on the two seams the rest of the repo
already standardized (DESIGN.md §12):

* the **storage contract** (DESIGN.md §7) — a submitted study is just a
  study record whose metadata carries a small ``service`` envelope
  (``state``/timestamps) next to its :class:`~repro.core.study_spec.
  StudySpec` identity keys, so any backend the URL registry resolves is
  a job queue for free, and every existing tool (``study status``,
  ``study compact``, ``study merge``) works on service-run studies;
* the **StudySpec seam** — :meth:`StudyService.submit` persists
  ``spec.to_metadata()``, the worker loop rebuilds the spec with
  ``StudySpec.from_metadata`` and calls ``spec.execute(...,
  load_if_exists=True)``, which picks the batched or pipelined driver
  and routes resume-identity checks through the one shared validator.
  The service cannot diverge from the CLI because they run the same
  code path, not a copy of it.

Liveness is persisted through the contract too: the worker wraps its
backend in :class:`HeartbeatStorage`, which stamps ``heartbeat_ts`` and
``trials_done`` into the study metadata on a throttle as trials finish
— so ``repro study status`` (and GET /studies/{name}) can age the last
heartbeat and flag runs whose worker died (kill -9, OOM, node loss)
without any side channel.  A flagged study is restarted by re-queueing
it (:meth:`StudyService.resume`); the drivers' prefix-replay semantics
then guarantee the resumed front is bit-identical to an uninterrupted
run's.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Mapping

import numpy as np

from ..blackbox.storage import StudyStorage, open_study_storage
from ..blackbox.storage.base import StoredStudy
from ..blackbox.trial import TrialState
from ..core.study_spec import StudySpec
from ..exceptions import ConfigurationError, OptimizationError

#: a running study whose last heartbeat is older than this is flagged
#: stale — its worker is presumed dead and the study safe to re-queue
STALE_AFTER_S = 300.0

#: minimum seconds between heartbeat metadata writes (a full-year
#: vectorized batch finishes many trials per second; stamping each one
#: would turn the journal into a heartbeat log)
HEARTBEAT_EVERY_S = 5.0

#: metadata key holding the service envelope (queue state + timestamps)
SERVICE_KEY = "service"

#: largest ``n_trials`` a submission may ask for (the paper's study is 350)
MAX_TRIALS = 1_000_000

_QUEUEABLE_STATES = ("queued", "running", "done", "failed", "cancelled")


class ServiceError(OptimizationError):
    """A service request was invalid (maps to HTTP 400)."""


class UnknownStudyError(ServiceError):
    """The named study does not exist in the store (HTTP 404)."""


class StudyConflictError(ServiceError):
    """The request conflicts with the study's current state (HTTP 409)."""


# -- front extraction (shared by CLI, service, and HTTP) -----------------------


def front_trials(stored: StoredStudy) -> "list[Any]":
    """Pareto-optimal completed trials, deduped by parameter vector.

    Revisited elite genomes collapse to one entry (matching the front
    size ``study run``/``study resume`` print), and the survivors are
    returned in trial-number order so the serialization is
    deterministic for a deterministic study.
    """
    from ..blackbox.multiobjective import pareto_front_indices

    completed = [
        t for t in stored.trials if t.state == TrialState.COMPLETE and t.values
    ]
    if not completed:
        return []
    unique = {tuple(sorted(t.params.items())): t for t in completed}
    trials = list(unique.values())
    signs = np.array([1.0 if d == "minimize" else -1.0 for d in stored.directions])
    values = np.array([t.values for t in trials]) * signs
    indices = pareto_front_indices(values)
    return sorted((trials[i] for i in indices), key=lambda t: t.number)


def stored_front_size(stored: StoredStudy) -> "int | None":
    """Pareto-front size of a replayed study; ``None`` when nothing completed."""
    front = front_trials(stored)
    return len(front) if front else None


def front_rows(stored: StoredStudy) -> "list[dict[str, Any]]":
    """JSON-ready front rows: trial number, objective values, params."""
    return [
        {"trial": t.number, "values": [float(v) for v in t.values], "params": dict(t.params)}
        for t in front_trials(stored)
    ]


def front_csv(stored: StoredStudy) -> str:
    """The front as CSV text (``repr`` floats, so values round-trip exactly)."""
    rows = front_rows(stored)
    param_keys = sorted({k for row in rows for k in row["params"]})
    header = (
        ["trial"]
        + [f"value_{i}" for i in range(len(stored.directions))]
        + param_keys
    )
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row["trial"])]
        cells += [repr(v) for v in row["values"]]
        cells += [repr(row["params"].get(k, "")) for k in param_keys]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- status serialization (shared by `study status --json` and HTTP) -----------


def study_status_document(
    stored: StoredStudy,
    *,
    stale_after: float = STALE_AFTER_S,
    now: "float | None" = None,
) -> dict[str, Any]:
    """The one machine-readable status document for a persisted study.

    ``repro study status --json`` and GET /studies/{name} both print
    exactly this, so scripts never see two dialects.  ``heartbeat`` is
    present once a worker has stamped liveness: ``age_s`` is relative
    to ``now`` (wall clock by default) and ``stale`` flags a *running*
    study whose heartbeat is older than ``stale_after`` seconds — the
    signature of a dead worker, safe to re-queue.
    """
    md = stored.metadata
    counts = {state.value: 0 for state in TrialState}
    for t in stored.trials:
        counts[t.state.value] += 1
    doc: dict[str, Any] = {
        "name": stored.name,
        "directions": list(stored.directions),
        "trials": counts,
        "n_trials": md.get("n_trials"),
        "front_size": stored_front_size(stored),
    }
    sites = md.get("sites") or ([md["site"]] if md.get("site") else [])
    doc["sites"] = [str(s) for s in sites]
    for key in (
        "policy", "aggregate", "seed", "population",
        "ensemble", "racing", "fidelity", "pipeline", "transport",
    ):
        doc[key] = md.get(key)
    service = md.get(SERVICE_KEY)
    if isinstance(service, Mapping):
        doc[SERVICE_KEY] = dict(service)
    if isinstance(md.get("leases"), Mapping):
        # Lease counters the coordinator folded into its liveness
        # writes; the live queue's numbers (when this process hosts the
        # coordinator) are overlaid by StudyService.status.
        doc["leases"] = dict(md["leases"])
    heartbeat_ts = md.get("heartbeat_ts")
    if heartbeat_ts is not None:
        now = time.time() if now is None else now
        age = max(0.0, float(now) - float(heartbeat_ts))
        state = (service or {}).get("state") if isinstance(service, Mapping) else None
        doc["heartbeat"] = {
            "ts": float(heartbeat_ts),
            "age_s": age,
            "trials_done": md.get("trials_done"),
            "stale": bool(state == "running" and age > stale_after),
        }
    return doc


def spec_from_document(document: Mapping[str, Any]) -> "tuple[StudySpec, str | None]":
    """Build a ``(spec, name)`` pair from a submission document.

    The document's keys are :class:`StudySpec` fields, plus the
    conveniences the CLI offers: ``name`` (the study name), ``trials``
    (alias for ``n_trials``), and ``speculate`` (an integer depth that
    expands to the canonical ``pipeline`` spec string).  Unknown keys
    are a hard error — a typoed identity key silently falling back to
    its default is exactly the failure mode the spec exists to prevent —
    and so is ``shards``: the service never opens a sharded store.
    Every invalid value raises :class:`ServiceError` (HTTP 400), as does
    an ``n_trials`` above :data:`MAX_TRIALS`.
    """
    doc = dict(document)
    name = doc.pop("name", None)
    if "trials" in doc:
        doc.setdefault("n_trials", doc.pop("trials"))
    speculate = doc.pop("speculate", None)
    if "shards" in doc:
        raise ServiceError("a submission cannot name 'shards': the service never shards its store")
    allowed = {f.name for f in dataclasses.fields(StudySpec)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ServiceError(
            f"unknown StudySpec fields: {', '.join(unknown)} "
            f"(expected a subset of {sorted(allowed | {'name', 'trials', 'speculate'})})"
        )
    try:
        if speculate is not None and doc.get("pipeline") is None:
            from ..blackbox.parallel import pipeline_spec_string

            doc["pipeline"] = pipeline_spec_string(int(speculate))
        spec = StudySpec(**doc)
    except (ConfigurationError, OptimizationError, TypeError, ValueError) as exc:
        raise ServiceError(str(exc)) from None
    if spec.n_trials > MAX_TRIALS:
        raise ServiceError(f"n_trials must be at most {MAX_TRIALS}, got {spec.n_trials}")
    return spec, (str(name) if name is not None else None)


# -- heartbeat persistence ------------------------------------------------------


class HeartbeatStorage(StudyStorage):
    """Delegating storage wrapper that persists worker liveness.

    Wraps the real backend a worker drives a study through: every
    ``record_trial_finish`` counts progress, and at most once per
    ``interval`` seconds the wrapper stamps ``heartbeat_ts`` +
    ``trials_done`` into the study metadata (an ``update_metadata``
    write — last-write-wins on replay, exactly like the drivers' own
    metadata updates).  Driver-initiated metadata writes are merged
    with the current heartbeat so neither side clobbers the other.

    ``extra`` (optional) is called on every liveness write and its dict
    merged in — the coordinator rides it to persist lease counters
    atomically with the heartbeat instead of racing a second metadata
    writer against the drivers.
    """

    def __init__(
        self,
        inner: StudyStorage,
        study_name: str,
        *,
        interval: float = HEARTBEAT_EVERY_S,
        clock=time.time,
        initial_trials_done: int = 0,
        extra=None,
    ) -> None:
        self._inner = inner
        self._study_name = study_name
        self._interval = float(interval)
        self._clock = clock
        self._lock = threading.Lock()
        self._trials_done = int(initial_trials_done)
        self._last_beat = float("-inf")
        self._extra = extra

    def _liveness(self) -> dict[str, Any]:
        liveness: dict[str, Any] = {
            "heartbeat_ts": float(self._clock()),
            "trials_done": self._trials_done,
        }
        if self._extra is not None:
            liveness.update(self._extra())
        return liveness

    def beat(self) -> None:
        """Stamp liveness into the study metadata unconditionally."""
        stored = self._inner.load_study(self._study_name)
        if stored is None:
            return
        md = dict(stored.metadata)
        md.update(self._liveness())
        self._inner.update_metadata(self._study_name, md)

    # -- the storage protocol, delegated ------------------------------------

    def create_study(self, study_name, directions, metadata) -> None:
        self._inner.create_study(study_name, directions, metadata)

    def load_study(self, study_name):
        return self._inner.load_study(study_name)

    def update_metadata(self, study_name, metadata) -> None:
        md = dict(metadata)
        if study_name == self._study_name:
            # The driver rewrites metadata from its in-memory snapshot
            # (batch timings, pipeline stats); fold the live heartbeat
            # in so progress never moves backwards.
            md.update(self._liveness())
            with self._lock:
                self._last_beat = self._clock()
        self._inner.update_metadata(study_name, md)

    def record_trial_start(self, study_name, trial) -> None:
        self._inner.record_trial_start(study_name, trial)

    def record_trial_finish(self, study_name, trial) -> None:
        self._inner.record_trial_finish(study_name, trial)
        if study_name != self._study_name:
            return
        with self._lock:
            # Trial numbers are study-global, so a resumed worker's
            # progress counter continues where the dead one stopped.
            self._trials_done = max(self._trials_done + 1, int(trial.number) + 1)
            due = self._clock() - self._last_beat >= self._interval
            if due:
                self._last_beat = self._clock()
        if due:
            self.beat()

    def load_all(self):
        return self._inner.load_all()

    def close(self) -> None:
        self._inner.close()


# -- the service ----------------------------------------------------------------


class StudyService:
    """Submit, run, and inspect persisted studies over one storage backend.

    ``storage`` is any spec string the URL registry resolves — or a
    ready-made backend instance.  The service holds exactly **one**
    resolved backend for its lifetime: ``memory://`` intentionally
    resolves to a fresh empty store on every resolution, so re-resolving
    per request would lose every submitted study.
    """

    def __init__(
        self,
        storage: "StudyStorage | str",
        *,
        stale_after: float = STALE_AFTER_S,
        heartbeat_interval: float = HEARTBEAT_EVERY_S,
        clock=time.time,
    ) -> None:
        if isinstance(storage, StudyStorage):
            self.storage = storage
            self.storage_spec = type(storage).__name__
        else:
            self.storage_spec = str(storage)
            self.storage = open_study_storage(self.storage_spec)
        self.stale_after = float(stale_after)
        self.heartbeat_interval = float(heartbeat_interval)
        self._clock = clock
        self._claim_lock = threading.Lock()
        self._work_lock = threading.Lock()
        #: study name → live LeasedWorkQueue while this process hosts
        #: that study's coordinator (the remote-dispatch run_study path)
        self._work_queues: "dict[str, Any]" = {}
        #: signalled (with ``_work_submissions`` bumped) whenever a live
        #: queue takes a submission; long-polling leases wait on it
        self._work_ready = threading.Condition(self._work_lock)
        self._work_submissions = 0

    # -- lookups -------------------------------------------------------------

    def _get(self, name: str) -> StoredStudy:
        stored = self.storage.load_study(name)
        if stored is None:
            raise UnknownStudyError(
                f"unknown study '{name}' in {self.storage_spec}"
            )
        return stored

    def _service_state(self, stored: StoredStudy) -> "str | None":
        envelope = stored.metadata.get(SERVICE_KEY)
        if isinstance(envelope, Mapping):
            return envelope.get("state")
        return None

    def _set_state(self, stored: StoredStudy, state: str, **extra: Any) -> None:
        md = dict(stored.metadata)
        envelope = dict(md.get(SERVICE_KEY) or {})
        envelope["state"] = state
        envelope.update(extra)
        md[SERVICE_KEY] = envelope
        self.storage.update_metadata(stored.name, md)

    # -- the service verbs ----------------------------------------------------

    def submit(self, spec: StudySpec, name: "str | None" = None) -> dict[str, Any]:
        """Queue a new study and return its status document."""
        name = name or spec.default_name
        if self.storage.load_study(name) is not None:
            raise StudyConflictError(
                f"study '{name}' already exists in {self.storage_spec}; "
                f"POST /studies/{name}/resume (or `repro study resume "
                f"--storage {self.storage_spec} --name {name}`) to continue it"
            )
        metadata = spec.to_metadata()
        metadata[SERVICE_KEY] = {
            "state": "queued",
            "submitted_ts": float(self._clock()),
        }
        # Two minimized objectives (operational, embodied) — the same
        # directions every driver registers (study_runner.py).
        self.storage.create_study(name, ["minimize", "minimize"], metadata)
        return self.status(name)

    def status(self, name: str) -> dict[str, Any]:
        doc = study_status_document(
            self._get(name), stale_after=self.stale_after, now=self._clock()
        )
        queue = self.work_queue(name)
        if queue is not None:
            doc["leases"] = queue.stats()
        return doc

    def list_studies(self) -> "list[dict[str, Any]]":
        now = self._clock()
        return [
            study_status_document(stored, stale_after=self.stale_after, now=now)
            for _, stored in sorted(self.storage.load_all().items())
        ]

    def results(self, name: str) -> "list[dict[str, Any]]":
        """The study's current Pareto front as JSON-ready rows."""
        return front_rows(self._get(name))

    def front(self, name: str) -> str:
        """The study's current Pareto front as CSV text."""
        return front_csv(self._get(name))

    def resume(self, name: str) -> dict[str, Any]:
        """Re-queue a study so the next free worker continues it.

        Refuses only a study that is *live* — running with a fresh
        heartbeat.  A stale running study (dead worker) re-queues; the
        drivers' prefix-replay semantics make the continuation
        bit-identical to an uninterrupted run.
        """
        stored = self._get(name)
        doc = study_status_document(
            stored, stale_after=self.stale_after, now=self._clock()
        )
        if self._service_state(stored) == "running" and not (
            doc.get("heartbeat") or {}
        ).get("stale", True):
            raise StudyConflictError(
                f"study '{name}' is running with a live heartbeat "
                f"(age {doc['heartbeat']['age_s']:.1f}s); not re-queueing"
            )
        # Resume must replay the persisted identity; fail loudly now —
        # naming every missing key — rather than when a worker picks it up.
        StudySpec.from_metadata(stored.metadata, source=self.storage_spec)
        self._set_state(stored, "queued", requeued_ts=float(self._clock()))
        return self.status(name)

    def cancel(self, name: str) -> dict[str, Any]:
        """Drop a queued study from the queue (workers never claim it)."""
        stored = self._get(name)
        state = self._service_state(stored)
        if state == "running":
            raise StudyConflictError(
                f"study '{name}' is already running; cancel only dequeues"
            )
        self._set_state(stored, "cancelled", cancelled_ts=float(self._clock()))
        return self.status(name)

    # -- trial-level work (the coordinator's remote dispatch) ------------------

    def register_work_queue(self, name: str, queue: Any) -> None:
        """Expose a coordinator's live work queue to the lease verbs; its
        submissions wake long-polling :meth:`lease_work` calls."""
        queue.on_ready = self.notify_work
        with self._work_lock:
            self._work_queues[name] = queue

    def notify_work(self) -> None:
        """Wake every ``lease_work`` call waiting for a submission."""
        with self._work_ready:
            self._work_submissions += 1
            self._work_ready.notify_all()

    def unregister_work_queue(self, name: str) -> None:
        with self._work_lock:
            self._work_queues.pop(name, None)

    def work_queue(self, name: str) -> "Any | None":
        with self._work_lock:
            return self._work_queues.get(name)

    def spec_document(self, name: str) -> dict[str, Any]:
        """The persisted identity a remote worker rebuilds its objective
        from — exactly what ``StudySpec.from_metadata`` accepts, so the
        worker-side physics cannot drift from the coordinator's."""
        stored = self._get(name)
        StudySpec.from_metadata(stored.metadata, source=self.storage_spec)
        return {"name": name, "metadata": dict(stored.metadata)}

    def lease_work(
        self, worker_id: str, limit: int = 1, wait_s: float = 0.0
    ) -> dict[str, Any]:
        """Grant up to ``limit`` candidate evaluations to a remote worker.

        Scans every live coordinator queue (oldest registration first)
        and returns the first non-empty grant; ``study`` is ``None``
        when nothing is dispatchable — the worker's signal to idle-poll.
        With ``wait_s`` > 0 an empty scan waits up to that many seconds
        for a submission and scans again (a long poll), so a worker that
        drains the queue gets the next candidate as soon as the
        coordinator asks it, not a poll interval later.
        """
        deadline = time.monotonic() + max(0.0, float(wait_s))
        while True:
            with self._work_lock:
                seen = self._work_submissions
                queues = list(self._work_queues.items())
            for name, queue in queues:
                items = queue.lease(str(worker_id), limit)
                if items:
                    return {"study": name, "ttl_s": queue.ttl, "items": items}
            with self._work_ready:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"study": None, "ttl_s": None, "items": []}
                if self._work_submissions == seen:
                    self._work_ready.wait(remaining)

    def complete_work(
        self, name: str, worker_id: str, results: "list[Mapping[str, Any]]"
    ) -> dict[str, Any]:
        """Acknowledge a worker's evaluated batch against a live queue.

        Results for a finished (or never-coordinated-here) study are
        acknowledged as ``stale`` rather than erroring: a worker racing
        a reclaim — or outliving its study — is normal operation, not a
        fault.  A malformed batch raises :class:`ServiceError` and
        completes nothing.
        """
        queue = self.work_queue(name)
        # Check every result before completing any: no half-applied batch.
        checked = []
        for result in results:
            if not isinstance(result, Mapping) or not {"item", "tag"} <= result.keys():
                raise ServiceError("each result must be an object with 'item' and 'tag'")
            try:
                seconds = float(result.get("seconds", 0.0))
            except (TypeError, ValueError):
                raise ServiceError("a result's 'seconds' must be a number") from None
            key, tag, value = str(result["item"]), str(result["tag"]), result.get("value")
            if queue is not None and not queue.accepts(key, tag, value):
                raise ServiceError(f"result {key!r} has a malformed {tag!r} value")
            checked.append((key, tag, value, seconds))
        oks = [queue is not None and queue.complete(str(worker_id), *c) for c in checked]
        return {"study": name, "accepted": sum(oks), "stale": len(oks) - sum(oks)}

    # -- the worker loop ------------------------------------------------------

    def _last_alive_ts(self, stored: StoredStudy) -> float:
        """Newest liveness evidence for a claimed study (its lease clock)."""
        envelope = stored.metadata.get(SERVICE_KEY) or {}
        stamps = [
            stored.metadata.get("heartbeat_ts"),
            envelope.get("started_ts") if isinstance(envelope, Mapping) else None,
        ]
        return max((float(s) for s in stamps if s is not None), default=0.0)

    def claim_next(self, worker_id: "str | None" = None) -> "str | None":
        """Atomically claim the oldest queued study (``None`` if idle).

        Whole-study claims are leases (DESIGN.md §13): a *running*
        study whose liveness evidence is older than ``stale_after`` has
        an expired lease — its worker is presumed dead — and is
        reclaimed here automatically, no explicit ``resume`` required.
        Queued studies win over reclaims so fresh work is never starved
        by a crash loop.
        """
        with self._claim_lock:
            now = float(self._clock())
            queued: "list[tuple[float, str]]" = []
            expired: "list[tuple[float, str, Any]]" = []
            for name, s in self.storage.load_all().items():
                state = self._service_state(s)
                envelope = s.metadata.get(SERVICE_KEY) or {}
                if state == "queued":
                    queued.append(
                        (float(envelope.get("submitted_ts", 0.0)), name)
                    )
                elif state == "running":
                    last_alive = self._last_alive_ts(s)
                    if now - last_alive > self.stale_after:
                        expired.append((last_alive, name, envelope.get("worker")))
            if queued:
                _, name = min(queued)
                self._set_state(
                    self._get(name),
                    "running",
                    started_ts=now,
                    worker=worker_id,
                )
                return name
            if expired:
                _, name, dead_worker = min(expired)
                stored = self._get(name)
                envelope = stored.metadata.get(SERVICE_KEY) or {}
                self._set_state(
                    stored,
                    "running",
                    started_ts=now,
                    worker=worker_id,
                    reclaims=int(envelope.get("reclaims", 0)) + 1,
                    reclaimed_ts=now,
                    reclaimed_from=dead_worker,
                )
                return name
            return None

    def run_study(self, name: str) -> dict[str, Any]:
        """Drive one claimed study to completion through its spec.

        Rebuilds the :class:`StudySpec` from the persisted metadata
        (the identity the submit wrote), wraps the backend in
        :class:`HeartbeatStorage`, and lets ``spec.execute`` pick the
        batched or pipelined driver.  Success/failure lands back in the
        service envelope, so the queue state survives the process.

        A spec with ``remote_slots`` set makes this process the study's
        **coordinator**: it owns the sampler's ask/tell loop but
        evaluates nothing itself — candidates stream through a
        :class:`~repro.service.lease.LeasedWorkQueue` registered under
        the study name, which remote workers drain via ``POST /lease``
        and ``POST /studies/{name}/results``.  Lease counters ride the
        heartbeat writes, so ``study status`` shows them even from
        another process.
        """
        stored = self._get(name)
        queue = None
        try:
            spec = StudySpec.from_metadata(stored.metadata, source=self.storage_spec)
            extra = None
            if spec.remote_slots is not None:
                from .lease import DEFAULT_LEASE_TTL_S, LeasedWorkQueue

                queue = LeasedWorkQueue(
                    ttl=spec.lease_ttl or DEFAULT_LEASE_TTL_S, clock=self._clock
                )
                extra = lambda: {"leases": queue.stats()}  # noqa: E731
                self.register_work_queue(name, queue)
            heartbeat = HeartbeatStorage(
                self.storage,
                name,
                interval=self.heartbeat_interval,
                clock=self._clock,
                initial_trials_done=len(stored.finished_trials()),
                extra=extra,
            )
            heartbeat.beat()
            spec.execute(heartbeat, name, load_if_exists=True, executor=queue)
            heartbeat.beat()  # the throttle may have swallowed the tail
        except Exception as exc:
            self._set_state(
                self._get(name),
                "failed",
                failed_ts=float(self._clock()),
                error=str(exc),
            )
            raise
        finally:
            if queue is not None:
                self.unregister_work_queue(name)
                queue.shutdown(cancel_futures=True)
        self._set_state(
            self._get(name), "done", finished_ts=float(self._clock())
        )
        return self.status(name)

    def worker_loop(
        self,
        *,
        stop_event: "threading.Event | None" = None,
        poll_interval: float = 0.5,
        max_studies: "int | None" = None,
        worker_id: "str | None" = None,
    ) -> int:
        """Pull queued studies until stopped; returns the number run.

        Without ``stop_event`` the loop *drains*: it returns as soon as
        the queue is empty (the mode tests and one-shot batch runs
        want).  With one it idles on the event between polls until the
        event is set (the mode ``repro serve`` wants).  A failed study
        is marked ``failed`` and the loop moves on — one poisoned spec
        must not wedge the queue.
        """
        completed = 0
        while not (stop_event is not None and stop_event.is_set()):
            name = self.claim_next(worker_id)
            if name is None:
                if stop_event is None:
                    break
                stop_event.wait(poll_interval)
                continue
            try:
                self.run_study(name)
            except Exception:
                pass  # persisted as state=failed; keep serving the queue
            else:
                completed += 1
            if max_studies is not None and completed >= max_studies:
                break
        return completed
