"""Lease-based liveness: TTL leases over trial work items and study claims.

A **lease** is the one liveness primitive of the cluster layer
(DESIGN.md §13): a worker that takes work — a whole queued study, or a
batch of candidate evaluations — holds it for a bounded TTL, renewed
implicitly by making progress.  A lease that expires (worker crashed,
network partition, SIGKILL) is *reclaimed*: the work silently returns
to the queue for the next live worker, with no human in the loop.
Because every candidate's parameters were fixed by the coordinator's
epoch-tagged ask schedule before dispatch (§10), re-evaluating a
reclaimed item cannot change the front — the objective is
deterministic, so at-least-once delivery is idempotent.

Two layers share the primitive:

* :class:`LeaseTable` — the bookkeeping core: grant / release /
  reclaim-expired over opaque keys, injectable clock, thread-safe.
* :class:`LeasedWorkQueue` — the coordinator side of the remote worker
  protocol.  It implements the :class:`~repro.blackbox.parallel.
  PipelinedDispatcher` executor seam (``submit_trial`` /
  ``submit_rung`` returning futures), but instead of running
  submissions in a local pool it parks them in a queue that remote
  workers drain over HTTP: ``POST /lease`` grants a TTL-stamped batch,
  ``POST /studies/{name}/results`` resolves the matching futures.

Whole-study claims reuse the same semantics without this table: a
claimed study's lease is its persisted heartbeat (`heartbeat_ts` +
``stale_after``), so :meth:`~repro.service.StudyService.claim_next`
reclaims a dead worker's study exactly like :meth:`LeasedWorkQueue.
reclaim_expired` reclaims a dead worker's candidate batch.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..exceptions import OptimizationError

#: default seconds a leased work item may stay unacknowledged before it
#: is reclaimed; tune per deployment with the study's ``lease_ttl``
#: transport knob (docs/OPERATIONS.md covers the trade-off)
DEFAULT_LEASE_TTL_S = 60.0


@dataclass(frozen=True)
class Lease:
    """One granted lease: who holds which key until when."""

    key: str
    owner: str
    granted_ts: float
    ttl: float

    @property
    def expires_ts(self) -> float:
        return self.granted_ts + self.ttl

    def expired(self, now: float) -> bool:
        return now >= self.expires_ts


class LeaseTable:
    """Thread-safe grant/release/reclaim bookkeeping over opaque keys."""

    def __init__(self, ttl: float = DEFAULT_LEASE_TTL_S, clock: Callable[[], float] = time.time) -> None:
        if ttl <= 0:
            raise OptimizationError(f"lease ttl must be positive, got {ttl}")
        self.ttl = float(ttl)
        self._clock = clock
        self._lock = threading.Lock()
        self._leases: "dict[str, Lease]" = {}

    def grant(self, key: str, owner: str) -> Lease:
        with self._lock:
            if key in self._leases:
                raise OptimizationError(
                    f"lease for {key!r} already held by {self._leases[key].owner!r}"
                )
            lease = Lease(key, owner, float(self._clock()), self.ttl)
            self._leases[key] = lease
            return lease

    def release(self, key: str) -> "Lease | None":
        with self._lock:
            return self._leases.pop(key, None)

    def reclaim_expired(self) -> "list[Lease]":
        """Drop and return every expired lease (their keys are free again)."""
        now = float(self._clock())
        with self._lock:
            expired = [l for l in self._leases.values() if l.expired(now)]
            for lease in expired:
                del self._leases[lease.key]
            return expired

    def active(self) -> "list[Lease]":
        with self._lock:
            return list(self._leases.values())

    def holder(self, key: str) -> "str | None":
        with self._lock:
            lease = self._leases.get(key)
            return lease.owner if lease is not None else None


@dataclass
class _WorkItem:
    """One dispatched candidate evaluation awaiting a worker."""

    key: str
    kind: str  # "trial" | "rung"
    params: "dict[str, Any]"
    members: "tuple[int, ...] | None"
    future: "Future[Any]"
    done: bool = False

    def wire_document(self) -> "dict[str, Any]":
        doc: "dict[str, Any]" = {"item": self.key, "kind": self.kind, "params": self.params}
        if self.members is not None:
            doc["members"] = list(self.members)
        return doc


def _decode_outcome(kind: str, tag: str, payload: Any) -> "tuple[str, Any]":
    """Rebuild a worker's JSON outcome into the executor's native shape.

    Floats survive the JSON round-trip exactly (``repr`` grammar both
    ways), so a remotely evaluated value is bit-identical to a local
    one — the property every front-parity test leans on.
    """
    if tag == "ok":
        if kind == "trial":
            return tag, tuple(float(v) for v in payload)
        return tag, tuple(tuple(float(v) for v in vec) for vec in payload)
    if tag == "pruned":
        return tag, None
    detail = payload if isinstance(payload, Mapping) else {"message": str(payload)}
    return tag, OptimizationError(
        f"remote worker reported {detail.get('type', 'error')}: "
        f"{detail.get('message', '<no message>')}"
    )


class LeasedWorkQueue:
    """Coordinator-side work queue: futures in, leased HTTP batches out.

    The remote counterpart of the dispatcher's local pools: the
    coordinator's :class:`~repro.blackbox.parallel.PipelinedDispatcher`
    submits candidate evaluations here (``submit_trial`` /
    ``submit_rung``), remote workers drain them through the HTTP verbs
    (:meth:`lease` / :meth:`complete`), and the returned futures resolve
    when results are acknowledged.

    Lease lifecycle per item (DESIGN.md §13)::

        queued ──lease()──▶ leased ──complete()──▶ done
          ▲                    │
          └──reclaim_expired()─┘   (TTL elapsed: worker presumed dead)

    ``complete`` is first-write-wins and owner-agnostic: a reclaimed
    item re-evaluated elsewhere may race its original worker's late
    result, but both computed the same deterministic outcome, so
    whichever lands first resolves the future and the other is
    acknowledged as stale.
    """

    def __init__(
        self,
        ttl: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.leases = LeaseTable(ttl=ttl, clock=clock)
        self._clock = clock
        #: called after each submission, outside the lock, so long-polling
        #: lease calls wake up; ``StudyService.register_work_queue`` sets it
        self.on_ready: "Callable[[], None] | None" = None
        self._lock = threading.Lock()
        self._items: "dict[str, _WorkItem]" = {}
        self._queue: "deque[str]" = deque()
        self._keys = itertools.count()
        self._closed = False
        self._completed = 0
        self._reclaimed = 0
        self._workers: "dict[str, int]" = {}

    @property
    def ttl(self) -> float:
        return self.leases.ttl

    # -- the dispatcher's executor seam --------------------------------------

    def _submit(self, kind: str, params: "dict[str, Any]", members=None) -> "Future[Any]":
        with self._lock:
            if self._closed:
                raise OptimizationError("work queue is shut down")
            key = f"{kind}-{next(self._keys)}"
            item = _WorkItem(key, kind, dict(params), members, Future())
            self._items[key] = item
            self._queue.append(key)
        if self.on_ready is not None:
            self.on_ready()
        return item.future

    def submit_trial(self, params: "dict[str, Any]") -> "Future[Any]":
        return self._submit("trial", params)

    def submit_rung(self, params: "dict[str, Any]", members) -> "Future[Any]":
        return self._submit("rung", params, tuple(int(m) for m in members))

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        with self._lock:
            self._closed = True
            items = list(self._items.values()) if cancel_futures else []
        for item in items:
            if not item.done:
                item.future.cancel()

    # -- the worker protocol ---------------------------------------------------

    def lease(self, owner: str, limit: int = 1) -> "list[dict[str, Any]]":
        """Grant up to ``limit`` queued items to ``owner`` under the TTL.

        Every grant first sweeps expired leases back into the queue, so
        a dead worker's in-flight items are re-dispatched by the next
        live worker's poll — reclaim needs no dedicated reaper as long
        as one worker survives.
        """
        self.reclaim_expired()
        granted: "list[dict[str, Any]]" = []
        with self._lock:
            if self._closed:
                return granted
            self._workers.setdefault(str(owner), 0)
            while self._queue and len(granted) < max(1, int(limit)):
                key = self._queue.popleft()
                item = self._items.get(key)
                if item is None or item.done:
                    continue  # completed while queued for re-dispatch
                self.leases.grant(key, str(owner))
                granted.append(item.wire_document())
        return granted

    def complete(
        self,
        owner: str,
        key: str,
        tag: str,
        payload: Any = None,
        seconds: float = 0.0,
    ) -> bool:
        """Resolve one leased item with a worker's outcome.

        Returns ``False`` (a *stale* ack) when the item is unknown or
        already resolved — the late-result side of lease reclaim.
        """
        with self._lock:
            item = self._items.get(key)
            if item is None or item.done:
                return False
            item.done = True
            self._completed += 1
            self._workers[str(owner)] = self._workers.get(str(owner), 0) + 1
            self.leases.release(key)
            del self._items[key]
        decoded_tag, decoded = _decode_outcome(item.kind, str(tag), payload)
        item.future.set_result((decoded_tag, decoded, float(seconds)))
        return True

    def reclaim_expired(self) -> int:
        """Return expired leases' items to the queue; count reclaimed."""
        reclaimed = 0
        for lease in self.leases.reclaim_expired():
            with self._lock:
                item = self._items.get(lease.key)
                if item is None or item.done:
                    continue
                self._queue.appendleft(lease.key)
                self._reclaimed += 1
                reclaimed += 1
        return reclaimed

    # -- observability ---------------------------------------------------------

    def stats(self) -> "dict[str, Any]":
        """Lease columns for ``study status`` and the HTTP status doc."""
        active = self.leases.active()
        with self._lock:
            return {
                "queued": len(self._queue),
                "leased": len(active),
                "completed": self._completed,
                "reclaimed": self._reclaimed,
                "ttl_s": self.ttl,
                "workers": {
                    owner: count for owner, count in sorted(self._workers.items())
                },
                "active_workers": sorted({l.owner for l in active}),
            }
