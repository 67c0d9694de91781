"""Remote evaluation workers: lease candidates over HTTP, post results.

The worker half of the cluster protocol (DESIGN.md §13).  A
:class:`RemoteWorkerClient` connects to a ``repro serve`` process and
loops:

1. ``POST /lease`` — ask any live coordinator for a candidate batch.
   The grant names the study, the lease TTL, and the work items
   (params-only; the worker brings its own objective).  The request is
   a long poll: the coordinator holds it up to ``poll_s`` until a
   candidate is queued, so a drained queue costs the worker no more
   than the coordinator's own delay.
2. On the first grant from a study, ``GET /studies/{name}/spec`` and
   rebuild the *exact* objective the coordinator would have evaluated
   locally (``StudySpec.from_metadata(...).build_objective()``) — same
   scenario stack, policy, aggregate, and physics, which is why the
   distributed front is bit-identical to a single-process run.
3. Evaluate each item through the same ``_guarded`` outcome transport
   the local pools use, and ``POST /studies/{name}/results`` *per
   item* — acking eagerly keeps results flowing well inside the lease
   TTL, so a healthy worker's leases never expire.

Liveness needs no heartbeat here: the lease **is** the liveness
contract.  A worker that dies mid-batch simply stops acking; its items'
leases expire and the coordinator re-dispatches them.  A late result
racing that reclaim is acknowledged as ``stale`` and discarded — both
evaluations computed the same deterministic outcome, so first-write-
wins loses nothing.

All requests share one kept-alive HTTP/1.1 connection (DESIGN.md §13).

Size the TTL above the worst single-item evaluation cost (items are
acked one at a time, so batch size does not stretch the requirement);
``docs/OPERATIONS.md`` covers tuning.
"""

from __future__ import annotations

import http.client
import io
import json
import time
import urllib.error
import urllib.parse
from typing import Any, Callable, Mapping

from ..exceptions import OptimizationError

#: seconds between empty lease polls: the coordinator holds each poll
#: this long for work, and the worker sleeps whatever it did not hold
DEFAULT_POLL_S = 0.5


def encode_outcome(tag: str, payload: Any) -> Any:
    """Flatten a ``_guarded`` payload into its JSON wire value.

    ``ok`` payloads are tuples of floats (trial) or tuples of vectors
    (rung) — JSON lists either way, with every float surviving the
    round-trip exactly.  Errors ship as ``{type, message}``; the
    coordinator rebuilds an exception from them.
    """
    if tag == "ok":
        if payload and not isinstance(payload[0], (int, float)):
            return [[float(v) for v in vec] for vec in payload]
        return [float(v) for v in payload]
    if tag == "pruned":
        return None
    return {"type": type(payload).__name__, "message": str(payload)}


class RemoteWorkerClient:
    """One remote evaluation worker bound to a ``repro serve`` URL.

    ``objective_override`` swaps the spec-built objective for an
    arbitrary callable (benchmarks use a synthetic sleeper); everything
    else — leasing, evaluation, acking — is the production path.
    """

    def __init__(
        self,
        base_url: str,
        worker_id: str,
        *,
        poll_s: float = DEFAULT_POLL_S,
        lease_limit: int = 1,
        timeout_s: float = 30.0,
        objective_override: "Callable[..., Any] | None" = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.worker_id = str(worker_id)
        self.poll_s = float(poll_s)
        self.lease_limit = max(1, int(lease_limit))
        self.timeout_s = float(timeout_s)
        self._objective_override = objective_override
        self._objectives: "dict[str, Any]" = {}
        self._connection: "http.client.HTTPConnection | None" = None
        #: items evaluated and accepted / acked stale, for the CLI log
        self.accepted = 0
        self.stale = 0

    # -- transport (monkeypatch seams for the kill tests) ----------------------

    def _request(self, method: str, path: str, payload: "Mapping[str, Any] | None" = None) -> Any:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        url = urllib.parse.urlsplit(self.base_url)
        while True:
            reused, response = self._connection is not None, None
            if not reused:
                https = url.scheme == "https"
                connect = http.client.HTTPSConnection if https else http.client.HTTPConnection
                self._connection = connect(url.netloc, timeout=self.timeout_s)
            try:
                self._connection.request(method, url.path + path, body, headers)
                response = self._connection.getresponse()
                data = response.read()
                break
            except BaseException as exc:
                self.close()
                # No response byte on a reused connection: the server
                # closed it while idle, unread.  Retry once, fresh.
                if not (reused and response is None and isinstance(exc, ConnectionError)):
                    raise
        if response.will_close:
            self.close()
        if response.status >= 400:
            raise urllib.error.HTTPError(
                self.base_url + path, response.status, response.reason,
                response.headers, io.BytesIO(data),
            )
        return json.loads(data.decode())

    def close(self) -> None:
        """Close the kept-alive connection; the next request opens one."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _lease(self) -> "dict[str, Any]":
        return self._request(
            "POST",
            "/lease",
            {"worker": self.worker_id, "limit": self.lease_limit, "wait_s": self.poll_s},
        )

    def _result(self, study: str, result: "dict[str, Any]") -> "dict[str, Any]":
        return self._request(
            "POST",
            f"/studies/{study}/results",
            {"worker": self.worker_id, "results": [result]},
        )

    # -- evaluation ------------------------------------------------------------

    def objective_for(self, study: str) -> Any:
        """The study's objective, rebuilt once from its persisted spec."""
        objective = self._objectives.get(study)
        if objective is None:
            if self._objective_override is not None:
                objective = self._objective_override
            else:
                from ..core.study_spec import StudySpec

                document = self._request("GET", f"/studies/{study}/spec")
                objective = StudySpec.from_metadata(
                    document["metadata"], source=self.base_url
                ).build_objective()
            self._objectives[study] = objective
        return objective

    def evaluate_item(self, study: str, item: "Mapping[str, Any]") -> "dict[str, Any]":
        """Evaluate one leased item into its wire result document."""
        from ..blackbox.parallel import _guarded

        objective = self.objective_for(study)
        params = dict(item["params"])
        if item.get("kind") == "rung":
            members = tuple(int(m) for m in item.get("members") or ())
            tag, payload, seconds = _guarded(objective.member_values, params, members)
        else:
            tag, payload, seconds = _guarded(objective, params)
        return {
            "item": str(item["item"]),
            "tag": tag,
            "value": encode_outcome(tag, payload),
            "seconds": seconds,
        }

    # -- the worker loop -------------------------------------------------------

    def run(
        self,
        *,
        max_items: "int | None" = None,
        max_idle: "int | None" = None,
        stop_event=None,
    ) -> int:
        """Lease, evaluate, ack — until stopped; returns items evaluated.

        ``max_items`` bounds the run (tests and benchmarks);
        ``max_idle`` exits after that many *consecutive* empty or
        unreachable polls — how a fleet drains itself once the
        coordinator finishes and its server goes away.  An unreachable
        coordinator is an idle poll, not an error: transient network
        trouble and a completed study look identical from here, and
        both are survivable.
        """
        evaluated = 0
        idle = 0
        try:
            while not (stop_event is not None and stop_event.is_set()):
                if max_items is not None and evaluated >= max_items:
                    break
                polled = time.monotonic()
                try:
                    grant = self._lease()
                except OSError:  # URLError, timeouts and connection errors included
                    grant = {"study": None, "items": []}
                study = grant.get("study")
                items = grant.get("items") or []
                if not study or not items:
                    idle += 1
                    if max_idle is not None and idle >= max_idle:
                        break
                    # One poll per poll_s: a long poll has already waited.
                    time.sleep(max(0.0, self.poll_s - (time.monotonic() - polled)))
                    continue
                idle = 0
                for item in items:
                    if max_items is not None and evaluated >= max_items:
                        break
                    result = self.evaluate_item(study, item)
                    evaluated += 1
                    try:
                        ack = self._result(study, result)
                    except OSError:
                        continue  # lease will expire; the item is re-dispatched
                    self.accepted += int(ack.get("accepted", 0))
                    self.stale += int(ack.get("stale", 0))
        finally:
            self.close()
        return evaluated


def run_remote_worker(
    connect: str,
    worker_id: str,
    *,
    poll_s: float = DEFAULT_POLL_S,
    lease_limit: int = 1,
    max_items: "int | None" = None,
    max_idle: "int | None" = None,
) -> int:
    """CLI entry: run one worker against ``connect`` until drained."""
    if not str(connect).startswith(("http://", "https://")):
        raise OptimizationError(
            f"--connect needs an http(s):// URL, got {connect!r}"
        )
    client = RemoteWorkerClient(
        connect, worker_id, poll_s=poll_s, lease_limit=lease_limit
    )
    evaluated = client.run(max_items=max_items, max_idle=max_idle)
    print(
        f"worker {worker_id}: evaluated {evaluated} item"
        f"{'s' if evaluated != 1 else ''} "
        f"({client.accepted} accepted, {client.stale} stale)"
    )
    return 0
