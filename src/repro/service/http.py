"""Stdlib-only HTTP front end for :class:`~repro.service.StudyService`.

A deliberately small JSON API over ``http.server`` — no web framework,
matching the repo's no-new-hard-deps precedent (the runtime needs only
numpy, the service plain stdlib).  ``ThreadingHTTPServer`` gives one (daemon)
thread per kept-alive HTTP/1.1 *connection*, so per remote worker
(DESIGN.md §13); whole-study work happens in the service's worker
threads and remote evaluation in external worker processes, so handlers
only read/write study metadata, grant leases, and return quickly.

The full route set lives in :data:`ROUTES` — one declarative
``(method, path template, handler)`` table that drives dispatch *and*
is what the README's HTTP API reference is tested against
(``tests/test_docs_consistency.py``), so the docs cannot drift from the
registered routes.  The lease verbs (DESIGN.md §13) are the remote
worker protocol: ``POST /lease`` grants a TTL-stamped candidate batch
from any live coordinator, ``GET /studies/{name}/spec`` hands the
worker the persisted identity to rebuild its objective from, and
``POST /studies/{name}/results`` acknowledges evaluated batches
(late results after a reclaim are acked as stale, never errors).

Errors are JSON ``{"error": ...}`` with 400 (bad spec/body), 404
(unknown study or route), 409 (conflict: duplicate submit,
live-heartbeat resume), or 500.

``repro serve --storage URL --workers N`` (cli.py) builds the service,
starts N daemon worker threads on :meth:`StudyService.worker_loop`, and
blocks in ``serve_forever``; ``repro worker --connect URL`` runs the
remote side of the lease verbs.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .service import (
    ServiceError,
    StudyConflictError,
    StudyService,
    UnknownStudyError,
    spec_from_document,
)

#: longest long poll ``POST /lease`` holds a request thread for, in
#: seconds, whatever ``wait_s`` the worker asks
MAX_LEASE_WAIT_S = 10.0
#: seconds a kept-alive connection may idle before its handler closes
#: it; above MAX_LEASE_WAIT_S, so a worker between polls keeps it
IDLE_TIMEOUT_S = 30.0

#: the service API, as data: ``(method, path template, handler name)``.
#: ``{name}`` segments capture into handler kwargs.  Dispatch iterates
#: this table, and the docs-consistency suite pins the README endpoint
#: reference to exactly these rows — extend the API here or nowhere.
ROUTES: "tuple[tuple[str, str, str], ...]" = (
    ("GET", "/studies", "list"),
    ("POST", "/studies", "submit"),
    ("GET", "/studies/{name}", "status"),
    ("GET", "/studies/{name}/spec", "spec"),
    ("GET", "/studies/{name}/front.csv", "front"),
    ("POST", "/studies/{name}/resume", "resume"),
    ("POST", "/studies/{name}/cancel", "cancel"),
    ("POST", "/studies/{name}/results", "results"),
    ("POST", "/lease", "lease"),
)


def match_route(template: str, path: str) -> "dict[str, str] | None":
    """Match ``path`` against a ``/segment/{capture}`` template."""
    t_parts = [p for p in template.split("/") if p]
    p_parts = [p for p in path.split("/") if p]
    if len(t_parts) != len(p_parts):
        return None
    captures: "dict[str, str]" = {}
    for t, p in zip(t_parts, p_parts):
        if t.startswith("{") and t.endswith("}"):
            captures[t[1:-1]] = p
        elif t != p:
            return None
    return captures


class StudyServiceHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`StudyService` via subclassing."""

    service: StudyService  # injected by make_server()
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two sends: Nagle would hold the second.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # Silence the default stderr access log — the CLI prints one line
    # per lifecycle event instead of one per poll.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- response helpers -----------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"
        self._send(status, body, "application/json")

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _read_object(self, label: str) -> "dict[str, Any]":
        try:
            document = json.loads(self._body) if self._body else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise ServiceError(f"{label} body must be a JSON object")
        return document

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        try:
            # Read the whole body before routing, so an error answered
            # before a route reads it leaves the connection reusable.
            length = self.headers.get("Content-Length") or "0"
            if not length.isdigit():
                self.close_connection = True  # the body's end is unknown
                raise ServiceError("bad Content-Length")
            self._body = self.rfile.read(int(length))
            path = self.path.split("?", 1)[0]
            for route_method, template, name in ROUTES:
                if route_method != method:
                    continue
                captures = match_route(template, path)
                if captures is not None:
                    getattr(self, f"_route_{name}")(**captures)
                    return
            self._error(404, f"no route for {method} {self.path}")
        except UnknownStudyError as exc:
            self._error(404, str(exc))
        except StudyConflictError as exc:
            self._error(409, str(exc))
        except ConnectionError:
            # the client hung up (a worker stopped mid long poll)
            self.close_connection = True
        except (ServiceError, ValueError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - HTTP boundary: report, don't crash the server thread
            self.close_connection = True  # a response may be half written
            self._error(500, str(exc))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    # -- routes ---------------------------------------------------------------

    def _route_list(self) -> None:
        self._json(200, {"studies": self.service.list_studies()})

    def _route_submit(self) -> None:
        spec, name = spec_from_document(self._read_object("POST /studies"))
        self._json(201, self.service.submit(spec, name))

    def _route_status(self, name: str) -> None:
        self._json(200, self.service.status(name))

    def _route_spec(self, name: str) -> None:
        self._json(200, self.service.spec_document(name))

    def _route_front(self, name: str) -> None:
        self._send(200, self.service.front(name).encode(), "text/csv")

    def _route_resume(self, name: str) -> None:
        self._json(202, self.service.resume(name))

    def _route_cancel(self, name: str) -> None:
        self._json(200, self.service.cancel(name))

    def _route_lease(self) -> None:
        document = self._read_object("POST /lease")
        worker = document.get("worker")
        if not worker:
            raise ServiceError("POST /lease needs a 'worker' id")
        try:
            wait_s = float(document.get("wait_s", 0.0))
            limit = int(document.get("limit", 1))
        except (TypeError, ValueError, OverflowError):
            raise ServiceError("'wait_s' must be seconds and 'limit' an integer") from None
        self._json(
            200,
            self.service.lease_work(
                str(worker), limit, wait_s=min(max(wait_s, 0.0), MAX_LEASE_WAIT_S)
            ),
        )

    def _route_results(self, name: str) -> None:
        document = self._read_object(f"POST /studies/{name}/results")
        worker = document.get("worker")
        results = document.get("results")
        if not worker:
            raise ServiceError("results need a 'worker' id")
        if not isinstance(results, list):
            raise ServiceError("'results' must be a list of outcome objects")
        self._json(200, self.service.complete_work(name, str(worker), results))


def make_server(
    service: StudyService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A bound (not yet serving) HTTP server for ``service``.

    ``port=0`` lets the OS pick a free port (``server.server_address``
    has the real one) — what tests use to avoid collisions.
    """
    handler = type(
        "BoundStudyServiceHandler", (StudyServiceHandler,), {"service": service}
    )
    return ThreadingHTTPServer((host, port), handler)


def serve(
    service: StudyService,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 1,
    stop_event: "threading.Event | None" = None,
) -> int:
    """Run the HTTP API plus ``workers`` queue-draining worker threads.

    Blocks in ``serve_forever`` until interrupted (or ``stop_event`` is
    set by another thread, which also stops the workers).  Returns 0 —
    the CLI exit code.
    """
    stop = stop_event or threading.Event()
    server = make_server(service, host, port)
    threads = [
        threading.Thread(
            target=service.worker_loop,
            kwargs={"stop_event": stop, "worker_id": f"worker-{i}"},
            daemon=True,
            name=f"study-worker-{i}",
        )
        for i in range(max(1, int(workers)))
    ]
    for thread in threads:
        thread.start()
    bound_host, bound_port = server.server_address[:2]
    print(
        f"serving {service.storage_spec} on http://{bound_host}:{bound_port} "
        f"({len(threads)} worker thread{'s' if len(threads) != 1 else ''})"
    )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        server.server_close()
        for thread in threads:
            thread.join(timeout=5.0)
    return 0
