"""Study-as-a-service (DESIGN.md §12–§13): queue, workers, leases, HTTP.

Mounts the service verbs — submit / status / resume / results / front /
cancel — on the storage contract (§7) and the :class:`~repro.core.
study_spec.StudySpec` identity seam, so the HTTP API, the worker loop,
and the CLI all drive the exact same code path:

* :class:`StudyService` — the verbs plus a queue-draining worker loop
  over any storage URL, and the trial-level lease verbs
  (``lease_work`` / ``complete_work``) behind the remote protocol;
* :class:`HeartbeatStorage` — delegating backend wrapper persisting
  ``heartbeat_ts`` / ``trials_done`` liveness through
  ``update_metadata``;
* :func:`study_status_document` — the one machine-readable status
  serializer (``repro study status --json`` and GET /studies/{name});
* :mod:`repro.service.lease` — the lease primitive (§13):
  :class:`LeaseTable` bookkeeping and :class:`LeasedWorkQueue`, the
  coordinator-side executor remote workers drain;
* :mod:`repro.service.remote_worker` — :class:`RemoteWorkerClient`,
  the ``repro worker --connect URL`` loop: lease over HTTP, evaluate
  with a spec-rebuilt objective, post results back;
* :mod:`repro.service.http` — the stdlib-only ``ThreadingHTTPServer``
  JSON API behind ``repro serve`` (routes declared in
  :data:`repro.service.http.ROUTES`).
"""

from .lease import DEFAULT_LEASE_TTL_S, Lease, LeaseTable, LeasedWorkQueue
from .remote_worker import RemoteWorkerClient, run_remote_worker
from .service import (
    HEARTBEAT_EVERY_S,
    MAX_TRIALS,
    SERVICE_KEY,
    STALE_AFTER_S,
    HeartbeatStorage,
    ServiceError,
    StudyConflictError,
    StudyService,
    UnknownStudyError,
    front_csv,
    front_rows,
    front_trials,
    spec_from_document,
    stored_front_size,
    study_status_document,
)

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "HEARTBEAT_EVERY_S",
    "MAX_TRIALS",
    "SERVICE_KEY",
    "STALE_AFTER_S",
    "HeartbeatStorage",
    "Lease",
    "LeaseTable",
    "LeasedWorkQueue",
    "RemoteWorkerClient",
    "ServiceError",
    "StudyConflictError",
    "StudyService",
    "UnknownStudyError",
    "front_csv",
    "front_rows",
    "front_trials",
    "run_remote_worker",
    "spec_from_document",
    "stored_front_size",
    "study_status_document",
]
