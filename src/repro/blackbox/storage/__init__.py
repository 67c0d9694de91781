"""Study persistence: the pluggable storage subsystem (DESIGN.md §3, §7).

Real Optuna deployments persist trials so that a killed 350-trial
NSGA-II search resumes instead of restarting, and so that several
workers can share one study.  This package provides that seam as four
interchangeable backends behind one contract plus a URL registry:

* :mod:`.base` — the :class:`StudyStorage` protocol, replayed
  :class:`StoredStudy` state, and the shared JSON trial encoding;
* :mod:`.memory` — :class:`InMemoryStorage` (``memory://``),
  dict-backed and process-local;
* :mod:`.journal` — :class:`JournalStorage` (``journal:///p.jsonl``),
  an append-only fsynced JSONL file with crash-safe last-write-wins
  replay and :meth:`~JournalStorage.compact` to keep replay O(live
  trials);
* :mod:`.sqlite` — :class:`SQLiteStorage` (``sqlite:///p.db``), the
  production backend: WAL mode, one transaction per trial record,
  concurrent-writer safe;
* :mod:`.sharded` — :class:`ShardedStorage` fans one study across
  per-worker shard stores and :func:`merge_stores` folds them back;
* :mod:`.registry` — :func:`storage_from_url` / :func:`resolve_storage`
  turn a spec string into any of the above, which is what lets every
  storage-accepting API (``create_study``, ``run_blackbox``,
  ``PipelinedDispatcher``, the CLI) take a plain string.

Storage-aware entry points: ``create_study(..., storage=...,
load_if_exists=True)``, ``Study.ask`` / ``Study.tell`` (which record
trial starts/finishes), and
``OptimizationRunner.run_blackbox(storage=...)``.
"""

from .base import (
    StoredStudy,
    StudyStorage,
    decode_trial,
    encode_trial,
    require_study,
)
from .journal import JournalStorage
from .memory import InMemoryStorage
from .registry import (
    discover_shards,
    open_study_storage,
    register_scheme,
    resolve_storage,
    shard_spec,
    storage_from_url,
)
from .sharded import ShardedStorage, merge_stores
from .sqlite import SQLiteStorage

__all__ = [
    "StudyStorage",
    "StoredStudy",
    "InMemoryStorage",
    "JournalStorage",
    "SQLiteStorage",
    "ShardedStorage",
    "merge_stores",
    "encode_trial",
    "decode_trial",
    "require_study",
    "register_scheme",
    "resolve_storage",
    "shard_spec",
    "discover_shards",
    "open_study_storage",
    "storage_from_url",
]
