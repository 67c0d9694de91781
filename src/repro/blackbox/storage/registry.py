"""URL-scheme registry: one string names any storage backend.

Everywhere the API takes a storage — ``create_study``,
``OptimizationRunner.run_blackbox``, ``PipelinedDispatcher``, the CLI's
``--storage``/``--journal`` flags — a spec string is accepted and
resolved here (DESIGN.md §7)::

    journal:///study.jsonl      append-only JSONL journal (relative path)
    journal:////abs/study.jsonl   …absolute path (SQLAlchemy convention)
    sqlite:///study.db          relational SQLite backend
    memory://                   process-local in-memory backend
    study.jsonl                 bare path: .db/.sqlite/.sqlite3 → sqlite,
                                anything else → journal

``resolve_storage`` passes :class:`StudyStorage` instances through
untouched, so every call site upgrades from "path argument" to "spec or
backend" without a signature change.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Callable

from ...exceptions import OptimizationError
from .base import StudyStorage
from .journal import JournalStorage
from .memory import InMemoryStorage
from .sharded import ShardedStorage
from .sqlite import SQLiteStorage

#: file extensions that make a bare path resolve to the SQLite backend
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

#: scheme name → factory taking the path portion of the URL
_SCHEMES: dict[str, Callable[[str], StudyStorage]] = {
    "journal": JournalStorage,
    "sqlite": SQLiteStorage,
    "memory": lambda path: InMemoryStorage(),
}


def register_scheme(name: str, factory: Callable[[str], StudyStorage]) -> None:
    """Register a custom ``scheme://`` factory (overwrites silently)."""
    _SCHEMES[name] = factory


def _split_url(spec: str) -> "tuple[str, str] | None":
    """``(scheme, path)`` for URL specs, ``None`` for bare paths."""
    if "://" not in spec:
        return None
    scheme, rest = spec.split("://", 1)
    # SQLAlchemy-style paths: sqlite:///rel.db → "rel.db",
    # sqlite:////abs/s.db → "/abs/s.db"; a hostless "scheme://rel.db"
    # is accepted as the relative path too.
    if rest.startswith("/"):
        rest = rest[1:]
    return scheme.lower(), rest


def storage_from_url(spec: "str | os.PathLike[str]") -> StudyStorage:
    """Resolve a storage spec string (or bare path) to a backend."""
    spec = os.fspath(spec)
    parts = _split_url(spec)
    if parts is None:  # bare path: pick the backend from the extension
        # Shard files keep their parent's backend: study.db.shard0 is
        # still sqlite, so strip the shard suffix before looking.
        base = re.sub(r"\.shard\d+$", "", spec)
        suffix = Path(base).suffix.lower()
        factory = SQLiteStorage if suffix in _SQLITE_SUFFIXES else JournalStorage
        return factory(spec)
    scheme, path = parts
    if scheme not in _SCHEMES:
        raise OptimizationError(
            f"unknown storage scheme '{scheme}://' in {spec!r} "
            f"(known: {', '.join(sorted(_SCHEMES))})"
        )
    if scheme != "memory" and not path:
        raise OptimizationError(f"storage spec {spec!r} names no path")
    return _SCHEMES[scheme](path)


def shard_spec(spec: str, index: int) -> str:
    """Spec string of shard ``index``: ``.shard<i>`` appended to the path."""
    return f"{spec}.shard{index}"


def discover_shards(spec: str) -> int:
    """Number of consecutive on-disk shard files next to ``spec`` (0 if none)."""
    parts = _split_url(os.fspath(spec))
    if parts is not None and parts[0] == "memory":
        return 0
    path = parts[1] if parts is not None else os.fspath(spec)
    n = 0
    while Path(f"{path}.shard{n}").exists():
        n += 1
    return n


def open_study_storage(spec: "str | os.PathLike[str]") -> StudyStorage:
    """Resolve ``spec``, auto-detecting a sharded topology on disk.

    A sharded run (``study run --shards W``) writes ``spec.shard0`` …
    ``spec.shardW-1`` and never the base path, so ``status``/``resume``
    against the base spec must reopen the same per-worker stores.  If
    the base store holds studies it wins (e.g. shards already merged
    into it); otherwise consecutive ``.shardN`` siblings are reopened
    as one :class:`ShardedStorage`.
    """
    store = storage_from_url(spec)
    if store.load_all():
        return store
    n = discover_shards(os.fspath(spec))
    if n > 1:
        store.close()
        return resolve_storage(spec, shards=n)
    return store


def resolve_storage(
    spec: "StudyStorage | str | os.PathLike[str] | None",
    shards: int | None = None,
) -> StudyStorage | None:
    """The one resolution path every storage-accepting API goes through.

    ``None`` and ready-made :class:`StudyStorage` instances pass through
    (``shards`` then must not also be requested — the caller already
    chose a topology); strings and paths resolve via the scheme
    registry.  With ``shards=W > 1`` the spec is expanded into W
    per-worker stores (``spec.shard0`` … ``spec.shardW-1``, or W
    independent in-memory stores for ``memory://``) wrapped in a
    :class:`ShardedStorage`.
    """
    if spec is None:
        return None
    if isinstance(spec, StudyStorage):
        if shards is not None and shards > 1:
            raise OptimizationError(
                "pass a spec string to shard a store, not a backend instance"
            )
        return spec
    spec = os.fspath(spec)
    if shards is None or shards <= 1:
        return storage_from_url(spec)
    if _split_url(spec) is not None and _split_url(spec)[0] == "memory":
        return ShardedStorage([InMemoryStorage() for _ in range(shards)])
    return ShardedStorage(
        [storage_from_url(shard_spec(spec, i)) for i in range(shards)]
    )
