"""Storage contract: the backend protocol and trial (de)serialization.

Every backend in :mod:`repro.blackbox.storage` speaks the same protocol
(DESIGN.md §3, §7):

* :class:`StudyStorage` — the three write hooks the study layer calls
  (``create_study`` once, ``record_trial_start`` on every ``ask``,
  ``record_trial_finish`` on every ``tell``) and the replay reads
  (``load_study`` / ``load_all``);
* :class:`StoredStudy` — the replayed state of one persisted study;
* :func:`encode_trial` / :func:`decode_trial` — the shared JSON trial
  encoding.  Every backend round-trips records through it, so a study
  that works against one backend is guaranteed to persist identically
  under any other.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ...exceptions import OptimizationError
from ..distributions import distribution_from_dict, distribution_to_dict
from ..trial import FrozenTrial, TrialState

_COMPOSITION_TAG = "__composition__"
_REPR_TAG = "__repr__"


# -- value (de)serialization ----------------------------------------------------


def _encode_value(value: Any) -> Any:
    """JSON-ready encoding of one attribute/parameter value.

    Handles numpy scalars, containers, and
    :class:`~repro.core.composition.MicrogridComposition` (stored by
    ``run_blackbox`` as a user attr).  Unknown objects degrade to a
    tagged ``repr`` string — lossy but journal-safe.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    # Lazy import: core depends on blackbox, not the other way around.
    from ...core.composition import MicrogridComposition

    if isinstance(value, MicrogridComposition):
        return {
            _COMPOSITION_TAG: {
                "n_turbines": value.n_turbines,
                "solar_kw": value.solar_kw,
                "battery_units": value.battery_units,
            }
        }
    return {_REPR_TAG: repr(value)}


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if _COMPOSITION_TAG in value and len(value) == 1:
            from ...core.composition import MicrogridComposition

            fields_ = value[_COMPOSITION_TAG]
            return MicrogridComposition(
                n_turbines=int(fields_["n_turbines"]),
                solar_kw=float(fields_["solar_kw"]),
                battery_units=int(fields_["battery_units"]),
            )
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def encode_trial(trial: FrozenTrial) -> dict[str, Any]:
    """JSON-ready encoding of a frozen trial (all backends use this)."""
    return {
        "number": trial.number,
        "state": trial.state.value,
        "params": {k: _encode_value(v) for k, v in trial.params.items()},
        "distributions": {
            k: distribution_to_dict(d) for k, d in trial.distributions.items()
        },
        "values": None if trial.values is None else [float(v) for v in trial.values],
        "intermediate": {str(k): float(v) for k, v in trial.intermediate.items()},
        "user_attrs": {k: _encode_value(v) for k, v in trial.user_attrs.items()},
        "system_attrs": {k: _encode_value(v) for k, v in trial.system_attrs.items()},
    }


def decode_trial(record: dict[str, Any]) -> FrozenTrial:
    """Inverse of :func:`encode_trial`."""
    values = record.get("values")
    return FrozenTrial(
        number=int(record["number"]),
        state=TrialState(record["state"]),
        params={k: _decode_value(v) for k, v in record.get("params", {}).items()},
        distributions={
            k: distribution_from_dict(d)
            for k, d in record.get("distributions", {}).items()
        },
        values=None if values is None else tuple(float(v) for v in values),
        intermediate={int(k): float(v) for k, v in record.get("intermediate", {}).items()},
        user_attrs={k: _decode_value(v) for k, v in record.get("user_attrs", {}).items()},
        system_attrs={
            k: _decode_value(v) for k, v in record.get("system_attrs", {}).items()
        },
    )


# -- the storage protocol --------------------------------------------------------


@dataclass
class StoredStudy:
    """Replayed state of one persisted study."""

    name: str
    directions: list[str]
    metadata: dict[str, Any] = field(default_factory=dict)
    #: trials keyed by number (last write wins during replay)
    trials_by_number: dict[int, FrozenTrial] = field(default_factory=dict)

    @property
    def trials(self) -> list[FrozenTrial]:
        """All trials in number order (any state)."""
        return [self.trials_by_number[n] for n in sorted(self.trials_by_number)]

    def finished_trials(self) -> list[FrozenTrial]:
        """Trials with a terminal state, in number order."""
        return [t for t in self.trials if t.state.is_finished()]


class StudyStorage(ABC):
    """Backend protocol for persisting studies (DESIGN.md §3, §7).

    The study layer writes through three hooks: ``create_study`` once,
    ``record_trial_start`` on every ``ask`` and ``record_trial_finish``
    on every ``tell``.  ``load_study`` replays the backend's state.
    Backends are interchangeable: the URL registry
    (:mod:`repro.blackbox.storage.registry`) resolves a storage spec
    string to any of them, and one shared contract suite
    (``tests/test_storage_contract.py``) pins the semantics all of them
    must satisfy.
    """

    @abstractmethod
    def create_study(
        self, study_name: str, directions: list[str], metadata: dict[str, Any]
    ) -> None:
        """Register a new study; raises if the name is already taken."""

    @abstractmethod
    def load_study(self, study_name: str) -> StoredStudy | None:
        """Replayed study state, or ``None`` if unknown."""

    @abstractmethod
    def update_metadata(self, study_name: str, metadata: dict[str, Any]) -> None:
        """Replace a study's metadata (last write wins on replay).

        Used by drivers that learn resume-critical configuration only
        after the study was registered (e.g. ``PipelinedDispatcher``
        persisting its generation size).
        """

    @abstractmethod
    def record_trial_start(self, study_name: str, trial: FrozenTrial) -> None:
        """Record that a trial was asked (params not yet suggested)."""

    @abstractmethod
    def record_trial_finish(self, study_name: str, trial: FrozenTrial) -> None:
        """Record a trial reaching a terminal state (full snapshot)."""

    @abstractmethod
    def load_all(self) -> dict[str, StoredStudy]:
        """Replayed state of every study in the backend."""

    def study_names(self) -> list[str]:
        return sorted(self.load_all())

    def close(self) -> None:
        """Release any OS resources (file handles, connections).

        A closed backend reopens transparently on the next write or
        load; the default implementation is a no-op for backends that
        hold no handles.
        """

    def __enter__(self) -> "StudyStorage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def require_study(storage: StudyStorage, study_name: str) -> StoredStudy:
    """Load a study, raising instead of returning ``None`` when unknown."""
    stored = storage.load_study(study_name)
    if stored is None:
        raise OptimizationError(f"unknown study '{study_name}' in storage")
    return stored
