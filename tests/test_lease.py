"""Lease primitive + whole-study lease semantics (DESIGN.md §13).

Fast, physics-free coverage of the cluster layer's liveness machinery:
the :class:`LeaseTable` bookkeeping core, the
:class:`LeasedWorkQueue` grant → complete → expire → reclaim lifecycle
(with a fake clock, so TTL expiry is deterministic), the first-write-
wins late-result semantics that make at-least-once dispatch safe, and
the whole-study side: ``claim_next`` reclaiming an expired study claim
automatically, with no explicit ``resume``.
"""

import pytest

from repro.core.study_spec import StudySpec
from repro.exceptions import OptimizationError
from repro.service import StudyService
from repro.service.lease import (
    DEFAULT_LEASE_TTL_S,
    Lease,
    LeaseTable,
    LeasedWorkQueue,
    _decode_outcome,
)
from repro.service.remote_worker import encode_outcome


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


class TestLeaseTable:
    def test_grant_release_and_holder(self):
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        lease = table.grant("k1", "w1")
        assert lease == Lease("k1", "w1", 0.0, 10.0)
        assert lease.expires_ts == 10.0
        assert table.holder("k1") == "w1"
        assert table.release("k1").owner == "w1"
        assert table.holder("k1") is None

    def test_double_grant_is_an_error(self):
        table = LeaseTable(ttl=10.0, clock=FakeClock())
        table.grant("k1", "w1")
        with pytest.raises(OptimizationError, match="already held by 'w1'"):
            table.grant("k1", "w2")

    def test_reclaim_expired_only_drops_expired_leases(self):
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        table.grant("old", "w1")
        clock.advance(6.0)
        table.grant("new", "w2")
        clock.advance(5.0)  # old at 11s (expired), new at 5s (live)
        expired = table.reclaim_expired()
        assert [l.key for l in expired] == ["old"]
        assert table.holder("old") is None
        assert table.holder("new") == "w2"

    def test_ttl_must_be_positive(self):
        with pytest.raises(OptimizationError, match="positive"):
            LeaseTable(ttl=0.0)


class TestLeasedWorkQueue:
    def test_lease_complete_resolves_the_future(self):
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        future = queue.submit_trial({"x": 1})
        [item] = queue.lease("w1", limit=5)
        assert item == {"item": "trial-0", "kind": "trial", "params": {"x": 1}}
        assert queue.complete("w1", "trial-0", "ok", [1.25, 2.5], 0.3) is True
        assert future.result(timeout=1) == ("ok", (1.25, 2.5), 0.3)

    def test_rung_items_carry_members_and_decode_nested(self):
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        future = queue.submit_rung({"x": 1}, (0, 3))
        [item] = queue.lease("w1")
        assert item["kind"] == "rung" and item["members"] == [0, 3]
        queue.complete("w1", item["item"], "ok", [[1.0, 2.0], [3.0, 4.0]], 0.1)
        tag, payload, _ = future.result(timeout=1)
        assert (tag, payload) == ("ok", ((1.0, 2.0), (3.0, 4.0)))

    def test_each_submission_calls_on_ready(self):
        calls = []
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        queue.on_ready = lambda: calls.append(len(queue.lease("w1")))
        queue.submit_trial({"x": 1})
        queue.submit_rung({"x": 2}, (0,))
        # Called after the item is queued (and outside the queue's lock).
        assert calls == [1, 1]

    def test_lease_respects_limit_and_fifo_order(self):
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        for i in range(3):
            queue.submit_trial({"n": i})
        first = queue.lease("w1", limit=2)
        assert [i["params"]["n"] for i in first] == [0, 1]
        assert [i["params"]["n"] for i in queue.lease("w2", limit=2)] == [2]
        assert queue.lease("w2") == []

    def test_expired_lease_is_reclaimed_and_redispatched(self):
        clock = FakeClock()
        queue = LeasedWorkQueue(ttl=2.0, clock=clock)
        future = queue.submit_trial({"x": 1})
        assert queue.lease("dead", limit=1)
        assert queue.lease("live") == []  # leased, nothing left
        clock.advance(3.0)  # dead worker's lease expires
        [item] = queue.lease("live")  # reclaim happens inside lease()
        assert item["item"] == "trial-0"
        queue.complete("live", "trial-0", "ok", [1.0, 2.0], 0.1)
        assert future.result(timeout=1)[0] == "ok"
        stats = queue.stats()
        assert stats["reclaimed"] == 1 and stats["completed"] == 1

    def test_late_result_after_reclaim_is_stale_first_write_wins(self):
        clock = FakeClock()
        queue = LeasedWorkQueue(ttl=2.0, clock=clock)
        future = queue.submit_trial({"x": 1})
        queue.lease("slow")
        clock.advance(3.0)
        queue.lease("fast")  # reclaim + re-grant
        assert queue.complete("fast", "trial-0", "ok", [1.0, 2.0], 0.1) is True
        # The presumed-dead worker's duplicate lands late: stale, ignored.
        assert queue.complete("slow", "trial-0", "ok", [1.0, 2.0], 9.9) is False
        assert future.result(timeout=1) == ("ok", (1.0, 2.0), 0.1)
        assert queue.stats()["completed"] == 1

    def test_unknown_item_is_stale_not_an_error(self):
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        assert queue.complete("w1", "trial-99", "ok", [1.0], 0.0) is False

    def test_error_outcomes_rebuild_an_exception(self):
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        future = queue.submit_trial({"x": 1})
        queue.lease("w1")
        queue.complete(
            "w1", "trial-0", "error",
            {"type": "ValueError", "message": "bad composition"}, 0.1,
        )
        tag, payload, _ = future.result(timeout=1)
        assert tag == "error"
        assert isinstance(payload, OptimizationError)
        assert "ValueError" in str(payload) and "bad composition" in str(payload)

    def test_shutdown_refuses_new_work_and_cancels_pending(self):
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        future = queue.submit_trial({"x": 1})
        queue.shutdown(cancel_futures=True)
        assert future.cancelled()
        assert queue.lease("w1") == []
        with pytest.raises(OptimizationError, match="shut down"):
            queue.submit_trial({"x": 2})

    def test_stats_track_workers_and_active_leases(self):
        queue = LeasedWorkQueue(ttl=10.0, clock=FakeClock())
        queue.submit_trial({"x": 1})
        queue.submit_trial({"x": 2})
        queue.lease("w1")
        stats = queue.stats()
        assert stats == {
            "queued": 1, "leased": 1, "completed": 0, "reclaimed": 0,
            "ttl_s": 10.0, "workers": {"w1": 0}, "active_workers": ["w1"],
        }


class TestOutcomeWireFormat:
    """encode (worker) → JSON → decode (coordinator) is lossless."""

    def test_trial_floats_round_trip_exactly(self):
        import json

        values = (0.1 + 0.2, 1e-17, 123456.789012345)
        wire = json.loads(json.dumps(encode_outcome("ok", values)))
        tag, decoded = _decode_outcome("trial", "ok", wire)
        assert decoded == values  # bit-identical through repr-based JSON

    def test_rung_vectors_round_trip(self):
        wire = encode_outcome("ok", ((1.5, 2.5), (3.5, 4.5)))
        assert wire == [[1.5, 2.5], [3.5, 4.5]]
        assert _decode_outcome("rung", "ok", wire)[1] == ((1.5, 2.5), (3.5, 4.5))

    def test_pruned_and_error_payloads(self):
        assert encode_outcome("pruned", None) is None
        assert _decode_outcome("trial", "pruned", None) == ("pruned", None)
        wire = encode_outcome("error", ValueError("boom"))
        assert wire == {"type": "ValueError", "message": "boom"}


SMALL = dict(sites=("houston",), n_hours=720, n_trials=20, population=10, seed=7)


class TestTransportKnobs:
    """remote_slots / lease_ttl are non-identity metadata, like engine."""

    def test_round_trip_through_metadata(self):
        spec = StudySpec(remote_slots=3, lease_ttl=45.0, **SMALL)
        md = spec.to_metadata()
        assert md["transport"] == {"slots": 3, "lease_ttl_s": 45.0}
        again = StudySpec.from_metadata(md)
        assert (again.remote_slots, again.lease_ttl) == (3, 45.0)

    def test_remote_slots_implies_the_pipelined_driver(self):
        spec = StudySpec(remote_slots=2, **SMALL)
        assert spec.pipeline == "speculate=0"
        explicit = StudySpec(remote_slots=2, pipeline="speculate=3", **SMALL)
        assert explicit.pipeline == "speculate=3"

    def test_transport_changes_are_not_resume_identity(self):
        persisted = StudySpec(remote_slots=4, lease_ttl=60.0, **SMALL).to_metadata()
        # Resuming with different slots/TTL — or none at all — is fine;
        # only the pipeline spec (which transport pinned) must match.
        StudySpec(remote_slots=1, lease_ttl=5.0, **SMALL).validate_resume(persisted)
        StudySpec(pipeline="speculate=0", **SMALL).validate_resume(persisted)
        with pytest.raises(OptimizationError, match="pipeline"):
            StudySpec(remote_slots=4, pipeline="speculate=2", **SMALL).validate_resume(
                persisted
            )

    def test_transport_knob_validation(self):
        with pytest.raises(OptimizationError, match="remote_slots"):
            StudySpec(remote_slots=0, **SMALL)
        with pytest.raises(OptimizationError, match="lease_ttl"):
            StudySpec(lease_ttl=-1.0, **SMALL)

    def test_default_ttl_is_sane(self):
        assert DEFAULT_LEASE_TTL_S > 0


class TestStudyClaimLease:
    """Whole-study claims carry the same lease semantics: an expired
    claim (dead worker) is reclaimed by ``claim_next`` automatically —
    the no-manual-resume half of DESIGN.md §13."""

    def _running_study(self, service, name, heartbeat_age):
        service.submit(StudySpec(**SMALL), name)
        stored = service.storage.load_study(name)
        md = dict(stored.metadata)
        md["service"] = {
            "state": "running",
            "started_ts": service._clock() - heartbeat_age,
            "worker": "dead-host",
        }
        md["heartbeat_ts"] = service._clock() - heartbeat_age
        service.storage.update_metadata(name, md)

    def test_expired_claim_is_reclaimed_without_resume(self):
        service = StudyService("memory://", stale_after=10.0)
        self._running_study(service, "s1", heartbeat_age=60.0)
        assert service.claim_next("rescuer") == "s1"
        envelope = service.status("s1")["service"]
        assert envelope["state"] == "running"
        assert envelope["worker"] == "rescuer"
        assert envelope["reclaims"] == 1
        assert envelope["reclaimed_from"] == "dead-host"

    def test_live_claim_is_never_reclaimed(self):
        service = StudyService("memory://", stale_after=1e9)
        self._running_study(service, "s1", heartbeat_age=60.0)
        assert service.claim_next("rescuer") is None

    def test_queued_studies_win_over_reclaims(self):
        service = StudyService("memory://", stale_after=10.0)
        self._running_study(service, "stuck", heartbeat_age=60.0)
        service.submit(StudySpec(**{**SMALL, "seed": 8}), "fresh")
        assert service.claim_next("w") == "fresh"
        assert service.claim_next("w") == "stuck"

    def test_reclaim_counter_accumulates(self):
        service = StudyService("memory://", stale_after=10.0)
        self._running_study(service, "s1", heartbeat_age=60.0)
        assert service.claim_next("r1") == "s1"
        # The rescuer dies too: age its liveness past the lease again.
        stored = service.storage.load_study("s1")
        md = dict(stored.metadata)
        md["service"]["started_ts"] -= 100.0
        md["heartbeat_ts"] -= 100.0
        service.storage.update_metadata("s1", md)
        assert service.claim_next("r2") == "s1"
        assert service.status("s1")["service"]["reclaims"] == 2
