"""Study-as-a-service (repro.service, DESIGN.md §12).

Covers the service loop end to end: submit (direct and over HTTP),
worker drains the queue, heartbeat persistence and staleness, front
serialization parity with `repro study run`, and the headline
durability claim — kill -9 a worker process mid-study, POST resume,
and the finished front is bit-identical to an uninterrupted run's, on
both the journal and sqlite backends.
"""

import dataclasses
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.study_spec import StudySpec
from repro.exceptions import OptimizationError
from repro.service import (
    MAX_TRIALS,
    HeartbeatStorage,
    ServiceError,
    StudyConflictError,
    StudyService,
    UnknownStudyError,
    front_csv,
    spec_from_document,
    study_status_document,
)
from repro.service.http import make_server
from repro.service.lease import LeasedWorkQueue

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: small-but-real search configuration shared by every test (one month
#: of the Houston year; ~1s per study through the vectorized path)
SMALL = dict(sites=("houston",), n_hours=720, n_trials=20, population=10, seed=7)


def small_spec(**overrides):
    return StudySpec(**{**SMALL, **overrides})


class TestServiceVerbs:
    def test_submit_queues_and_status_reports(self):
        service = StudyService("memory://")
        doc = service.submit(small_spec(), "s1")
        assert doc["service"]["state"] == "queued"
        assert doc["n_trials"] == 20
        assert doc["front_size"] is None

    def test_duplicate_submit_conflicts_and_hints_resume(self):
        service = StudyService("memory://")
        service.submit(small_spec(), "s1")
        with pytest.raises(StudyConflictError, match="resume"):
            service.submit(small_spec(), "s1")

    def test_unknown_study_raises(self):
        service = StudyService("memory://")
        with pytest.raises(UnknownStudyError, match="nope"):
            service.status("nope")

    def test_cancel_dequeues_and_worker_skips_it(self):
        service = StudyService("memory://")
        service.submit(small_spec(), "s1")
        assert service.cancel("s1")["service"]["state"] == "cancelled"
        assert service.worker_loop() == 0

    def test_worker_drains_the_queue_in_submit_order(self):
        service = StudyService("memory://")
        service.submit(small_spec(), "a")
        service.submit(small_spec(seed=8), "b")
        assert service.worker_loop() == 2
        for name in ("a", "b"):
            doc = service.status(name)
            assert doc["service"]["state"] == "done"
            assert doc["trials"]["complete"] == 20
            assert doc["front_size"] >= 1

    def test_done_study_requeues_and_reruns_idempotently(self):
        service = StudyService("memory://")
        service.submit(small_spec(), "s1")
        service.worker_loop()
        before = front_csv(service.storage.load_study("s1"))
        service.resume("s1")
        assert service.worker_loop() == 1
        assert front_csv(service.storage.load_study("s1")) == before

    def test_failed_study_is_marked_and_does_not_wedge_the_queue(self):
        service = StudyService("memory://")
        service.submit(small_spec(), "bad")
        service.submit(small_spec(seed=11), "good")
        # Sabotage the queued study: wipe an identity key so the worker's
        # from_metadata fails loudly.
        stored = service.storage.load_study("bad")
        md = dict(stored.metadata)
        del md["seed"]
        service.storage.update_metadata("bad", md)
        assert service.worker_loop() == 1  # only 'good' completed
        assert service.status("bad")["service"]["state"] == "failed"
        assert "seed" in service.status("bad")["service"]["error"]
        assert service.status("good")["service"]["state"] == "done"

    def test_spec_from_document_aliases_and_rejects_unknowns(self):
        spec, name = spec_from_document(
            {"sites": "houston", "trials": 30, "speculate": 2, "name": "n"}
        )
        assert (name, spec.n_trials, spec.pipeline) == ("n", 30, "speculate=2")
        with pytest.raises(OptimizationError, match="trails"):
            spec_from_document({"trails": 30})

    @pytest.mark.parametrize(
        "document",
        [
            {"n_trials": -5},
            {"population": 0},
            {"sites": 123},
            {"n_trials": MAX_TRIALS + 1},
            {"speculate": {}},
            {"engine": "loop"},  # an unknown key: the engine field is gone
            # unknown keys too: the batch is the population
            {"batch": 5},
            {"batch": 0},
            {"batch": -3},
            # the service never shards its store, so no value is valid
            {"shards": 4},
            {"shards": 0},
            {"shards": -3},
        ],
    )
    def test_spec_from_document_rejects_bad_values_as_service_errors(self, document):
        with pytest.raises(ServiceError):
            spec_from_document(document)


class TestHeartbeat:
    def test_worker_persists_heartbeat_and_progress(self):
        service = StudyService("memory://")
        service.submit(small_spec(), "s1")
        service.worker_loop()
        doc = service.status("s1")
        assert doc["heartbeat"]["trials_done"] == 20
        assert doc["heartbeat"]["age_s"] >= 0.0
        assert doc["heartbeat"]["stale"] is False  # done, not running

    def test_stale_flag_requires_running_state_and_old_heartbeat(self):
        from repro.blackbox.storage.base import StoredStudy

        md = {"service": {"state": "running"}, "heartbeat_ts": 100.0}
        stored = StoredStudy(name="s", directions=["minimize"] * 2, metadata=md)
        doc = study_status_document(stored, stale_after=300.0, now=500.0)
        assert doc["heartbeat"]["stale"] is True
        assert doc["heartbeat"]["age_s"] == 400.0
        fresh = study_status_document(stored, stale_after=300.0, now=150.0)
        assert fresh["heartbeat"]["stale"] is False
        md["service"]["state"] = "done"
        done = study_status_document(stored, stale_after=300.0, now=500.0)
        assert done["heartbeat"]["stale"] is False

    def test_driver_metadata_writes_do_not_clobber_liveness(self):
        from repro.blackbox.storage import storage_from_url

        inner = storage_from_url("memory://")
        inner.create_study("s", ["minimize", "minimize"], {"n_trials": 5})
        wrapper = HeartbeatStorage(inner, "s", interval=0.0, clock=lambda: 42.0)
        wrapper.beat()
        # A driver rewriting metadata from its stale in-memory snapshot
        # (no heartbeat keys) must not erase the persisted liveness.
        wrapper.update_metadata("s", {"n_trials": 5, "batch": 10})
        md = inner.load_study("s").metadata
        assert md["heartbeat_ts"] == 42.0
        assert md["batch"] == 10

    def test_live_resume_is_refused_but_stale_resume_requeues(self):
        service = StudyService("memory://", stale_after=1e9)
        service.submit(small_spec(), "s1")
        stored = service.storage.load_study("s1")
        md = dict(stored.metadata)
        md["service"] = {"state": "running"}
        md["heartbeat_ts"] = service._clock()
        service.storage.update_metadata("s1", md)
        with pytest.raises(StudyConflictError, match="live heartbeat"):
            service.resume("s1")
        stale_service = StudyService(service.storage, stale_after=0.0)
        assert stale_service.resume("s1")["service"]["state"] == "queued"


def _http(url, method="GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request) as response:
        body = response.read()
        kind = response.headers.get("Content-Type", "")
        return response.status, (json.loads(body) if "json" in kind else body.decode())


def _post_status(url, payload) -> int:
    """HTTP status of a JSON POST, error statuses included."""
    try:
        return _http(url, method="POST", payload=payload)[0]
    except urllib.error.HTTPError as err:
        return err.code


@pytest.fixture()
def http_service(tmp_path):
    """A bound HTTP server over a journal store, no worker threads."""
    service = StudyService(f"journal:///{tmp_path}/svc.jsonl", stale_after=0.0)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield service, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


class TestHttpApi:
    def test_submit_status_front_round_trip(self, http_service):
        service, base = http_service
        status, doc = _http(
            f"{base}/studies",
            method="POST",
            payload={**SMALL, "sites": "houston", "name": "h1"},
        )
        assert status == 201 and doc["service"]["state"] == "queued"
        assert service.worker_loop() == 1
        status, listing = _http(f"{base}/studies")
        assert status == 200 and [d["name"] for d in listing["studies"]] == ["h1"]
        status, doc = _http(f"{base}/studies/h1")
        assert status == 200 and doc["service"]["state"] == "done"
        status, csv = _http(f"{base}/studies/h1/front.csv")
        assert status == 200 and csv.startswith("trial,value_0,value_1")
        assert csv == front_csv(service.storage.load_study("h1"))

    def test_error_statuses(self, http_service):
        service, base = http_service
        for url, method, payload, expected in (
            (f"{base}/studies/ghost", "GET", None, 404),
            (f"{base}/nope", "GET", None, 404),
            (f"{base}/studies", "POST", {"trails": 3}, 400),
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                _http(url, method=method, payload=payload)
            assert err.value.code == expected
        _http(f"{base}/studies", method="POST", payload={**SMALL, "sites": "houston", "name": "dup"})
        with pytest.raises(urllib.error.HTTPError) as err:
            _http(f"{base}/studies", method="POST", payload={**SMALL, "sites": "houston", "name": "dup"})
        assert err.value.code == 409

    @pytest.mark.parametrize(
        "document",
        [{"n_trials": -5}, {"population": 0}, {"sites": 123}, {"n_trials": 10**12},
         # unknown keys: the engine field is gone, the batch is the population
         {"engine": "loop"}, {"batch": 5}, {"batch": 0}, {"batch": -3},
         # the service never shards its store
         {"shards": 4}, {"shards": 0}, {"shards": -3}],
    )
    def test_bad_spec_values_are_400(self, http_service, document):
        _, base = http_service
        assert _post_status(f"{base}/studies", {**SMALL, "sites": "houston", **document}) == 400

    def test_fuzzed_submissions_never_500(self, http_service):
        """Seeded body fuzz: every malformed submission is a client error."""
        _, base = http_service
        rng = random.Random(20261017)
        keys = sorted({f.name for f in dataclasses.fields(StudySpec)}) + [
            "name", "trials", "speculate", "bogus",
        ]
        junk = [
            -5, 0, 1, 2.5, 10**12, -1e300, True, None, "", "x", "houston,phoenix",
            "speculate=-1", "lo,mid,full", [], [1, "a"], {}, {"a": 1}, 123,
        ]
        statuses = set()
        for i in range(120):
            document = {**SMALL, "sites": "houston", "name": f"fuzz{i % 40}"}
            for key in rng.sample(keys, rng.randint(1, 3)):
                document[key] = rng.choice(junk)
            status = _post_status(f"{base}/studies", document)
            assert status in (201, 400, 409), (status, document)
            statuses.add(status)
        for body in ([1, 2], "houston", 7):
            assert _post_status(f"{base}/studies", body) == 400
        assert {201, 400} <= statuses  # the fuzz reaches both outcomes

    def test_fuzzed_lease_and_result_bodies_are_400_on_a_kept_connection(
        self, http_service
    ):
        """Seeded body fuzz of the worker verbs against a live queue:
        every malformed ``POST /lease`` or ``POST /studies/{name}/results``
        body is a 400 that completes nothing, and the same kept-alive
        connection then serves a valid request."""
        service, base = http_service
        queue = LeasedWorkQueue(ttl=60.0)
        service.register_work_queue("s1", queue)
        queue.submit_trial({"x": 1})
        (item,) = service.lease_work("w1")["items"]
        key = item["item"]
        good = {"item": key, "tag": "ok", "value": [1.0, 2.0], "seconds": 0.5}
        bad_entries = [
            None, 7, "x", [], {}, {"item": key}, {"tag": "ok"},
            *({**good, "seconds": v} for v in (None, [], {}, "x")),
            *({**good, "value": v} for v in (None, "x", 5, [[1.0]], [None], {"a": 1})),
        ]
        bad_lease_fields = {
            "worker": [None, "", 0, False],
            "limit": [None, "x", "", float("inf"), float("nan"), [], [1], {}],
            "wait_s": [None, "x", "", [], {}],
        }
        rng = random.Random(20261019)
        bodies = []
        for _ in range(60):
            field = rng.choice(sorted(bad_lease_fields))
            lease = {"worker": "w2", "wait_s": 0.0, field: rng.choice(bad_lease_fields[field])}
            bodies.append(("/lease", lease))
            entries = [dict(good)] * rng.randint(0, 2)
            entries.insert(rng.randint(0, len(entries)), rng.choice(bad_entries))
            bodies.append(("/studies/s1/results", {"worker": "w1", "results": entries}))
        bodies += [("/lease", [1, 2]), ("/studies/s1/results", "x")]
        bodies += [
            ("/studies/s1/results", {"worker": "w1", "results": v}) for v in ("x", 5, {}, None)
        ]
        host, port = base.rsplit("/", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        headers = {"Content-Type": "application/json"}
        try:
            connection.request("GET", "/studies")
            connection.getresponse().read()
            sock = connection.sock
            for path, body in bodies:
                connection.request("POST", path, json.dumps(body), headers)
                response = connection.getresponse()
                assert response.status == 400, (path, body, response.read())
                assert "error" in json.loads(response.read())
                connection.request("POST", "/lease", json.dumps({"worker": "w2"}), headers)
                response = connection.getresponse()
                assert response.status == 200 and json.loads(response.read())["items"] == []
                assert connection.sock is sock, "the server closed the connection"
            assert queue.stats()["completed"] == 0  # no batch half-applied
            connection.request(
                "POST", "/studies/s1/results",
                json.dumps({"worker": "w1", "results": [good]}), headers,
            )
            response = connection.getresponse()
            assert json.loads(response.read())["accepted"] == 1
        finally:
            connection.close()

    @pytest.mark.parametrize("scheme", ["journal", "sqlite"])
    def test_http_submission_matches_cli_front_bit_for_bit(self, tmp_path, scheme):
        """End-to-end parity: the same (seed, spec) study submitted over
        HTTP and run via `repro study run` produce identical fronts."""
        suffix = "jsonl" if scheme == "journal" else "db"
        cli_store = f"{tmp_path}/cli.{suffix}"
        svc_store = f"{scheme}:///{tmp_path}/svc.{suffix}"
        assert (
            main(
                ["study", "run", "--storage", cli_store, "--site", "houston",
                 "--trials", "20", "--population", "10", "--seed", "7",
                 "--set", "scenario.n_hours=720"]
            )
            == 0
        )
        service = StudyService(svc_store)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            _http(
                f"http://{host}:{port}/studies",
                method="POST",
                payload={**SMALL, "sites": "houston", "name": "parity"},
            )
            assert service.worker_loop() == 1
            _, http_csv = _http(f"http://{host}:{port}/studies/parity/front.csv")
        finally:
            server.shutdown()
            server.server_close()
        from repro.blackbox import storage_from_url

        cli_front = front_csv(storage_from_url(cli_store).load_study("houston-blackbox"))
        assert http_csv == cli_front


#: worker subprocess that SIGKILLs itself mid-study (after 12 trial
#: finishes: one full generation of 10 plus two trials of the next, so
#: death is strictly inside a generation) — what a real OOM/node loss
#: leaves behind: a 'running' study with a stalling heartbeat.
KILL_WORKER = textwrap.dedent(
    """
    import os, signal, sys
    from repro.service import StudyService

    service = StudyService(sys.argv[1], heartbeat_interval=0.0)
    storage = service.storage
    original = storage.record_trial_finish
    count = 0

    def killing_finish(name, trial):
        global count
        original(name, trial)
        count += 1
        if count >= 12:
            os.kill(os.getpid(), signal.SIGKILL)

    storage.record_trial_finish = killing_finish
    service.worker_loop()
    """
)


class TestKillTheWorker:
    @pytest.mark.parametrize("scheme", ["journal", "sqlite"])
    def test_sigkilled_worker_resumes_to_the_identical_front(self, tmp_path, scheme):
        suffix = "jsonl" if scheme == "journal" else "db"
        svc_store = f"{scheme}:///{tmp_path}/svc.{suffix}"
        reference_store = f"{tmp_path}/ref.{suffix}"

        # The uninterrupted reference, via the plain CLI driver.
        assert (
            main(
                ["study", "run", "--storage", reference_store, "--site", "houston",
                 "--trials", "20", "--population", "10", "--seed", "7",
                 "--set", "scenario.n_hours=720"]
            )
            == 0
        )

        # Submit over HTTP, then hand the queue to a doomed worker process.
        service = StudyService(svc_store, stale_after=0.0)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            _http(
                f"{base}/studies",
                method="POST",
                payload={**SMALL, "sites": "houston", "name": "durable"},
            )
            env = {**os.environ, "PYTHONPATH": SRC}
            proc = subprocess.run(
                [sys.executable, "-c", KILL_WORKER, svc_store],
                env=env,
                capture_output=True,
                timeout=240,
            )
            assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

            # The kill really landed mid-study: a 'running' study with
            # more than one generation but less than the target.
            stored = service.storage.load_study("durable")
            n_recorded = len(stored.finished_trials())
            assert 10 <= n_recorded < 20, n_recorded
            assert (stored.metadata.get("service") or {}).get("state") == "running"

            # POST resume re-queues (the heartbeat is stale under
            # stale_after=0), and a healthy worker finishes the study.
            status, doc = _http(f"{base}/studies/durable/resume", method="POST")
            assert status == 202 and doc["service"]["state"] == "queued"
            assert service.worker_loop() == 1
            _, final_csv = _http(f"{base}/studies/durable/front.csv")
        finally:
            server.shutdown()
            server.server_close()

        from repro.blackbox import storage_from_url

        reference = storage_from_url(reference_store).load_study("houston-blackbox")
        assert final_csv == front_csv(reference)
        finished = service.storage.load_study("durable")
        assert len(finished.trials) == 20
        assert service.status("durable")["service"]["state"] == "done"
