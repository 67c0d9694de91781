"""Cluster-scale search: coordinator + remote HTTP workers (DESIGN.md §13).

The distributed half of the pipelined dispatcher, end to end:

* **parity** — a study driven by a coordinator and remote workers over
  the HTTP lease protocol produces a Pareto front bit-identical to the
  single-process pipelined run at the same ``(seed, speculate)``,
  including racing (rung items leased remotely);
* **durability** — SIGKILL one of two remote workers mid-study: its
  leases expire, the coordinator re-dispatches the lost candidates to
  the survivor, and the study converges to the identical front with
  **no manual resume**, on journal and SQLite backends;
* the lease/worker HTTP verbs themselves (spec documents, grants,
  stale acks, validation errors).
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.study_spec import StudySpec
from repro.service import RemoteWorkerClient, StudyService, front_csv, remote_worker
from repro.service.http import make_server
from repro.service.lease import LeasedWorkQueue

SRC = str(Path(__file__).resolve().parent.parent / "src")

SMALL = dict(sites=("houston",), n_hours=720, n_trials=20, population=10, seed=7)


def _http(url, method="GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request) as response:
        body = response.read()
        kind = response.headers.get("Content-Type", "")
        return response.status, (json.loads(body) if "json" in kind else body.decode())


def _serve(service):
    """A serving (daemon-thread) HTTP server; caller shuts it down."""
    server = make_server(service)
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    ).start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def _reference_front(spec: StudySpec, name: str) -> str:
    """The single-process front for ``spec`` via the service worker loop."""
    service = StudyService("memory://")
    service.submit(spec, name)
    assert service.worker_loop() == 1
    return service.front(name)


class TestLeaseProtocolOverHttp:
    def test_spec_endpoint_hands_back_the_persisted_identity(self):
        service = StudyService("memory://")
        service.submit(StudySpec(remote_slots=2, **SMALL), "s1")
        server, base = _serve(service)
        try:
            status, doc = _http(f"{base}/studies/s1/spec")
        finally:
            server.shutdown()
            server.server_close()
        assert status == 200 and doc["name"] == "s1"
        rebuilt = StudySpec.from_metadata(doc["metadata"])
        assert rebuilt.seed == 7 and rebuilt.remote_slots == 2

    def test_lease_with_no_coordinator_grants_nothing(self):
        service = StudyService("memory://")
        server, base = _serve(service)
        try:
            status, grant = _http(
                f"{base}/lease", method="POST", payload={"worker": "w1"}
            )
            assert status == 200
            assert grant == {"study": None, "ttl_s": None, "items": []}
            # Results for a study nobody coordinates here are stale acks.
            service.submit(StudySpec(**SMALL), "s1")
            status, ack = _http(
                f"{base}/studies/s1/results",
                method="POST",
                payload={
                    "worker": "w1",
                    "results": [{"item": "trial-0", "tag": "ok", "value": [1.0, 2.0]}],
                },
            )
            assert status == 200 and ack == {"study": "s1", "accepted": 0, "stale": 1}
        finally:
            server.shutdown()
            server.server_close()

    def test_lease_and_results_validate_their_bodies(self):
        service = StudyService("memory://")
        service.submit(StudySpec(**SMALL), "s1")
        server, base = _serve(service)
        try:
            for path, payload in (
                ("/lease", {}),  # no worker id
                ("/studies/s1/results", {"worker": "w"}),  # no results list
                ("/studies/s1/results", {"results": []}),  # no worker id
            ):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _http(f"{base}{path}", method="POST", payload=payload)
                assert err.value.code == 400
        finally:
            server.shutdown()
            server.server_close()


def _coordinated(service, name="s1"):
    """A live work queue registered with ``service``, as run_study makes."""
    queue = LeasedWorkQueue(ttl=10.0)
    service.register_work_queue(name, queue)
    assert queue.on_ready == service.notify_work
    return queue


class _FakeTime:
    """Stands in for the worker module's ``time``: sleeping advances it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestLongPoll:
    """``POST /lease`` waits for work instead of the worker sleeping."""

    def test_work_queued_during_the_wait_is_granted_at_once(self):
        service = StudyService("memory://")
        queue = _coordinated(service)
        submitter = threading.Timer(0.2, queue.submit_trial, args=({"x": 1},))
        submitter.start()
        started = time.monotonic()
        grant = service.lease_work("w1", wait_s=30.0)
        elapsed = time.monotonic() - started
        submitter.join()
        assert grant["study"] == "s1"
        assert [item["params"] for item in grant["items"]] == [{"x": 1}]
        assert elapsed < 15.0  # woken by the submission, not the deadline

    def test_an_empty_long_poll_returns_after_its_wait(self):
        service = StudyService("memory://")
        _coordinated(service)
        started = time.monotonic()
        assert service.lease_work("w1", wait_s=0.2)["items"] == []
        assert time.monotonic() - started >= 0.2
        started = time.monotonic()
        assert service.lease_work("w1")["items"] == []  # no wait_s: no wait
        assert time.monotonic() - started < 0.2

    def test_long_poll_over_http(self):
        service = StudyService("memory://")
        queue = _coordinated(service)
        server, base = _serve(service)
        submitter = threading.Timer(0.2, queue.submit_trial, args=({"x": 2},))
        try:
            submitter.start()
            status, grant = _http(
                f"{base}/lease", method="POST", payload={"worker": "w1", "wait_s": 5.0}
            )
            assert status == 200 and grant["items"][0]["params"] == {"x": 2}
            with pytest.raises(urllib.error.HTTPError) as err:
                _http(
                    f"{base}/lease",
                    method="POST",
                    payload={"worker": "w1", "wait_s": "soon"},
                )
            assert err.value.code == 400
            started = time.monotonic()
            status, grant = _http(
                f"{base}/lease", method="POST", payload={"worker": "w1", "wait_s": -5}
            )
            assert grant["items"] == [] and time.monotonic() - started < 5.0
        finally:
            submitter.join()
            server.shutdown()
            server.server_close()

    def test_a_worker_hanging_up_mid_poll_is_not_a_server_error(self, capsys):
        service = StudyService("memory://")
        _coordinated(service)
        server, base = _serve(service)
        body = json.dumps({"worker": "w1", "wait_s": 0.3}).encode()
        head = (
            "POST /lease HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        try:
            with socket.create_connection(server.server_address[:2]) as sock:
                sock.sendall(head.encode() + body)
                time.sleep(0.1)  # the server is now holding the poll
                # Close with a reset, as a killed worker process does.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            time.sleep(0.6)  # the poll expires and its answer hits the reset
            status, _ = _http(f"{base}/lease", method="POST", payload={"worker": "w2"})
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
        assert "Traceback" not in capsys.readouterr().err

    def test_worker_asks_for_its_poll_interval(self, monkeypatch):
        client = RemoteWorkerClient("http://127.0.0.1:1", "w1", poll_s=0.25)
        sent = []
        monkeypatch.setattr(
            client, "_request", lambda method, path, payload=None: sent.append(payload) or {}
        )
        client._lease()
        assert sent == [{"worker": "w1", "limit": 1, "wait_s": 0.25}]

    def test_worker_sleeps_only_what_the_poll_did_not_hold(self, monkeypatch):
        fake = _FakeTime()
        monkeypatch.setattr(remote_worker, "time", fake)
        client = RemoteWorkerClient("http://127.0.0.1:1", "w1", poll_s=0.5)
        held = iter([0.5, 0.2, 0.0, 0.0])

        def lease():
            fake.now += next(held)
            return {"study": None, "items": []}

        monkeypatch.setattr(client, "_lease", lease)
        assert client.run(max_idle=4) == 0
        assert fake.sleeps == [0.0, pytest.approx(0.3), 0.5]


class TestRemoteParity:
    """Coordinator + in-thread HTTP workers == single-process front."""

    @pytest.mark.parametrize("speculate", [0, 2])
    def test_two_workers_front_is_bit_identical(self, speculate):
        pipeline = f"speculate={speculate}"
        reference = _reference_front(
            StudySpec(pipeline=pipeline, **SMALL), "ref"
        )

        service = StudyService("memory://")
        service.submit(
            StudySpec(remote_slots=2, lease_ttl=60.0, pipeline=pipeline, **SMALL),
            "dist",
        )
        server, base = _serve(service)
        coordinator = threading.Thread(target=service.worker_loop, daemon=True)
        coordinator.start()
        clients = [
            RemoteWorkerClient(base, f"w{i}", poll_s=0.05, lease_limit=2)
            for i in range(2)
        ]
        threads = [
            threading.Thread(target=c.run, kwargs={"max_idle": 100}, daemon=True)
            for c in clients
        ]
        for t in threads:
            t.start()
        coordinator.join(timeout=240)
        try:
            assert not coordinator.is_alive(), "coordinator did not finish"
            doc = service.status("dist")
            assert doc["service"]["state"] == "done"
            assert doc["leases"]["completed"] == SMALL["n_trials"]
            assert service.front("dist") == reference
        finally:
            server.shutdown()
            server.server_close()

    def test_racing_rung_items_lease_remotely_and_match(self):
        config = dict(
            sites=("houston", "berkeley"),
            n_hours=720,
            n_trials=10,
            population=5,
            seed=7,
            racing="rungs=1,full",
            pipeline="speculate=0",
        )
        reference = _reference_front(StudySpec(**config), "ref")

        service = StudyService("memory://")
        service.submit(StudySpec(remote_slots=2, lease_ttl=60.0, **config), "dist")
        server, base = _serve(service)
        coordinator = threading.Thread(target=service.worker_loop, daemon=True)
        coordinator.start()
        client = RemoteWorkerClient(base, "w0", poll_s=0.05, lease_limit=4)
        worker = threading.Thread(
            target=client.run, kwargs={"max_idle": 100}, daemon=True
        )
        worker.start()
        coordinator.join(timeout=240)
        try:
            assert not coordinator.is_alive(), "coordinator did not finish"
            assert service.status("dist")["service"]["state"] == "done"
            assert service.front("dist") == reference
        finally:
            server.shutdown()
            server.server_close()


#: remote worker subprocess that SIGKILLs itself after acking its Nth
#: result — the next evaluation is leased but never acknowledged, the
#: exact in-flight loss lease reclaim exists for
KILL_REMOTE_WORKER = textwrap.dedent(
    """
    import os, signal, sys
    from repro.service.remote_worker import RemoteWorkerClient

    base, worker_id, kill_after = sys.argv[1], sys.argv[2], int(sys.argv[3])
    client = RemoteWorkerClient(base, worker_id, poll_s=0.1, lease_limit=2)
    if kill_after:
        original = client._result
        count = 0

        def killing_result(study, result):
            global count
            count += 1
            if count > kill_after:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(study, result)

        client._result = killing_result
    client.run(max_idle=300)
    """
)


class TestKillARemoteWorker:
    @pytest.mark.parametrize("scheme", ["journal", "sqlite"])
    def test_sigkilled_worker_reclaims_to_identical_front_no_resume(
        self, tmp_path, scheme
    ):
        suffix = "jsonl" if scheme == "journal" else "db"
        svc_store = f"{scheme}://{tmp_path}/svc.{suffix}"
        reference_store = f"{tmp_path}/ref.{suffix}"

        # The single-process pipelined reference at the same (seed, speculate).
        assert (
            main(
                ["study", "run", "--storage", reference_store, "--site", "houston",
                 "--trials", "20", "--population", "10", "--seed", "7",
                 "--set", "scenario.n_hours=720", "--pipeline"]
            )
            == 0
        )

        service = StudyService(svc_store)
        server, base = _serve(service)
        coordinator = threading.Thread(target=service.worker_loop, daemon=True)
        procs = []
        try:
            # Short TTL so the dead worker's in-flight lease expires fast.
            _http(
                f"{base}/studies",
                method="POST",
                payload={
                    **SMALL, "sites": "houston", "name": "dist",
                    "remote_slots": 4, "lease_ttl": 2.0,
                },
            )
            coordinator.start()
            env = {**os.environ, "PYTHONPATH": SRC}

            def spawn(worker_id, kill_after):
                procs.append(
                    subprocess.Popen(
                        [sys.executable, "-c", KILL_REMOTE_WORKER,
                         base, worker_id, str(kill_after)],
                        env=env,
                    )
                )
                return procs[-1]

            # doomed is the only worker until it dies, so it must ack 3
            # results and SIGKILL itself holding a leased, unacked item;
            # only then does the survivor carry the study home alone.
            assert spawn("doomed", 3).wait(timeout=240) == -signal.SIGKILL
            spawn("survivor", 0)
            coordinator.join(timeout=240)
            assert not coordinator.is_alive(), "coordinator did not finish"

            doc = service.status("dist")
            assert doc["service"]["state"] == "done"
            assert doc["leases"]["completed"] == 20
            assert doc["leases"]["reclaimed"] >= 1  # the SIGKILL left a lease to reap
            assert "doomed" in doc["leases"]["workers"]
            final_front = service.front("dist")
        finally:
            server.shutdown()
            server.server_close()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

        from repro.blackbox import storage_from_url

        reference = storage_from_url(reference_store).load_study("houston-blackbox")
        assert final_front == front_csv(reference)
