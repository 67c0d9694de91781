"""The StudySpec identity seam (repro.core.study_spec, DESIGN.md §12).

The spec is the one place the full search identity lives: its
``to_metadata()``/``from_metadata()`` round-trip is what every driver
persists and every resume replays, and ``check_resume_identity`` is the
*single* validator every driver (batched, pipelined, remote) routes
through — so these tests also pin, by scanning the
source tree, that the historical per-driver copies stay deleted.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.study_spec import (
    RESUME_REQUIRED_KEYS,
    StudySpec,
    check_resume_identity,
)
from repro.exceptions import OptimizationError

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestRoundTrip:
    def test_plain_spec_round_trips_through_metadata(self):
        spec = StudySpec(sites=("houston",), n_hours=720, n_trials=40, seed=9)
        assert StudySpec.from_metadata(spec.to_metadata()) == spec

    def test_full_spec_round_trips_through_metadata(self):
        spec = StudySpec(
            sites=("berkeley", "houston"),
            year=2024,
            n_hours=2160,
            policy="tou_arbitrage",
            aggregate="cvar:0.25",
            n_trials=60,
            population=20,
            seed=3,
            ensemble="years=2020-2023,growth=1.0:1.3",
            racing="rungs=2,8,full",
            fidelity="fidelity=lo,full",
            pipeline="speculate=4",
            shards=2,
        )
        restored = StudySpec.from_metadata(spec.to_metadata())
        assert restored == spec
        # And the round-trip is a fixed point, not merely an equivalence.
        assert restored.to_metadata() == spec.to_metadata()

    def test_spec_strings_normalize_to_canonical_forms(self):
        spec = StudySpec(sites="Berkeley, Houston", racing="rungs=2,8,full")
        assert spec.sites == ("berkeley", "houston")
        assert spec.racing == "rungs=2,8,full"
        assert spec.default_name == "berkeley-houston-blackbox"

    def test_pipeline_spec_normalizes_and_exposes_speculate(self):
        spec = StudySpec(pipeline="speculate=3")
        assert spec.pipeline == "speculate=3"
        assert spec.speculate == 3
        assert StudySpec().speculate is None

    def test_cli_metadata_shape_is_preserved(self):
        # Key-compatibility with what cmd_study_run historically wrote:
        # optional features are *absent*, not None, and no dispatch
        # engine is persisted (the dispatch path is chosen per call).
        md = StudySpec(sites=("houston",)).to_metadata()
        assert md["site"] == "houston" and md["sites"] == ["houston"]
        for key in ("ensemble", "racing", "fidelity", "pipeline", "engine", "shards"):
            assert key not in md

    def test_invalid_specs_fail_on_construction(self):
        with pytest.raises(OptimizationError, match="policy"):
            StudySpec(policy="nope")
        with pytest.raises(OptimizationError, match="n_trials"):
            StudySpec(n_trials=0)
        with pytest.raises(Exception):
            StudySpec(aggregate="cvar:nope")


    @pytest.mark.parametrize("shards", [0, -3])
    def test_shards_below_one_are_rejected(self, shards):
        with pytest.raises(OptimizationError, match="shards must be >= 1"):
            StudySpec(shards=shards)

    @pytest.mark.parametrize("batch", [5, 0, -3])
    def test_batch_is_not_a_spec_field(self, batch):
        """The batch is the population: a spec cannot name another one."""
        with pytest.raises(TypeError, match="batch"):
            StudySpec(population=10, batch=batch)


class TestFromMetadata:
    def test_missing_keys_are_all_named(self):
        with pytest.raises(OptimizationError) as err:
            StudySpec.from_metadata({"site": "houston"}, source="legacy.db")
        message = str(err.value)
        assert "legacy.db" in message
        for key in RESUME_REQUIRED_KEYS:
            if key != "site":
                assert f"'{key}'" in message

    def test_trials_override_waives_n_trials_and_takes_its_place(self):
        md = StudySpec(sites=("houston",), n_trials=30).to_metadata()
        del md["n_trials"]
        with pytest.raises(OptimizationError, match="n_trials"):
            StudySpec.from_metadata(md)
        spec = StudySpec.from_metadata(md, trials_override=50)
        assert spec.n_trials == 50

    def test_site_fallback_when_sites_list_is_absent(self):
        md = StudySpec(sites=("berkeley",)).to_metadata()
        del md["sites"]
        assert StudySpec.from_metadata(md).sites == ("berkeley",)


class TestCheckResumeIdentity:
    PERSISTED = {"racing": "rungs=2,8,full", "batch": 50, "seed": 7}

    def test_matching_identity_passes(self):
        check_resume_identity(
            "s", self.PERSISTED, {"racing": "rungs=2,8,full", "batch": 50}
        )

    def test_racing_mismatch_names_key_values_and_reason(self):
        with pytest.raises(OptimizationError, match="racing") as err:
            check_resume_identity("s", self.PERSISTED, {"racing": None})
        assert "rungs=2,8,full" in str(err.value)
        assert "<none>" in str(err.value)
        assert "rung schedule" in str(err.value)

    def test_batch_keeps_its_historical_label_and_leniency(self):
        # The batch key is lenient when either side is unpinned ...
        check_resume_identity("s", {}, {"batch": 40})
        check_resume_identity("s", self.PERSISTED, {"batch": None})
        # ... and its error message keeps the batch/population label the
        # serial driver always printed.
        with pytest.raises(OptimizationError, match="batch/population"):
            check_resume_identity("s", self.PERSISTED, {"batch": 40})

    def test_json_round_tripped_numbers_compare_equal(self):
        check_resume_identity("s", {"seed": "7", "batch": 50.0}, {"seed": 7, "batch": 50})

    def test_validate_resume_covers_the_full_identity(self):
        spec = StudySpec(sites=("houston",), n_hours=720)
        persisted = spec.to_metadata()
        spec.validate_resume(persisted)
        with pytest.raises(OptimizationError, match="seed"):
            spec.replaced(seed=99).validate_resume(persisted)
        with pytest.raises(OptimizationError, match="fidelity"):
            spec.replaced(fidelity="fidelity=lo,full").validate_resume(persisted)
        with pytest.raises(OptimizationError, match="pipeline"):
            spec.replaced(pipeline="speculate=2").validate_resume(persisted)


class TestSingleValidatorProof:
    """Grep-level acceptance: the divergent validators stay deleted."""

    def _sources(self):
        return {p: p.read_text() for p in SRC.rglob("*.py")}

    def test_require_resume_metadata_is_gone(self):
        for path, text in self._sources().items():
            assert "_require_resume_metadata" not in text, path

    def test_identity_mismatch_text_exists_in_exactly_one_module(self):
        # 'was persisted with <key>=' is the validator's fingerprint: it
        # must appear in study_spec.py and nowhere else in the library
        # (the study layer's *directions* check is a different contract
        # and deliberately not part of the key validator).
        hits = [
            path
            for path, text in self._sources().items()
            if re.search(r"was persisted with [\w/{}]+=", text)
        ]
        assert hits == [SRC / "core" / "study_spec.py"], hits

    def test_drivers_route_through_the_shared_validator(self):
        sources = self._sources()
        for rel in ("core/study_runner.py", "blackbox/parallel.py"):
            assert "check_resume_identity" in sources[SRC / rel], rel
        # And neither driver hand-rolls a racing/fidelity/pipeline
        # mismatch error anymore.
        for rel in ("core/study_runner.py", "blackbox/parallel.py", "cli.py"):
            text = sources[SRC / rel]
            assert not re.search(r"raise \w+Error\([^)]*resumed with", text, re.S), rel


class _RecordingRunner:
    """Stands in for ``OptimizationRunner``: records which driver
    ``StudySpec.execute`` picked and with what, and runs nothing."""

    def __init__(self):
        self.calls = []

    def run_pipelined(self, **kwargs):
        self.calls.append(("pipelined", kwargs))

    def run_blackbox(self, **kwargs):
        self.calls.append(("batched", kwargs))


class TestExecuteWorkers:
    """``StudySpec.execute`` validates ``workers`` once, before building
    anything, and sizes the pipelined driver's pool from it."""

    @pytest.mark.parametrize(
        "pipeline, workers, message",
        [
            (None, 0, "workers must be >= 1, got 0"),
            ("speculate=0", 0, "workers must be >= 1, got 0"),
            (None, -2, "workers must be >= 1, got -2"),
            (None, 2, "needs --pipeline"),
        ],
    )
    def test_bad_workers_raise_before_any_scenario_build(
        self, tmp_path, monkeypatch, pipeline, workers, message
    ):
        def no_build(self):
            raise AssertionError("execute built a runner for bad workers")

        monkeypatch.setattr(StudySpec, "build_runner", no_build)
        storage = tmp_path / "s.jsonl"
        spec = StudySpec(sites=("houston",), n_hours=48, pipeline=pipeline)
        with pytest.raises(OptimizationError, match=message):
            spec.execute(str(storage), workers=workers)
        assert not storage.exists()

    @pytest.mark.parametrize(
        "pipeline, workers, driver, executor",
        [
            (None, 1, "batched", None),
            ("speculate=0", 1, "pipelined", "thread"),
            ("speculate=0", 2, "pipelined", "process"),
        ],
    )
    def test_workers_pick_the_driver_and_its_pool(
        self, monkeypatch, pipeline, workers, driver, executor
    ):
        runner = _RecordingRunner()
        monkeypatch.setattr(StudySpec, "build_runner", lambda self: runner)
        spec = StudySpec(sites=("houston",), n_hours=48, pipeline=pipeline)
        spec.execute("unused.jsonl", workers=workers)
        [(picked, kwargs)] = runner.calls
        assert picked == driver
        if driver == "pipelined":
            assert kwargs["workers"] == workers
            assert kwargs["executor"] == executor
        else:
            assert "workers" not in kwargs and "executor" not in kwargs

    def test_executor_object_admits_workers_without_pipeline(self, monkeypatch):
        runner = _RecordingRunner()
        monkeypatch.setattr(StudySpec, "build_runner", lambda self: runner)
        queue = object()
        StudySpec(sites=("houston",), n_hours=48).execute(
            "unused.jsonl", workers=3, executor=queue
        )
        [(picked, kwargs)] = runner.calls
        assert picked == "pipelined"
        assert kwargs["executor"] is queue and kwargs["workers"] == 3


class TestOldCliPathResumesThroughSpec:
    """A study persisted by `repro study run` resumes through
    StudySpec.from_metadata to the bit-identical front."""

    OVERRIDES = ["--set", "scenario.n_hours=720"]

    def _run(self, spec, trials):
        return main(
            ["study", "run", "--storage", spec, "--site", "houston",
             "--trials", str(trials), "--population", "10", "--seed", "7",
             *self.OVERRIDES]
        )

    def test_spec_resume_matches_uninterrupted_cli_front(self, tmp_path):
        from repro.blackbox import storage_from_url
        from repro.service import front_csv

        full = str(tmp_path / "full.jsonl")
        killed = str(tmp_path / "killed.jsonl")
        assert self._run(full, trials=30) == 0
        assert self._run(killed, trials=15) == 0

        storage = storage_from_url(killed)
        stored = storage.load_study("houston-blackbox")
        # The driver persists the population as ``batch``; from_metadata
        # leaves that key to the driver, which checks it on resume.
        assert stored.metadata["batch"] == 10
        spec = StudySpec.from_metadata(stored.metadata, trials_override=30)
        spec.validate_resume(stored.metadata)
        spec.execute(storage, "houston-blackbox", load_if_exists=True)

        reference = storage_from_url(full).load_study("houston-blackbox")
        resumed = storage.load_study("houston-blackbox")
        assert len(resumed.trials) == 30
        assert front_csv(resumed) == front_csv(reference)

    @pytest.mark.parametrize("engine", ["loop", "segments", "njit"])
    def test_stored_engine_key_is_ignored_on_resume(self, tmp_path, engine):
        """Older stores carry the ``engine`` a spec was run with; it was
        never identity, so `repro study resume` ignores it and reaches
        the uninterrupted front."""
        from repro.blackbox import storage_from_url
        from repro.service import front_csv

        full = str(tmp_path / "full.jsonl")
        killed = str(tmp_path / "killed.jsonl")
        assert self._run(full, trials=30) == 0
        assert self._run(killed, trials=15) == 0
        with storage_from_url(killed) as storage:
            plain = storage.load_study("houston-blackbox").metadata
            storage.update_metadata("houston-blackbox", {**plain, "engine": engine})
            stored = storage.load_study("houston-blackbox").metadata
        assert stored["engine"] == engine
        assert StudySpec.from_metadata(stored) == StudySpec.from_metadata(plain)
        assert main(["study", "resume", "--storage", killed, "--trials", "30"]) == 0

        reference = storage_from_url(full).load_study("houston-blackbox")
        resumed = storage_from_url(killed).load_study("houston-blackbox")
        assert len(resumed.trials) == 30
        assert front_csv(resumed) == front_csv(reference)
