"""Shared storage-contract suite: every backend, one set of semantics.

Parametrized over the in-memory, JSONL-journal, and SQLite backends
(DESIGN.md §7): whatever one backend guarantees — round-trip fidelity,
last-write-wins per trial number, tombstone resets, crash-durable
records (a real ``kill -9`` mid-run), resume-equivalence of the final
Pareto front — every backend must guarantee.  Sharded stores and the
merge operation are pinned against their single-store twins.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.blackbox import (
    InMemoryStorage,
    JournalStorage,
    NSGA2Sampler,
    RandomSampler,
    ShardedStorage,
    SQLiteStorage,
    TrialState,
    create_study,
    merge_stores,
    storage_from_url,
)
from repro.blackbox.storage import (
    discover_shards,
    open_study_storage,
    resolve_storage,
    shard_spec,
)
from repro.blackbox.trial import RACING_RUNG_ATTR, FrozenTrial
from repro.core.parameterspace import ParameterSpace
from repro.core.study_runner import OptimizationRunner
from repro.exceptions import OptimizationError

SMALL_SPACE = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=3)

BACKENDS = ["memory", "journal", "sqlite"]


class _Substrate:
    """One backend's data substrate: fresh instances over shared state."""

    def __init__(self, kind: str, tmp_path: Path):
        self.kind = kind
        self.persistent = kind != "memory"
        self._memory = InMemoryStorage()
        self._path = tmp_path / f"store.{'jsonl' if kind == 'journal' else 'db'}"

    def open(self):
        if self.kind == "memory":
            return self._memory  # process-local: "reopen" is the same dict
        if self.kind == "journal":
            return JournalStorage(self._path)
        return SQLiteStorage(self._path)


@pytest.fixture(params=BACKENDS)
def substrate(request, tmp_path) -> _Substrate:
    return _Substrate(request.param, tmp_path)


def objective(trial):
    x = trial.suggest_float("x", -1.0, 1.0)
    k = trial.suggest_int("k", 0, 5)
    return x * x + k


class TestContract:
    def test_round_trip_through_driver(self, substrate):
        storage = substrate.open()
        study = create_study(
            direction="minimize",
            sampler=RandomSampler(seed=1),
            study_name="s",
            storage=storage,
            metadata={"site": "houston", "n_trials": 5},
        )
        study.optimize(objective, n_trials=5)

        stored = substrate.open().load_study("s")
        assert stored is not None
        assert stored.directions == ["minimize"]
        assert stored.metadata == {"site": "houston", "n_trials": 5}
        assert [t.number for t in stored.finished_trials()] == list(range(5))
        assert [t.params for t in stored.finished_trials()] == [
            t.params for t in study.trials
        ]
        assert [t.values for t in stored.finished_trials()] == [
            t.values for t in study.trials
        ]

    def test_duplicate_create_raises(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        with pytest.raises(OptimizationError, match="already exists"):
            substrate.open().create_study("s", ["minimize"], {})

    def test_unknown_study_loads_none(self, substrate):
        assert substrate.open().load_study("nope") is None

    def test_multiple_studies(self, substrate):
        storage = substrate.open()
        for name in ("a", "b"):
            storage.create_study(name, ["minimize"], {})
            storage.record_trial_finish(
                name, FrozenTrial(number=0, state=TrialState.COMPLETE, values=(1.0,))
            )
        assert substrate.open().study_names() == ["a", "b"]

    def test_last_write_wins_per_number(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        storage.record_trial_finish(
            "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(1.0,))
        )
        storage.record_trial_finish(
            "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(2.0,))
        )
        stored = substrate.open().load_study("s")
        assert len(stored.trials) == 1
        assert stored.trials[0].values == (2.0,)

    def test_start_after_finish_resets_to_running(self, substrate):
        # The tombstone move resume-renumbering relies on: a bare start
        # record written after a finish makes the number replay as
        # RUNNING, which the next resume discards.
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        storage.record_trial_finish(
            "s", FrozenTrial(number=3, state=TrialState.COMPLETE, values=(1.0,))
        )
        storage.record_trial_start("s", FrozenTrial(number=3))
        stored = substrate.open().load_study("s")
        assert stored.trials_by_number[3].state == TrialState.RUNNING
        assert stored.finished_trials() == []

    def test_pruned_trial_keeps_params_and_reports(self, substrate):
        # Racing's pruned trials carry their per-rung partial values as
        # intermediate reports; every backend must hand them back.
        study = create_study(
            storage=substrate.open(), study_name="s", sampler=RandomSampler(seed=5)
        )

        def reporting(trial):
            x = trial.suggest_float("x", -1.0, 1.0)
            trial.report(x, step=0)
            trial.report(2.0 * x, step=3)
            if trial.number == 1:
                trial.prune()
            return x * x

        study.optimize(reporting, n_trials=3)
        stored = substrate.open().load_study("s")
        assert [t.state for t in stored.trials] == [
            TrialState.COMPLETE, TrialState.PRUNED, TrialState.COMPLETE
        ]
        for live, loaded in zip(study.trials, stored.trials):
            assert loaded.params == live.params
            assert loaded.intermediate == live.intermediate
            assert set(loaded.intermediate) == {0, 3}
        assert stored.trials[1].values is None

    def test_attrs_and_failed_state_round_trip(self, substrate):
        study = create_study(
            storage=substrate.open(), study_name="s", sampler=RandomSampler(seed=6)
        )

        def tagged(trial):
            trial.suggest_int("k", 0, 5)
            trial.set_user_attr("tag", ["a", 1])
            trial.set_system_attr(RACING_RUNG_ATTR, 2)
            if trial.number == 0:
                raise ValueError("boom")
            return 1.0

        study.optimize(tagged, n_trials=2, catch=(ValueError,))
        stored = substrate.open().load_study("s")
        assert [t.state for t in stored.trials] == [
            TrialState.FAILED, TrialState.COMPLETE
        ]
        for loaded in stored.trials:
            assert loaded.user_attrs == {"tag": ["a", 1]}
            assert loaded.system_attrs[RACING_RUNG_ATTR] == 2

    def test_loaded_trials_do_not_alias(self, substrate):
        storage = substrate.open()
        study = create_study(storage=storage, study_name="s", sampler=RandomSampler(seed=2))
        study.optimize(objective, n_trials=2)
        loaded = storage.load_study("s")
        loaded.trials[0].params["x"] = 999.0
        assert storage.load_study("s").trials[0].params["x"] != 999.0

    def test_persists_across_instances(self, substrate):
        if not substrate.persistent:
            pytest.skip("memory backend is process-local by design")
        with substrate.open() as storage:
            study = create_study(
                storage=storage, study_name="s", sampler=RandomSampler(seed=3)
            )
            study.optimize(objective, n_trials=3)
        reloaded = substrate.open().load_study("s")
        assert [t.values for t in reloaded.finished_trials()] == [
            t.values for t in study.trials
        ]

    def test_load_if_exists_resumes_numbering(self, substrate):
        first = create_study(
            storage=substrate.open(), study_name="s", sampler=RandomSampler(seed=4)
        )
        first.optimize(objective, n_trials=4)
        resumed = create_study(
            storage=substrate.open(),
            study_name="s",
            sampler=RandomSampler(seed=4),
            load_if_exists=True,
        )
        assert [t.number for t in resumed.trials] == [0, 1, 2, 3]
        resumed.optimize(objective, n_trials=2)
        assert len(substrate.open().load_study("s").finished_trials()) == 6


class TestResumeEquivalence:
    """A killed-and-resumed NSGA-II study reaches the identical final
    front as an uninterrupted run — on every backend."""

    N_TRIALS = 40
    POP = 10

    def _run(self, scenario, storage, n_trials, load_if_exists=False):
        return OptimizationRunner(scenario, space=SMALL_SPACE).run_blackbox(
            n_trials=n_trials,
            sampler=NSGA2Sampler(population_size=self.POP, seed=42),
            storage=storage,
            study_name="resume-eq",
            load_if_exists=load_if_exists,
        )

    def test_resumed_front_identical(self, houston_month, substrate):
        if not substrate.persistent:
            pytest.skip("resume across processes needs a persistent backend")
        full_substrate = _Substrate(substrate.kind, substrate._path.parent / "full")
        full_substrate._path.parent.mkdir(exist_ok=True)
        full = self._run(houston_month, full_substrate.open(), self.N_TRIALS)

        self._run(houston_month, substrate.open(), 15)  # killed mid-gen 2
        resumed = self._run(
            houston_month, substrate.open(), self.N_TRIALS, load_if_exists=True
        )
        assert [t.params for t in resumed.study.trials] == [
            t.params for t in full.study.trials
        ]
        assert [t.values for t in resumed.study.trials] == [
            t.values for t in full.study.trials
        ]


KILL_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.blackbox import RandomSampler, create_study

    spec, kill_after = sys.argv[1], int(sys.argv[2])
    study = create_study(
        direction="minimize", sampler=RandomSampler(seed=9),
        study_name="k", storage=spec,
    )
    study.sampler.per_trial_seeding = True  # the resume-reproducible mode
    done = 0

    def objective(trial):
        global done
        x = trial.suggest_float("x", -1.0, 1.0)
        k = trial.suggest_int("k", 0, 5)
        if done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)  # the real thing
        done += 1
        return x * x + k

    study.optimize(objective, n_trials=100)
    """
)


class TestKillDashNine:
    """A genuine ``kill -9`` mid-run: the process dies inside an
    objective, after start records were committed; the surviving records
    must replay cleanly and resume must re-ask the lost trials."""

    @pytest.mark.parametrize("kind", ["journal", "sqlite"])
    def test_sigkill_survivors_replay_and_resume(self, tmp_path, kind):
        spec = str(tmp_path / ("k.jsonl" if kind == "journal" else "k.db"))
        script = tmp_path / "child.py"
        script.write_text(KILL_CHILD)
        kill_after = 7
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), spec, str(kill_after)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        stored = storage_from_url(spec).load_study("k")
        assert stored is not None
        finished = stored.finished_trials()
        assert len(finished) == kill_after
        # The in-flight trial left a committed start record but no finish.
        assert stored.trials_by_number[kill_after].state == TrialState.RUNNING

        # Resume re-asks the lost number and runs to the full target; the
        # per-trial RNG streams make the draws identical to an
        # uninterrupted run of the same seeded study.
        resumed = create_study(
            direction="minimize",
            sampler=RandomSampler(seed=9),
            study_name="k",
            storage=spec,
            load_if_exists=True,
        )
        resumed.sampler.per_trial_seeding = True
        assert len(resumed.trials) == kill_after
        resumed.optimize(objective, n_trials=12 - len(resumed.trials))

        reference = create_study(
            direction="minimize", sampler=RandomSampler(seed=9), study_name="ref"
        )
        reference.sampler.per_trial_seeding = True
        reference.optimize(objective, n_trials=12)
        assert [t.params for t in resumed.trials] == [
            t.params for t in reference.trials
        ]


class TestShardedStorage:
    def _drive(self, storage, seed=5, n=9):
        study = create_study(
            direction="minimize",
            sampler=RandomSampler(seed=seed),
            study_name="s",
            storage=storage,
            metadata={"n_trials": n},
        )
        study.sampler.per_trial_seeding = True
        study.optimize(objective, n_trials=n)
        return study

    def test_routes_by_number_and_unions_on_load(self, tmp_path):
        shards = [JournalStorage(tmp_path / f"s.jsonl.shard{i}") for i in range(3)]
        storage = ShardedStorage(shards)
        self._drive(storage)
        # Trial n lives in shard n % W — and only there.
        for i, shard in enumerate(shards):
            numbers = sorted(shard.load_study("s").trials_by_number)
            assert numbers == [n for n in range(9) if n % 3 == i]
        merged = storage.load_study("s")
        assert sorted(merged.trials_by_number) == list(range(9))
        assert merged.metadata == {"n_trials": 9}

    def test_sharded_equals_single_store(self, tmp_path):
        single = self._drive(JournalStorage(tmp_path / "single.jsonl"))
        sharded = self._drive(
            ShardedStorage(
                [SQLiteStorage(tmp_path / f"s.db.shard{i}") for i in range(2)]
            )
        )
        assert [t.params for t in single.trials] == [t.params for t in sharded.trials]
        assert [t.values for t in single.trials] == [t.values for t in sharded.trials]

    def test_merge_matches_single_store_front(self, tmp_path):
        self._drive(JournalStorage(tmp_path / "single.jsonl"))
        shards = [SQLiteStorage(tmp_path / f"m.db.shard{i}") for i in range(2)]
        self._drive(ShardedStorage(shards))

        dest = SQLiteStorage(tmp_path / "merged.db")
        merged = merge_stores(shards, dest)
        single = JournalStorage(tmp_path / "single.jsonl").load_study("s")
        assert [t.params for t in merged.finished_trials()] == [
            t.params for t in single.finished_trials()
        ]
        assert [t.values for t in merged.finished_trials()] == [
            t.values for t in single.finished_trials()
        ]
        assert merged.metadata == single.metadata

    def test_merge_renumbers_across_gaps(self, tmp_path):
        shards = [InMemoryStorage(), InMemoryStorage()]
        for shard in shards:
            shard.create_study("s", ["minimize"], {"shards": 2})
        # Shard 0 holds finished 0 and an in-flight 2; shard 1 holds 1.
        shards[0].record_trial_finish(
            "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(1.0,))
        )
        shards[1].record_trial_finish(
            "s", FrozenTrial(number=1, state=TrialState.COMPLETE, values=(2.0,))
        )
        shards[0].record_trial_start("s", FrozenTrial(number=2))

        merged = merge_stores(shards, InMemoryStorage())
        assert [(t.number, t.values) for t in merged.trials] == [
            (0, (1.0,)),
            (1, (2.0,)),
        ]
        assert merged.metadata == {}  # the shards key does not survive a merge

    def test_merge_refuses_existing_destination(self, tmp_path):
        src = InMemoryStorage()
        src.create_study("s", ["minimize"], {})
        dest = InMemoryStorage()
        dest.create_study("s", ["minimize"], {})
        with pytest.raises(OptimizationError, match="destination"):
            merge_stores([src], dest)

    def test_merge_requires_unambiguous_name(self):
        src = InMemoryStorage()
        src.create_study("a", ["minimize"], {})
        src.create_study("b", ["minimize"], {})
        with pytest.raises(OptimizationError, match="study_name"):
            merge_stores([src], InMemoryStorage())


class TestRegistry:
    def test_scheme_resolution(self, tmp_path):
        assert isinstance(storage_from_url("memory://"), InMemoryStorage)
        j = storage_from_url(f"journal:///{tmp_path}/s.jsonl")
        assert isinstance(j, JournalStorage)
        s = storage_from_url(f"sqlite:///{tmp_path}/s.db")
        assert isinstance(s, SQLiteStorage)

    def test_sqlalchemy_style_paths(self):
        assert str(storage_from_url("journal:///rel.jsonl").path) == "rel.jsonl"
        assert str(storage_from_url("sqlite:////abs/s.db").path) == "/abs/s.db"

    def test_bare_path_extension_dispatch(self, tmp_path):
        assert isinstance(storage_from_url(tmp_path / "s.jsonl"), JournalStorage)
        assert isinstance(storage_from_url(tmp_path / "s.db"), SQLiteStorage)
        assert isinstance(storage_from_url(tmp_path / "s.sqlite3"), SQLiteStorage)
        # Shard files keep the parent store's backend.
        assert isinstance(storage_from_url(tmp_path / "s.db.shard0"), SQLiteStorage)
        assert isinstance(storage_from_url(tmp_path / "s.jsonl.shard1"), JournalStorage)

    def test_unknown_scheme_raises(self):
        with pytest.raises(OptimizationError, match="unknown storage scheme"):
            storage_from_url("redis://s")

    def test_resolve_passthrough_and_none(self):
        backend = InMemoryStorage()
        assert resolve_storage(backend) is backend
        assert resolve_storage(None) is None
        with pytest.raises(OptimizationError, match="spec string"):
            resolve_storage(backend, shards=2)

    def test_resolve_shards(self, tmp_path):
        sharded = resolve_storage(str(tmp_path / "s.db"), shards=3)
        assert isinstance(sharded, ShardedStorage)
        assert [str(s.path) for s in sharded.shards] == [
            str(tmp_path / f"s.db.shard{i}") for i in range(3)
        ]
        assert all(isinstance(s, SQLiteStorage) for s in sharded.shards)

    def test_create_study_accepts_spec_strings(self, tmp_path):
        spec = f"sqlite:///{tmp_path}/via-url.db"
        study = create_study(storage=spec, study_name="s", sampler=RandomSampler(seed=6))
        study.optimize(objective, n_trials=2)
        assert len(storage_from_url(spec).load_study("s").finished_trials()) == 2

    def test_shard_discovery(self, tmp_path):
        base = str(tmp_path / "d.jsonl")
        storage = resolve_storage(base, shards=2)
        storage.create_study("s", ["minimize"], {"shards": 2})
        storage.record_trial_finish(
            "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(1.0,))
        )
        assert discover_shards(base) == 2
        assert shard_spec(base, 0) == base + ".shard0"
        reopened = open_study_storage(base)
        assert isinstance(reopened, ShardedStorage)
        assert len(reopened.load_study("s").finished_trials()) == 1


class TestUpdateMetadata:
    def test_update_replaces_and_persists(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {"n_trials": 10})
        storage.update_metadata("s", {"n_trials": 10, "batch": 4})
        assert substrate.open().load_study("s").metadata == {
            "n_trials": 10,
            "batch": 4,
        }

    def test_update_unknown_study_raises(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        with pytest.raises(OptimizationError, match="unknown study"):
            storage.update_metadata("nope", {"batch": 4})

    def test_journal_compaction_folds_meta_ops_into_create(self, tmp_path):
        storage = JournalStorage(tmp_path / "j.jsonl")
        storage.create_study("s", ["minimize"], {"n_trials": 10})
        storage.update_metadata("s", {"n_trials": 10, "batch": 4})
        before, after = storage.compact()
        assert before == 2 and after == 1
        assert JournalStorage(tmp_path / "j.jsonl").load_study("s").metadata == {
            "n_trials": 10,
            "batch": 4,
        }

    def test_sharded_update_reaches_every_shard(self, tmp_path):
        shards = [InMemoryStorage(), InMemoryStorage()]
        storage = ShardedStorage(shards)
        storage.create_study("s", ["minimize"], {})
        storage.update_metadata("s", {"batch": 4})
        for shard in shards:  # each shard file stays self-describing
            assert shard.load_study("s").metadata == {"batch": 4}


class TestJournalStaleAppendHandle:
    def test_append_survives_concurrent_compaction(self, tmp_path):
        # Writer A holds an open append handle; another instance
        # compacts (atomic-replaces) the file.  A's next append must
        # land in the *new* inode, not the unlinked old one.
        path = tmp_path / "j.jsonl"
        writer = JournalStorage(path)
        writer.create_study("s", ["minimize"], {})
        for value in (1.0, 2.0):
            writer.record_trial_finish(
                "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(value,))
            )
        JournalStorage(path).compact()
        writer.record_trial_finish(
            "s", FrozenTrial(number=1, state=TrialState.COMPLETE, values=(3.0,))
        )
        stored = JournalStorage(path).load_study("s")
        assert stored.trials_by_number[0].values == (2.0,)
        assert stored.trials_by_number[1].values == (3.0,)


class TestFidelityLadderContract:
    """The fidelity ladder spec (DESIGN.md §11) is resume identity, like
    the racing schedule: persisted in study metadata on every backend,
    round-tripping bit-exactly, and enforced with a hard error when a
    resume names a different (or no) ladder."""

    def _run(self, scenario, storage, n_trials, load=False, fidelity="fidelity=lo,full"):
        return OptimizationRunner(scenario, space=SMALL_SPACE, fidelity=fidelity).run_blackbox(
            n_trials=n_trials,
            sampler=NSGA2Sampler(population_size=10, seed=42),
            storage=storage,
            study_name="laddered",
            load_if_exists=load,
        )

    def test_ladder_persists_and_mismatch_is_hard_error(self, houston_month, substrate):
        self._run(houston_month, substrate.open(), 10)
        if substrate.persistent:
            stored = substrate.open().load_study("laddered")
            assert stored.metadata["fidelity"] == "fidelity=lo,full"
        for wrong in (None, "fidelity=lo,mid,full", "fidelity=lo,full,margin=0.9"):
            with pytest.raises(OptimizationError, match="fidelity"):
                self._run(houston_month, substrate.open(), 20, load=True, fidelity=wrong)
        # the identical ladder resumes cleanly
        resumed = self._run(houston_month, substrate.open(), 20, load=True)
        assert len(resumed.study.trials) == 20

    def test_ladder_cannot_be_added_on_resume(self, houston_month, substrate):
        self._run(houston_month, substrate.open(), 10, fidelity=None)
        with pytest.raises(OptimizationError, match="fidelity"):
            self._run(houston_month, substrate.open(), 20, load=True)
