"""Command-line interface (repro.cli)."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_site_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "--site", "atlantis"])

    def test_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.trials == 350 and args.population == 50


class TestCommands:
    """Run the real commands against the small-but-real Houston scenario
    (overridden to 60 days so the suite stays fast)."""

    OVERRIDES = ["--set", "scenario.n_hours=1440"]

    def test_table(self, capsys):
        assert main(["table", "--site", "houston", *self.OVERRIDES]) == 0
        out = capsys.readouterr().out
        assert "Wind (MW)" in out
        assert "houston" in out

    def test_pareto_with_csv(self, tmp_path, capsys):
        csv = tmp_path / "front.csv"
        assert main(["pareto", "--site", "houston", "--csv", str(csv), *self.OVERRIDES]) == 0
        assert csv.exists()
        assert "embodied" in capsys.readouterr().out

    def test_projection(self, capsys):
        assert main(["projection", "--site", "houston", "--years", "10", *self.OVERRIDES]) == 0
        out = capsys.readouterr().out
        assert "tCO2" in out

    def test_coverage(self, capsys):
        assert main(["coverage", "--site", "houston", *self.OVERRIDES]) == 0
        assert "coverage [%]" in capsys.readouterr().out

    def test_search(self, capsys):
        assert (
            main(
                [
                    "search", "--site", "houston", "--trials", "40",
                    "--population", "10", "--seed", "1", *self.OVERRIDES,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "recovery" in out and "speed-up" in out
        # Both ratios: the count-based one and the measured wall-clock one.
        count, measured, exhaustive_s, search_s = re.search(
            r"speed-up ([\d.]+)x \(\d+ / unique simulations\), measured ([\d.]+)x "
            r"\(exhaustive ([\d.]+) s / search ([\d.]+) s\)",
            out,
        ).groups()
        assert float(count) > 0 and float(measured) >= 0
        assert float(exhaustive_s) >= 0 and float(search_s) >= 0

    def test_report(self, capsys):
        assert main(["report", "--site", "houston", *self.OVERRIDES]) == 0
        assert "Candidate solutions" in capsys.readouterr().out

    def test_all_writes_artifacts(self, tmp_path, capsys):
        assert (
            main(["all", "--output-dir", str(tmp_path / "art"), *self.OVERRIDES]) == 0
        )
        names = {p.name for p in (tmp_path / "art").iterdir()}
        assert {"table_houston.txt", "table_berkeley.txt"} <= names
        assert {"fig2_pareto_houston.csv", "fig3_projection_berkeley.csv",
                "fig4_coverage_houston.csv"} <= names

    def test_mean_power_override(self, capsys):
        assert (
            main(
                ["table", "--site", "houston", "--set", "scenario.n_hours=720",
                 "--set", "scenario.mean_power_mw=3.24"]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Doubling the load roughly doubles baseline daily emissions.
        assert "31" in out or "30" in out


def _stored_front(spec, name):
    """(front key, params, values) of a persisted study's completed trials."""
    from repro.blackbox import storage_from_url
    from repro.blackbox.multiobjective import pareto_front_indices
    from repro.blackbox.trial import TrialState

    import numpy as np

    stored = storage_from_url(spec).load_study(name)
    completed = [t for t in stored.trials if t.state == TrialState.COMPLETE]
    values = np.array([t.values for t in completed])
    front = pareto_front_indices(values)
    return (
        sorted(tuple(sorted(completed[i].params.items())) for i in front),
        [t.params for t in completed],
        [t.values for t in completed],
    )


class TestStudyStorageCli:
    """The storage subsystem behind the CLI: URL specs, sqlite resume,
    compaction, shard merge, fail-loud metadata (DESIGN.md §7)."""

    OVERRIDES = ["--set", "scenario.n_hours=720"]

    def _run(self, spec, trials, extra=()):
        return main(
            ["study", "run", "--storage", spec, "--site", "houston",
             "--trials", str(trials), "--population", "10", "--seed", "7",
             *extra, *self.OVERRIDES]
        )

    def test_sqlite_kill_and_resume_reproduces_the_front(self, tmp_path, capsys):
        full = str(tmp_path / "full.db")
        killed = str(tmp_path / "killed.db")
        assert self._run(full, trials=30) == 0
        # The "kill": an identically-seeded run that only reached 15
        # trials (what kill -9 leaves: fewer trials than the target).
        assert self._run(killed, trials=15) == 0
        assert (
            main(["study", "resume", "--storage", killed, "--trials", "30"]) == 0
        )
        assert _stored_front(full, "houston-blackbox") == _stored_front(
            killed, "houston-blackbox"
        )

    def test_resume_fails_loudly_on_missing_metadata(self, tmp_path):
        # A store written by a pre-contract driver: no persisted search
        # parameters.  Resuming must name the missing key, not guess a
        # default and silently produce a different front.
        from repro.blackbox import SQLiteStorage, TrialState
        from repro.blackbox.trial import FrozenTrial

        spec = str(tmp_path / "legacy.db")
        storage = SQLiteStorage(spec)
        storage.create_study("old", ["minimize", "minimize"], {"site": "houston"})
        storage.record_trial_finish(
            "old",
            FrozenTrial(number=0, state=TrialState.COMPLETE, values=(1.0, 2.0)),
        )
        with pytest.raises(SystemExit, match="n_trials"):
            main(["study", "resume", "--storage", spec])
        # With the trial target overridden, the next missing key is named.
        with pytest.raises(SystemExit, match="population"):
            main(["study", "resume", "--storage", spec, "--trials", "10"])

    def test_compact_verb_preserves_study_state(self, tmp_path, capsys):
        spec = str(tmp_path / "c.jsonl")
        assert self._run(spec, trials=20) == 0
        before = _stored_front(spec, "houston-blackbox")
        lines_before = len((tmp_path / "c.jsonl").read_text().splitlines())
        assert main(["study", "compact", "--journal", spec]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        lines_after = len((tmp_path / "c.jsonl").read_text().splitlines())
        assert lines_after < lines_before
        assert _stored_front(spec, "houston-blackbox") == before

    def test_sharded_run_merges_to_the_single_store_front(self, tmp_path, capsys):
        single = str(tmp_path / "single.db")
        sharded = str(tmp_path / "sharded.db")
        merged = str(tmp_path / "merged.db")
        assert self._run(single, trials=20) == 0
        assert self._run(sharded, trials=20, extra=["--shards", "2"]) == 0
        assert (tmp_path / "sharded.db.shard0").exists()
        assert (tmp_path / "sharded.db.shard1").exists()
        assert not (tmp_path / "sharded.db").exists()
        # status reopens the sharded topology transparently.
        assert main(["study", "status", "--storage", sharded]) == 0
        assert "20/20 complete" in capsys.readouterr().out
        assert (
            main(
                ["study", "merge", "--into", merged,
                 "--from", sharded + ".shard0", "--from", sharded + ".shard1"]
            )
            == 0
        )
        assert _stored_front(merged, "houston-blackbox") == _stored_front(
            single, "houston-blackbox"
        )

    def test_journal_and_storage_flags_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["study", "status", "--journal", "a.jsonl", "--storage", "b.db"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "status"])  # one is required

    def test_memory_scheme_runs_but_cannot_persist(self, capsys):
        # memory:// flows through the same registry; useful for smoke
        # runs where nothing should land on disk.
        assert (
            main(
                ["study", "run", "--storage", "memory://", "--site", "houston",
                 "--trials", "10", "--population", "5", "--seed", "1",
                 *self.OVERRIDES]
            )
            == 0
        )
        assert "front size" in capsys.readouterr().out


class TestRacingSummary:
    """Both drivers report the racing work of a raced study run."""

    def test_pipelined_run_prints_the_batched_racing_line(self, tmp_path, capsys):
        lines = {}
        for driver, extra in (("batched", []), ("pipelined", ["--pipeline"])):
            assert (
                main(
                    ["study", "run", "--storage", str(tmp_path / f"{driver}.db"),
                     "--site", "houston", "--ensemble", "years=2021-2024",
                     "--racing", "rungs=2,full", "--trials", "20",
                     "--population", "10", "--seed", "3",
                     "--set", "scenario.n_hours=336", *extra]
                )
                == 0
            )
            out = capsys.readouterr().out
            lines[driver] = [line for line in out.splitlines() if "racing:" in line]
        assert lines["pipelined"] == lines["batched"]
        assert len(lines["batched"]) == 1 and "member-evals" in lines["batched"][0]


class TestWorkersValidation:
    """Bad ``--workers`` values exit with a message, not a traceback."""

    OVERRIDES = ["--set", "scenario.n_hours=720"]

    def _run(self, spec, *extra):
        return main(
            ["study", "run", "--storage", spec, "--site", "houston",
             "--trials", "20", "--population", "10", "--seed", "7",
             *extra, *self.OVERRIDES]
        )

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--pipeline", "--workers", "0"], "workers must be >= 1"),
            (["--workers", "-2"], "workers must be >= 1"),
            (["--workers", "2"], "--pipeline"),
        ],
    )
    def test_run_rejects_bad_workers(self, tmp_path, extra, message):
        with pytest.raises(SystemExit, match=message):
            self._run(str(tmp_path / "s.db"), *extra)

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_run_rejects_bad_shards(self, tmp_path, shards):
        with pytest.raises(SystemExit, match="shards must be >= 1"):
            self._run(str(tmp_path / "s.db"), "--shards", shards)

    def test_resume_of_pipelined_study_rejects_zero_workers(self, tmp_path):
        spec = str(tmp_path / "p.db")
        assert self._run(spec, "--pipeline") == 0
        with pytest.raises(SystemExit, match="workers must be >= 1"):
            main(["study", "resume", "--storage", spec, "--workers", "0"])

    def test_pipelined_process_pool_stores_the_serial_trials(self, tmp_path):
        one, two = str(tmp_path / "one.db"), str(tmp_path / "two.db")
        assert self._run(one, "--pipeline", "--workers", "1") == 0
        assert self._run(two, "--pipeline", "--workers", "2") == 0
        assert _stored_front(two, "houston-blackbox") == _stored_front(
            one, "houston-blackbox"
        )
