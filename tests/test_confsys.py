"""Config system: composition, overrides, YAML, sweepers."""

import numpy as np
import pytest

from repro.blackbox import RandomSampler, create_study
from repro.blackbox.distributions import FloatDistribution, IntDistribution
from repro.confsys import (
    BlackboxSweeper,
    Config,
    GridSweeper,
    apply_overrides,
    compose,
    load_config,
    parse_override,
    save_config,
)
from repro.exceptions import ConfigurationError


BASE = {
    "scenario": {"location": "berkeley", "year": 2024},
    "optimizer": {"n_trials": 350, "population": 50},
}


class TestConfig:
    def test_attribute_access(self):
        cfg = Config(BASE)
        assert cfg.scenario.location == "berkeley"
        assert cfg.optimizer.n_trials == 350

    def test_dot_path_access(self):
        cfg = Config(BASE)
        assert cfg.get("scenario.location") == "berkeley"
        assert cfg.get("scenario.missing", "fallback") == "fallback"

    def test_require(self):
        cfg = Config(BASE)
        assert cfg.require("scenario.year") == 2024
        with pytest.raises(ConfigurationError):
            cfg.require("scenario.ghost")

    def test_readonly(self):
        cfg = Config(BASE)
        with pytest.raises(ConfigurationError):
            cfg.foo = 1

    def test_updated_is_functional(self):
        cfg = Config(BASE)
        new = cfg.updated("scenario.location", "houston")
        assert new.scenario.location == "houston"
        assert cfg.scenario.location == "berkeley"  # original untouched

    def test_updated_creates_parents(self):
        cfg = Config({}).updated("a.b.c", 3)
        assert cfg.get("a.b.c") == 3

    def test_removed(self):
        cfg = Config(BASE).removed("optimizer.population")
        assert not cfg.has("optimizer.population")

    def test_flat(self):
        flat = Config(BASE).flat()
        assert flat["scenario.location"] == "berkeley"
        assert flat["optimizer.population"] == 50

    def test_source_dict_isolated(self):
        src = {"a": {"b": 1}}
        cfg = Config(src)
        src["a"]["b"] = 999
        assert cfg.get("a.b") == 1


class TestCompose:
    def test_later_layer_wins(self):
        cfg = compose(BASE, {"scenario": {"location": "houston"}})
        assert cfg.scenario.location == "houston"
        assert cfg.scenario.year == 2024  # deep merge preserved

    def test_three_layers(self):
        cfg = compose({"a": 1}, {"b": 2}, {"a": 3})
        assert cfg.get("a") == 3 and cfg.get("b") == 2


class TestOverrides:
    def test_parse_set(self):
        assert parse_override("a.b=3") == ("set", "a.b", 3)
        assert parse_override("a.b=3.5") == ("set", "a.b", 3.5)
        assert parse_override("a.b=true") == ("set", "a.b", True)
        assert parse_override("a.b=null") == ("set", "a.b", None)
        assert parse_override("a.b=hello") == ("set", "a.b", "hello")

    def test_parse_list(self):
        assert parse_override("a=1,2,3") == ("set", "a", [1, 2, 3])

    def test_parse_add_delete(self):
        assert parse_override("+x.y=1") == ("add", "x.y", 1)
        assert parse_override("~x.y") == ("del", "x.y", None)

    def test_apply(self):
        cfg = apply_overrides(
            Config(BASE),
            ["scenario.location=houston", "+scenario.tag=exp1", "~optimizer.population"],
        )
        assert cfg.scenario.location == "houston"
        assert cfg.scenario.tag == "exp1"
        assert not cfg.has("optimizer.population")

    def test_add_existing_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_overrides(Config(BASE), ["+scenario.location=x"])

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_override("no_equals_sign")
        with pytest.raises(ConfigurationError):
            parse_override("=value")


class TestYaml:
    def test_roundtrip(self, tmp_path):
        cfg = Config(BASE)
        path = tmp_path / "conf" / "experiment.yaml"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "ghost.yaml")

    def test_non_mapping_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigurationError):
            load_config(p)


class TestGridSweeper:
    def test_job_count_and_overrides(self):
        sweeper = GridSweeper(Config(BASE), {"scenario.location": ["berkeley", "houston"],
                                             "optimizer.population": [10, 50]})
        jobs = sweeper.jobs()
        assert len(sweeper) == 4 and len(jobs) == 4
        combos = {(j.config.scenario.location, j.config.optimizer.population) for j in jobs}
        assert combos == {("berkeley", 10), ("berkeley", 50), ("houston", 10), ("houston", 50)}

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSweeper(Config(BASE), {})
        with pytest.raises(ConfigurationError):
            GridSweeper(Config(BASE), {"a": []})


class TestBlackboxSweeper:
    def test_drives_study(self):
        study = create_study(direction="minimize", sampler=RandomSampler(seed=0))
        sweeper = BlackboxSweeper(
            Config({"model": {"lr": 0.1, "layers": 2}}),
            {"model.lr": FloatDistribution(1e-3, 1.0, log=True),
             "model.layers": IntDistribution(1, 8)},
            study,
        )

        def evaluate(cfg):
            return (np.log10(cfg.model.lr) + 2.0) ** 2 + (cfg.model.layers - 4) ** 2

        sweeper.run(evaluate, n_trials=60)
        assert study.best_value < 4.0
        assert 1 <= study.best_trial.params["model.layers"] <= 8
