"""Configuration and sweep system (Hydra + Optuna-sweeper stand-in).

The paper's implementation "builds on Hydra in combination with the
Optuna sweeper plugin which allows for easy configuration through YAML
files and can parallelize the search across a cluster of compute nodes"
(§3.3).  This package reproduces that workflow:

* :mod:`repro.confsys.config` — dot-path-addressable config objects with
  composition (defaults + overrides) and ``key=value`` override parsing;
* :mod:`repro.confsys.yaml_io` — YAML load/dump round-tripping;
* :mod:`repro.confsys.sweeper` — grid and black-box sweepers expanding a
  config into jobs.

Spreading the search over processes or nodes is not this package's job:
the pipelined dispatcher's executors (:mod:`repro.blackbox.parallel`,
DESIGN.md §4) are the repo's one worker pool.
"""

from .config import Config, apply_overrides, compose, parse_override
from .yaml_io import load_yaml, dump_yaml, load_config, save_config
from .sweeper import BlackboxSweeper, GridSweeper, SweepJob

__all__ = [
    "Config",
    "compose",
    "apply_overrides",
    "parse_override",
    "load_yaml",
    "dump_yaml",
    "load_config",
    "save_config",
    "GridSweeper",
    "BlackboxSweeper",
    "SweepJob",
]
