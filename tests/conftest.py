"""Shared fixtures.

Scenario construction costs ~1 s (resource synthesis + SAM model runs),
so full-year scenarios are session-scoped; fast tests use a one-month
scenario instead.
"""

from __future__ import annotations

import pytest

from repro.core import kernel
from repro.core.dispatch import run_dispatch_loop
from repro.core.scenario import Scenario, build_scenario


def _segments_on_the_loop(
    stack, solar_kw, turbine_factor, capacity_wh, params,
    initial_soc=0.5, policy=None, trace_soc=False,
):
    return run_dispatch_loop(
        stack, solar_kw, turbine_factor, capacity_wh, params, initial_soc, policy, trace_soc
    )


@pytest.fixture
def loop_dispatch(monkeypatch):
    """Run every dispatch on the reference loop for the rest of the test.

    ``run_dispatch`` sends every call it would run on the segments engine
    to :func:`~repro.core.dispatch.run_dispatch_loop` instead, so whole
    drivers (evaluators, racing, studies) give the loop's values.  A test
    that compares against its own earlier default run requests it late,
    through ``request.getfixturevalue("loop_dispatch")``.
    """
    monkeypatch.setattr(kernel, "run_dispatch_segments", _segments_on_the_loop)


@pytest.fixture(scope="session")
def houston() -> Scenario:
    """Full-year Houston scenario (ERCOT, wind-rich)."""
    return build_scenario("houston")


@pytest.fixture(scope="session")
def berkeley() -> Scenario:
    """Full-year Berkeley scenario (CAISO, solar-rich)."""
    return build_scenario("berkeley")


@pytest.fixture(scope="session")
def houston_month() -> Scenario:
    """One-month Houston scenario for fast unit/integration tests."""
    return build_scenario("houston", n_hours=24 * 30)


@pytest.fixture(scope="session")
def berkeley_month() -> Scenario:
    """One-month Berkeley scenario for fast unit/integration tests."""
    return build_scenario("berkeley", n_hours=24 * 30)
