"""The wind copula's Φ/Γ ports (``repro.data._special``) and the numpy-only runtime.

The contract:

* every synthetic wind series and Weibull scale is bit-identical to the
  scipy-backed generator the ports replaced (the SHA-256 and hex pins
  below were taken from it);
* where scipy is installed, the ports equal ``scipy.special.ndtr`` and
  ``scipy.special.gamma`` bit for bit on a seeded sample and the branch
  edges (scipy is a test oracle only; without it these tests skip);
* the package imports and builds scenarios with scipy unavailable, and
  importing the CLI does not load scipy.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.data import BERKELEY, HOUSTON, _special, synthesize_wind_resource
from repro.data.wind_resource import weibull_scale_for_mean
from repro.exceptions import ConfigurationError

SRC = str(Path(__file__).resolve().parent.parent / "src")
SITES = {"berkeley": BERKELEY, "houston": HOUSTON}

# sha256(synthesize_wind_resource(site, year, event_severity=s).speed_ms.tobytes())
WIND_SHA256 = {
    ("berkeley", 2020, 1.0): "9dcf2a816eaacc11836c711ab96eebcecd7446ce3d67753a7c19f29f2c351598",
    ("berkeley", 2020, 1.5): "3b1d139408c7628b2e012bb35d6f7fcba5afa3bbee127d622806a413cae7a198",
    ("berkeley", 2024, 1.0): "a3294ac308e9459482ec7eed6c92ad9127d8ddc55a62f48a48181ac62a14018f",
    ("berkeley", 2024, 1.5): "5bb851d10c1d288aea1443ff1606a319f899e0f93450a2a69b9f65ce821525b0",
    ("berkeley", 2029, 1.0): "6325ae380cdab574a15da475e3fb9465770f1b6f4c27929b4ad9a5ec007f0c9b",
    ("berkeley", 2029, 1.5): "9dc808b46fc45def4fe2ba0b5cbc8a179a93f96b154f43d694c0212b30759f44",
    ("houston", 2020, 1.0): "d77c35d5ffdbd37df74d32e8cb913168714940ef333bcb0b3a2e3a2585621129",
    ("houston", 2020, 1.5): "fd21f0924d25da59575c3e2794d03a47b0e36f5728df609788a314a8c4ef8f29",
    ("houston", 2024, 1.0): "f326b479e3775a7dcdc35c5fb1af184c46dee6685a9456017fea97ee5d5268d9",
    ("houston", 2024, 1.5): "7e9b2c56c5070cecf1b01e78800ba6dfdd6b3cecbab6e3a98f72ad1ed2e7732d",
    ("houston", 2029, 1.0): "008af09541e3c6dc058187b38ffd20ccfea5238c88234e25c9803980d2a2576a",
    ("houston", 2029, 1.5): "eca52b63ddca2d6603a4e9b62390faf0da286c00ddaba92eb37779a111a269da",
}
WEIBULL_SCALE_HEX = {"berkeley": "0x1.61681310aa1c0p+2", "houston": "0x1.20dd750429b6dp+3"}

# ndtr's branch edges: |a|/√2 crosses 1/√2, 1 and 8 at |a| = 1, √2 and
# 8√2; a²/2 passes cephes' MAXLOG (exp underflow) near |a| = 37.7.
_EDGES = np.array([0.0, 1 / math.sqrt(2), 1.0, math.sqrt(2), 8.0, 8 * math.sqrt(2), 37.68, 38.5, 40.0])
NDTR_EDGES = np.concatenate(
    [e for edge in (_EDGES, np.nextafter(_EDGES, np.inf), np.nextafter(_EDGES, -np.inf)) for e in (edge, -edge)]
    + [np.array([np.inf, -np.inf])]
)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestWindPins:
    @pytest.mark.parametrize(("site", "year", "severity"), sorted(WIND_SHA256))
    def test_speed_series_bitwise(self, site, year, severity):
        speed = synthesize_wind_resource(SITES[site], year, event_severity=severity).speed_ms
        assert hashlib.sha256(speed.tobytes()).hexdigest() == WIND_SHA256[site, year, severity]

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_weibull_scale_bitwise(self, site):
        clim = SITES[site].wind_climate
        assert weibull_scale_for_mean(clim.mean_speed_ms, clim.weibull_k).hex() == WEIBULL_SCALE_HEX[site]


class TestPorts:
    def test_ndtr_limits_and_shape(self):
        y = _special.ndtr(np.array([[-np.inf, -0.0], [np.inf, np.nan]]))
        assert y.shape == (2, 2)
        assert y[0, 0] == 0.0 and y[0, 1] == 0.5 and y[1, 0] == 1.0 and np.isnan(y[1, 1])

    def test_ndtr_is_a_cdf(self):
        x = np.linspace(-10.0, 10.0, 4001)
        y = _special.ndtr(x)
        assert np.all(np.diff(y) >= 0.0)
        np.testing.assert_allclose(y + _special.ndtr(-x), 1.0, rtol=0, atol=1e-15)
        assert _special.ndtr(np.array([1.96]))[0] == pytest.approx(0.9750021048517795, rel=1e-15)

    def test_gamma_known_values(self):
        assert _special.gamma(1.0) == 1.0
        assert _special.gamma(2.0) == 1.0
        assert _special.gamma(3.0) == 2.0
        assert _special.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)

    @pytest.mark.parametrize("x", [0.5, 0.999999, 3.000001, 20.0, -1.5, math.nan, math.inf])
    def test_gamma_rejects_outside_ported_range(self, x):
        with pytest.raises(ConfigurationError):
            _special.gamma(x)


class TestScipyOracle:
    """Bitwise against scipy, where it is installed (CI installs it on one leg)."""

    def test_ndtr_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(20240601)
        x = np.concatenate(
            [rng.standard_normal(250_000) * scale for scale in (0.3, 1.0, 3.0, 10.0)]
            + [np.linspace(-40.0, 40.0, 80_001), NDTR_EDGES]
        )
        mismatched = _bits(_special.ndtr(x)) != _bits(special.ndtr(x))
        assert not mismatched.any(), x[mismatched][:10]

    def test_gamma_matches_scipy_on_the_weibull_range(self):
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([1.0 + 1.0 / np.linspace(1.0, 4.0, 30_001), np.linspace(1.0, 3.0, 20_001)])
        ours = np.array([_special.gamma(v) for v in x.tolist()])
        mismatched = _bits(ours) != _bits(special.gamma(x))
        assert not mismatched.any(), x[mismatched][:10]


def _run_python(code: str, pythonpath: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(pythonpath + [env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=120
    )


class TestNumpyOnlyRuntime:
    def test_runs_with_scipy_blocked(self, tmp_path):
        # sitecustomize runs at interpreter start, before any repro import.
        (tmp_path / "sitecustomize.py").write_text('import sys\nsys.modules["scipy"] = None\n')
        proc = _run_python(
            """
            import sys
            assert sys.modules["scipy"] is None, "scipy blocker not active"
            import repro, repro.cli, repro.service
            from repro.core.scenario import build_scenario
            scenario = build_scenario("houston", n_hours=48)
            assert scenario.wind_per_turbine_w.shape == (48,)
            print("ok")
            """,
            [str(tmp_path), SRC],
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr

    def test_cli_import_does_not_load_scipy(self):
        proc = _run_python(
            """
            import sys
            import repro.cli
            # A None entry is an import blocker, not a loaded module.
            loaded = sorted(
                name for name, module in sys.modules.items()
                if module is not None and (name == "scipy" or name.startswith("scipy."))
            )
            assert not loaded, loaded[:5]
            """,
            [SRC],
        )
        assert proc.returncode == 0, proc.stderr
