"""Synthetic WIND-Toolkit-style wind resource generator.

The paper takes Berkeley/Houston wind speeds from the NREL WIND Toolkit;
this module synthesizes a replacement calibrated to each site's
:class:`~repro.data.locations.WindClimate`:

* the marginal speed distribution is **Weibull(k, λ)** with λ chosen so the
  long-term mean matches the climate's ``mean_speed_ms``;
* temporal structure comes from an **AR(1) Gaussian copula**: a latent
  standard-normal AR process with the climate's persistence time is mapped
  through Φ → Weibull-quantile, preserving both the marginal distribution
  and realistic autocorrelation (the standard synthetic-wind construction,
  e.g. Brokish & Kirtley 2009).  Φ and the Γ(1 + 1/k) of the Weibull mean
  come from :mod:`repro.data._special`, bitwise ports of cephes ``ndtr``
  and ``Gamma`` (the routines scipy wraps), so the runtime needs numpy only;
* deterministic **diurnal** (sea-breeze afternoon peak) and **seasonal**
  (windy spring) modulations are layered multiplicatively and the series
  rescaled so the annual mean stays calibrated.

Vectorized except the inherently sequential AR recursion, which runs once
per site per year (8 760 Python-float steps — negligible against simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import generator_for
from ..timeseries import hourly_times_s
from ..units import SECONDS_PER_HOUR
from . import _special
from .locations import Location
from .weather_events import apply_events, dunkelflaute_events

HOURS_PER_YEAR = 8_760


@dataclass(frozen=True)
class WindResource:
    """One synthetic wind year at a site (hourly, at reference height)."""

    location: Location
    times_s: np.ndarray
    speed_ms: np.ndarray
    temperature_c: np.ndarray
    reference_height_m: float

    def __post_init__(self) -> None:
        n = self.times_s.size
        if self.speed_ms.shape != (n,) or self.temperature_c.shape != (n,):
            raise ConfigurationError("wind resource arrays misaligned")
        if np.any(self.speed_ms < 0):
            raise ConfigurationError("wind speeds must be non-negative")

    @property
    def step_s(self) -> float:
        return float(self.times_s[1] - self.times_s[0]) if self.times_s.size > 1 else SECONDS_PER_HOUR

    def mean_speed(self) -> float:
        return float(self.speed_ms.mean())


def weibull_scale_for_mean(mean_speed: float, k: float) -> float:
    """Weibull λ so that E[V] = λ·Γ(1 + 1/k) equals the target mean.

    Γ is ported for 1 + 1/k ≤ 3 only, so k < 0.5 raises
    :class:`ConfigurationError` (``WindClimate`` admits k ∈ [1, 4]).
    """
    if mean_speed <= 0 or k <= 0:
        raise ConfigurationError("mean speed and shape must be positive")
    return mean_speed / _special.gamma(1.0 + 1.0 / k)


def _ar1_latent(n: int, persistence_hours: float, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal AR(1) with e-folding time ``persistence_hours``."""
    rho = float(np.exp(-1.0 / max(persistence_hours, 1e-6)))
    scale = float(np.sqrt(1.0 - rho**2))
    # The recursion runs on Python floats: indexing numpy scalars per step
    # costs more than twice as much, and the doubles are the same.
    z = rng.standard_normal(n).tolist()
    prev = z[0]
    for i in range(1, n):
        prev = z[i] = rho * prev + scale * z[i]
    return np.array(z)


def synthesize_wind_resource(
    location: Location,
    year_label: int = 2024,
    n_hours: int = HOURS_PER_YEAR,
    include_extreme_events: bool = True,
    event_severity: float = 1.0,
) -> WindResource:
    """Generate one deterministic synthetic wind year for a site.

    ``include_extreme_events=False`` drops the coordinated dunkelflaute
    events (ablation use only).  ``event_severity`` scales their
    depth/length for harsher ensemble futures (DESIGN.md §6) without
    consuming extra RNG draws.
    """
    if n_hours <= 0:
        raise ConfigurationError(f"n_hours must be positive, got {n_hours}")
    clim = location.wind_climate
    rng = generator_for("wind", location.name, year_label)
    times = hourly_times_s(n_hours)
    hour_of_day = np.mod(np.arange(n_hours), 24).astype(np.float64)
    day_of_year = (np.arange(n_hours) // 24 + 1).astype(np.float64)

    # Gaussian copula: latent AR(1) → uniform → Weibull quantile.
    z = _ar1_latent(n_hours, clim.persistence_hours, rng)
    u = _special.ndtr(z)
    u = np.clip(u, 1e-6, 1.0 - 1e-6)
    lam = weibull_scale_for_mean(clim.mean_speed_ms, clim.weibull_k)
    base_speed = lam * (-np.log1p(-u)) ** (1.0 / clim.weibull_k)

    # Diurnal modulation peaking at the site's characteristic hour
    # (afternoon sea breeze vs nocturnal plains jet); seasonal: spring
    # (≈ day 105) peak.
    diurnal = 1.0 + clim.diurnal_amplitude * np.cos(
        2.0 * np.pi * (hour_of_day - clim.diurnal_peak_hour) / 24.0
    )
    seasonal = 1.0 + clim.seasonal_amplitude * np.cos(2.0 * np.pi * (day_of_year - 105.0) / 365.0)
    speed = base_speed * diurnal * seasonal

    # Rescale so the realized annual mean matches the climatology exactly —
    # keeps capacity factors stable across seed choices.
    speed *= clim.mean_speed_ms / speed.mean()
    speed = np.clip(speed, 0.0, None)

    # Coordinated multi-day dark-doldrum events (shared with the solar
    # generator; see repro.data.weather_events).  Applied after the mean
    # calibration on purpose: a dunkelflaute removes energy from the year
    # the way a real stagnant system does, rather than being smoothed away
    # by renormalization.
    if include_extreme_events:
        events = dunkelflaute_events(location, year_label, n_hours, event_severity)
        speed = apply_events(speed, events, "wind", n_hours)

    # Hub-layer temperature (used for air density): reuse the seasonal
    # surface climatology with damped diurnal swing.
    seasonal_t = location.mean_temperature_c + location.temperature_seasonal_amplitude_c * np.cos(
        2.0 * np.pi * (day_of_year - 196.0) / 365.0
    )
    diurnal_t = 0.5 * location.temperature_diurnal_amplitude_c * np.cos(
        2.0 * np.pi * (hour_of_day - 15.0) / 24.0
    )
    temperature = seasonal_t + diurnal_t

    return WindResource(
        location=location,
        times_s=times,
        speed_ms=speed,
        temperature_c=temperature,
        reference_height_m=clim.reference_height_m,
    )
