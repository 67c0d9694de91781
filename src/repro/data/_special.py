"""Φ and Γ for the wind copula: bitwise ports of the cephes routines.

The synthetic wind generator needs the standard-normal CDF over a whole
latent series and one Γ(1 + 1/k) value.  These are ports of cephes
``ndtr`` (with its ``erf``/``erfc``) and ``Gamma`` — the routines behind
``scipy.special.ndtr``/``gamma`` — evaluated in the same order, so every
result is the same double as scipy's and no wind series moves.

Two details carry the bitwise contract:

* the Horner forms are separate multiply and add steps, each rounded
  once, as the scalar C code does;
* ``exp(-x²)`` in ``erfc`` is libm's (:func:`math.exp`), taken over the
  |x| ≥ 1 subset only.  numpy's SIMD ``exp`` is not correctly rounded
  the same way and differs from libm on a few percent of inputs.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ConfigurationError

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2

# erfc(x) for 1 <= x < 8: exp(-x²)·P(x)/Q(x); x >= 8: exp(-x²)·R(x)/S(x).
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) for |x| <= 1: x·T(x²)/U(x²).
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# Γ(2 + x) = P(x)/Q(x) for 0 <= x < 1.
_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
    4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
    1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)


def _polevl(x, coef):
    """cephes ``polevl``: Horner with the leading coefficient stored."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """cephes ``p1evl``: Horner with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes ``erf`` for |x| <= 1 (``-erf(-x)`` is the same double)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x: np.ndarray) -> np.ndarray:
    """cephes ``erfc`` for x >= 1/√2, the part of its domain ``ndtr`` uses."""
    y = np.zeros_like(x)  # stays 0 where -x² is past -MAXLOG (exp underflow)
    mid = x < 1.0
    y[mid] = 1.0 - _erf(x[mid])
    with np.errstate(over="ignore"):
        tail = ~mid & (-x * x >= -_MAXLOG)
    t = x[tail]
    e = np.array([math.exp(v) for v in (-t * t).tolist()], dtype=np.float64)
    y[tail] = np.where(
        t < 8.0,
        e * _polevl(t, _ERFC_P) / _p1evl(t, _ERFC_Q),
        e * _polevl(t, _ERFC_R) / _p1evl(t, _ERFC_S),
    )
    return y


def ndtr(a) -> np.ndarray:
    """Standard-normal CDF Φ(a), bitwise equal to cephes ``ndtr``."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    y = np.full(x.shape, np.nan)  # NaN in, NaN out
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = z >= _SQRT1_2
    half = 0.5 * _erfc(z[outer])
    y[outer] = np.where(x[outer] > 0, 1.0 - half, half)
    return y


def gamma(x: float) -> float:
    """Γ(x) for 1 <= x <= 3, bitwise equal to cephes ``Gamma``.

    The wind copula only needs Γ(1 + 1/k) with the Weibull shape
    k ∈ [1, 4], so the port keeps cephes' argument reduction for this
    range alone (each of its loops runs at most once here).
    """
    x = float(x)
    if not 1.0 <= x <= 3.0:
        raise ConfigurationError(f"gamma is ported for 1 <= x <= 3 only, got {x}")
    z = 1.0
    if x >= 3.0:
        x -= 1.0
        z *= x
    elif x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)
