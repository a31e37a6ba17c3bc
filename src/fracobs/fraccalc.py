"""Grunwald-Letnikov fractional calculus kernel.

Everything downstream (the fixed-step solver, the observers, the benchmark
harness) sits on the small set of primitives in this module:

* ``gamma`` -- Euler gamma function on the positive reals.
* ``gl_weights`` -- binomial weights of the backward GL difference.
* ``gl_derivative`` -- discrete fractional derivative of a sampled signal,
  Caputo-consistent through subtraction of the initial sample.
* ``mittag_leffler`` -- one-parameter Mittag-Leffler function, the
  closed-form solution channel used to cross-validate the solver.
* ``fast_len`` -- the FFT length that the convolutions here and in the
  solver's history sum pad to.

Orders are commensurate and live in (0, 1); order 1 is accepted so the
classical first-order results (backward difference, explicit Euler, exp)
can be recovered as validation cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "FracOrder",
    "GlWeightTable",
    "gamma",
    "gl_weights",
    "gl_derivative",
    "mittag_leffler",
    "fast_len",
]


@dataclass(frozen=True)
class FracOrder:
    """Commensurate differentiation order.

    Valid range is 0 < alpha < 1; alpha = 1 is additionally allowed so the
    integer-order limit can be exercised in validation runs.  Anything else
    is rejected at construction.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or not (0.0 < a <= 1.0):
            raise ValueError(
                f"fractional order must satisfy 0 < alpha <= 1 "
                f"(alpha = 1 only for integer-order validation), got {self.alpha!r}"
            )
        object.__setattr__(self, "alpha", a)


def _as_order(alpha) -> float:
    if isinstance(alpha, FracOrder):
        return alpha.alpha
    return FracOrder(float(alpha)).alpha


# Lanczos approximation, g = 7, 9 coefficients (Godfrey's tabulation).
# Relative error of the rational part is ~1e-15 on the positive real axis,
# comfortably inside the 1e-12 budget on (0, 50].
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gamma(x: float) -> float:
    """Gamma function for real x > 0 via the Lanczos series.

    Accurate to at least 12 significant digits on (0, 50], which covers
    every use in this package (weight identities, Mittag-Leffler terms,
    convergence-time formulas).  No reflection branch: arguments here are
    always positive.  Raises ValueError for x <= 0.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # One recurrence step keeps the series in its sweet spot.
        return gamma(x + 1.0) / x
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * math.exp(-t) * acc


@dataclass(frozen=True)
class GlWeightTable:
    """GL binomial weights w_j = (-1)^j C(alpha, j), j = 0..k_max.

    Generated exclusively through the multiplicative recurrence
    w_0 = 1, w_j = w_{j-1} * (1 - (alpha + 1)/j); gamma-ratio forms
    overflow past j ~ 170 and are only ever used as a cross-check at
    small j in the test suite.

    For 0 < alpha < 1 every weight after w_0 is negative and the partial
    sums decrease monotonically toward 0, which is what makes the
    short-memory truncation of the solver well behaved.
    """

    alpha: float
    weights: np.ndarray

    def __post_init__(self):
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.weights)


def gl_weights(alpha, k_max: int) -> GlWeightTable:
    """Weight table w_0..w_{k_max} for order ``alpha``.

    ``k_max`` must be a non-negative integer. w_0 is exactly 1; with
    alpha = 1 the table is exactly [1, -1, 0, 0, ...], which is the
    backward-difference / explicit-Euler limit.
    """
    a = _as_order(alpha)
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    w = np.empty(k_max + 1, dtype=float)
    w[0] = 1.0
    if k_max:
        j = np.arange(1, k_max + 1, dtype=float)
        w[1:] = np.cumprod(1.0 - (a + 1.0) / j)
    return GlWeightTable(alpha=a, weights=w)


def fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= n, n >= 1.

    numpy's pocketfft transforms such lengths fastest; this is the length
    scipy.fft.next_fast_len(n, real=True) picks.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def gl_derivative(samples, alpha, h: float) -> np.ndarray:
    """Discrete GL fractional derivative of a uniformly sampled signal.

    The initial sample is subtracted first, so for signals with f(0) != 0
    the result matches the Caputo derivative (power-rule oracle in the
    tests) rather than Riemann-Liouville:

        out[k] = h^(-alpha) * sum_{j=0..k} w_j * (samples[k-j] - samples[0])

    out[0] is exactly 0. ``h`` must be positive; ``samples`` must hold at
    least one point.
    """
    a = _as_order(alpha)
    h = float(h)
    if h <= 0.0:
        raise ValueError(f"step size h must be > 0, got {h!r}")
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    n = y.size
    shifted = y - y[0]
    w = gl_weights(a, n - 1).weights
    if n > 2048:
        # zero-padded to the full linear length 2n - 1, so no wrap lands
        # in the first n outputs
        nfft = fast_len(2 * n - 1)
        conv = np.fft.irfft(np.fft.rfft(w, nfft) * np.fft.rfft(shifted, nfft), nfft)[:n]
    else:
        conv = np.convolve(w, shifted)[:n]
    out = conv * h ** (-a)
    out[0] = 0.0
    return out


def mittag_leffler(alpha, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) by direct series.

        E_alpha(z) = sum_{k>=0} z^k / Gamma(alpha*k + 1)

    Series evaluation is intended for the moderate arguments used in
    solver validation; |z| <= 30 is enforced. Terms are accumulated until
    the next term falls below 1e-15 of the running sum; if 500 terms do
    not get there a ConvergenceError is raised. E_1(z) = exp(z) is the
    classical sanity identity.
    """
    a = _as_order(alpha)
    z = float(z)
    if not math.isfinite(z) or abs(z) > 30.0:
        raise ValueError(f"mittag_leffler series requires |z| <= 30, got {z!r}")
    total = 0.0
    for k in range(500):
        # lgamma keeps large-k terms representable: Gamma(alpha*k+1) alone
        # overflows float64 near k ~ 170.
        log_mag = k * math.log(abs(z)) if z != 0.0 else (0.0 if k == 0 else -math.inf)
        term = 0.0
        if log_mag > -math.inf:
            term = math.exp(log_mag - math.lgamma(a * k + 1.0))
            if z < 0.0 and k % 2 == 1:
                term = -term
        total += term
        if abs(term) <= 1e-15 * abs(total):
            return total
    raise ConvergenceError(
        f"mittag_leffler series did not converge in 500 terms for alpha={a}, z={z}"
    )
