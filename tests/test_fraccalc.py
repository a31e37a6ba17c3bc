"""Core fractional-calculus routines against independent oracles.

Frozen reference values come from 50-digit mpmath evaluations done once
at development time; the cross-check tests recompute them when mpmath is
installed so the frozen numbers cannot silently rot.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracobs.errors import ConvergenceError
from fracobs.fraccalc import (
    _as_order,
    fast_len,
    gamma,
    gl_derivative,
    gl_weights,
    mittag_leffler,
)

mpmath = pytest.importorskip("mpmath", reason="cross-checks want mpmath")

# sum_{j=0}^{1000} w_j(0.97) == (-1)^1000 * binomial(0.97 - 1, 1000)
S_1000_097 = 3.7524811028712365956e-05
E_09_MINUS1 = 0.37606602142464188118
E_097_MINUS1 = 0.36999304171922315248
# w_j(0.5) has the closed form -C(1/2, j) * (-1)^j, first six entries:
W_HALF = [1.0, -0.5, -0.125, -0.0625, -0.0390625, -0.02734375]


class TestOrderRange:
    def test_accepts_unit_interval(self):
        assert _as_order(0.97) == 0.97
        assert _as_order(1) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.2, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            _as_order(bad)


class TestGamma:
    def test_half_integer_closed_forms(self):
        sq = math.sqrt(math.pi)
        assert gamma(0.5) == pytest.approx(sq, rel=1e-13)
        assert gamma(1.5) == pytest.approx(sq / 2, rel=1e-13)
        assert gamma(3.5) == pytest.approx(15 * sq / 8, rel=1e-13)

    def test_matches_math_gamma_on_grid(self):
        # independent oracle: C library implementation
        xs = np.linspace(0.05, 50.0, 997)
        worst = max(abs(gamma(x) - math.gamma(x)) / math.gamma(x) for x in xs)
        assert worst < 1e-12

    def test_integer_factorials(self):
        for n in range(1, 10):
            assert gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            gamma(bad)


class TestGlWeights:
    def test_first_weights_alpha_half(self):
        w = gl_weights(0.5, 5)
        assert w == pytest.approx(W_HALF, abs=1e-15)

    def test_partial_sum_binomial_identity(self):
        # S_K = (-1)^K C(alpha-1, K); frozen from mpmath.binomial
        s = float(gl_weights(0.97, 1000).sum())
        assert s == pytest.approx(S_1000_097, rel=1e-10)

    def test_partial_sum_recomputed_with_mpmath(self):
        mpmath.mp.dps = 50
        ref = float((-1) ** 1000 * mpmath.binomial(mpmath.mpf("0.97") - 1, 1000))
        assert ref == pytest.approx(S_1000_097, rel=1e-15)

    def test_alpha_one_is_euler_table(self):
        w = gl_weights(1.0, 10)
        assert w[0] == 1.0 and w[1] == -1.0
        assert np.all(w[2:] == 0.0)

    def test_weights_match_mpmath_binomials(self):
        mpmath.mp.dps = 40
        a = mpmath.mpf("0.9")
        ref = [float((-1) ** j * mpmath.binomial(a, j)) for j in range(200)]
        w = gl_weights(0.9, 199)
        assert w == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=0.05, max_value=0.999))
    @settings(max_examples=40, deadline=None)
    def test_sign_and_monotonicity_properties(self, alpha):
        w = gl_weights(alpha, 300)
        assert w[0] == 1.0
        # all later weights negative, partial sums decrease toward 0
        assert np.all(w[1:] < 0.0)
        partial = np.cumsum(w)
        assert np.all(np.diff(partial) < 0.0)
        assert partial[-1] > 0.0

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            gl_weights(0.5, -1)
        assert gl_weights(0.5, 0).shape == (1,)

    def test_weights_are_read_only(self):
        w = gl_weights(0.7, 4)
        with pytest.raises(ValueError):
            w[1] = 0.0


class TestGlDerivative:
    def test_power_rule(self):
        # D^a t^p = Gamma(p+1)/Gamma(p-a+1) t^(p-a)
        h = 1e-3
        t = np.arange(0, 1 + h / 2, h)
        lo = int(0.1 / h)
        for p in (1, 2, 3):
            for a in (0.5, 0.9, 0.97):
                num = gl_derivative(t ** p, a, h)
                ref = gamma(p + 1.0) / gamma(p - a + 1.0) * t ** (p - a)
                rel = np.abs(num[lo:] - ref[lo:]) / ref[lo:]
                assert rel.max() < 1e-2, (p, a)

    def test_constant_has_zero_derivative(self):
        # the shifted (Caputo-consistent) form kills constants exactly
        out = gl_derivative(np.full(100, 3.7), 0.6, 0.01)
        assert np.all(out == 0.0)

    def test_first_sample_is_zero(self):
        out = gl_derivative(np.linspace(0, 1, 50), 0.5, 0.02)
        assert out[0] == 0.0

    def test_alpha_one_matches_difference_quotient(self):
        h = 0.01
        t = np.arange(0, 1 + h / 2, h)
        y = np.sin(t)
        out = gl_derivative(y, 1.0, h)
        ref = np.diff(y) / h
        assert out[1:] == pytest.approx(ref, abs=1e-12)

    def test_fft_and_direct_paths_agree(self):
        # the FFT convolution against the direct sum at short and long n
        h = 1e-3
        for n in (2, 1001, 3000):
            y = (np.arange(n) * h) ** 2
            direct = np.convolve(gl_weights(0.7, n - 1), y - y[0])[:n] * h ** -0.7
            assert gl_derivative(y, 0.7, h) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            gl_derivative(np.zeros(4), 0.5, 0.0)


class TestFastLen:
    def test_small_values_by_hand(self):
        assert [fast_len(n) for n in (1, 7, 11, 13, 17, 49, 97, 121)] == [1, 8, 12, 15, 18, 50, 100, 125]

    def test_matches_scipy_next_fast_len(self):
        # the FFT sizes of the history sum, hence every trace, stay as
        # they were when the solver padded with scipy's choice
        scipy_fft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(0)
        ns = list(range(1, 20001)) + rng.integers(20001, 10 ** 9, size=2000).tolist()
        assert [fast_len(n) for n in ns] == [scipy_fft.next_fast_len(n, real=True) for n in ns]


class TestMittagLeffler:
    def test_frozen_spot_values(self):
        assert mittag_leffler(0.9, -1.0) == pytest.approx(E_09_MINUS1, rel=1e-14)
        assert mittag_leffler(0.97, -1.0) == pytest.approx(E_097_MINUS1, rel=1e-14)

    def test_alpha_one_is_exp(self):
        for z in (-3.0, -1.0, 0.0, 1.0, 2.5):
            assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-13)

    def test_zero_argument(self):
        assert mittag_leffler(0.42, 0.0) == 1.0

    def test_matches_mpmath_series(self):
        mpmath.mp.dps = 40

        def ref(a, z, terms=300):
            return float(mpmath.nsum(lambda k: mpmath.mpf(z) ** k / mpmath.gamma(a * k + 1), [0, terms]))

        for a, z in [(0.5, -2.0), (0.9, -5.0), (0.97, 3.0), (0.3, -0.5)]:
            assert mittag_leffler(a, z) == pytest.approx(ref(a, z), rel=1e-11)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.9, 31.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.9, -30.5)

    def test_convergence_error_type_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)
