"""Tour of the fractional-calculus layer: GL weights, the discrete
fractional derivative, and the Mittag-Leffler function.

The whole simulation stack rests on one identity: the order-alpha
derivative of a sampled signal is a convolution with the binomial
weight sequence w_j = (-1)^j C(alpha, j), scaled by h^(-alpha). This
script shows the weights' structure, checks the discrete derivative
against two closed forms, and evaluates the Mittag-Leffler function
that plays exp's role in fractional relaxation.

Run:  python3 demos/01_fractional_calculus_tour.py
"""

import math

import numpy as np

from fracobs import gamma, gl_derivative, gl_weights, mittag_leffler


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


banner("1. GL weights: one recurrence, three regimes")
print("""\
w_0 = 1, w_j = w_{j-1} * (1 - (alpha + 1)/j). For 0 < alpha < 1 every
weight after w_0 is negative and the partial sums fall monotonically
toward zero -- that slow decay IS the system's memory.""")
for alpha in (0.5, 0.97, 1.0):
    w = ", ".join(f"{(0.0 if x == 0 else x):+.5f}" for x in gl_weights(alpha, 8))
    print(f"  alpha = {alpha:<4} -> [{w}]")
print("""
At alpha = 1 the weights collapse to [1, -1, 0, ...]: the fractional
derivative degenerates into the ordinary first difference, so every
integer-order result comes out of the same code path.""")

partial = np.cumsum(gl_weights(0.97, 1000))
print(f"partial sums S_K of w_j(0.97):  S_10 = {partial[10]:.5f}   "
      f"S_100 = {partial[100]:.6f}   S_1000 = {partial[1000]:.3e}")
print("(S_K -> 0 from above; truncating the tail of the sum is what the")
print(" short-memory option in the solver does.)")

banner("2. Power rule: D^alpha t^p against the closed form")
print("""\
For f(t) = t^p the order-alpha derivative is
Gamma(p+1) / Gamma(p+1-alpha) * t^(p-alpha). The discrete operator
should land within ~1% for h = 1e-3 once t is clear of the origin.""")
h = 1e-3
t = np.arange(0.0, 1.0 + h / 2, h)
print(f"  {'p':>3} {'alpha':>6} {'max rel err on [0.1, 1]':>26}")
for p in (1, 2, 3):
    for alpha in (0.5, 0.9, 0.97):
        num = gl_derivative(t**p, alpha, h)
        exact = gamma(p + 1) / gamma(p + 1 - alpha) * t ** (p - alpha)
        sel = t >= 0.1
        rel = np.max(np.abs(num[sel] - exact[sel]) / np.abs(exact[sel]))
        print(f"  {p:>3} {alpha:>6} {rel:>26.2e}")

banner("3. Mittag-Leffler: the exponential's fractional cousin")
print("""\
E_alpha(z) = sum z^k / Gamma(alpha k + 1). It is the exact solution
kernel of D^alpha x = a x, the oracle the solver is tested against.""")
print(f"  E_1.0(-1)  = {mittag_leffler(1.0, -1.0):.15f}   (exp(-1) = {math.exp(-1):.15f})")
print(f"  E_0.97(-1) = {mittag_leffler(0.97, -1.0):.15f}")
print(f"  E_0.9(-1)  = {mittag_leffler(0.9, -1.0):.15f}")
print(f"  E_0.5(-1)  = {mittag_leffler(0.5, -1.0):.15f}")
print("""
Smaller alpha decays faster near zero but with a heavy algebraic tail
-- fractional relaxation forgets slowly. That tail is why observers on
such systems keep reacting to errors long past their first convergence.""")
