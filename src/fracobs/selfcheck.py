"""Numerics self-validation: closed-form oracles for the core math.

Every check compares an in-package routine against an independent
reference (an analytic formula or a frozen high-precision constant,
never the routine under test) and reports pass/fail against a
documented tolerance.  ``run_all`` is what the ``validate`` CLI
command executes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fraccalc, fde

TOLERANCES = {
    "power-rule": 1e-2,          # relative, t in [0.1, 1], h = 1e-3
    "solver-vs-mittag-leffler": 1e-2,   # relative, t in [0.1, 5]
    "solver-vs-exponential": 2e-3,      # absolute at t = 1, alpha = 1
    "euler-reduction": 0.0,      # exact weight-table identity
    # The 1000-term sum is ~3.8e-5 built from O(1) terms, so float
    # cancellation amplifies roundoff by ~1/sum; 1e-10 leaves margin.
    "weight-partial-sum": 1e-10,  # relative vs frozen binomial value
    "gamma-half-integers": 1e-12,  # relative vs sqrt(pi) closed forms
    "mittag-leffler-spot": 1e-12,  # relative vs frozen series value
}

# (-1)^1000 * C(alpha-1, 1000) for alpha = 0.97, computed from the
# binomial form of the partial-sum identity at 50-digit precision.
_WEIGHT_PARTIAL_SUM_097_1000 = 3.7524811028712365956e-05
# Series value of E_0.9(-1), frozen from a 50-digit evaluation.
_ML_09_AT_MINUS1 = 0.37606602142464188118


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:<28} measured {self.measured:.3e}"
            f"  tol {self.tolerance:.0e}  {self.detail}"
        )


def check_power_rule() -> CheckResult:
    """GL derivative of t^p against Gamma(p+1)/Gamma(p-a+1) t^(p-a)."""
    h = 1e-3
    t = np.arange(0, 1.0 + h / 2, h)
    lo = int(round(0.1 / h))
    worst = 0.0
    for p in (1, 2, 3):
        for a in (0.5, 0.9, 0.97):
            num = fraccalc.gl_derivative(t ** p, a, h)
            ref = (
                fraccalc.gamma(p + 1.0)
                / fraccalc.gamma(p - a + 1.0)
                * t ** (p - a)
            )
            rel = np.abs(num[lo:] - ref[lo:]) / np.abs(ref[lo:])
            worst = max(worst, float(rel.max()))
    tol = TOLERANCES["power-rule"]
    return CheckResult("power-rule", worst < tol, worst, tol,
                       "p in {1,2,3}, alpha in {0.5,0.9,0.97}")


def check_solver_vs_mittag_leffler() -> CheckResult:
    """Relaxation x' = -x, alpha = 0.9 against x0 * E_a(-t^a)."""
    a = 0.9
    grid = fde.SimGrid(h=1e-3, t_end=5.0, memory_len="full")
    field = fde.VectorField(dim=1, eval=lambda t, x: -np.asarray(x))
    trace = fde.integrate(field, a, grid, np.array([1.0]))
    t = trace.times()
    lo = int(round(0.1 / grid.h))
    num = trace.values[lo:, 0]
    ref = np.array([fraccalc.mittag_leffler(a, -(ti ** a)) for ti in t[lo:]])
    worst = float(np.max(np.abs(num - ref) / np.abs(ref)))
    tol = TOLERANCES["solver-vs-mittag-leffler"]
    return CheckResult("solver-vs-mittag-leffler", worst < tol, worst, tol,
                       "alpha=0.9, t in [0.1, 5]")


def check_solver_vs_exponential() -> CheckResult:
    """alpha = 1 run reduces to explicit Euler; compare with exp(-t) at t=1."""
    grid = fde.SimGrid(h=1e-3, t_end=1.0, memory_len="full")
    field = fde.VectorField(dim=1, eval=lambda t, x: -np.asarray(x))
    trace = fde.integrate(field, 1.0, grid, np.array([1.0]))
    err = abs(float(trace.values[-1, 0]) - math.exp(-1.0))
    tol = TOLERANCES["solver-vs-exponential"]
    return CheckResult("solver-vs-exponential", err < tol, err, tol,
                       "alpha=1 vs exp(-1)")


def check_euler_reduction() -> CheckResult:
    """alpha = 1 weight table is exactly [1, -1, 0, 0, ...]."""
    w = fraccalc.gl_weights(1.0, 64)
    expect = np.zeros(65)
    expect[0], expect[1] = 1.0, -1.0
    dev = float(np.max(np.abs(w - expect)))
    tol = TOLERANCES["euler-reduction"]
    return CheckResult("euler-reduction", dev == tol, dev, tol,
                       "weights == [1, -1, 0, ...]")


def check_weight_partial_sum() -> CheckResult:
    """Partial sums collapse to a single signed binomial coefficient."""
    w = fraccalc.gl_weights(0.97, 1000)
    s = float(w.sum())
    rel = abs(s - _WEIGHT_PARTIAL_SUM_097_1000) / _WEIGHT_PARTIAL_SUM_097_1000
    tol = TOLERANCES["weight-partial-sum"]
    return CheckResult("weight-partial-sum", rel < tol, rel, tol,
                       "sum_0^1000 w_j(0.97) vs binomial identity")


def check_gamma_half_integers() -> CheckResult:
    """gamma against sqrt(pi) closed forms at half-integers."""
    sq = math.sqrt(math.pi)
    cases = {0.5: sq, 1.5: sq / 2.0, 2.5: 3.0 * sq / 4.0, 3.5: 15.0 * sq / 8.0}
    worst = max(
        abs(fraccalc.gamma(x) - v) / v for x, v in cases.items()
    )
    tol = TOLERANCES["gamma-half-integers"]
    return CheckResult("gamma-half-integers", worst < tol, worst, tol,
                       "x in {0.5, 1.5, 2.5, 3.5}")


def check_mittag_leffler_spot() -> CheckResult:
    """E_0.9(-1) against a frozen high-precision series value."""
    v = fraccalc.mittag_leffler(0.9, -1.0)
    rel = abs(v - _ML_09_AT_MINUS1) / _ML_09_AT_MINUS1
    tol = TOLERANCES["mittag-leffler-spot"]
    return CheckResult("mittag-leffler-spot", rel < tol, rel, tol,
                       "E_0.9(-1)")


ALL_CHECKS = (
    check_euler_reduction,
    check_gamma_half_integers,
    check_weight_partial_sum,
    check_mittag_leffler_spot,
    check_power_rule,
    check_solver_vs_exponential,
    check_solver_vs_mittag_leffler,
)


def run_all() -> list[CheckResult]:
    return [chk() for chk in ALL_CHECKS]


def format_report(results: list[CheckResult], elapsed: float | None = None) -> str:
    lines = [r.line() for r in results]
    lines.append("tolerances: " + ", ".join(
        f"{k}={v:.0e}" for k, v in TOLERANCES.items()
    ))
    n_bad = sum(not r.passed for r in results)
    tail = f"{len(results) - n_bad}/{len(results)} checks passed"
    if elapsed is not None:
        tail += f" in {elapsed:.1f}s"
    lines.append(tail)
    return "\n".join(lines)


def main() -> int:
    t0 = time.perf_counter()
    results = run_all()
    print(format_report(results, time.perf_counter() - t0))
    return 0 if all(r.passed for r in results) else 1
