"""Cascaded super-twisting observers for observable-form plants.

Both observers rebuild the state of

    D^alpha x_i = x_{i+1},  D^alpha x_n = a(x) + f(t),   y = x_1

from the scalar output alone, as one chain of P second-order sliding-mode
pairs (P = n baseline, n + 1 proposed). Each pair holds an estimate and a
second variable; the measured input of pair j is the second variable of
pair j-1 (y for the first pair), and its error e_j is that input minus
its estimate. Pair j+1 is enabled by the gate E_j = 1 iff |e_i| <= eps
for every i <= j, so the stages engage strictly in chain order. The flat
state is the pairs in order:

    [xhat_1, xtilde_2, ..., xhat_{n-1}, xtilde_n, xhat_n, f_tilde, f_hat, theta_tilde]
    [xhat_1, xtilde_2, ..., xhat_{n-1}, xtilde_n, xhat_n, theta_tilde]

(proposed, baseline), so e_1 = y - xhat_1 and e_i = xtilde_i - xhat_i
for i <= n, and the last pair's second variable is theta_tilde.

``baseline`` ends the chain at pair n, whose theta_tilde estimates the
whole unknown drive a(x) + f; the fault is then read out algebraically
as fhat = b(xt)^-1 (theta_tilde - a(xt)).

``proposed`` instead injects the known drift into pair n, whose second
variable enters as a(y, xtilde_2..xtilde_n) + f_tilde (the chain's one
special case), so f_tilde tracks the fault directly, and pair n+1
(f_hat, theta_tilde) runs on the fault error e_f = f_tilde - f_hat. That
extra stage is what filters the switching chatter out of the delivered
fault estimate.

``ObserverDynamics`` alone reads that layout: ``rhs_flat`` runs the
chain on Python floats, every pair evaluating the one formula in
``_pair`` (as does ``fsta_rhs``), and ``channels`` writes a recorded
block's named columns into a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, sqrt
from operator import sub

import numpy as np

from .errors import SingularGainError
from .fraccalc import _as_order, gamma
from .plants import PlantModel

__all__ = [
    "VARIANTS",
    "FstaParams",
    "fsta_rhs",
    "sta_convergence_time",
    "gates",
    "baseline_fault_readout",
    "required_gain_count",
    "state_dim",
    "state_labels",
    "ObserverDynamics",
]

VARIANTS = ("proposed", "baseline")

DEFAULT_EPSILON = 0.01


def _pair(e: float, v: float, lam: float, alp: float) -> tuple[float, float]:
    """Derivatives of one super-twisting pair (estimate, second variable)
    driven by its error e = measured - estimate:

        estimate' = v + lam * |e|^(1/2) * sign(e),   v' = alp * sign(e)

    sign(0) = 0: at the exact sliding point the injection vanishes.
    """
    s = 0.0 if e == 0.0 else copysign(1.0, e)
    return v + lam * sqrt(abs(e)) * s, alp * s


# what a pair whose gate is closed contributes
_HELD = (0.0, 0.0)


@dataclass(frozen=True)
class FstaParams:
    """Gains of one fractional super-twisting pair."""

    lam: float
    alpha_gain: float

    def __post_init__(self):
        if not (self.lam > 0.0) or not (self.alpha_gain > 0.0):
            raise ValueError("super-twisting gains must be strictly positive")


def fsta_rhs(xi1: float, xi2: float, p: FstaParams, rho: float = 0.0) -> tuple[float, float]:
    """One fractional super-twisting pair:

        D^alpha xi1 = xi2 - lam * |xi1|^(1/2) * sign(xi1)
        D^alpha xi2 = -alpha_gain * sign(xi1) + rho

    xi1 is the estimate minus the measurement, so this is the cascade's
    pair formula at e = -xi1.
    """
    d1, d2 = _pair(-xi1, xi2, p.lam, p.alpha_gain)
    return d1, d2 + rho


def sta_convergence_time(alpha, v_s: float) -> float:
    """Finite-time bound T_s = (Gamma(alpha+1) * v_s)^(1/alpha).

    v_s is the Lyapunov-derived constant of the pair, supplied by the
    caller. At alpha = 1 this is just v_s.
    """
    a = _as_order(alpha)
    v_s = float(v_s)
    if not (v_s > 0.0):
        raise ValueError(f"v_s must be > 0, got {v_s!r}")
    return (gamma(a + 1.0) * v_s) ** (1.0 / a)


def required_gain_count(variant: str, n: int) -> int:
    if variant not in VARIANTS:
        raise ValueError(f"unknown observer variant {variant!r}")
    return n + 1 if variant == "proposed" else n


def gates(errors: np.ndarray, epsilon: float) -> np.ndarray:
    """Instantaneous gates as a boolean array: E_i = 1 iff |e_j| <= epsilon
    for all j <= i, so the flags never rise along i.

    The errors run along the last axis, so a (rows, m) array of error
    columns gives the gate columns of a whole trace.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    within = np.abs(np.asarray(errors, dtype=float)) <= epsilon
    return np.logical_and.accumulate(within, axis=-1)


def baseline_fault_readout(x_tilde_full: np.ndarray, theta_tilde, plant: PlantModel):
    """Algebraic fault readout fhat = b(xt)^-1 (theta_tilde - a(xt)).

    ``x_tilde_full`` is the assembled vector (y, xtilde_2, .., xtilde_n) --
    the measured output sits in the first slot. Broadcasts over rows when
    given a (rows, n) array and an array of theta values.
    """
    xt = np.asarray(x_tilde_full, dtype=float)
    b_val = plant.b(xt)
    if np.any(np.abs(b_val) < 1e-9):
        raise SingularGainError("input gain b(x_tilde) is numerically singular")
    out = (theta_tilde - plant.a(xt)) / b_val
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# flat-vector adapters used by the simulation harness

def state_dim(variant: str, n: int) -> int:
    return 2 * required_gain_count(variant, n)


def state_labels(variant: str, n: int) -> list[str]:
    """The flat state's labels: each pair's estimate, then its second variable."""
    p = required_gain_count(variant, n)
    estimates = [*(f"xhat{i}" for i in range(1, n + 1)), "f_hat"][:p]
    seconds = [*(f"xtilde{i}" for i in range(2, n + 1)), "f_tilde"][:p - 1] + ["theta_tilde"]
    return [label for pair in zip(estimates, seconds) for label in pair]


class ObserverDynamics:
    """One observer inside an integration run, on its flat state block.

    ``lambdas`` and ``alphas`` hold one strictly positive gain per pair
    (n baseline, n+1 proposed); ``epsilon`` > 0 is the gate tolerance.
    ``rhs_flat`` computes the errors and gates from the current flat state
    and runs the chain; ``channels`` writes a whole recorded block back
    as the named columns ``channel_labels``. In latching mode a gate stays
    open once it has opened (the count of open gates never falls), which
    makes an instance single-use per run unless reset().
    """

    def __init__(
        self,
        variant: str,
        plant: PlantModel,
        lambdas,
        alphas,
        epsilon: float = DEFAULT_EPSILON,
        latching: bool = False,
    ):
        need = required_gain_count(variant, plant.n)
        lam = tuple(float(v) for v in lambdas)
        alp = tuple(float(v) for v in alphas)
        if len(lam) != need or len(alp) != need:
            raise ValueError(
                f"{variant} observer with n={plant.n} needs {need} gain pairs, "
                f"got {len(lam)} lambdas and {len(alp)} alphas"
            )
        if any(not (v > 0.0) for v in lam + alp):
            raise ValueError("all observer gains must be strictly positive")
        if not (epsilon > 0.0):
            raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
        self.variant = variant
        self.plant = plant
        self.n = plant.n
        self.latching = bool(latching)
        self.gate_count = need - 1  # every pair after the first has a gate
        self.dim = 2 * need
        self.labels = state_labels(variant, plant.n)
        self.error_labels = [*(f"e{i}" for i in range(1, plant.n + 1)), "e_f"][:need]
        self.channel_labels = [
            *self.labels, *self.error_labels, *(["f_hat"] if variant == "baseline" else []),
            *(f"E{i}" for i in range(1, need)),
        ]
        # the proposed n-th pair's second variable gets the known drift added
        self._drift_pair = plant.n - 1 if variant == "proposed" else None
        self._lam, self._alp, self._eps = lam, alp, epsilon
        self.reset()

    def reset(self) -> None:
        self._latched = 0

    def rhs_flat(self, y: float, flat) -> list[float]:
        """Derivative of the flat state (layout in the module docstring).

        ``flat`` is a sequence of floats: a list, or an array row. Pair
        j+1 runs while gate E_j is open; the first pair always runs.
        """
        if len(flat) != self.dim:
            raise ValueError(
                f"flat state has {len(flat)} entries, {self.variant} observer "
                f"with n={self.n} needs {self.dim}"
            )
        lam, alp, eps = self._lam, self._alp, self._eps

        # each pair's measured input (y, then the previous pair's second
        # variable) minus its estimate; open_ = gates open now
        errors = [y - flat[0], *map(sub, flat[1:-2:2], flat[2::2])]
        open_ = 0
        for e in errors[: self.gate_count]:
            if not abs(e) <= eps:
                break
            open_ += 1
        if self.latching:
            if open_ > self._latched:
                self._latched = open_
            else:
                open_ = self._latched

        out = []
        for j in range(open_ + 1):
            v = flat[2 * j + 1]
            if j == self._drift_pair:
                # known drift a(y, xtilde_2..xtilde_n) plus f_tilde
                v = self.plant.drift(y, *flat[1:2 * j:2]) + v
            out += _pair(errors[j], v, lam[j], alp[j])
        out += _HELD * (self.gate_count - open_)
        return out

    def channels(self, y: np.ndarray, block: np.ndarray, out: dict) -> None:
        """Write the named columns of a recorded (rows, dim) block driven
        by the output column y into ``out``, which maps each label of
        ``channel_labels`` to a writable column of that many rows: the
        block's own (``self.labels``), every pair's error (e1..en, then
        ``e_f`` proposed), the ``f_hat`` readout (baseline), and the gates
        E1..Em as 0.0/1.0 (the rule of ``gates``, column by column),
        latched down the rows if latching.
        """
        cols = block.T
        for label, col in zip(self.labels, cols):
            out[label][:] = col
        measured = [y, *cols[1:-2:2]]
        with np.errstate(invalid="ignore"):
            for label, m, estimate in zip(self.error_labels, measured, cols[::2]):
                np.subtract(m, estimate, out=out[label])
            if self.variant == "baseline":
                out["f_hat"][:] = baseline_fault_readout(
                    np.column_stack(measured), out["theta_tilde"], self.plant
                )
            open_ = np.ones(len(y), dtype=bool)
            for i in range(1, self.gate_count + 1):
                open_ &= np.abs(out[f"e{i}"]) <= self._eps
                out[f"E{i}"][:] = np.logical_or.accumulate(open_) if self.latching else open_
