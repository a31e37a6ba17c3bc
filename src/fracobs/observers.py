"""Cascaded super-twisting observers for observable-form plants.

Both observers rebuild the state of

    D^alpha x_i = x_{i+1},  D^alpha x_n = a(x) + f(t),   y = x_1

from the scalar output alone, as a chain of second-order sliding-mode
pairs. Pair i produces the estimate xhat_i of x_i and the auxiliary
signal xtilde_{i+1}, which serves as the measured input of pair i+1.
Errors are e_1 = y - xhat_1 and e_i = xtilde_i - xhat_i; pair i+1 is
enabled by the gate E_i = 1 iff |e_j| <= eps for every j <= i, so the
stages engage strictly in cascade order.

``baseline`` terminates the cascade with a pair (xhat_n, theta_tilde)
where theta_tilde estimates the whole unknown drive a(x) + f; the fault
is then read out algebraically as fhat = b(xt)^-1 (theta_tilde - a(xt)).

``proposed`` instead injects the known drift into the n-th pair,
a(y, xtilde_2..xtilde_n) + f_tilde, so its second variable f_tilde tracks
the fault directly, and appends one more super-twisting pair
(f_hat, theta_tilde) on the fault error e_f = f_tilde - f_hat. That extra
stage is what filters the switching chatter out of the delivered fault
estimate.

State layout used throughout (dimension 2n+2 proposed, 2n baseline):

    [xhat_1, xtilde_2, xhat_2, xtilde_3, ..., xhat_{n-1}, xtilde_n,
     xhat_n, f_tilde, f_hat, theta_tilde]        (proposed)
    [ ...same prefix..., xhat_n, theta_tilde]    (baseline)

so the first 2(n-1) derivative components of the two variants coincide
by construction. ``ObserverDynamics`` alone reads that layout:
``rhs_flat`` runs the shared prefix and then the variant's tail on Python
floats, every pair evaluating the one formula in ``_pair`` (as does
``fsta_rhs``), and ``channels`` writes a recorded block's named columns
into a trace.
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
    return 2 * n + 2 if variant == "proposed" else 2 * n


def state_labels(variant: str, n: int) -> list[str]:
    labels = []
    for i in range(1, n):
        labels += [f"xhat{i}", f"xtilde{i+1}"]
    labels.append(f"xhat{n}")
    if variant == "proposed":
        labels += ["f_tilde", "f_hat", "theta_tilde"]
    else:
        labels.append("theta_tilde")
    return labels


class ObserverDynamics:
    """One observer inside an integration run, on its flat state block.

    ``lambdas`` and ``alphas`` hold one strictly positive gain per pair
    (n baseline, n+1 proposed); ``epsilon`` > 0 is the gate tolerance.
    ``rhs_flat`` computes the errors and gates from the current flat state
    and runs the cascade; ``channels`` writes a whole recorded block back
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
        self.dim = state_dim(variant, plant.n)
        self.labels = state_labels(variant, plant.n)
        self.channel_labels = [
            *self.labels, *(f"e{i}" for i in range(1, plant.n + 1)),
            "e_f" if variant == "proposed" else "f_hat",
            *(f"E{i}" for i in range(1, self.gate_count + 1)),
        ]
        self._lam, self._alp, self._eps = lam, alp, epsilon
        self.reset()

    def reset(self) -> None:
        self._latched = 0

    def rhs_flat(self, y: float, flat) -> list[float]:
        """Derivative of the flat state (layout in the module docstring).

        ``flat`` is a sequence of floats: a list, or an array row. Pair
        i+1 runs while gate E_i is open; the first pair always runs.
        """
        n = self.n
        if len(flat) != self.dim:
            raise ValueError(
                f"flat state has {len(flat)} entries, {self.variant} observer "
                f"with n={n} needs {self.dim}"
            )
        lam, alp, eps = self._lam, self._alp, self._eps

        # e_1 = y - xhat_1, e_i = xtilde_i - xhat_i; open_ = gates open now
        errors = [y - flat[0], *map(sub, flat[1:2 * n - 2:2], flat[2:2 * n - 1:2])]
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

        # shared prefix: pairs (xhat_i, xtilde_{i+1}), i = 1..n-1
        out = list(_pair(errors[0], flat[1], lam[0], alp[0]))
        for i in range(1, n - 1):
            out += _pair(errors[i], flat[2 * i + 1], lam[i], alp[i]) if open_ >= i else _HELD
        # n-th pair, enabled by E_{n-1}
        if open_ < n - 1:
            out += _HELD
        elif self.variant == "baseline":
            # second variable theta_tilde estimates the whole drive
            out += _pair(errors[n - 1], flat[2 * n - 1], lam[n - 1], alp[n - 1])
        else:
            # known drift a(y, xtilde_2..xtilde_n) plus f_tilde
            v = self.plant.drift(y, *flat[1:2 * n - 2:2]) + flat[2 * n - 1]
            out += _pair(errors[n - 1], v, lam[n - 1], alp[n - 1])
        if self.variant == "proposed":
            # fault pair (f_hat, theta_tilde) on e_f = f_tilde - f_hat, enabled by E_n
            if open_ >= n:
                out += _pair(flat[2 * n - 1] - flat[2 * n], flat[2 * n + 1], lam[n], alp[n])
            else:
                out += _HELD
        return out

    def channels(self, y: np.ndarray, block: np.ndarray, out: dict) -> None:
        """Write the named columns of a recorded (rows, dim) block driven
        by the output column y into ``out``, which maps each label of
        ``channel_labels`` to a writable column of that many rows: the
        block's own (``self.labels``), the errors e1..en, ``e_f``
        (proposed) or the ``f_hat`` readout (baseline), and the gates
        E1..Em as 0.0/1.0 (the rule of ``gates``, column by column),
        latched down the rows if latching.
        """
        n = self.n
        for label, col in zip(self.labels, block.T):
            out[label][:] = col
        xtilde = [out[f"xtilde{i}"] for i in range(2, n + 1)]
        np.subtract(y, out["xhat1"], out=out["e1"])
        for i, xt in enumerate(xtilde, 2):
            np.subtract(xt, out[f"xhat{i}"], out=out[f"e{i}"])
        with np.errstate(invalid="ignore"):
            if self.variant == "proposed":
                np.subtract(out["f_tilde"], out["f_hat"], out=out["e_f"])
            else:
                out["f_hat"][:] = baseline_fault_readout(
                    np.column_stack([y, *xtilde]), out["theta_tilde"], self.plant
                )
            open_ = np.ones(len(y), dtype=bool)
            for i in range(1, self.gate_count + 1):
                open_ &= np.abs(out[f"e{i}"]) <= self._eps
                out[f"E{i}"][:] = np.logical_or.accumulate(open_) if self.latching else open_
