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
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import SingularGainError
from .fraccalc import _as_order, gamma
from .plants import PlantModel

__all__ = [
    "VARIANTS",
    "ObserverGains",
    "ObserverState",
    "GateVector",
    "FstaParams",
    "fsta_rhs",
    "sta_convergence_time",
    "gates",
    "estimation_errors",
    "proposed_observer_rhs",
    "baseline_observer_rhs",
    "baseline_fault_readout",
    "recover_fault_general_b",
    "required_gain_count",
    "state_dim",
    "state_labels",
    "pack_state",
    "unpack_state",
    "zero_state",
    "ObserverDynamics",
]

VARIANTS = ("proposed", "baseline")

DEFAULT_EPSILON = 0.01


def _sign(v: float) -> float:
    # sign(0) = 0: at the exact sliding point the injection vanishes.
    return 0.0 if v == 0.0 else math.copysign(1.0, v)


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
    """
    s = _sign(xi1)
    return (
        xi2 - p.lam * math.sqrt(abs(xi1)) * s,
        -p.alpha_gain * s + rho,
    )


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


@dataclass(frozen=True)
class ObserverGains:
    """Per-pair gains (lambda_i, alpha_i) plus the gate tolerance eps.

    The baseline observer consumes n pairs, the proposed one n+1; all
    gains must be strictly positive and the two tuples equally long.
    """

    lambdas: tuple
    alphas_gain: tuple
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        alp = tuple(float(v) for v in self.alphas_gain)
        if len(lam) != len(alp):
            raise ValueError(
                f"gain tuples differ in length: {len(lam)} lambdas vs {len(alp)} alphas"
            )
        if len(lam) == 0:
            raise ValueError("at least one gain pair is required")
        if any(not (v > 0.0) for v in lam + alp):
            raise ValueError("all observer gains must be strictly positive")
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon!r}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "alphas_gain", alp)

    @classmethod
    def uniform(cls, value: float, count: int, epsilon: float = DEFAULT_EPSILON) -> "ObserverGains":
        return cls(lambdas=(float(value),) * count, alphas_gain=(float(value),) * count, epsilon=epsilon)


def required_gain_count(variant: str, n: int) -> int:
    if variant not in VARIANTS:
        raise ValueError(f"unknown observer variant {variant!r}")
    return n + 1 if variant == "proposed" else n


@dataclass
class ObserverState:
    """Full internal state of either observer variant.

    x_tilde holds the auxiliary signals xtilde_2..xtilde_n (index i-2 for
    xtilde_i); f_tilde / f_hat exist only on the proposed variant.
    """

    x_hat: np.ndarray
    x_tilde: np.ndarray
    theta_tilde: float
    f_tilde: Optional[float] = None
    f_hat: Optional[float] = None

    def __post_init__(self):
        self.x_hat = np.asarray(self.x_hat, dtype=float)
        self.x_tilde = np.asarray(self.x_tilde, dtype=float)
        n = self.x_hat.size
        if self.x_tilde.size != n - 1:
            raise ValueError(
                f"x_tilde must hold n-1={n-1} entries (xtilde_2..xtilde_n), got {self.x_tilde.size}"
            )
        if (self.f_tilde is None) != (self.f_hat is None):
            raise ValueError("f_tilde and f_hat must be both present (proposed) or both absent (baseline)")

    @property
    def n(self) -> int:
        return self.x_hat.size


@dataclass(frozen=True)
class GateVector:
    """Cascade enable flags E_1..E_m (monotone non-increasing in i)."""

    flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flags", np.asarray(self.flags, dtype=bool))


def gates(errors: np.ndarray, epsilon: float) -> GateVector:
    """Instantaneous gates: E_i = 1 iff |e_j| <= epsilon for all j <= i."""
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    within = np.abs(np.asarray(errors, dtype=float)) <= epsilon
    return GateVector(np.logical_and.accumulate(within))


def estimation_errors(state: ObserverState, y: float) -> np.ndarray:
    """e_1 = y - xhat_1, e_i = xtilde_i - xhat_i for i = 2..n."""
    e = np.empty(state.n)
    e[0] = y - state.x_hat[0]
    e[1:] = state.x_tilde - state.x_hat[1:]
    return e


def _check_shapes(variant: str, state: ObserverState, gains: ObserverGains, gate_count: int, flags) -> None:
    need = required_gain_count(variant, state.n)
    if len(gains.lambdas) != need:
        raise ValueError(
            f"{variant} observer with n={state.n} needs {need} gain pairs, got {len(gains.lambdas)}"
        )
    if flags.size != gate_count:
        raise ValueError(f"{variant} observer needs {gate_count} gates, got {flags.size}")


def proposed_observer_rhs(
    state: ObserverState,
    y: float,
    gains: ObserverGains,
    plant: PlantModel,
    gate_vec: GateVector,
) -> ObserverState:
    """Derivative of the proposed observer state (unit input gain).

    The known drift is evaluated with the measured output in the first
    slot and the auxiliary signals elsewhere: a(y, xtilde_2, .., xtilde_n).
    Gates E_1..E_n are taken as given; the fault pair is enabled by E_n.
    """
    n = state.n
    flags = gate_vec.flags
    _check_shapes("proposed", state, gains, n, flags)
    if state.f_tilde is None:
        raise ValueError("proposed observer state must carry f_tilde and f_hat")
    lam = gains.lambdas
    alp = gains.alphas_gain

    e = estimation_errors(state, y)
    d_xhat = np.empty(n)
    d_xtilde = np.empty(n - 1)

    for i in range(n - 1):  # pairs (xhat_i, xtilde_{i+1}), i = 1..n-1
        enable = 1.0 if (i == 0 or flags[i - 1]) else 0.0
        s = _sign(e[i])
        d_xhat[i] = enable * (state.x_tilde[i] + lam[i] * math.sqrt(abs(e[i])) * s)
        d_xtilde[i] = enable * alp[i] * s

    # n-th pair: drift + fault surrogate injection, second variable f_tilde.
    en_n = 1.0 if flags[n - 2] else 0.0
    s_n = _sign(e[n - 1])
    x_mix = np.concatenate(([y], state.x_tilde))
    drift = float(plant.a(x_mix))
    d_xhat[n - 1] = en_n * (drift + state.f_tilde + lam[n - 1] * math.sqrt(abs(e[n - 1])) * s_n)
    d_f_tilde = en_n * alp[n - 1] * s_n

    # fault pair on e_f = f_tilde - f_hat, enabled by E_n.
    en_f = 1.0 if flags[n - 1] else 0.0
    e_f = state.f_tilde - state.f_hat
    s_f = _sign(e_f)
    d_f_hat = en_f * (state.theta_tilde + lam[n] * math.sqrt(abs(e_f)) * s_f)
    d_theta = en_f * alp[n] * s_f

    return ObserverState(
        x_hat=d_xhat, x_tilde=d_xtilde, theta_tilde=d_theta,
        f_tilde=d_f_tilde, f_hat=d_f_hat,
    )


def baseline_observer_rhs(
    state: ObserverState,
    y: float,
    gains: ObserverGains,
    gate_vec: GateVector,
) -> ObserverState:
    """Derivative of the baseline observer state.

    Identical cascade prefix; the n-th pair estimates the whole unknown
    drive with theta_tilde (no drift injection, no fault pair). Gates
    E_1..E_{n-1} are taken as given.
    """
    n = state.n
    flags = gate_vec.flags
    _check_shapes("baseline", state, gains, n - 1, flags)
    lam = gains.lambdas
    alp = gains.alphas_gain

    e = estimation_errors(state, y)
    d_xhat = np.empty(n)
    d_xtilde = np.empty(n - 1)

    for i in range(n - 1):
        enable = 1.0 if (i == 0 or flags[i - 1]) else 0.0
        s = _sign(e[i])
        d_xhat[i] = enable * (state.x_tilde[i] + lam[i] * math.sqrt(abs(e[i])) * s)
        d_xtilde[i] = enable * alp[i] * s

    en_n = 1.0 if flags[n - 2] else 0.0
    s_n = _sign(e[n - 1])
    d_xhat[n - 1] = en_n * (state.theta_tilde + lam[n - 1] * math.sqrt(abs(e[n - 1])) * s_n)
    d_theta = en_n * alp[n - 1] * s_n

    return ObserverState(x_hat=d_xhat, x_tilde=d_xtilde, theta_tilde=d_theta)


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


def recover_fault_general_b(b_at_xhat: float, d_hat: float) -> float:
    """Recover fhat = D_hat / b for a general (non-unit) input gain."""
    b = float(b_at_xhat)
    if abs(b) < 1e-9:
        raise SingularGainError(f"input gain {b!r} is numerically singular")
    return float(d_hat) / b


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


def pack_state(state: ObserverState, variant: str) -> np.ndarray:
    n = state.n
    flat = np.empty(state_dim(variant, n))
    flat[0:2 * n - 1:2] = state.x_hat
    flat[1:2 * n - 2:2] = state.x_tilde
    if variant == "proposed":
        flat[2 * n - 1] = state.f_tilde
        flat[2 * n] = state.f_hat
    flat[-1] = state.theta_tilde
    return flat


def unpack_state(flat: np.ndarray, n: int, variant: str) -> ObserverState:
    flat = np.asarray(flat, dtype=float)
    if flat.size != state_dim(variant, n):
        raise ValueError(
            f"flat state has {flat.size} entries, {variant} observer with n={n} "
            f"needs {state_dim(variant, n)}"
        )
    kw = {}
    if variant == "proposed":
        kw = {"f_tilde": float(flat[2 * n - 1]), "f_hat": float(flat[2 * n])}
    return ObserverState(
        x_hat=flat[0:2 * n - 1:2].copy(),
        x_tilde=flat[1:2 * n - 2:2].copy(),
        theta_tilde=float(flat[-1]),
        **kw,
    )


def zero_state(variant: str, n: int) -> ObserverState:
    kw = {"f_tilde": 0.0, "f_hat": 0.0} if variant == "proposed" else {}
    return ObserverState(x_hat=np.zeros(n), x_tilde=np.zeros(n - 1), theta_tilde=0.0, **kw)


class ObserverDynamics:
    """Flat-vector wrapper driving one observer inside an integration run.

    Computes errors and gates from the current flat state and dispatches
    to the variant right-hand side. In latching mode the gate flags are
    OR-accumulated across steps (once open, stays open), which makes an
    instance single-use per run unless reset().
    """

    def __init__(
        self,
        variant: str,
        gains: ObserverGains,
        plant: PlantModel,
        latching: bool = False,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown observer variant {variant!r}")
        need = required_gain_count(variant, plant.n)
        if len(gains.lambdas) != need:
            raise ValueError(
                f"{variant} observer with n={plant.n} needs {need} gain pairs, "
                f"got {len(gains.lambdas)}"
            )
        self.variant = variant
        self.gains = gains
        self.plant = plant
        self.n = plant.n
        self.latching = bool(latching)
        self.gate_count = plant.n if variant == "proposed" else plant.n - 1
        self.dim = state_dim(variant, plant.n)
        self.labels = state_labels(variant, plant.n)
        self.reset()

    def reset(self) -> None:
        self._latch = np.zeros(self.gate_count, dtype=bool)

    def gate_flags(self, errors: np.ndarray) -> np.ndarray:
        flags = gates(errors[: self.gate_count], self.gains.epsilon).flags
        if self.latching:
            self._latch |= flags
            flags = self._latch.copy()
        return flags

    def rhs_flat(self, y: float, flat: np.ndarray) -> np.ndarray:
        s = unpack_state(flat, self.n, self.variant)
        gv = GateVector(self.gate_flags(estimation_errors(s, y)))
        if self.variant == "proposed":
            ds = proposed_observer_rhs(s, y, self.gains, self.plant, gv)
        else:
            ds = baseline_observer_rhs(s, y, self.gains, gv)
        return pack_state(ds, self.variant)
