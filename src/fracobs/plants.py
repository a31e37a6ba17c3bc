"""Benchmark plants in observable canonical form.

Every plant here is a commensurate-order chain

    D^alpha x_i = x_{i+1},            i = 1..n-1
    D^alpha x_n = a(x) + b(x) * f(t) + noise(t)

with scalar output y = x_1. ``a`` is the drift nonlinearity, ``b`` the
input gain on the fault (identically 1 for both bundled presets), ``f``
an additive actuator fault and the noise a per-step Gaussian disturbance
entering the same equation, not scaled by ``b``. Both are functions of t
alone (``fault_value``, ``noise_signal``), so the assembled field is a
pure function of (t, x).

Two chaotic presets are bundled, both the three-state chain with drift
a(x) = -b1*x1 - b2*x2 - b3*x3 + b4*x1^p (``_chain_plant``):

* ``arneodo``      -- p = 3, betas (-5.5, 3.5, 0.8, -1.0), alpha 0.97.
* ``genesio_tesi`` -- p = 2, betas (1.0, 1.1, 0.44, 1.0), alpha 0.9.

The chain writes its drift once, over components: ``drift(x1, .., xn)``
on Python floats for the per-step field, and ``PlantModel.a(x)`` unpacks
the last axis of an array into the same expression, so x may be shape
(n,) or (rows, n) and the harness reads out whole trace columns with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fde import SimGrid, VectorField

__all__ = [
    "PlantModel",
    "FaultSignal",
    "NoiseSpec",
    "arneodo",
    "genesio_tesi",
    "plant_preset",
    "PLANT_PRESETS",
    "fault_value",
    "noise_draws",
    "noise_signal",
    "assemble_field",
]

FAULT_KINDS = ("none", "cosine", "sine", "step", "ramp", "custom")


@dataclass
class PlantModel:
    """Observable-form plant of dimension n with drift a and input gain b.

    ``drift`` and ``gain`` take the n state components as separate
    arguments (floats, or equal-shape arrays); ``a`` and ``b`` apply them
    to the last axis of an array.
    """

    n: int
    alpha: float
    drift: Callable[..., float]
    gain: Callable[..., float]
    x0: np.ndarray
    params: dict
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"plant dimension must be >= 2, got {self.n}")
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.n,):
            raise ValueError(f"x0 shape {self.x0.shape} does not match n={self.n}")

    def a(self, x):
        return self.drift(*np.moveaxis(np.asarray(x, dtype=float), -1, 0))

    def b(self, x):
        return self.gain(*np.moveaxis(np.asarray(x, dtype=float), -1, 0))


@dataclass(frozen=True)
class FaultSignal:
    """Additive actuator fault with closed-form evaluation.

    kinds: none | cosine | sine | step | ramp | custom.
    The signal is identically zero before ``onset``; the waveform runs on
    the shifted clock t - onset. ramp slope is ``amplitude`` per second.
    ``custom`` interprets ``samples`` on a uniform grid of spacing
    ``sample_dt`` starting at onset (zero-order hold, clamped at the end).
    """

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 1.0
    onset: float = 0.0
    samples: Optional[tuple] = None
    sample_dt: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}, expected one of {FAULT_KINDS}")
        for nm in ("amplitude", "frequency", "onset"):
            if not math.isfinite(float(getattr(self, nm))):
                raise ValueError(f"fault {nm} must be finite")
        if self.onset < 0.0:
            raise ValueError(f"fault onset must be >= 0, got {self.onset}")
        if self.kind == "custom":
            if self.samples is None or self.sample_dt is None:
                raise ValueError("custom fault needs samples and sample_dt")
            arr = np.asarray(self.samples, dtype=float)
            if arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ValueError("custom fault samples must be non-empty and finite")
            if not (float(self.sample_dt) > 0.0):
                raise ValueError("custom fault sample_dt must be > 0")
            object.__setattr__(self, "samples", tuple(float(v) for v in arr))
        elif self.samples is not None or self.sample_dt is not None:
            raise ValueError(f"a {self.kind} fault takes no samples or sample_dt")


def fault_value(fault: Optional[FaultSignal], t: float) -> float:
    """The fault at time t (zero before onset)."""
    if fault is None or fault.kind == "none":
        return 0.0
    tau = t - fault.onset
    if tau < 0.0:
        return 0.0
    kind = fault.kind
    if kind == "cosine":
        return fault.amplitude * math.cos(fault.frequency * tau)
    if kind == "sine":
        return fault.amplitude * math.sin(fault.frequency * tau)
    if kind == "step":
        return fault.amplitude
    if kind == "ramp":
        return fault.amplitude * tau
    samples = fault.samples  # custom
    return samples[min(int(tau / fault.sample_dt), len(samples) - 1)]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-step Gaussian disturbance on the D^alpha x_n equation.

    One draw from N(0, variance) per grid step, held constant within the
    step; no 1/sqrt(h) scaling. ``noise_signal`` turns it into a function
    of t on a grid.
    """

    variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (float(self.variance) >= 0.0) or not math.isfinite(float(self.variance)):
            raise ValueError(f"noise variance must be >= 0, got {self.variance!r}")


def noise_draws(spec: NoiseSpec, count: int) -> np.ndarray:
    """The first ``count`` per-step draws for ``spec``."""
    rng = np.random.default_rng(spec.seed)
    return rng.normal(0.0, math.sqrt(spec.variance), size=int(count))


def noise_signal(spec: NoiseSpec, grid: SimGrid) -> Callable[[float], float]:
    """The noise on ``grid`` as a function of t.

    The step into t = k*h reads draw k-1 of ``noise_draws(spec,
    grid.n_steps)``, so every evaluation within a step sees the same
    draw. t = 0 reads draw 0; a t past the grid raises IndexError.
    """
    draws = memoryview(noise_draws(spec, grid.n_steps))
    h = grid.h

    def noise(t: float) -> float:
        k = round(t / h) - 1
        return draws[k if k > 0 else 0]

    return noise


def _unit_gain(*x) -> float:
    return 1.0


def _chain_plant(name: str, power: int, alpha: float, betas: Sequence[float],
                 x0: Sequence[float]) -> PlantModel:
    """The three-state chain with drift -b1*x1 - b2*x2 - b3*x3 + b4*x1**power.

    The power (2 or 3) is a left-to-right product, so floats and arrays
    run the same IEEE operations (float ``**`` calls the C library's pow).
    """
    b = tuple(float(v) for v in betas)
    if len(b) != 4:
        raise ValueError(f"{name} needs 4 betas, got {len(b)}")
    b1, b2, b3, b4 = b

    if power == 2:
        def drift(x1, x2, x3):
            return -b1 * x1 - b2 * x2 - b3 * x3 + b4 * (x1 * x1)
    else:
        def drift(x1, x2, x3):
            return -b1 * x1 - b2 * x2 - b3 * x3 + b4 * (x1 * x1 * x1)

    return PlantModel(
        n=3, alpha=float(alpha), drift=drift, gain=_unit_gain, x0=np.asarray(x0, dtype=float),
        params={"betas": b}, name=name,
    )


def arneodo(
    alpha: float = 0.97,
    betas: Sequence[float] = (-5.5, 3.5, 0.8, -1.0),
    x0: Sequence[float] = (-0.2, 0.5, 0.2),
) -> PlantModel:
    """Arneodo chaotic system, cubic drift, stock chaotic parameter set."""
    return _chain_plant("arneodo", 3, alpha, betas, x0)


def genesio_tesi(
    alpha: float = 0.9,
    betas: Sequence[float] = (1.0, 1.1, 0.44, 1.0),
    x0: Sequence[float] = (-0.1, 0.5, 0.2),
) -> PlantModel:
    """Genesio-Tesi chaotic system, quadratic drift, stock parameter set.

    The default initial state was picked empirically for a bounded
    (sup-norm < 10) trajectory over the benchmark horizon.
    """
    return _chain_plant("genesio_tesi", 2, alpha, betas, x0)


PLANT_PRESETS = {
    "arneodo-paper": arneodo,
    "genesio-tesi-paper": genesio_tesi,
}


def plant_preset(name: str, **overrides) -> PlantModel:
    """Instantiate a bundled preset by name, with optional overrides."""
    try:
        factory = PLANT_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown plant preset {name!r}, expected one of {sorted(PLANT_PRESETS)}"
        ) from None
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    return factory(**kwargs)


def assemble_field(
    plant: PlantModel,
    fault: Optional[FaultSignal] = None,
    noise: Optional[Callable[[float], float]] = None,
) -> VectorField:
    """Build the simulation right-hand side for a plant run.

    Components 1..n-1 are exactly the shifted state (the chain); fault and
    noise(t) (see ``noise_signal``) enter only the last component, as
    a(x) + b(x) * f(t) + noise(t). The field takes the state as a sequence
    of floats (``integrate`` passes a list) and returns a list; it is a
    pure function of (t, x).
    """
    drift = plant.drift
    gain = plant.gain
    faulty = fault is not None and fault.kind != "none"

    def evaluate(t, x):
        drive = drift(*x)
        if faulty:
            drive = drive + gain(*x) * fault_value(fault, t)
        if noise is not None:
            drive = drive + noise(t)
        return [*x[1:], drive]

    return VectorField(dim=plant.n, eval=evaluate)
