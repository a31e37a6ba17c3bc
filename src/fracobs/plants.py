"""Benchmark plants in observable canonical form.

Every plant here is a commensurate-order chain

    D^alpha x_i = x_{i+1},            i = 1..n-1
    D^alpha x_n = a(x) + b(x) * f(t) + noise(t)

with scalar output y = x_1. ``a`` is the drift nonlinearity, ``b`` the
input gain on the fault ("1.0" for both bundled presets), ``f``
an additive actuator fault and the noise a per-step Gaussian disturbance
entering the same equation, not scaled by ``b``. Both are functions of t
alone (``fault_value``, ``noise_signal``), so the assembled field is a
pure function of (t, x).

Two chaotic presets are bundled, both the three-state chain with drift
a(x) = -b1*x1 - b2*x2 - b3*x3 + b4*x1^p (``_chain_plant``):

* ``arneodo``      -- p = 3, betas (-5.5, 3.5, 0.8, -1.0), alpha 0.97.
* ``genesio_tesi`` -- p = 2, betas (1.0, 1.1, 0.44, 1.0), alpha 0.9.

A plant's drift and gain are each one expression text
(``PlantModel.drift``, ``PlantModel.gain``), which the generated
statements and ``drift_at`` and ``gain_at``, on floats or arrays, read.

``PlantModel.statements`` writes the chain's step once, with the fault
and noise terms as expressions the caller binds: ``assemble_field``
compiles it reading fault_value(fault, t) and noise(t), and a harness
run's step runs it reading the fault on the grid and the noise from columns
by step index. ``held_column`` is the one per-step hold of samples
(entry k, what the step into t = k*h reads, is sample k-1; entry 0 is
sample 0), for the noise and a replay's output; ``noise_signal`` reads
the noise's column at round(t / h).
"""

from __future__ import annotations

import math
import re
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
    "held_column",
    "noise_signal",
    "assemble_field",
]

FAULT_KINDS = ("none", "cosine", "sine", "step", "ramp", "custom")


@dataclass
class PlantModel:
    """Observable-form plant of dimension n with drift a and input gain b.

    ``drift`` is a(x) and ``gain`` b(x), each one expression over x1..xn
    and the names of ``params`` (none a step's own, such as t or k).
    ``drift_at`` and ``gain_at``, compiled from them, take the n
    components as arguments (floats or arrays); ``a`` and ``b`` apply them
    to the last axis of an array.
    """

    n: int
    alpha: float
    drift: str
    gain: str
    x0: np.ndarray
    params: dict
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"plant dimension must be >= 2, got {self.n}")
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.n,):
            raise ValueError(f"x0 shape {self.x0.shape} does not match n={self.n}")
        x, ns = [f"x{i}" for i in range(1, self.n + 1)], {}
        self.drift_at, self.gain_at = (eval(f"lambda {', '.join(x)}: {self.expr(text, x, ns)}", ns)
                                       for text in (self.drift, self.gain))

    def expr(self, text: str, args: Sequence[str], ns: dict) -> str:
        """``text``, the drift or the gain, as a parenthesized expression
        over the names ``args`` (x_i becomes "(args[i-1])"); the ``params``
        it reads go into ``ns``."""
        ns.update(self.params)
        names = {f"x{i}": f"({a})" for i, a in enumerate(args, 1)}
        return "(" + re.sub(r"\bx\d+\b", lambda m: names[m[0]], text) + ")"

    def a(self, x):
        return self.drift_at(*np.moveaxis(np.asarray(x, dtype=float), -1, 0))

    def b(self, x):
        return self.gain_at(*np.moveaxis(np.asarray(x, dtype=float), -1, 0))

    def statements(self, fault: Optional[str], noise: Optional[str], ns: dict) -> list[str]:
        """The chain as statements that read s0.. and bind p0..: p_i =
        s_{i+1}, and the last component the drift, plus the gain times
        ``fault`` given a fault term, plus ``noise`` given a noise term.
        The two terms are expressions (say "noise(t)" or "noise_col[k]")
        whose names the caller binds in ``ns``; the plant puts its params
        there. A unit gain is exact, as 1.0 * f == f for every float."""
        x = [f"s{i}" for i in range(self.n)]
        drive = self.expr(self.drift, x, ns)
        if fault is not None:
            drive += f" + {self.expr(self.gain, x, ns)} * {fault}"
        if noise is not None:
            drive += f" + {noise}"
        return [*(f"p{i} = s{i + 1}" for i in range(self.n - 1)), f"p{self.n - 1} = {drive}"]


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


def held_column(samples) -> memoryview:
    """Per-step samples as a column indexed by step: the step into t = k*h
    reads entry k, which is sample k-1, and entry 0 is sample 0. This is
    the one hold rule. The column is one entry longer than the samples, so
    an index past the last step raises IndexError, and no step reads index
    k - 1, which at k = 0 would wrap to the last sample."""
    samples = np.asarray(samples, dtype=float)
    return memoryview(np.concatenate((samples[:1], samples)))


def noise_signal(spec: NoiseSpec, grid: SimGrid) -> Callable[[float], float]:
    """The noise on ``grid`` as a function of t: entry round(t / h) of the
    ``held_column`` of ``noise_draws(spec, grid.n_steps)``, and entry 0 for
    a t before the grid, whose negative index would wrap."""
    column, h = held_column(noise_draws(spec, grid.n_steps)), grid.h

    def noise(t: float) -> float:
        k = round(t / h)
        return column[k if k > 0 else 0]

    return noise


def _chain_plant(name: str, power: int, alpha: float, betas: Sequence[float],
                 x0: Sequence[float]) -> PlantModel:
    """The three-state chain with drift -b1*x1 - b2*x2 - b3*x3 + b4*x1**power.

    The power (2 or 3) is a left-to-right product, so floats and arrays
    run the same IEEE operations (float ``**`` calls the C library's pow).
    The betas are read from ``params``, as literals could not write nan.
    """
    b = tuple(float(v) for v in betas)
    if len(b) != 4:
        raise ValueError(f"{name} needs 4 betas, got {len(b)}")
    drift = f"-betas[0] * x1 - betas[1] * x2 - betas[2] * x3 + betas[3] * (x1{' * x1' * (power - 1)})"
    return PlantModel(
        n=3, alpha=float(alpha), drift=drift, gain="1.0", x0=np.asarray(x0, dtype=float),
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
    """The right-hand side of a plant run: ``plant.statements``, which a
    march calls and whose ``eval`` takes the state as a sequence of
    floats and returns a list. Components 1..n-1 are exactly the shifted
    state; fault and noise(t) (see ``noise_signal``) enter only the last,
    as a(x) + b(x) * f(t) + noise(t). It is a pure function of (t, x).
    """
    ns: dict = {"fault_value": fault_value, "fault": fault, "noise": noise}
    faulty = fault is not None and fault.kind != "none"
    lines = plant.statements("fault_value(fault, t)" if faulty else None,
                             None if noise is None else "noise(t)", ns)
    return VectorField.from_statements(plant.n, plant.name or "plant", lines, ns)
