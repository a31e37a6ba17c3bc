"""Explicit fixed-step solver for commensurate Caputo systems.

The scheme is the standard explicit Grunwald-Letnikov stepper applied to
the shifted state z = x - x0 (z(0) = 0), which gives Caputo semantics for
nonzero initial conditions:

    z_k = h^alpha * phi(t_k, x_{k-1}) - sum_{j=1..min(k,L)} w_j * z_{k-j}
    x_k = x0 + z_k

L is the short-memory length (L = n_steps means the full sum). The
weight table is trimmed at its last nonzero entry, so with alpha = 1 it
is exactly [1, -1], the march is memoryless and the update is
algebraically explicit Euler, which is the integer-order validation hook.

The history sum is the divide-and-conquer convolution of Hairer, Lubich
and Schlichte (SIAM J. Sci. Stat. Comput. 6(3), 1985). ``_solve(lo, hi)``
steps blocks of at most ``_LEAF`` steps directly; above that it solves
the left half, adds the left half's contribution to every target in the
right half with zero-padded real FFT convolutions, and solves the right
half. Each (source, target) pair is counted once. A finite L only
zeroes the kernel beyond lag L and clips each cross term to the sources
and targets that lie within L of the split, so "full" and L = n_steps
run identical arithmetic. The cost is O(n log^2 n) for full memory and
O(n log n log L) for a window of L, against O(n L) for the per-step sum.

A cross term of nfft points transforms the state columns in groups of
g = max(1, min(dim, (n + 1) // nfft)) (``_group_size``): one transform
pair per group, plus the kernel's transform, which is freed before the
inverse transform allocates its output. A group's spectrum and output
then hold at most about one column of the z array each, so the march's
scratch stays near two columns however large dim is, and every cross
term below the top few levels still makes one transform pair over all
columns. Each column's transform is independent of the others, so the
grouping changes no bit of the result. Besides the z array, its weights
(one more column under full memory) and that scratch, a march holds
only the current leaf as Python lists.

The far-field part of step k's sum accumulates in row k of the z array
before that step is taken. A leaf step makes one numpy call chain (the
near-field dot product), stores z_k, and does the rest on Python floats
with the operations and order of the array form,
z_k = h^alpha * phi - (far + near) and x_k = x0 + z_k; so the field
receives x_{k-1} as a list of floats. The z array is the march's only
(n+1) x dim array: once the march ends it is shifted by x0 in place and
becomes the trace.

The FFT changes the summation order, not the sum. Against the per-step
sum, trajectories of damped linear fields agree to about 1e-14 relative
(the tests assert 1e-11 over up to 2000 steps). On the chaotic example1
run (|x| up to 30) the CSV columns agree to 6e-13 over the first second
and 5e-12 over the first 5 s; later the chaos amplifies that roundoff as
it would any perturbation. phi == 0 still returns x0 exactly, and
alpha = 1 is still exact explicit Euler at any L.

Discontinuous right-hand sides (sign terms in the sliding-mode observers)
are fine here precisely because the stepper is explicit and fixed-step;
nothing ever tries to locate the switching surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .fraccalc import _as_order, fast_len, gl_weights

__all__ = [
    "SimGrid",
    "VectorField",
    "Trace",
    "integrate",
    "memory_truncation_error",
    "DIVERGENCE_BOUND",
]

# A trajectory component beyond this magnitude marks the run as diverged.
DIVERGENCE_BOUND = 1e8

FULL_MEMORY = "full"

# Steps taken one by one at the bottom of the history-sum recursion.
_LEAF = 128


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid t_k = k*h, k = 0..n_steps, with memory policy.

    ``memory_len`` is either the string "full" or a positive integer
    number of history terms retained by the solver; it may not exceed
    n_steps.
    """

    h: float
    t_end: float
    memory_len: Union[int, str] = FULL_MEMORY

    def __post_init__(self):
        if not (self.h > 0.0) or not np.isfinite(self.h):
            raise ValueError(f"grid step h must be > 0, got {self.h!r}")
        if not (self.t_end > 0.0) or not np.isfinite(self.t_end):
            raise ValueError(f"t_end must be > 0, got {self.t_end!r}")
        n = self.n_steps
        if n < 1:
            raise ValueError(f"grid must contain at least one step, got t_end={self.t_end}, h={self.h}")
        m = self.memory_len
        if m != FULL_MEMORY and (isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= n):
            raise ValueError(f"memory_len must be 'full' or an integer in [1, n_steps={n}], got {m!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h))

    def effective_memory(self) -> int:
        return self.n_steps if self.memory_len == FULL_MEMORY else self.memory_len

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h


@dataclass
class VectorField:
    """Right-hand side phi(t, x) of D^alpha x = phi(t, x).

    ``eval(t, x)`` receives the state as a list of ``dim`` floats and
    returns ``dim`` values: a list of floats normally, though a 1-D array
    also works.
    """

    dim: int
    eval: Callable[[float, list[float]], Sequence[float]]


@dataclass
class Trace:
    """Trajectory on a SimGrid: values[k] is the state at t_k.

    ``diverged`` marks runs where some component left the sanity bound;
    rows after ``diverged_at`` are NaN in that case and metrics must not
    be computed from them.
    """

    grid: SimGrid
    labels: list[str]
    values: np.ndarray
    diverged: bool = False
    diverged_at: Optional[float] = None

    def __post_init__(self):
        n_rows = self.grid.n_steps + 1
        if self.values.shape[0] != n_rows:
            raise ValueError(
                f"trace has {self.values.shape[0]} rows, grid wants {n_rows}"
            )
        if len(self.labels) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.labels)} labels for {self.values.shape[1]} channels"
            )
        if not self.diverged and not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite trace values in a run not flagged as diverged")

    def times(self) -> np.ndarray:
        return self.grid.times()

    def channel(self, label: str) -> np.ndarray:
        try:
            col = self.labels.index(label)
        except ValueError:
            raise KeyError(f"no channel {label!r}; trace has {self.labels}") from None
        return self.values[:, col]


def integrate(
    field: VectorField,
    alpha,
    grid: SimGrid,
    x0,
    labels: Optional[Sequence[str]] = None,
) -> Trace:
    """Run the explicit GL stepper over the whole grid.

    Returns a Trace with n_steps+1 rows. Divergence (any component with
    magnitude above DIVERGENCE_BOUND, or any NaN component) flags the
    trace and stops the march; it does not raise. A field whose first
    result has other than field.dim values raises ValueError. Integrating
    phi == 0 returns x0 in every row exactly, whatever alpha.
    """
    a = _as_order(alpha)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x0.shape != (field.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, field.dim is {field.dim}")
    if labels is None:
        labels = [f"x{i+1}" for i in range(field.dim)]
    labels = list(labels)

    n = grid.n_steps
    h = grid.h
    dim = field.dim
    ha = h ** a
    w = gl_weights(a, grid.effective_memory())
    w = w[: np.flatnonzero(w)[-1] + 1]  # alpha = 1 -> [1, -1]
    mem = len(w) - 1
    # a leaf step reaches back fewer than _LEAF steps: [w_near ... w_1]
    near_len = min(mem, _LEAF - 1)
    wrev = np.ascontiguousarray(w[1:near_len + 1][::-1])

    # Z[k] holds z_k once step k is taken; before that it accumulates the
    # far-field part of step k's history sum. It is the march's only
    # (n+1) x dim array: the trace is Z shifted by x0 in place.
    Z = np.zeros((n + 1, dim))
    x0l = x0.tolist()
    evaluate = field.eval

    def leaf(lo: int, hi: int) -> int:
        # near field: sources in [lo, k) on top of the accumulated far
        # field. Python floats, same IEEE operations in the same order as
        # the array form z = ha * phi - (far + near), x = x0 + z. At lo = 1
        # x is x0 itself, which keeps a -0.0 in x0 as the field's input.
        far = Z[lo:hi].tolist()
        x = x0l if lo == 1 else [u + v for u, v in zip(x0l, Z[lo - 1].tolist())]
        for k in range(lo, hi):
            phi = evaluate(k * h, x)
            if k == 1 and len(phi) != dim:
                raise ValueError(f"field returned {len(phi)} values, field.dim is {dim}")
            m = k - lo if k - lo < mem else mem
            if m:
                near = np.dot(wrev[near_len - m:], Z[k - m:k]).tolist()
                z = [ha * p - (f + q) for p, f, q in zip(phi, far[k - lo], near)]
            else:
                z = [ha * p - f for p, f in zip(phi, far[k - lo])]
            Z[k] = z
            x = [u + v for u, v in zip(x0l, z)]
            # the sum of |x_i| is at least max |x_i| and NaN or inf fails
            # it, so the exact per-component test runs only when it fails
            if not (sum(map(abs, x)) <= DIVERGENCE_BOUND) and not all(
                abs(v) <= DIVERGENCE_BOUND for v in x
            ):
                return k
        return 0

    def far_field(lo: int, mid: int, hi: int) -> None:
        # sources [s0, mid) into targets [mid, mid + nt): lags 1..ns+nt-1,
        # read off a convolution with w_1..w_{ns+nt-1}; at nfft >= ns+nt-1
        # points the circular wrap lands only in outputs that are not read
        s0 = max(lo, mid - mem)
        ns, nt = mid - s0, min(hi, mid + mem) - mid
        nfft = fast_len(ns + nt - 1)
        # g columns at a time; the kernel's spectrum is recomputed per
        # group so that it is freed before irfft allocates its output
        g = _group_size(dim, n, nfft)
        for c in range(0, dim, g):
            sp = np.fft.rfft(Z[s0:mid, c:c + g], n=nfft, axis=0)
            sp *= np.fft.rfft(w[1:ns + nt], n=nfft)[:, None]
            Z[mid:mid + nt, c:c + g] += np.fft.irfft(sp, n=nfft, axis=0)[ns - 1:ns - 1 + nt]

    with np.errstate(over="ignore", invalid="ignore"):
        bad = _solve(1, n + 1, leaf, far_field)
    if bad:
        Z[bad + 1:] = np.nan
    Z[1:] += x0
    Z[0] = x0

    return Trace(
        grid=grid,
        labels=labels,
        values=Z,
        diverged=bool(bad),
        diverged_at=bad * h if bad else None,
    )


def _group_size(dim: int, n: int, nfft: int) -> int:
    """State columns per transform in a cross term of nfft points on an
    n-step march: a group's spectrum and output then hold about one
    column of the z array each."""
    return max(1, min(dim, (n + 1) // nfft))


def _solve(lo: int, hi: int, leaf, far_field) -> int:
    """Take steps lo..hi-1; returns the first diverged step, or 0.

    A module-level function, not a closure over itself, so the march's
    arrays are freed when integrate returns rather than at the next
    garbage collection.
    """
    if hi - lo <= _LEAF:
        return leaf(lo, hi)
    mid = (lo + hi) // 2
    bad = _solve(lo, mid, leaf, far_field)
    if bad:
        return bad
    far_field(lo, mid, hi)
    return _solve(mid, hi, leaf, far_field)


def memory_truncation_error(
    field: VectorField,
    alpha,
    grid: SimGrid,
    x0,
    memory_lengths: Sequence[int],
) -> list[tuple[int, float]]:
    """Sup-norm deviation of short-memory runs from the full-memory run.

    The full-memory trajectory is the oracle; each entry of the returned
    list is (L, max_{k,i} |x_L - x_full|). Deviations are expected to be
    non-increasing as L grows and are exactly 0.0 at L = n_steps: no lag
    exceeds n_steps, so that window clips neither the kernel nor any
    cross term, and the march runs the full-memory arithmetic operation
    for operation.
    """
    full_grid = SimGrid(h=grid.h, t_end=grid.t_end, memory_len=FULL_MEMORY)
    reference = integrate(field, alpha, full_grid, x0)
    if reference.diverged:
        raise RuntimeError("full-memory reference run diverged; no usable oracle")
    table: list[tuple[int, float]] = []
    for mem in memory_lengths:
        g = SimGrid(h=grid.h, t_end=grid.t_end, memory_len=int(mem))
        tr = integrate(field, alpha, g, x0)
        if tr.diverged:
            dev = float("inf")
        else:
            dev = float(np.max(np.abs(tr.values - reference.values)))
        table.append((int(mem), dev))
    return table
