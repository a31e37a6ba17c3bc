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
only the current leaf's far-field rows as Python lists.

The Python leaf is one template per dim (``_leaf_source``), compiled
once per process. It calls the step for p_0.. and unrolls the rest into
local floats with the operations and order of the array form:
z_i = h^alpha * p_i - (f_i + q_i), then row k of Z is z_0, .. and
s_i = x0_i + z_i. f_i is row k of the z array, where the far field
accumulates before step k; q_i is the near field, the step's one numpy
call, on a weight view kept per lag. At a leaf's first step that view
is empty and q_i is +0.0, which leaves f_i as it is: a row starts at
+0.0 and is only added to, so it is never -0.0. The row is stored by
packing the floats into a byte view of the z array
(``struct.pack_into``), which writes the same doubles as an array
assignment without building one. The divergence test is -B <= s_i <= B
for each component: like |s_i| <= B it is false for NaN and +-inf and
true for -0.0, with no call. The step, step(t_k, [s_0, ...]), is a
plain ``VectorField``'s ``eval``, or a march's own copy of the one
Python form (``_step_source``, its ``eval`` too) of a step made by
``VectorField.from_statements``, the package's one step compiler (plant
fields, runs, observer blocks). Only a field made on a grid (given h)
may read the step index k, which its step binds as round(t / h); a run
reads its forcing that way, from columns indexed by step. A step is
compiled as ``<fracobs step: name>``, so profiles and tracebacks name
the field. The z array is the march's only (n+1) x dim array: once the
march ends it is shifted by x0 in place and becomes the trace.

Two leaves keep that contract. A field made by ``from_statements`` runs
the compiled leaf of ``fracobs.native`` where it can: the step is
translated into C, compiled once with gcc (``-O2 -ffp-contract=off``)
and cached. Every float operation and fabs/sqrt/copysign in it is the
IEEE operation Python runs, and its near field calls the dgemv that
numpy's ``dot(near[m], Z[k - m:k])`` calls (``scipy_cblas_dgemv64_`` of
numpy's bundled OpenBLAS: RowMajor, Trans, M = m, N = dim, beta = 0),
where a plain C loop would sum in another order. So both leaves write the
same bits. The step language it translates, floats and tests only, is
listed in the ``fracobs.native`` docstring; it leaves out what Python
would raise on, what C would read out of range and what C would sum in
another order. The Python leaf is the oracle and the fallback. It runs
for a plain field, a step off that language, without gcc, when the
compile fails and when the dgemv symbol is missing, and ``Trace.leaf``
says which leaf ran.

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

import ast
import functools
import struct
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
    # (name, statements, namespace, grid step or None) of a field made
    # by from_statements
    _step: Optional[tuple] = None

    @classmethod
    def from_statements(cls, dim: int, name: str, lines: Sequence[str], ns: dict,
                        h: Optional[float] = None) -> "VectorField":
        """The field whose step is ``lines``, statements that read s0.. and t
        and bind p0.. (``ns`` their globals), as the function ``_step_source``
        writes: eval, which a march calls. Any other name they bind is a
        temporary, and any other name they read a global. A field made on a
        grid of step ``h`` may also read the step index k, bound as
        round(t / h), and only a grid of that h integrates it. This is the
        one check of a step's names: binding t, x, k or s0.., or reading x,
        or k off a grid, raises ValueError."""
        s = {f"s{i}" for i in range(dim)}
        own = [(node.id, isinstance(node.ctx, ast.Load)) for node in ast.walk(ast.parse("\n".join(lines)))
               if isinstance(node, ast.Name) and node.id in {"t", "x", "k", *s}]
        inputs = {"t", *s, *(["k"] if h is not None else [])}
        for verb, bad in (("binds", {n for n, load in own if not load}),
                          ("reads", {n for n, load in own if load} - inputs)):
            if bad:
                raise ValueError(f"field {name!r} {verb} {', '.join(sorted(bad))}, a name of its step function"
                                 " (its inputs are t, s0.. and, on a grid, k)")
        return cls(dim, _compiled(_step_source(dim, lines, h), name, ns, "step"), (name, tuple(lines), ns, h))


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
    # which leaf marched it ("compiled" or "python"), None if no march made it
    leaf: Optional[str] = None

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
    leaf, step = None, field.eval
    if field._step:
        name, lines, glb, field_h = field._step
        if field_h is not None and field_h != h:
            raise ValueError(f"field {name!r} was made on a grid of step {field_h!r}, grid.h is {h!r}")
        from . import native  # imported, and compiling, only once a march runs
        leaf = native.make_leaf(dim, lines, glb, Z, x0.tolist(), wrev, near_len, mem, ha, h)
        if leaf is None:  # a copy of its own, so that the march's latch cells start afresh
            step = _compiled(_step_source(dim, lines, field_h), name, glb, "step")
    kind = "compiled" if leaf else "python"
    leaf = leaf or _python_leaf(dim)(step, Z, x0.tolist(), wrev, near_len, mem, ha, h)

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
        leaf=kind,
    )


def _step_source(dim: int, lines: Sequence[str], h: Optional[float]) -> str:
    """The one Python form of a step: ``step(t, x)`` runs ``lines`` on
    s0.. = x (and k = round(t / h) on a grid) and returns [p0, ..]."""
    k = "" if h is None else f"    k = round(t / {float(h)!r})\n"
    body = "".join(f"    {line}\n" for line in lines)
    return f"def step(t, x):\n{k}    {_names('s', dim)}, = x\n{body}    return [{_names('p', dim)}]\n"


def _leaf_source(dim: int) -> str:
    """make_leaf(step, ...) -> leaf(lo, hi), which takes steps lo..hi-1,
    calling ``step`` (first result's length checked) for p0.., and returns
    the first diverged step, or 0. The state s0.. starts as x0's own floats
    (a -0.0 in x0 reaches step 1) and carries over in ``state``, as leaves
    are called in order on consecutive ranges."""
    def each(fmt: str) -> str:
        return "\n".join(" " * 12 + fmt.format(i=i) for i in range(dim))

    s, z = _names("s", dim), _names("z", dim)
    bound = repr(DIVERGENCE_BOUND)
    return f"""\
def make_leaf(step, Z, state, wrev, near_len, mem, ha, h):
    {_names("c", dim)}, = state
    rows = memoryview(Z).cast("B")
    near = [wrev[near_len - m:] for m in range(near_len + 1)]
    def leaf(lo, hi):
        far = Z[lo:hi].tolist()
        {s}, = state
        for k, frow in enumerate(far, lo):
            p = step(k * h, [{s}])
            if k == 1 and len(p) != {dim}:
                raise ValueError('field returned %d values, field.dim is {dim}' % len(p))
            {_names("p", dim)}, = p
            {_names("f", dim)}, = frow
            m = k - lo if k - lo < mem else mem
            {_names("q", dim)}, = dot(near[m], Z[k - m:k]).tolist()
{each("z{i} = ha * p{i} - (f{i} + q{i})")}
            pack(rows, k * {8 * dim}, {z})
{each("s{i} = c{i} + z{i}")}
            if not ({" and ".join(f"-{bound} <= s{i} <= {bound}" for i in range(dim))}):
                return k
        state[:] = [{s}]
        return 0
    return leaf
"""


@functools.cache
def _python_leaf(dim: int):
    """The Python leaf's make_leaf for a dim-state field, compiled once."""
    return _compiled(_leaf_source(dim), f"dim {dim}", {"dot": np.dot, "pack": struct.Struct(f"{dim}d").pack_into},
                     "make_leaf")


def _compiled(source: str, name: str, ns: dict, fn: str):
    """The function ``fn`` that ``source`` defines on a copy of ``ns`` (lists,
    a step's state, copied too), kept out of them: no cycle, no global hidden."""
    scope = {key: value.copy() if type(value) is list else value for key, value in ns.items()}
    defined = {}
    exec(compile(source, f"<fracobs {fn}: {name}>", "exec"), scope, defined)
    return defined[fn]


def _names(prefix: str, dim: int) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(dim))


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
