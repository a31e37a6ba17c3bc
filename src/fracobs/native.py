"""The compiled GL leaf: a ``VectorField.from_statements`` step in C.

``make_leaf`` translates the step with ``ast`` into the C of a leaf with the
Python leaf's contract (``fde._leaf_source``), compiles it with gcc and
loads it with ``ctypes``. Objects are cached in ``$XDG_CACHE_HOME/fracobs``
(default ``~/.cache/fracobs``), keyed by the sha256 of the source, flags and
``gcc --version``, the ``CACHED`` most recently used kept, or built in a
private temporary directory where that cannot be written. The Python leaf
runs, with the same trace, for a step off the language below, without gcc,
when the compile fails and when numpy's dgemv is missing.

The step language has floats and tests only: ``name = value``,
``cell[0] = value`` and ``if test:``/``else:``. A value is a finite float
constant; t, s0.. or a name bound on every path before it is read; a float
global, a float tuple's entry at a constant index, a 'd' memoryview
column's at [k] (k is legal only there) with n + 1 entries or more, or a
one-float list's at [0] (a latch cell, which a step may write); ``+ - *``,
unary ``-``, ``x if test else y``; or ``abs(x)``, ``sqrt(abs(x))`` or
``copysign(x, y)`` by bare global name. A test is one comparison. All else
is refused: ints, ``/``, ``**``, a bare ``sqrt``, ``math.f``, ``and``, a
field of one column (numpy's dot takes ddot). ``from_statements`` checks a
step's names, so the only ones reserved here are the inputs t, k and s0...
"""

from __future__ import annotations

import ast
import contextlib
import ctypes
import functools
import hashlib
import math
import os
import subprocess
import tempfile

import numpy as np

from .fde import DIVERGENCE_BOUND

CC = "gcc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")  # never -ffast-math
DGEMV = "scipy_cblas_dgemv64_"  # in numpy's bundled ILP64 OpenBLAS
CACHED = 128  # shared objects kept in the cache: twice the distinct steps of the test suite

_FUNCS = ((abs, "fabs"), (math.sqrt, "sqrt"), (math.copysign, "copysign"))
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
        ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


def _need(ok: bool) -> None:
    if not ok:
        raise NotImplementedError  # a construct off the step language


def make_leaf(dim: int, lines, ns: dict, Z, state, wrev, near_len: int, mem: int, ha: float, h: float):
    """The compiled leaf(lo, hi) of the step ``lines`` (globals ``ns``) on the
    z array ``Z``, starting from the state ``state``, or None when the Python
    leaf must run."""
    try:
        step = _Step(dim, ns, len(Z), ast.parse("\n".join(lines)))
    except NotImplementedError:
        return None
    gemv, fn = _dgemv(DGEMV), _build(step.source(), CC)
    if gemv is None or fn is None:
        return None
    A = [np.frombuffer(ns[name]) for name in step.arrays]
    ptrs = (_P * max(1, len(A)))(*(a.ctypes.data for a in A))
    # x0, the state carried from leaf to leaf, then the scalar globals
    st = np.array(state + state + [value for _, value in step.scalars.values()])
    args = (Z.ctypes.data, st.ctypes.data, wrev.ctypes.data, near_len, mem, ha, h, gemv, ptrs)

    def leaf(lo: int, hi: int, _arrays=(Z, st, wrev, A)) -> int:  # what args point into
        return fn(lo, hi, *args)
    return leaf


class _Step:
    """A step as C lines, and the globals it reads by slot: A[i] for a
    column, st[2 dim + i] for a float, a float tuple's entry or a latch."""

    def __init__(self, dim: int, ns: dict, rows: int, tree: ast.Module):
        _need(dim >= 2)  # numpy's dot takes ddot, not dgemv, for one column
        self.dim, self.ns, self.rows = dim, ns, rows
        inputs = {"t", *(f"s{i}" for i in range(dim))}
        # the names the step binds, in a fixed order: the C text is a cache key
        self.temps = dict.fromkeys(node.id for node in ast.walk(tree)
                                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load))
        self.own = inputs | {"k", *self.temps}  # never globals
        self.scalars, self.arrays, self.lines = {}, {}, []  # global -> slot
        _need({f"p{i}" for i in range(dim)} <= self.block(tree.body, inputs))

    def block(self, stmts, bound: set) -> set:
        """Emit ``stmts``; returns the names bound on every path through them."""
        for node in stmts:
            if isinstance(node, ast.If):
                self.lines.append(f"if {self.test(node.test, bound)} {{")
                then = self.block(node.body, bound)
                self.lines.append("} else {")
                bound = then & self.block(node.orelse, bound)
                self.lines.append("}")
                continue
            _need(isinstance(node, ast.Assign))
            value = self.value(node.value, bound)
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    cell = self.entry(target, write=True)
                else:
                    _need(isinstance(target, ast.Name))
                    cell, bound = f"v_{target.id}", bound | {target.id}
                self.lines.append(f"{cell} = {value};")
        return bound

    def test(self, node, bound: set) -> str:
        """The C text of a comparison."""
        _need(isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _OPS)
        return f"({self.value(node.left, bound)} {_OPS[type(node.ops[0])]} {self.value(node.comparators[0], bound)})"

    def value(self, node, bound: set) -> str:
        """The C text of a float expression."""
        if isinstance(node, ast.Constant):
            _need(type(node.value) is float and math.isfinite(node.value))
            return f"({float.hex(node.value)})"
        if isinstance(node, ast.Name):
            if node.id in self.own:
                _need(node.id in bound)  # else Python raises, or reads the step before
                return f"v_{node.id}"
            _need(isinstance(self.ns.get(node.id), float))
            return self.scalar(node.id, self.ns[node.id])
        if isinstance(node, ast.BinOp):
            _need(type(node.op) in (ast.Add, ast.Sub, ast.Mult))
            return f"({self.value(node.left, bound)} {_OPS[type(node.op)]} {self.value(node.right, bound)})"
        if isinstance(node, ast.UnaryOp):
            _need(isinstance(node.op, ast.USub))
            return f"(-{self.value(node.operand, bound)})"
        if isinstance(node, ast.IfExp):
            return (f"({self.test(node.test, bound)} ? {self.value(node.body, bound)}"
                    f" : {self.value(node.orelse, bound)})")
        if isinstance(node, ast.Subscript):
            return self.entry(node)
        _need(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id not in self.own and not node.keywords)
        called = self.ns.get(node.func.id, abs if node.func.id == "abs" else None)
        fn = next((c for f, c in _FUNCS if f is called), None)
        args = [self.value(a, bound) for a in node.args]
        # sqrt of an abs only (no other C text starts so), where Python's sqrt cannot raise
        _need(fn is not None and len(args) == (2 if fn == "copysign" else 1)
              and (fn != "sqrt" or args[0].startswith("fabs(")))
        return f"{fn}({', '.join(args)})"

    def entry(self, node, write: bool = False) -> str:
        """A global's entry: a 'd' column's at [k], a float tuple's at a
        constant index, or a one-float list's at [0], the one kind written."""
        _need(isinstance(node.value, ast.Name) and node.value.id not in self.own)
        name, index, value = node.value.id, node.slice, self.ns.get(node.value.id)
        if type(value) is memoryview and not write:
            _need(isinstance(index, ast.Name) and index.id == "k" and value.format == "d"
                  and value.ndim == 1 and value.c_contiguous and len(value) >= self.rows)
            return f"A[{self.arrays.setdefault(name, len(self.arrays))}][k]"
        _need(isinstance(index, ast.Constant) and type(index.value) is int and type(value) in (tuple, list)
              and 0 <= index.value < len(value) and all(isinstance(v, float) for v in value))
        if type(value) is tuple and not write:
            return self.scalar(f"{name}[{index.value}]", value[index.value])
        _need(type(value) is list and len(value) == 1)
        return self.scalar(name, value[0])

    def scalar(self, key: str, value: float) -> str:
        """The cell of st, past x0 and the state, that holds ``value``."""
        return f"st[{2 * self.dim + self.scalars.setdefault(key, (len(self.scalars), value))[0]}]"

    def source(self) -> str:
        d, bound = self.dim, float.hex(DIVERGENCE_BOUND)

        def each(fmt: str, sep: str = "\n        ") -> str:
            return sep.join(fmt.format(i=i, d=d) for i in range(d))

        body = "\n".join(" " * 8 + line for line in self.lines)
        return f"""\
#include <math.h>
#include <stdint.h>

int64_t leaf(int64_t lo, int64_t hi, double *Z, double *st, const double *wrev, int64_t near_len,
             int64_t mem, double ha, double h,
             void (*gemv)(int, int, int64_t, int64_t, double, const double *, int64_t,
                          const double *, int64_t, double, double *, int64_t), const double *const *A)
{{
    double {", ".join(f"v_{name}" for name in ["t", *self.temps])};
    double {each("c{i} = st[{i}], v_s{i} = st[{d} + {i}]", ", ")};
    for (int64_t k = lo; k < hi; k++) {{
        v_t = (double)k * h;
{body}
        double *row = Z + k * {d}, q[{d}] = {{0.0}};
        int64_t m = k - lo < mem ? k - lo : mem;
        if (m)  /* numpy's dot(wrev[near_len - m:], Z[k - m:k]) */
            gemv(101, 112, m, {d}, 1.0, row - m * {d}, {d}, wrev + near_len - m, 1, 0.0, q, 1);
        {each("row[{i}] = ha * v_p{i} - (row[{i}] + q[{i}]);")}
        {each("v_s{i} = c{i} + row[{i}];")}
        if (!({each(f"-{bound} <= v_s{{i}} && v_s{{i}} <= {bound}", " && ")}))
            return k;
    }}
    {each("st[{d} + {i}] = v_s{i};", " ")}
    return 0;
}}
"""


@functools.cache
def _dgemv(symbol: str):
    """The address of ``symbol`` as numpy's multiarray module resolves it, or None."""
    try:
        return ctypes.cast(getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), symbol), _P).value
    except (AttributeError, OSError):
        return None


@functools.cache
def _version(cc: str):
    try:
        return subprocess.run([cc, "--version"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None


@functools.cache
def _build(source: str, cc: str):
    """The loaded ``leaf`` of ``source``, from the cache or compiled by ``cc``, or None."""
    version = _version(cc)
    if version is None:
        return None
    name = f"leaf-{hashlib.sha256(chr(0).join((source, *FLAGS, version)).encode()).hexdigest()}.so"
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for private in (False, True):  # where the cache cannot be written, build where only this process looks
        try:
            with (tempfile.TemporaryDirectory(prefix="fracobs-") if private or not os.path.isabs(base)
                  else contextlib.nullcontext(os.path.join(base, "fracobs"))) as where:
                os.makedirs(where, mode=0o700, exist_ok=True)
                path = os.path.join(where, name)
                if not os.path.exists(path):  # compile beside it, then publish and prune
                    with tempfile.TemporaryDirectory(prefix="tmp-", dir=where) as tmp:
                        subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", f"{tmp}/leaf.so", "-lm"], input=source,
                                       capture_output=True, text=True, check=True)
                        os.replace(f"{tmp}/leaf.so", path)
                    with contextlib.suppress(OSError):  # another process may be pruning too
                        objects = [os.path.join(where, f) for f in os.listdir(where) if f.startswith("leaf-")]
                        for old in sorted(objects, key=os.path.getmtime)[:-CACHED]:
                            os.unlink(old)
                fn = ctypes.CDLL(path).leaf
                with contextlib.suppress(OSError):
                    os.utime(path)  # used now, so pruned last
        except OSError:
            continue
        except subprocess.SubprocessError:
            return None
        fn.restype, fn.argtypes = _I, [_I, _I, _P, _P, _P, _I, _I, _D, _D, _P, _P]
        return fn
    return None
