"""The compiled GL leaf: a ``VectorField.from_statements`` step in C.

``make_leaf`` translates the step with ``ast``, over the whitelist that
the ``fde`` docstring lists, into the C of a leaf with the Python leaf's
contract (``fde._leaf_source``), compiles it once with gcc and loads it
with ``ctypes``. The shared object is cached in ``$XDG_CACHE_HOME/fracobs``
(default ``~/.cache/fracobs``) under the sha256 of its source, the flags
and ``gcc --version``, or built in a private temporary directory where
that cannot be written. ``make_leaf`` returns None, and the march runs the
Python leaf, for a step off the whitelist, without a compiler, when the
compile fails and when numpy's dgemv cannot be found.
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

from .fde import DIVERGENCE_BOUND, _leaf_names

CC = "gcc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")  # never -ffast-math
DGEMV = "scipy_cblas_dgemv64_"  # in numpy's bundled ILP64 OpenBLAS

_FUNCS = {math.sqrt: "sqrt", math.copysign: "copysign", abs: "fabs"}
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
        ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: " && ", ast.Or: " || "}
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


class _Refused(Exception):
    pass


def _need(ok: bool) -> None:
    if not ok:
        raise _Refused


def make_leaf(dim: int, lines, ns: dict, rows: int):
    """``make_leaf(Z, state, wrev, near_len, mem, ha, h, dot, pack)`` of the
    compiled leaf of the step ``lines`` (globals ``ns``) on a z array of
    ``rows`` rows, or None when the Python leaf must run."""
    try:
        step = _Step(dim, ns, rows, ast.parse("\n".join(lines)))
    except _Refused:
        return None
    gemv, fn = _dgemv(DGEMV), _build(step.source(), CC)
    if gemv is None or fn is None:
        return None
    G = np.array([float(ns[name]) for name in step.floats] or [0.0])
    A = [np.frombuffer(ns[name]) if type(ns[name]) is memoryview else np.array(ns[name])
         for name in step.arrays]
    ptrs = (_P * max(1, len(A)))(*(a.ctypes.data for a in A))

    def make(Z, state, wrev, near_len, mem, ha, h, dot, pack):
        st = np.array(state + state)  # x0, then the state carried from leaf to leaf
        C = np.array([ns[name][0] for name in step.cells] or [0], np.int64)
        args = (Z.ctypes.data, st.ctypes.data, wrev.ctypes.data, near_len, mem, ha, h, gemv,
                G.ctypes.data, ptrs, C.ctypes.data)

        def leaf(lo: int, hi: int, _arrays=(Z, st, wrev, G, A, C)) -> int:  # what args point into
            return fn(lo, hi, *args)
        return leaf
    return make


class _Step:
    """A step as C lines, with the types of its names (int, float, or bool
    for a test) and the globals it reads by slot: g<i>, A[i] and C[i]."""

    def __init__(self, dim: int, ns: dict, rows: int, tree: ast.Module):
        _need(dim >= 2)  # numpy's dot takes ddot, not dgemv, for one column
        self.dim, self.ns, self.rows, self.leaf_names = dim, ns, rows, _leaf_names(dim)
        self.types = {"k": int, "t": float, **{f"s{i}": float for i in range(dim)}}
        # never globals: the leaf's names and every name the step binds anywhere
        self.own = set(self.types) | {node.id for node in ast.walk(tree)
                                      if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
        self.floats, self.arrays, self.cells, self.lines = {}, {}, {}, []  # global -> slot
        _need({f"p{i}" for i in range(dim)} <= self.block(tree.body, set(self.types)))

    def block(self, stmts, bound: set) -> set:
        """Emit ``stmts``; returns the names bound on every path through them."""
        for node in stmts:
            if isinstance(node, ast.If):
                self.lines.append(f"if {self.expr(node.test, bound, (bool,))[0]} {{")
                then = self.block(node.body, bound)
                self.lines.append("} else {")
                bound = then & self.block(node.orelse, bound)
                self.lines.append("}")
                continue
            _need(isinstance(node, ast.Assign))
            code, ty = self.expr(node.value, bound)
            for target in node.targets:
                if isinstance(target, ast.Subscript):  # a latch cell, written with an int
                    cell, cty = self.subscript(target)
                    _need(cty is int and ty is int)
                else:
                    _need(isinstance(target, ast.Name) and target.id not in self.leaf_names
                          and self.types.setdefault(target.id, ty) is ty)
                    cell, bound = f"v_{target.id}", bound | {target.id}
                self.lines.append(f"{cell} = {code};")
        return bound

    def expr(self, node, bound: set, want=(int, float)) -> tuple[str, type]:
        """``term``, of a type in ``want``: a value by default, (bool,) for a test."""
        code, ty = self.term(node, bound)
        _need(ty in want)
        return code, ty

    def term(self, node, bound: set) -> tuple[str, type]:
        """The C text and the type of an expression."""
        if isinstance(node, ast.Constant):
            v = node.value
            if type(v) is float and math.isfinite(v):
                return f"({float.hex(v)})", float
            _need(type(v) is int and abs(v) < 2 ** 31)
            return f"({v})", int
        if isinstance(node, ast.Name):
            if node.id in self.own:
                _need(node.id in bound)  # else Python raises, or reads the step before
                return "k" if node.id == "k" else f"v_{node.id}", self.types[node.id]
            _need(node.id not in self.leaf_names and isinstance(self.ns.get(node.id), float))
            return f"g{self.floats.setdefault(node.id, len(self.floats))}", float
        if isinstance(node, ast.BinOp):
            (a, ta), (b, tb) = self.expr(node.left, bound), self.expr(node.right, bound)
            _need(type(node.op) in (ast.Add, ast.Sub, ast.Mult) and float in (ta, tb))
            return f"({a} {_OPS[type(node.op)]} {b})", float
        if isinstance(node, ast.UnaryOp):
            _need(isinstance(node.op, ast.USub))
            a, ta = self.expr(node.operand, bound)
            return f"(-{a})", ta
        if isinstance(node, ast.IfExp):
            (a, ta), (b, tb) = self.expr(node.body, bound), self.expr(node.orelse, bound)
            _need(ta is tb)
            return f"({self.expr(node.test, bound, (bool,))[0]} ? {a} : {b})", ta
        if isinstance(node, ast.BoolOp):
            return "(" + _OPS[type(node.op)].join(self.expr(v, bound, (bool,))[0] for v in node.values) + ")", bool
        if isinstance(node, ast.Compare):
            _need(all(type(op) in _OPS for op in node.ops))
            terms = [self.expr(v, bound)[0] for v in (node.left, *node.comparators)]
            return "(" + " && ".join(f"({a} {_OPS[type(op)]} {b})"
                                     for a, op, b in zip(terms, node.ops, terms[1:])) + ")", bool
        if isinstance(node, ast.Subscript):
            return self.subscript(node)
        _need(isinstance(node, ast.Call) and not node.keywords)
        fn, args = self.func(node.func), node.args
        _need(len(args) == (2 if fn == "copysign" else 1))
        if fn == "sqrt":  # of an abs only, where Python's sqrt cannot raise
            _need(isinstance(args[0], ast.Call) and self.func(args[0].func) == "fabs")
        vals = [self.expr(a, bound, (float,) if fn == "fabs" else (int, float))[0] for a in args]
        return f"{fn}({', '.join(vals)})", float

    def func(self, node) -> str:
        """The C name of a called function: abs, sqrt or copysign, bare or as ``math.``."""
        if isinstance(node, ast.Attribute):
            _need(isinstance(node.value, ast.Name) and node.value.id not in self.own
                  and self.ns.get(node.value.id) is math)
            fn = getattr(math, node.attr, None)
        else:
            _need(isinstance(node, ast.Name) and node.id not in self.own)
            fn = self.ns.get(node.id, abs if node.id == "abs" else None)
        _need(fn in _FUNCS)
        return _FUNCS[fn]

    def subscript(self, node) -> tuple[str, type]:
        """A global's entry: a 'd' column's at [k], long enough for every
        step; a float tuple's at a constant index; a one-int list's at [0]."""
        name, index = node.value.id if isinstance(node.value, ast.Name) else None, node.slice
        value = None if name in self.own | self.leaf_names else self.ns.get(name)
        if type(value) is memoryview:
            _need(isinstance(index, ast.Name) and index.id == "k" and value.format == "d"
                  and value.ndim == 1 and value.c_contiguous and len(value) >= self.rows)
            return f"A[{self.arrays.setdefault(name, len(self.arrays))}][k]", float
        _need(isinstance(index, ast.Constant) and type(index.value) is int
              and type(value) in (tuple, list) and 0 <= index.value < len(value))
        if type(value) is tuple and all(isinstance(v, float) for v in value):
            return f"A[{self.arrays.setdefault(name, len(self.arrays))}][{index.value}]", float
        _need(type(value) is list and len(value) == 1 and type(value[0]) is int and abs(value[0]) < 2 ** 31)
        return f"C[{self.cells.setdefault(name, len(self.cells))}]", int

    def source(self) -> str:
        d, bound = self.dim, float.hex(DIVERGENCE_BOUND)

        def each(fmt: str, sep: str = "\n        ") -> str:
            return sep.join(fmt.format(i=i, d=d) for i in range(d))

        decls = "".join(f"    {'int64_t' if ty is int else 'double'} v_{name};\n"
                        for name, ty in self.types.items() if name == "t" or name not in self.leaf_names)
        consts = "".join(f"    const double g{i} = G[{i}];\n" for i in range(len(self.floats)))
        body = "\n".join(" " * 8 + line for line in self.lines)
        return f"""\
#include <math.h>
#include <stdint.h>

int64_t leaf(int64_t lo, int64_t hi, double *Z, double *st, const double *wrev, int64_t near_len,
             int64_t mem, double ha, double h,
             void (*gemv)(int, int, int64_t, int64_t, double, const double *, int64_t,
                          const double *, int64_t, double, double *, int64_t),
             const double *G, const double *const *A, int64_t *C)
{{
{decls}{consts}    double {each("c{i} = st[{i}], v_s{i} = st[{d} + {i}]", ", ")};
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
            if not (private or os.path.isabs(base)):
                raise NotADirectoryError(base)
            with (tempfile.TemporaryDirectory(prefix="fracobs-") if private
                  else contextlib.nullcontext(os.path.join(base, "fracobs"))) as where:
                os.makedirs(where, mode=0o700, exist_ok=True)
                path = os.path.join(where, name)
                if not os.path.exists(path):  # compile to a temporary name, then publish
                    fd, tmp = tempfile.mkstemp(".so", "tmp-", where)
                    os.close(fd)
                    try:
                        subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"], input=source,
                                       capture_output=True, text=True, check=True)
                        os.replace(tmp, path)
                    finally:
                        if os.path.exists(tmp):
                            os.unlink(tmp)
                fn = ctypes.CDLL(path).leaf
        except OSError:
            continue
        except subprocess.SubprocessError:
            return None
        fn.restype, fn.argtypes = _I, [_I, _I, _P, _P, _P, _I, _I, _D, _D, _P, _P, _P, _P]
        return fn
    return None
