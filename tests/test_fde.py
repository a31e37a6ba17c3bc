"""Explicit GL solver: shift exactness, oracles, memory truncation.

The exact identities (phi == 0 returns x0, alpha = 1 is explicit Euler, a
window of n_steps is full memory, a -0.0 in x0 reaches step 1, the
divergence step and its NaN rows, bit-identical reruns) run on both leaves
of the march (``conftest.on_both_leaves``), on fields made by
``VectorField.from_statements``, which the compiled leaf takes when it has
two columns or more.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import on_both_leaves
from fracobs import fde
from fracobs.fde import _group_size as group_size
from fracobs.fde import (
    DIVERGENCE_BOUND,
    SimGrid,
    Trace,
    VectorField,
    integrate,
    memory_truncation_error,
)
from fracobs.fraccalc import gl_weights, mittag_leffler


def stepped(dim, exprs, ns=None, h=None):
    """The field whose step binds p_i = exprs[i], over s0.., t, k (given h)
    and the globals ns."""
    return VectorField.from_statements(dim, "stepped", [f"p{i} = {e}" for i, e in enumerate(exprs)],
                                       ns or {}, h)


def relax(dim=1):
    return stepped(dim, [f"-s{i}" for i in range(dim)])


class TestSimGrid:
    def test_basic(self):
        g = SimGrid(h=1e-3, t_end=5.0, memory_len="full")
        assert g.n_steps == 5000
        assert g.effective_memory() == 5000
        assert g.times()[0] == 0.0
        assert g.times()[-1] == pytest.approx(5.0)

    def test_truncated_memory(self):
        g = SimGrid(h=1e-3, t_end=5.0, memory_len=100)
        assert g.effective_memory() == 100

    @pytest.mark.parametrize("kw", [
        dict(h=0.0, t_end=1.0, memory_len="full"),
        dict(h=-1e-3, t_end=1.0, memory_len="full"),
        dict(h=1e-3, t_end=0.0, memory_len="full"),
        dict(h=1e-3, t_end=1.0, memory_len=0),
        dict(h=1e-3, t_end=1.0, memory_len=1001),
        dict(h=1e-3, t_end=1.0, memory_len="half"),
        dict(h=1e-3, t_end=1.0, memory_len=2.7),
        dict(h=1e-3, t_end=1.0, memory_len=True),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            SimGrid(**kw)


class TestIntegrateBasics:
    @on_both_leaves
    def test_zero_field_returns_x0_exactly(self):
        # the z-shift makes this exact at every step, not approximate
        g = SimGrid(h=1e-2, t_end=1.0, memory_len="full")
        x0 = np.array([2.5, -1.25, 1e-7])
        tr = integrate(stepped(3, ["0.0"] * 3), 0.7, g, x0)
        assert np.all(tr.values == x0)

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False),
           st.floats(min_value=0.1, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    @on_both_leaves
    def test_zero_field_any_start_any_order(self, x0, alpha):
        g = SimGrid(h=0.05, t_end=0.5, memory_len="full")
        tr = integrate(stepped(2, ["0.0", "0.0"]), alpha, g, np.array([x0, -x0]))
        assert np.all(tr.values == [x0, -x0])

    def test_relaxation_vs_mittag_leffler(self):
        a = 0.9
        g = SimGrid(h=1e-3, t_end=5.0, memory_len="full")
        tr = integrate(relax(), a, g, np.array([1.0]))
        t = tr.times()
        lo = int(0.1 / g.h)
        ref = np.array([mittag_leffler(a, -(ti ** a)) for ti in t[lo:]])
        rel = np.abs(tr.values[lo:, 0] - ref) / np.abs(ref)
        assert rel.max() < 1e-2

    @on_both_leaves
    def test_alpha_one_is_explicit_euler(self):
        # algebraic identity, not an accuracy statement
        g = SimGrid(h=1e-2, t_end=0.5, memory_len="full")
        tr = integrate(relax(2), 1.0, g, np.array([1.0, -0.5]))
        x = np.array([1.0, -0.5])
        for k in range(1, g.n_steps + 1):
            x = x + g.h * (-x)
            assert tr.values[k] == pytest.approx(x, abs=1e-15)

    def test_alpha_one_exponential_error_bound(self):
        g = SimGrid(h=1e-3, t_end=1.0, memory_len="full")
        tr = integrate(relax(), 1.0, g, np.array([1.0]))
        assert abs(tr.values[-1, 0] - math.exp(-1.0)) < 2e-3

    def test_grid_refinement_strictly_improves(self):
        a = 0.9
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            g = SimGrid(h=h, t_end=2.0, memory_len="full")
            tr = integrate(relax(), a, g, np.array([1.0]))
            t = tr.times()
            lo = int(0.1 / h)
            ref = np.array([mittag_leffler(a, -(ti ** a)) for ti in t[lo:]])
            errs.append(np.max(np.abs(tr.values[lo:, 0] - ref)))
        assert errs[0] > errs[1] > errs[2]

    @on_both_leaves
    def test_determinism_bit_identical(self):
        g = SimGrid(h=1e-3, t_end=1.0, memory_len="full")
        f = stepped(2, ["s1", "-s0 - 0.1 * s1"])
        a = integrate(f, 0.8, g, np.array([1.0, 0.0]))
        b = integrate(f, 0.8, g, np.array([1.0, 0.0]))
        assert np.array_equal(a.values, b.values)

    def test_time_argument_is_step_time(self):
        seen = []
        g = SimGrid(h=0.25, t_end=1.0, memory_len="full")

        def f(t, x):
            seen.append(t)
            return np.zeros(1)

        integrate(VectorField(dim=1, eval=f), 0.5, g, np.array([0.0]))
        # phi is evaluated at t_k (the step being produced), k = 1..n
        assert seen == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_dim_mismatch_rejected(self):
        g = SimGrid(h=0.1, t_end=0.3, memory_len="full")
        with pytest.raises(ValueError):
            integrate(relax(dim=2), 0.9, g, np.array([1.0]))


class TestFieldContract:
    # 300 steps span several leaves, so x is also rebuilt from a stored row
    GRID = SimGrid(h=1e-2, t_end=3.0, memory_len="full")

    def test_field_receives_a_list_of_floats(self):
        seen = []

        def f(t, x):
            seen.append(x)
            return [-v for v in x]

        integrate(VectorField(dim=3, eval=f), 0.9, self.GRID, [1.0, -2.0, 0.5])
        assert len(seen) == self.GRID.n_steps
        assert all(type(x) is list and all(type(v) is float for v in x) for x in seen)

    def test_list_and_array_results_give_the_same_trace(self):
        x0 = [1.0, -2.0, 0.5]
        as_list = integrate(VectorField(dim=3, eval=lambda t, x: [-v for v in x]), 0.9, self.GRID, x0)
        as_array = integrate(VectorField(dim=3, eval=lambda t, x: -np.asarray(x)), 0.9, self.GRID, x0)
        assert np.array_equal(as_list.values, as_array.values)

    def test_first_step_sees_x0_itself(self):
        # a -0.0 in x0 reaches the field as -0.0 (x0 + 0.0 would be +0.0)
        seen = []

        def f(t, x):
            seen.append(math.copysign(1.0, x[0]))
            return [0.0]

        integrate(VectorField(dim=1, eval=f), 0.9, SimGrid(h=0.1, t_end=0.3), [-0.0])
        assert seen[0] == -1.0

    @pytest.mark.parametrize("alpha", [0.9, 1.0])
    @on_both_leaves
    def test_a_negative_zero_in_x0_reaches_step_1(self, alpha):
        # the step sees the sign of x0's -0.0: x_1 = -0.0 + h^alpha * copysign(1.0, -0.0)
        g = SimGrid(h=0.1, t_end=0.3)
        tr = integrate(stepped(2, ["copysign(1.0, s0)", "copysign(1.0, s1)"], {"copysign": math.copysign}),
                       alpha, g, [-0.0, 0.0])
        assert list(tr.values[1]) == [-g.h ** alpha, g.h ** alpha]

    @pytest.mark.parametrize("out", [[1.0], [1.0, 2.0, 3.0, 4.0]])
    def test_wrong_length_result_raises(self, out):
        with pytest.raises(ValueError, match=f"returned {len(out)} values, field.dim is 3"):
            integrate(VectorField(dim=3, eval=lambda t, x: out), 0.9, self.GRID, [0.0] * 3)

    @pytest.mark.parametrize("alpha, mem", [(0.9, "full"), (0.9, 50), (1.0, "full")],
                             ids=["full-memory", "memory-50", "alpha-1"])
    def test_each_step_is_handed_the_row_before_it(self, alpha, mem):
        # 500 steps span four leaves; the state carries over from one leaf
        # to the next, and only step 1 sees x0's own -0.0
        seen = []

        def f(t, x):
            seen.append(x)
            return [-x[0] + math.cos(t), 0.5 * x[0] - x[1]]

        x0 = [-0.0, 1.5]
        tr = integrate(VectorField(dim=2, eval=f), alpha, SimGrid(h=1e-2, t_end=5.0, memory_len=mem), x0)
        assert len(seen) == 500 and not tr.diverged
        assert np.array(seen[0]).tobytes() == np.array(x0).tobytes()
        assert np.array(seen).tobytes() == tr.values[:-1].tobytes()

    @pytest.mark.parametrize("name", ["t", "s0", "k", "x"])
    def test_statements_may_not_bind_a_name_of_the_leaf(self, name):
        # "s0 = 2.0" would rebind the state that eval and a march pass in
        with pytest.raises(ValueError, match=f"field 'clash' binds {name}, a name of its step function"):
            VectorField.from_statements(1, "clash", [f"{name} = 2.0", "p0 = -s0"], {})

    def test_statements_may_not_read_x(self):
        # x is the step function's state list: a global of that name was read
        # by the march (x1 = 0.96830 at step 1) while eval raised TypeError
        with pytest.raises(ValueError, match="field 'xx' reads x, a name of its step function"):
            VectorField.from_statements(2, "xx", ["p0 = -s0 * x", "p1 = -s1"], {"x": 2.0})

    @on_both_leaves
    @pytest.mark.parametrize("name", ["ha", "mem", "c0", "near", "step"])
    def test_a_global_named_as_a_local_of_the_leaf_is_read_as_the_global(self, name):
        # a leaf that inlined the step read its own h^alpha for "ha" (x1 =
        # 0.99975 at step 1); a global "step" was lost to the step function's own name
        grid, x0 = SimGrid(h=0.01, t_end=0.5), [1.0, 1.0]
        fields = [VectorField.from_statements(2, "global", [f"p0 = -s0 * {glb}", "p1 = -s1"], {glb: 2.0}, grid.h)
                  for glb in (name, "two")]
        x, renamed = (integrate(field, 0.9, grid, x0).values for field in fields)
        assert x.tobytes() == renamed.tobytes()
        assert x[1, 0] == pytest.approx(0.96830, abs=1e-5)
        # no history at step 1: x1 = x0 + h^alpha * eval(0, x0)
        assert x[1].tolist() == [a + grid.h ** 0.9 * p for a, p in zip(x0, fields[0].eval(0.0, x0))]

    def test_only_a_field_made_on_a_grid_reads_k(self):
        # without h, eval has no k to read, and a march would read its loop index
        lines, ns = ["p0 = -s0 + col[k]", "p1 = -s1"], {"col": memoryview(np.zeros(11))}
        assert VectorField.from_statements(2, "grid", lines, ns, 0.1).eval(0.1, [1.0, 1.0]) == [-1.0, -1.0]
        with pytest.raises(ValueError, match="field 'no-grid' reads k, a name of its step function"):
            VectorField.from_statements(2, "no-grid", lines, ns)

    @on_both_leaves
    def test_a_temporary_bound_on_some_paths_is_unbound_on_the_others(self):
        # g is bound only while s0 > 0; s0 crosses zero at step 25, where a leaf
        # that inlined the step read the stale g = 1.0 and finished at x1 = -1.5
        field = VectorField.from_statements(2, "maybe", ["if s0 > 0.0:", "    g = 1.0", "p0 = g - 3.0",
                                                         "p1 = -s1"], {}, 0.01)
        with pytest.raises(UnboundLocalError):
            field.eval(0.25, [-1e-16, 1.0])
        with pytest.raises(UnboundLocalError):
            integrate(field, 1.0, SimGrid(h=0.01, t_end=1.0), [0.5, 1.0])


class TestDivergenceFlag:
    @on_both_leaves
    def test_blowup_is_flagged_not_raised(self):
        g = SimGrid(h=0.1, t_end=5.0, memory_len="full")
        f = stepped(2, ["s0 * s0", "0.0"])
        tr = integrate(f, 1.0, g, np.array([3.0, 0.0]))
        assert tr.diverged
        assert tr.diverged_at is not None
        # rows after the divergence step are NaN-filled
        k = int(round(tr.diverged_at / g.h))
        assert np.all(np.isnan(tr.values[k + 1:]))

    def test_divergence_threshold_is_1e8(self):
        assert DIVERGENCE_BOUND == 1e8

    @on_both_leaves
    def test_nonfinite_field_output_flags(self):
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")
        f = stepped(2, ["inf", "0.0"], {"inf": math.inf})
        tr = integrate(f, 0.9, g, np.array([0.0, 0.0]))
        assert tr.diverged

    @pytest.mark.parametrize("x0, flags", [
        ([DIVERGENCE_BOUND], False),
        ([math.nextafter(DIVERGENCE_BOUND, math.inf)], True),
        ([DIVERGENCE_BOUND / 10] * 11, False),  # sum 1.1e8, each at 1e7
    ])
    @on_both_leaves
    def test_bound_applies_to_each_component(self, x0, flags):
        # phi == 0 keeps every x_k exactly at x0, so step 1 tests x0 itself
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")
        tr = integrate(stepped(len(x0), ["0.0"] * len(x0)), 0.9, g, x0)
        assert tr.diverged is flags
        assert tr.diverged_at == (pytest.approx(0.1) if flags else None)

    @pytest.mark.parametrize("col, bad", [(2, math.nan), (0, -math.inf)])
    @on_both_leaves
    def test_nonfinite_component_flags_at_its_step(self, col, bad):
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")
        # the fault is read from a column at k, as a run reads its forcing
        fault = memoryview(np.where(np.arange(g.n_steps + 1) == 4, bad, 0.0))
        f = stepped(3, ["fault[k]" if i == col else "0.0" for i in range(3)], {"fault": fault}, g.h)
        tr = integrate(f, 0.9, g, [1.0, 1.0, 1.0])
        assert tr.diverged and tr.diverged_at == pytest.approx(0.4)
        assert np.all(tr.values[:4] == 1.0)
        assert np.all(np.isnan(tr.values[5:]))

    @on_both_leaves
    def test_nan_field_output_flags(self):
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")
        f = stepped(2, ["0.0", "nan"], {"nan": math.nan})
        tr = integrate(f, 0.9, g, np.array([1.0, 1.0]))
        assert tr.diverged
        assert tr.diverged_at == pytest.approx(0.1)
        assert np.all(np.isnan(tr.values[2:]))


class TestGridField:
    """A field made on a grid reads the step index k: the compiled leaf as
    its loop variable, the step function (eval) as round(t / h)."""

    GRID = SimGrid(h=0.01, t_end=3.0)

    # a forcing column read by k, as a run reads its fault and noise
    COLUMN = np.sin(np.arange(GRID.n_steps + 1) * 0.37).tolist()

    def field(self, h):
        return VectorField.from_statements(2, "grid-field", ["p0 = s1 + col[k]", "p1 = -s0 + t"],
                                           {"col": self.COLUMN}, h=h)

    def test_march_reads_the_step_index_as_eval_does(self):
        step = self.field(self.GRID.h)
        x0 = [0.5, -0.25]
        marched = integrate(step, 0.9, self.GRID, x0)
        called = integrate(VectorField(step.dim, step.eval), 0.9, self.GRID, x0)
        assert np.array_equal(marched.values, called.values)

    def test_eval_reads_entry_round_t_over_h(self):
        step = self.field(self.GRID.h)
        for k in (0, 1, 57, self.GRID.n_steps):
            assert step.eval(k * self.GRID.h, [0.0, 0.0])[0] == self.COLUMN[k]

    def test_field_made_on_another_h_is_rejected(self):
        other = SimGrid(h=0.02, t_end=3.0)
        with pytest.raises(ValueError, match="grid of step 0.01, grid.h is 0.02"):
            integrate(self.field(self.GRID.h), 0.9, other, [0.0, 0.0])
        # a field made without a grid reads t only and runs on any grid
        plain = VectorField.from_statements(1, "plain", ["p0 = -s0 + t"], {})
        assert not integrate(plain, 0.9, other, [1.0]).diverged


def direct_gl(f, alpha, grid, x0):
    """The per-step history sum that integrate's FFT recursion replaces."""
    n, h, mem = grid.n_steps, grid.h, grid.effective_memory()
    wrev = gl_weights(alpha, mem)[1:][::-1]
    Z = np.zeros((n + 1, x0.size))
    X = np.empty_like(Z)
    X[0] = x0
    for k in range(1, n + 1):
        m = min(k, mem)
        Z[k] = h ** alpha * np.asarray(f.eval(k * h, X[k - 1].tolist())) - wrev[mem - m:] @ Z[k - m:k]
        X[k] = x0 + Z[k]
    return X


def damped(dim, q, ha, grid):
    # a decaying rotation with forcing cos(t_k), read by step: not chaotic,
    # so differences stay at roundoff size; q = h^alpha * decay rate keeps
    # the explicit march stable. The rates are globals, so the step's
    # source, and with it the compiled leaf, depends on dim only.
    lines = [f"p{i} = -a * s{i}" + (f" + b * s{i + 1}" if i + 1 < dim else "")
             + (f" - b * s{i - 1}" if i else "") + " + force[k]" for i in range(dim)]
    ns = {"a": q / ha, "b": 0.5 * q / ha, "force": memoryview(np.cos(grid.times()))}
    return VectorField.from_statements(dim, "damped", lines, ns, grid.h)


def march(n, mem, dim, alpha, q, x0):
    h = 1e-2
    grid = SimGrid(h=h, t_end=n * h, memory_len=mem)
    return grid, damped(dim, q, h ** alpha, grid), alpha, np.array(x0, dtype=float)


@st.composite
def marches(draw):
    n = draw(st.integers(min_value=1, max_value=2000))
    mem = draw(st.one_of(st.just("full"), st.integers(min_value=1, max_value=n)))
    dim = draw(st.integers(min_value=1, max_value=4))
    alpha = draw(st.floats(min_value=0.1, max_value=1.0))
    q = draw(st.floats(min_value=0.02, max_value=0.5))
    x0 = draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
    return march(n, mem, dim, alpha, q, x0)


# deep recursions: several leaf and FFT levels, windows across split sizes
DEEP = [
    march(2000, "full", 3, 0.6, 0.1, [1.0, -2.0, 0.5]),
    march(1999, 129, 2, 0.35, 0.3, [2.0, 1.0]),
    march(2000, 700, 4, 0.9, 0.02, [0.1, 0.2, -0.3, 3.0]),
    # the widths the harness marches: plant + proposed, plant + both observers
    march(2000, "full", 11, 0.8, 0.1, np.linspace(-2.0, 2.0, 11)),
    march(3000, 700, 17, 0.7, 0.1, np.linspace(3.0, -1.0, 17)),
]


class TestFastHistorySum:
    @given(marches())
    @example(DEEP[0])
    @example(DEEP[1])
    @example(DEEP[2])
    @example(DEEP[3])
    @example(DEEP[4])
    @settings(max_examples=30, deadline=None)
    @on_both_leaves
    def test_matches_direct_sum(self, case):
        grid, f, alpha, x0 = case
        fast = integrate(f, alpha, grid, x0).values
        ref = direct_gl(f, alpha, grid, x0)
        assert np.max(np.abs(fast - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref)))

    @given(marches())
    @example(DEEP[0])
    @settings(max_examples=15, deadline=None)
    @on_both_leaves
    def test_window_of_n_steps_is_full_memory(self, case):
        grid, f, alpha, x0 = case
        full = SimGrid(h=grid.h, t_end=grid.t_end, memory_len="full")
        window = SimGrid(h=grid.h, t_end=grid.t_end, memory_len=grid.n_steps)
        assert np.array_equal(integrate(f, alpha, full, x0).values,
                              integrate(f, alpha, window, x0).values)

    @given(marches())
    @example(DEEP[1])
    @settings(max_examples=15, deadline=None)
    @on_both_leaves
    def test_zero_field_any_window(self, case):
        grid, f, alpha, x0 = case
        zero = stepped(f.dim, ["0.0"] * f.dim)
        assert np.all(integrate(zero, alpha, grid, x0).values == x0)

    @given(marches())
    @example(DEEP[2])
    @settings(max_examples=15, deadline=None)
    @on_both_leaves
    def test_alpha_one_is_direct_euler_any_window(self, case):
        grid, f, _, x0 = case
        assert np.array_equal(integrate(f, 1.0, grid, x0).values,
                              direct_gl(f, 1.0, grid, x0))


class TestMarchMemory:
    def test_scratch_stays_under_four_columns(self):
        # the width and memory of example1, with a null field that returns
        # a list as the harness's fields do; over Z the march holds the
        # weights and the far field's scratch, one column each or so
        n, dim = 30000, 11
        zero = [0.0] * dim
        field = VectorField(dim=dim, eval=lambda t, x: zero)
        integrate(field, 0.9, SimGrid(h=1e-3, t_end=1.0), np.ones(dim))  # first-use imports
        tracemalloc.start()
        try:
            tr = integrate(field, 0.9, SimGrid(h=1e-3, t_end=n * 1e-3), np.ones(dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = (n + 1) * 8
        assert tr.values.nbytes == dim * column
        assert peak < tr.values.nbytes + 4 * column, f"{(peak - tr.values.nbytes) / column:.2f} columns over Z"

    def test_grouped_far_field_is_bit_identical_to_all_columns(self, monkeypatch):
        sizes = []

        def recorded(dim, n, nfft):
            sizes.append((dim, group_size(dim, n, nfft)))
            return sizes[-1][1]

        for grid, f, alpha, x0 in (DEEP[3], DEEP[4]):
            monkeypatch.setattr(fde, "_group_size", recorded)
            grouped = integrate(f, alpha, grid, x0).values
            monkeypatch.setattr(fde, "_group_size", lambda dim, n, nfft: dim)
            whole = integrate(f, alpha, grid, x0).values
            assert np.array_equal(grouped, whole)
        # the top splits of both marches transform fewer than all columns
        assert {g for dim, g in sizes if g < dim} >= {1, 2}


class TestShortMemory:
    @on_both_leaves
    def test_truncation_errors_monotone_and_zero_at_full(self):
        g = SimGrid(h=1e-2, t_end=2.0, memory_len="full")
        rows = memory_truncation_error(
            relax(), 0.9, g, np.array([1.0]), [1, 10, 50, 100, 200]
        )
        ls = [r[0] for r in rows]
        devs = [r[1] for r in rows]
        assert ls == [1, 10, 50, 100, 200]
        assert all(devs[i] >= devs[i + 1] for i in range(len(devs) - 1))
        full_rows = memory_truncation_error(relax(2), 0.9, g, np.array([1.0, -0.5]), [g.n_steps])
        assert full_rows[0][1] == 0.0

    def test_l1_worse_than_half_memory(self):
        g = SimGrid(h=1e-2, t_end=2.0, memory_len="full")
        rows = memory_truncation_error(
            relax(), 0.9, g, np.array([1.0]), [1, g.n_steps // 2]
        )
        assert rows[0][1] > rows[1][1]

    @on_both_leaves
    def test_alpha_one_is_memoryless(self):
        # Euler weights vanish beyond j=1, so any L >= 1 is exact
        g = SimGrid(h=1e-2, t_end=1.0, memory_len="full")
        rows = memory_truncation_error(relax(2), 1.0, g, np.array([1.0, -0.5]), [1, 5])
        assert rows[0][1] == 0.0 and rows[1][1] == 0.0


class TestTrace:
    def test_labels_and_channel(self):
        g = SimGrid(h=0.1, t_end=0.2, memory_len="full")
        tr = integrate(relax(dim=2), 0.9, g, np.array([1.0, 2.0]), labels=["a", "b"])
        assert tr.channel("b")[0] == 2.0
        with pytest.raises(KeyError):
            tr.channel("c")

    def test_label_count_must_match(self):
        g = SimGrid(h=0.1, t_end=0.2, memory_len="full")
        with pytest.raises(ValueError):
            integrate(relax(dim=2), 0.9, g, np.array([1.0, 2.0]), labels=["a"])

    def test_row_count_invariant(self):
        g = SimGrid(h=0.1, t_end=0.2, memory_len="full")
        with pytest.raises(ValueError):
            Trace(grid=g, labels=["a"], values=np.zeros((5, 1)))

    def test_nonfinite_rows_rejected_unless_diverged(self):
        g = SimGrid(h=0.1, t_end=0.2, memory_len="full")
        bad = np.full((3, 1), np.nan)
        with pytest.raises(ValueError):
            Trace(grid=g, labels=["a"], values=bad)
        Trace(grid=g, labels=["a"], values=bad, diverged=True, diverged_at=0.1)
