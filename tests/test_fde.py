"""Explicit GL solver: shift exactness, oracles, memory truncation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def relax(dim=1):
    return VectorField(dim=dim, eval=lambda t, x: -np.asarray(x))


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
    def test_zero_field_returns_x0_exactly(self):
        # the z-shift makes this exact at every step, not approximate
        g = SimGrid(h=1e-2, t_end=1.0, memory_len="full")
        x0 = np.array([2.5, -1.25, 1e-7])
        tr = integrate(VectorField(dim=3, eval=lambda t, x: np.zeros(3)), 0.7, g, x0)
        assert np.all(tr.values == x0)

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False),
           st.floats(min_value=0.1, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_zero_field_any_start_any_order(self, x0, alpha):
        g = SimGrid(h=0.05, t_end=0.5, memory_len="full")
        tr = integrate(VectorField(dim=1, eval=lambda t, x: np.zeros(1)), alpha, g, np.array([x0]))
        assert np.all(tr.values[:, 0] == x0)

    def test_relaxation_vs_mittag_leffler(self):
        a = 0.9
        g = SimGrid(h=1e-3, t_end=5.0, memory_len="full")
        tr = integrate(relax(), a, g, np.array([1.0]))
        t = tr.times()
        lo = int(0.1 / g.h)
        ref = np.array([mittag_leffler(a, -(ti ** a)) for ti in t[lo:]])
        rel = np.abs(tr.values[lo:, 0] - ref) / np.abs(ref)
        assert rel.max() < 1e-2

    def test_alpha_one_is_explicit_euler(self):
        # algebraic identity, not an accuracy statement
        g = SimGrid(h=1e-2, t_end=0.5, memory_len="full")
        tr = integrate(relax(), 1.0, g, np.array([1.0]))
        x = 1.0
        for k in range(1, g.n_steps + 1):
            x = x + g.h * (-x)
            assert tr.values[k, 0] == pytest.approx(x, abs=1e-15)

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

    def test_determinism_bit_identical(self):
        g = SimGrid(h=1e-3, t_end=1.0, memory_len="full")
        f = VectorField(dim=2, eval=lambda t, x: np.array([x[1], -x[0] - 0.1 * x[1]]))
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
        as_array = integrate(relax(dim=3), 0.9, self.GRID, x0)
        assert np.array_equal(as_list.values, as_array.values)

    @pytest.mark.parametrize("out", [[1.0], [1.0, 2.0, 3.0, 4.0]])
    def test_wrong_length_result_raises(self, out):
        with pytest.raises(ValueError, match=f"returned {len(out)} values, field.dim is 3"):
            integrate(VectorField(dim=3, eval=lambda t, x: out), 0.9, self.GRID, [0.0] * 3)


class TestDivergenceFlag:
    def test_blowup_is_flagged_not_raised(self):
        g = SimGrid(h=0.1, t_end=5.0, memory_len="full")
        f = VectorField(dim=1, eval=lambda t, x: np.square(x))
        tr = integrate(f, 1.0, g, np.array([3.0]))
        assert tr.diverged
        assert tr.diverged_at is not None
        # rows after the divergence step are NaN-filled
        k = int(round(tr.diverged_at / g.h))
        assert np.all(np.isnan(tr.values[k + 1:]))

    def test_divergence_threshold_is_1e8(self):
        assert DIVERGENCE_BOUND == 1e8

    def test_nonfinite_field_output_flags(self):
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")
        f = VectorField(dim=1, eval=lambda t, x: np.array([math.inf]))
        tr = integrate(f, 0.9, g, np.array([0.0]))
        assert tr.diverged

    @pytest.mark.parametrize("x0, flags", [
        ([DIVERGENCE_BOUND], False),
        ([math.nextafter(DIVERGENCE_BOUND, math.inf)], True),
        ([DIVERGENCE_BOUND / 10] * 11, False),  # sum 1.1e8, each at 1e7
    ])
    def test_bound_applies_to_each_component(self, x0, flags):
        # phi == 0 keeps every x_k exactly at x0, so step 1 tests x0 itself
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")
        zero = [0.0] * len(x0)
        tr = integrate(VectorField(dim=len(x0), eval=lambda t, x: zero), 0.9, g, x0)
        assert tr.diverged is flags
        assert tr.diverged_at == (pytest.approx(0.1) if flags else None)

    @pytest.mark.parametrize("col, bad", [(2, math.nan), (0, -math.inf)])
    def test_nonfinite_component_flags_at_its_step(self, col, bad):
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")

        def f(t, x):
            out = [0.0, 0.0, 0.0]
            if round(t / g.h) == 4:
                out[col] = bad
            return out

        tr = integrate(VectorField(dim=3, eval=f), 0.9, g, [1.0, 1.0, 1.0])
        assert tr.diverged and tr.diverged_at == pytest.approx(0.4)
        assert np.all(tr.values[:4] == 1.0)
        assert np.all(np.isnan(tr.values[5:]))

    def test_nan_field_output_flags(self):
        g = SimGrid(h=0.1, t_end=1.0, memory_len="full")
        f = VectorField(dim=2, eval=lambda t, x: np.array([0.0, math.nan]))
        tr = integrate(f, 0.9, g, np.array([1.0, 1.0]))
        assert tr.diverged
        assert tr.diverged_at == pytest.approx(0.1)
        assert np.all(np.isnan(tr.values[2:]))


def direct_gl(f, alpha, grid, x0):
    """The per-step history sum that integrate's FFT recursion replaces."""
    n, h, mem = grid.n_steps, grid.h, grid.effective_memory()
    wrev = gl_weights(alpha, mem)[1:][::-1]
    Z = np.zeros((n + 1, x0.size))
    X = np.empty_like(Z)
    X[0] = x0
    for k in range(1, n + 1):
        m = min(k, mem)
        Z[k] = h ** alpha * f.eval(k * h, X[k - 1]) - wrev[mem - m:] @ Z[k - m:k]
        X[k] = x0 + Z[k]
    return X


def damped(dim, q, ha):
    # a decaying rotation with forcing: not chaotic, so differences stay at
    # roundoff size; q = h^alpha * decay rate keeps the explicit march stable
    A = q / ha * (-np.eye(dim) + 0.5 * (np.eye(dim, k=1) - np.eye(dim, k=-1)))
    return VectorField(dim=dim, eval=lambda t, x: A @ np.asarray(x) + np.cos(t))


def march(n, mem, dim, alpha, q, x0):
    h = 1e-2
    grid = SimGrid(h=h, t_end=n * h, memory_len=mem)
    return grid, damped(dim, q, h ** alpha), alpha, np.array(x0, dtype=float)


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
    def test_matches_direct_sum(self, case):
        grid, f, alpha, x0 = case
        fast = integrate(f, alpha, grid, x0).values
        ref = direct_gl(f, alpha, grid, x0)
        assert np.max(np.abs(fast - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref)))

    @given(marches())
    @example(DEEP[0])
    @settings(max_examples=15, deadline=None)
    def test_window_of_n_steps_is_full_memory(self, case):
        grid, f, alpha, x0 = case
        full = SimGrid(h=grid.h, t_end=grid.t_end, memory_len="full")
        window = SimGrid(h=grid.h, t_end=grid.t_end, memory_len=grid.n_steps)
        assert np.array_equal(integrate(f, alpha, full, x0).values,
                              integrate(f, alpha, window, x0).values)

    @given(marches())
    @example(DEEP[1])
    @settings(max_examples=15, deadline=None)
    def test_zero_field_any_window(self, case):
        grid, f, alpha, x0 = case
        zero = VectorField(dim=f.dim, eval=lambda t, x: np.zeros(f.dim))
        assert np.all(integrate(zero, alpha, grid, x0).values == x0)

    @given(marches())
    @example(DEEP[2])
    @settings(max_examples=15, deadline=None)
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
    def test_truncation_errors_monotone_and_zero_at_full(self):
        g = SimGrid(h=1e-2, t_end=2.0, memory_len="full")
        rows = memory_truncation_error(
            relax(), 0.9, g, np.array([1.0]), [1, 10, 50, 100, 200]
        )
        ls = [r[0] for r in rows]
        devs = [r[1] for r in rows]
        assert ls == [1, 10, 50, 100, 200]
        assert all(devs[i] >= devs[i + 1] for i in range(len(devs) - 1))
        full_rows = memory_truncation_error(relax(), 0.9, g, np.array([1.0]), [g.n_steps])
        assert full_rows[0][1] == 0.0

    def test_l1_worse_than_half_memory(self):
        g = SimGrid(h=1e-2, t_end=2.0, memory_len="full")
        rows = memory_truncation_error(
            relax(), 0.9, g, np.array([1.0]), [1, g.n_steps // 2]
        )
        assert rows[0][1] > rows[1][1]

    def test_alpha_one_is_memoryless(self):
        # Euler weights vanish beyond j=1, so any L >= 1 is exact
        g = SimGrid(h=1e-2, t_end=1.0, memory_len="full")
        rows = memory_truncation_error(relax(), 1.0, g, np.array([1.0]), [1, 5])
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
