"""Settle time, RMSE, total variation, chattering index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracobs.fde import SimGrid
from fracobs.metrics import (
    MetricsReport,
    chattering_index,
    default_settle_tol,
    rmse,
    settle_time,
    sup_error,
    total_variation,
)


def grid(h=0.01, t_end=10.0):
    return SimGrid(h=h, t_end=t_end, memory_len="full")


class TestSettleTime:
    def test_all_zeros_settles_immediately(self):
        g = grid()
        assert settle_time(np.zeros(g.n_steps + 1), g, tol=0.1, dwell=1.0) == 0.0

    def test_constant_above_tol_never(self):
        g = grid()
        ch = np.full(g.n_steps + 1, 0.2)
        assert settle_time(ch, g, tol=0.1, dwell=1.0) is None

    def test_linear_decay_crossing(self):
        # |1 - t| <= 0.1 from t = 0.9 on; dwell window of 1 s fits
        g = grid(h=0.01, t_end=3.0)
        t = g.times()
        ch = np.maximum(0.0, 1.0 - t)
        assert settle_time(ch, g, tol=0.1, dwell=1.0) == pytest.approx(0.9)

    def test_dwell_excludes_late_calm(self):
        # channel calms at t = 9.5 but a 1 s window no longer fits
        g = grid(h=0.01, t_end=10.0)
        ch = np.full(g.n_steps + 1, 1.0)
        ch[int(9.5 / 0.01):] = 0.0
        assert settle_time(ch, g, tol=0.1, dwell=1.0) is None

    def test_windowed_definition_is_literal(self):
        # the contract asks for ONE calm dwell window, so a spike after
        # an early calm window does not disqualify t = 0 ...
        g = grid(h=0.01, t_end=10.0)
        ch = np.zeros(g.n_steps + 1)
        ch[int(2.0 / 0.01)] = 5.0
        assert settle_time(ch, g, tol=0.1, dwell=1.0) == 0.0
        # ... but a spike inside every early window pushes settle past it
        ch2 = np.zeros(g.n_steps + 1)
        ch2[int(0.5 / 0.01)] = 5.0
        assert settle_time(ch2, g, tol=0.1, dwell=1.0) == pytest.approx(0.51)

    def test_dwell_longer_than_grid_is_never(self):
        g = grid(h=0.01, t_end=1.0)
        assert settle_time(np.zeros(g.n_steps + 1), g, tol=0.1, dwell=2.0) is None

    def test_tol_validation(self):
        g = grid()
        with pytest.raises(ValueError):
            settle_time(np.zeros(g.n_steps + 1), g, tol=0.0)

    def test_default_tol_is_five_epsilon(self):
        assert default_settle_tol(0.01) == pytest.approx(0.05)


class TestBasicStats:
    def test_rmse_hand_value(self):
        g = grid(h=1.0, t_end=3.0)
        assert rmse(np.array([0.0, 1.0, 2.0, 2.0]), g) == pytest.approx(np.sqrt(9 / 4))

    def test_rmse_window(self):
        g = grid(h=1.0, t_end=3.0)
        assert rmse(np.array([9.0, 9.0, 2.0, 2.0]), g, from_t=2.0) == pytest.approx(2.0)

    def test_sup_error(self):
        g = grid(h=1.0, t_end=3.0)
        assert sup_error(np.array([1.0, -5.0, 2.0, 0.0]), g) == 5.0
        assert sup_error(np.array([1.0, -5.0, 2.0, 0.0]), g, from_t=2.0) == 2.0

    def test_total_variation(self):
        g = grid(h=1.0, t_end=3.0)
        assert total_variation(np.array([0.0, 2.0, 1.0, 1.0]), g) == pytest.approx(3.0)


class TestChatteringIndex:
    def test_perfect_tracker_scores_zero(self):
        g = grid(h=0.01, t_end=5.0)
        t = g.times()
        truth = 0.4 * np.cos(t)
        assert chattering_index(truth, truth, g) == 0.0

    def test_square_wave_scores_a_over_h(self):
        # amplitude a, period 2h against constant truth: TV 2a per period
        g = grid(h=0.01, t_end=5.0)
        a = 0.3
        ch = np.zeros(g.n_steps + 1)
        ch[1::2] = a
        truth = np.zeros(g.n_steps + 1)
        assert chattering_index(ch, truth, g) == pytest.approx(a / g.h, rel=1e-2)

    def test_clamped_at_zero_when_smoother_than_truth(self):
        g = grid(h=0.01, t_end=5.0)
        t = g.times()
        truth = np.sin(10 * t)
        ch = np.zeros_like(t)
        assert chattering_index(ch, truth, g) == 0.0

    def test_offset_invariance(self):
        g = grid(h=0.01, t_end=5.0)
        t = g.times()
        truth = 0.4 * np.cos(t)
        ch = truth + 0.05 * np.sign(np.sin(40 * t))
        base = chattering_index(ch, truth, g)
        shifted = chattering_index(ch + 3.3, truth + 3.3, g)
        assert shifted == pytest.approx(base, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_scaling(self, c):
        g = grid(h=0.01, t_end=2.0)
        t = g.times()
        truth = np.cos(t)
        ch = truth + 0.02 * np.sign(np.sin(37 * t))
        base = chattering_index(ch, truth, g)
        scaled = chattering_index(c * ch, c * truth, g)
        assert scaled == pytest.approx(c * base, rel=1e-9)

    def test_window_start(self):
        g = grid(h=0.01, t_end=2.0)
        n = g.n_steps + 1
        ch = np.zeros(n)
        ch[: n // 2] = np.sign(np.sin(np.arange(n // 2)))  # noisy first half only
        truth = np.zeros(n)
        assert chattering_index(ch, truth, g, from_t=1.5) == 0.0
        assert chattering_index(ch, truth, g, from_t=0.0) > 0.0

    def test_empty_window_rejected(self):
        g = grid(h=0.01, t_end=2.0)
        with pytest.raises(ValueError):
            chattering_index(np.zeros(g.n_steps + 1), np.zeros(g.n_steps + 1), g, from_t=2.0)


class TestMetricsReport:
    def test_flat_dict_and_text(self):
        rep = MetricsReport(variant="proposed")
        rep.settle = {"e1": 0.5, "ef": None}
        rep.rmse_post_settle = {"e1": 0.125, "ef": None}
        rep.settle_tol = 0.05
        rep.settle_dwell = 5.0
        flat = rep.to_flat_dict()
        assert flat["settle_e1"] == 0.5
        assert flat["settle_ef"] is None
        text = rep.to_text()
        assert "settle_ef = never" in text
        assert "chattering_index = n/a" in text
        assert "rmse_post_settle_e1 = 0.125" in text
