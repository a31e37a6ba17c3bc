"""Observer cascades: hand-worked derivative arithmetic, gate logic,
fault readout algebra, and structural properties shared by the two
variants.

The single-evaluation oracles below were worked out by hand from the
cascade structure: pair i injects xtilde_{i+1} + lam_i sqrt|e_i| sign(e_i)
into xhat_i and alpha_i sign(e_i) into xtilde_{i+1}; the n-th pair of the
proposed variant injects drift + f_tilde, its fault pair filters
e_f = f_tilde - f_hat; the baseline n-th pair injects theta_tilde.

Everything runs through ``ObserverDynamics.rhs_flat`` on the flat state
[xhat1, xtilde2, xhat2, xtilde3, xhat3, (f_tilde, f_hat,) theta_tilde],
with the gates computed from that state: epsilon = 1 opens every gate of
the fixture, the default epsilon = 0.01 closes them all.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracobs.configs import ExperimentConfig, bundled_config
from fracobs.errors import SingularGainError
from fracobs.harness import compare_observers, trace_columns
from fracobs.observers import (
    FstaParams,
    ObserverDynamics,
    baseline_fault_readout,
    fsta_rhs,
    gates,
    required_gain_count,
    sta_convergence_time,
    state_dim,
    state_labels,
)
from fracobs.plants import arneodo, genesio_tesi

SQ02 = math.sqrt(0.2)
SQ03 = math.sqrt(0.3)
SQ08 = math.sqrt(0.8)

# xhat = (0.3, 0.1, -0.2), xtilde = (0.4, 0.6), y = 0.5:
# e = (0.2, 0.3, 0.8) and e_f = 0.25 - 0.05 = 0.2
PROPOSED_FLAT = [0.3, 0.4, 0.1, 0.6, -0.2, 0.25, 0.05, -0.3]
BASELINE_FLAT = [0.3, 0.4, 0.1, 0.6, -0.2, -0.3]
Y = 0.5
PROPOSED_GAINS = dict(lambdas=(1, 2, 3, 4), alphas=(5, 6, 7, 8))
BASELINE_GAINS = dict(lambdas=(1, 2, 3), alphas=(5, 6, 7))


def dynamics(variant, epsilon=0.01, latching=False, **gains):
    gains = gains or (PROPOSED_GAINS if variant == "proposed" else BASELINE_GAINS)
    return ObserverDynamics(variant, arneodo(), epsilon=epsilon, latching=latching, **gains)


def named(variant, d):
    return dict(zip(state_labels(variant, 3), d))


def running_pairs(d):
    # a running pair injects alpha_i sign(e_i) != 0 into its second variable
    return [v != 0.0 for v in d[1::2]]


class TestFsta:
    def test_rhs_formula(self):
        p = FstaParams(lam=2.0, alpha_gain=3.0)
        d1, d2 = fsta_rhs(0.25, 1.5, p)
        assert d1 == pytest.approx(1.5 - 2.0 * 0.5)
        assert d2 == -3.0

    def test_sign_zero_is_zero(self):
        p = FstaParams(lam=2.0, alpha_gain=3.0)
        d1, d2 = fsta_rhs(0.0, 0.7, p, rho=0.1)
        assert d1 == 0.7 and d2 == pytest.approx(0.1)

    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=0.01, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_odd_symmetry(self, x1, x2, lam, alp):
        p = FstaParams(lam=lam, alpha_gain=alp)
        d = fsta_rhs(x1, x2, p)
        dneg = fsta_rhs(-x1, -x2, p)
        assert dneg[0] == pytest.approx(-d[0], abs=1e-12)
        assert dneg[1] == pytest.approx(-d[1], abs=1e-12)

    def test_gains_must_be_positive(self):
        with pytest.raises(ValueError):
            FstaParams(lam=0.0, alpha_gain=1.0)
        with pytest.raises(ValueError):
            FstaParams(lam=1.0, alpha_gain=-2.0)


class TestConvergenceTime:
    def test_alpha_one_identity(self):
        assert sta_convergence_time(1.0, 2.7) == pytest.approx(2.7, rel=1e-13)

    def test_alpha_half_quarter_pi(self):
        # independent route: (Gamma(1.5) v_s)^2 with Gamma(1.5) = sqrt(pi)/2
        ref = (math.sqrt(math.pi) / 2.0) ** 2
        assert sta_convergence_time(0.5, 1.0) == pytest.approx(ref, rel=1e-12)
        assert ref == pytest.approx(math.pi / 4, rel=1e-15)

    def test_small_vs_limit(self):
        assert sta_convergence_time(0.8, 1e-9) < 1e-9

    def test_vs_must_be_positive(self):
        with pytest.raises(ValueError):
            sta_convergence_time(0.8, 0.0)


class TestGates:
    def test_cascade_definition(self):
        gv = gates(np.array([0.001, 0.5, 0.001]), epsilon=0.01)
        assert gv.tolist() == [True, False, False]

    def test_all_open(self):
        gv = gates(np.array([0.0, 0.01, -0.01]), epsilon=0.01)
        assert gv.tolist() == [True, True, True]

    def test_rows_accumulate_along_last_axis(self):
        gv = gates(np.array([[0.001, 0.5, 0.001], [0.0, 0.01, -0.01]]), epsilon=0.01)
        assert gv.tolist() == [[True, False, False], [True, True, True]]

    @given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                    min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_monotone_non_increasing(self, errs):
        flags = gates(np.array(errs), epsilon=0.05)
        assert all(flags[i] >= flags[i + 1] for i in range(len(flags) - 1))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            gates(np.zeros(3), epsilon=0.0)


class TestEstimationErrors:
    def test_definition(self):
        # with lambda = 1 each pair adds sqrt|e_i| to its input, so the
        # errors the cascade used read back as e1 = y - xhat1 = 0.2,
        # e2 = xtilde2 - xhat2 = 0.3, e3 = xtilde3 - xhat3 = 0.8
        flat = BASELINE_FLAT[:5] + [0.0]
        d = dynamics("baseline", epsilon=1.0, lambdas=(1, 1, 1), alphas=(1, 1, 1)).rhs_flat(Y, flat)
        e = [(d[0] - 0.4) ** 2, (d[2] - 0.6) ** 2, d[4] ** 2]
        assert e == pytest.approx([0.2, 0.3, 0.8])


class TestProposedRhs:
    def test_all_gates_open_hand_values(self):
        d = named("proposed", dynamics("proposed", epsilon=1.0).rhs_flat(Y, PROPOSED_FLAT))
        # pair 1: xtilde_2 + lam1 sqrt|e1|, alpha1 sign(e1)
        assert d["xhat1"] == pytest.approx(0.4 + 1 * SQ02)
        assert d["xtilde2"] == pytest.approx(5.0)
        # pair 2: xtilde_3 + lam2 sqrt|e2|
        assert d["xhat2"] == pytest.approx(0.6 + 2 * SQ03)
        assert d["xtilde3"] == pytest.approx(6.0)
        # pair 3: a(y, xt2, xt3) + f_tilde + lam3 sqrt|e3|
        drift = 5.5 * 0.5 - 3.5 * 0.4 - 0.8 * 0.6 - 0.5 ** 3  # = 0.745
        assert drift == pytest.approx(0.745)
        assert d["xhat3"] == pytest.approx(drift + 0.25 + 3 * SQ08)
        assert d["f_tilde"] == pytest.approx(7.0)
        # fault pair: theta + lam4 sqrt|e_f|, e_f = 0.25 - 0.05
        assert d["f_hat"] == pytest.approx(-0.3 + 4 * SQ02)
        assert d["theta_tilde"] == pytest.approx(8.0)

    def test_all_gates_closed_only_first_pair_runs(self):
        d = named("proposed", dynamics("proposed").rhs_flat(Y, PROPOSED_FLAT))
        assert d["xhat1"] == pytest.approx(0.4 + SQ02)
        assert d["xtilde2"] == pytest.approx(5.0)
        assert d["xhat2"] == 0.0 and d["xhat3"] == 0.0
        assert d["xtilde3"] == 0.0
        assert d["f_tilde"] == 0.0 and d["f_hat"] == 0.0 and d["theta_tilde"] == 0.0

    def test_negative_error_flips_signs(self):
        flat = [0.7] + PROPOSED_FLAT[1:]  # e1 = -0.2
        d = dynamics("proposed", epsilon=1.0).rhs_flat(Y, flat)
        assert d[0] == pytest.approx(0.4 - SQ02)
        assert d[1] == pytest.approx(-5.0)

    def test_requires_fault_states(self):
        # a baseline-sized state lacks f_tilde and f_hat
        with pytest.raises(ValueError):
            dynamics("proposed", epsilon=1.0).rhs_flat(Y, BASELINE_FLAT)

    def test_gain_count_enforced(self):
        with pytest.raises(ValueError):
            dynamics("proposed", lambdas=(1, 2, 3), alphas=(4, 5, 6))


class TestBaselineRhs:
    def test_hand_values(self):
        d = named("baseline", dynamics("baseline", epsilon=1.0).rhs_flat(Y, BASELINE_FLAT))
        assert d["xhat1"] == pytest.approx(0.4 + SQ02)
        assert d["xtilde2"] == pytest.approx(5.0)
        assert d["xhat2"] == pytest.approx(0.6 + 2 * SQ03)
        assert d["xtilde3"] == pytest.approx(6.0)
        # n-th pair injects theta_tilde, no drift, no fault pair
        assert d["xhat3"] == pytest.approx(-0.3 + 3 * SQ08)
        assert d["theta_tilde"] == pytest.approx(7.0)

    def test_prefix_agreement_hand_case(self):
        dp = dynamics("proposed", epsilon=1.0).rhs_flat(Y, PROPOSED_FLAT)
        db = dynamics("baseline", epsilon=1.0, lambdas=(1, 2, 3), alphas=(5, 6, 7)).rhs_flat(
            Y, BASELINE_FLAT
        )
        assert dp[:4] == db[:4]

    @given(
        st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=8, max_size=8),
        st.lists(st.floats(min_value=0.1, max_value=20), min_size=8, max_size=8),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=0.01, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_agreement_property(self, vals, gs, y, eps):
        # first 2(n-1) derivative components agree whatever the state/gains
        dp = dynamics("proposed", epsilon=eps, lambdas=gs[0:4], alphas=gs[4:8]).rhs_flat(y, vals)
        db = dynamics("baseline", epsilon=eps, lambdas=gs[0:3], alphas=gs[4:7]).rhs_flat(
            y, vals[0:5] + vals[7:]
        )
        assert dp[:4] == db[:4]


class TestFaultReadout:
    def test_round_trip_to_1e12(self):
        # theta = a(xt) + b(xt) f  =>  readout recovers f
        plant = arneodo()
        xt = np.array([0.5, 0.4, 0.6])
        f_true = 0.37
        theta = plant.a(xt) + plant.b(xt) * f_true
        f_back = baseline_fault_readout(xt, theta, plant)
        assert abs(f_back - f_true) < 1e-12

    def test_hand_value(self):
        plant = arneodo()
        xt = np.array([0.5, 0.4, 0.6])  # a = 0.745
        assert baseline_fault_readout(xt, -0.3, plant) == pytest.approx(-1.045)

    def test_broadcasts_over_rows(self):
        plant = arneodo()
        rows = np.array([[0.5, 0.4, 0.6], [0.0, 0.0, 0.0]])
        out = baseline_fault_readout(rows, np.array([-0.3, 1.0]), plant)
        assert out == pytest.approx([-1.045, 1.0])

    def test_general_gain_division(self):
        plant = arneodo()
        plant.b = lambda x: 2.0
        xt = np.array([0.5, 0.4, 0.6])  # a = 0.745
        assert baseline_fault_readout(xt, 1.485, plant) == pytest.approx(0.37)

    def test_singular_gain_detected(self):
        plant = arneodo()
        plant.b = lambda x: 0.0
        with pytest.raises(SingularGainError):
            baseline_fault_readout(np.zeros(3), 1.0, plant)


def _example1(**observer):
    raw = bundled_config("example1")
    raw["observer"].update(observer)
    return ExperimentConfig.from_dict(raw)


class TestStateLayout:
    def test_dims_and_gain_counts(self):
        assert state_dim("proposed", 3) == 8
        assert state_dim("baseline", 3) == 6
        assert required_gain_count("proposed", 3) == 4
        assert required_gain_count("baseline", 3) == 3

    def test_labels(self):
        assert state_labels("proposed", 3) == [
            "xhat1", "xtilde2", "xhat2", "xtilde3", "xhat3",
            "f_tilde", "f_hat", "theta_tilde",
        ]
        assert state_labels("baseline", 3) == [
            "xhat1", "xtilde2", "xhat2", "xtilde3", "xhat3", "theta_tilde",
        ]

    def test_pack_unpack_round_trip(self):
        # observer.init is the flat state, entry for entry
        init = _example1(init=PROPOSED_FLAT).build_init_state("proposed", 3)
        assert init.tolist() == PROPOSED_FLAT
        d = named("proposed", init)
        assert (d["xhat1"], d["xtilde3"], d["f_tilde"], d["f_hat"], d["theta_tilde"]) == (
            0.3, 0.6, 0.25, 0.05, -0.3,
        )

    def test_zero_state(self):
        cfg = _example1()
        assert cfg.build_init_state("proposed", 3).tolist() == [0.0] * 8
        assert cfg.build_init_state("baseline", 3).tolist() == [0.0] * 6


class TestObserverDynamics:
    def test_flat_rhs_matches_direct_call(self):
        # every open pair is fsta_rhs at xi1 = -e_i, bit for bit
        lam, alp = PROPOSED_GAINS["lambdas"], PROPOSED_GAINS["alphas"]
        xh1, xt2, xh2, xt3, xh3, ft, fh, th = PROPOSED_FLAT
        drift = float(arneodo().a(np.array([Y, xt2, xt3])))
        expect = []
        for i, (e, v) in enumerate([(Y - xh1, xt2), (xt2 - xh2, xt3), (xt3 - xh3, drift + ft), (ft - fh, th)]):
            expect += fsta_rhs(-e, v, FstaParams(lam=lam[i], alpha_gain=alp[i]))
        assert dynamics("proposed", epsilon=1.0).rhs_flat(Y, PROPOSED_FLAT) == expect

        # with k gates open, pairs 1..k+1 run and the rest give (0.0, 0.0);
        # e_j is the previous pair's second variable (y for the first pair)
        # minus pair j's estimate
        rng = np.random.default_rng(25)
        for variant in ("proposed", "baseline"):
            dyn = dynamics(variant, epsilon=0.1)
            pairs = dyn.dim // 2
            lam, alp = dyn._lam, dyn._alp
            for open_ in range(pairs):
                sign = rng.choice([-1.0, 1.0], pairs)
                errors = sign * np.r_[rng.uniform(0.0, 0.09, open_), rng.uniform(0.2, 1.0, pairs - open_)]
                seconds = rng.uniform(-3.0, 3.0, pairs).tolist()
                measured = [Y, *seconds[:-1]]
                flat = [v for m, e, s in zip(measured, errors.tolist(), seconds) for v in (m - e, s)]
                expect = []
                for j, (m, s) in enumerate(zip(measured, seconds)):
                    if j > open_:
                        expect += [0.0, 0.0]
                        continue
                    if variant == "proposed" and j == 2:  # the drift pair
                        s = float(arneodo().a(np.array([Y, flat[1], flat[3]]))) + s
                    expect += fsta_rhs(-(m - flat[2 * j]), s, FstaParams(lam=lam[j], alpha_gain=alp[j]))
                assert dyn.rhs_flat(Y, flat) == expect
                assert running_pairs(expect) == [j <= open_ for j in range(pairs)]

    def test_latching_keeps_gates_open(self):
        small = [-1e-4, 0.0, -1e-4, 0.0, -1e-4, 0.0, -1e-4, 0.0]  # all |e| = 1e-4
        big = [-1.0, 0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0]  # all |e| = 1
        dyn = dynamics("proposed", latching=True)
        assert all(running_pairs(dyn.rhs_flat(0.0, small)))
        assert all(running_pairs(dyn.rhs_flat(0.0, big)))  # latched
        dyn.reset()
        assert running_pairs(dyn.rhs_flat(0.0, big)) == [True, False, False, False]

    def test_instantaneous_gates_flap(self):
        dyn = dynamics("proposed", latching=False)
        assert all(running_pairs(dyn.rhs_flat(0.0, [-1e-4, 0.0] * 4)))
        assert running_pairs(dyn.rhs_flat(0.0, [-1.0, 0.0] * 4)) == [True, False, False, False]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ObserverDynamics("improved", arneodo(), **PROPOSED_GAINS)


def written_channels(dyn, y, block):
    """The columns ``channels`` writes, each into its own array."""
    out = {label: np.full(len(y), np.nan) for label in dyn.channel_labels}
    dyn.channels(y, block, out)
    return out


class TestChannels:
    """``channels`` on hand-made blocks at epsilon = 0.125; the entries are
    chosen so that every error is exact in binary floating point."""

    # e = (1/16, -1/16, 0) on row 0; e1 = 17/16 leaves the band on row 1,
    # e2 = 11/16 on row 2; e_f = 3/16 throughout
    Y = np.array([0.5, 1.5, 0.5])
    BLOCK = np.array([
        [0.4375, 0.25, 0.3125, 0.75, 0.75, 0.25, 0.0625, -0.5],
        [0.4375, 0.25, 0.3125, 0.75, 0.75, 0.25, 0.0625, -0.5],
        [0.4375, 1.0, 0.3125, 0.75, 0.75, 0.25, 0.0625, -0.5],
    ])

    def test_proposed_hand_values(self):
        ch = written_channels(dynamics("proposed", epsilon=0.125), self.Y, self.BLOCK)
        assert sorted(ch) == sorted(state_labels("proposed", 3) + ["e1", "e2", "e3", "e_f", "E1", "E2", "E3"])
        assert ch["xtilde2"].tolist() == [0.25, 0.25, 1.0]
        assert ch["e1"].tolist() == [0.0625, 1.0625, 0.0625]
        assert ch["e2"].tolist() == [-0.0625, -0.0625, 0.6875]
        assert ch["e3"].tolist() == [0.0, 0.0, 0.0]
        assert ch["f_hat"].tolist() == [0.0625] * 3
        assert ch["e_f"].tolist() == [0.1875] * 3
        assert ch["E1"].tolist() == [1.0, 0.0, 1.0]
        assert ch["E2"].tolist() == [1.0, 0.0, 0.0]
        assert ch["E3"].tolist() == [1.0, 0.0, 0.0]

    def test_latched_gates_stay_open_after_errors_leave_the_band(self):
        ch = written_channels(dynamics("proposed", epsilon=0.125, latching=True), self.Y, self.BLOCK)
        assert ch["e1"][1] > 0.125 and ch["e2"][2] > 0.125
        assert [ch[f"E{i}"].tolist() for i in (1, 2, 3)] == [[1.0, 1.0, 1.0]] * 3

    def test_baseline_readout_and_gates(self):
        # row 0: a(0.5, 0.4, 0.6) = 0.745, so f_hat = -0.3 - 0.745; row 1: a(0) = 0
        y = np.array([0.5, 0.0])
        block = np.array([[0.4375, 0.4, 0.4, 0.6, 0.6, -0.3],
                          [0.25, 0.0, 0.0, 0.0, 0.0, 1.0]])
        ch = written_channels(dynamics("baseline", epsilon=0.125), y, block)
        assert sorted(ch) == sorted(state_labels("baseline", 3) + ["e1", "e2", "e3", "f_hat", "E1", "E2"])
        assert ch["f_hat"] == pytest.approx([-1.045, 1.0], abs=1e-15)
        assert ch["e1"].tolist() == [0.0625, -0.25]
        assert ch["e2"].tolist() == ch["e3"].tolist() == [0.0, 0.0]
        assert ch["E1"].tolist() == ch["E2"].tolist() == [1.0, 0.0]
        latched = written_channels(dynamics("baseline", epsilon=0.125, latching=True), y, block)
        assert latched["E1"].tolist() == latched["E2"].tolist() == [1.0, 1.0]

    def test_trace_labels_are_the_schema_filtered(self):
        raw = bundled_config("example2")
        raw["grid"].update(h=1e-2, t_end=1.0)
        raw["observer"]["latching"] = True
        result = compare_observers(ExperimentConfig.from_dict(raw))
        columns = trace_columns(3)
        assert columns[0] == "t"
        assert result.trace_a.labels == columns[1:]
        assert result.trace_b.labels == [c for c in columns[1:] if c not in ("f_tilde", "e_f", "E3")]


# ---------------------------------------------------------------------------
# the flat cascade against the object-based cascade it replaced


def _old_sign(v):
    return 0.0 if v == 0.0 else math.copysign(1.0, v)


def _old_drift(plant):
    # the presets' drift as the object cascade evaluated it: indexed array
    # components, so the power is numpy's array power
    b1, b2, b3, b4 = plant.params["betas"]
    p = 3 if plant.name == "arneodo" else 2
    return lambda x: -b1 * x[..., 0] - b2 * x[..., 1] - b3 * x[..., 2] + b4 * x[..., 0] ** p


def _old_rhs(variant, gains, plant, latch, y, flat):
    """One step of the object cascade: unpack, errors, gates (OR-latched
    when ``latch`` is an array), variant right-hand side, pack."""
    n = plant.n
    flat = np.asarray(flat, dtype=float)
    s = SimpleNamespace(
        x_hat=flat[0:2 * n - 1:2].copy(), x_tilde=flat[1:2 * n - 2:2].copy(), theta_tilde=float(flat[-1])
    )
    if variant == "proposed":
        s.f_tilde, s.f_hat = float(flat[2 * n - 1]), float(flat[2 * n])
    e = np.empty(n)
    e[0] = y - s.x_hat[0]
    e[1:] = s.x_tilde - s.x_hat[1:]
    gate_count = n if variant == "proposed" else n - 1
    flags = np.logical_and.accumulate(np.abs(e[:gate_count]) <= gains.epsilon)
    if latch is not None:
        latch |= flags
        flags = latch.copy()
    lam, alp = gains.lambdas, gains.alphas_gain
    d_xhat, d_xtilde = np.empty(n), np.empty(n - 1)
    for i in range(n - 1):
        enable = 1.0 if (i == 0 or flags[i - 1]) else 0.0
        sg = _old_sign(e[i])
        d_xhat[i] = enable * (s.x_tilde[i] + lam[i] * math.sqrt(abs(e[i])) * sg)
        d_xtilde[i] = enable * alp[i] * sg
    en_n = 1.0 if flags[n - 2] else 0.0
    s_n = _old_sign(e[n - 1])
    out = np.empty(flat.size)
    if variant == "proposed":
        drift = float(_old_drift(plant)(np.concatenate(([y], s.x_tilde))))
        d_xhat[n - 1] = en_n * (drift + s.f_tilde + lam[n - 1] * math.sqrt(abs(e[n - 1])) * s_n)
        out[2 * n - 1] = en_n * alp[n - 1] * s_n
        en_f = 1.0 if flags[n - 1] else 0.0
        e_f = s.f_tilde - s.f_hat
        s_f = _old_sign(e_f)
        out[2 * n] = en_f * (s.theta_tilde + lam[n] * math.sqrt(abs(e_f)) * s_f)
        out[-1] = en_f * alp[n] * s_f
    else:
        d_xhat[n - 1] = en_n * (s.theta_tilde + lam[n - 1] * math.sqrt(abs(e[n - 1])) * s_n)
        out[-1] = en_n * alp[n - 1] * s_n
    out[0:2 * n - 1:2] = d_xhat
    out[1:2 * n - 2:2] = d_xtilde
    return out.tolist()


_EPS = 0.1
# an error of exactly 0 or +-eps on a zero anchor, or any error on any anchor
_anchor = st.one_of(st.just(0.0), st.floats(min_value=-3, max_value=3))
_error = st.one_of(
    st.sampled_from([0.0, _EPS, -_EPS]),
    st.floats(min_value=-2 * _EPS, max_value=2 * _EPS),
    st.floats(min_value=-3, max_value=3),
)


@st.composite
def _step(draw):
    """(y, proposed flat state): each error is anchor + error - anchor."""
    xh1, xh2, xh3, fh = (draw(_anchor) for _ in range(4))
    e1, e2, e3, ef = (draw(_error) for _ in range(4))
    theta = draw(st.floats(min_value=-3, max_value=3))
    return xh1 + e1, [xh1, xh2 + e2, xh2, xh3 + e3, xh3, fh + ef, fh, theta]


class TestCascadeMatchesObjectCascade:
    """rhs_flat against the old object-based cascade, written out above.

    Every component is bit-identical except the proposed variant's xhat_n
    on the Arneodo plant: its drift cubes y as the product y * y * y,
    where the object cascade used numpy's array power, and the two differ
    by an ulp in a few percent of arguments. There the bound is 1e-12
    relative to the size of the summed terms. The square is exact: numpy's
    array power squares as a product.
    """

    @given(
        variant=st.sampled_from(["proposed", "baseline"]),
        plant=st.sampled_from([arneodo(), genesio_tesi()]),
        latching=st.booleans(),
        gains=st.lists(st.floats(min_value=0.1, max_value=50), min_size=8, max_size=8),
        steps=st.lists(_step(), min_size=1, max_size=4),
    )
    @example(variant="proposed", plant=arneodo(), latching=False, gains=[1.0] * 8,
             steps=[(_EPS, [0.0, _EPS, 0.0, -_EPS, 0.0, _EPS, 0.0, 0.5])])
    @example(variant="baseline", plant=genesio_tesi(), latching=True, gains=[2.0] * 8,
             steps=[(0.0, [0.0] * 8), (-_EPS, [0.0, _EPS, 0.0, 1.0, 0.0, 0.0, 0.0, 0.5])])
    # Python's float power squares this y an ulp away from y * y
    @example(variant="proposed", plant=genesio_tesi(), latching=False, gains=[1.0] * 8,
             steps=[(-2.9999389648437496, [-2.9999389648437496] + [0.0] * 7)])
    @settings(max_examples=300, deadline=None)
    def test_flat_matches_object_cascade(self, variant, plant, latching, gains, steps):
        need = required_gain_count(variant, 3)
        g = SimpleNamespace(lambdas=gains[:need], alphas_gain=gains[4:4 + need], epsilon=_EPS)
        dyn = ObserverDynamics(variant, plant, g.lambdas, g.alphas_gain, g.epsilon, latching)
        latch = np.zeros(dyn.gate_count, bool) if latching else None
        cube = variant == "proposed" and plant.name == "arneodo"
        b1, b2, b3, b4 = plant.params["betas"]
        for y, flat in steps:
            if variant == "baseline":
                flat = flat[:5] + flat[7:]
            new = dyn.rhs_flat(y, flat)
            old = _old_rhs(variant, g, plant, latch, y, flat)
            if cube:
                # xhat_3' = a(y, xt2, xt3) + f_tilde + lam3 sqrt|e3| sign(e3)
                xt2, xt3, xh3, ft = flat[1], flat[3], flat[4], flat[5]
                terms = (b1 * y, b2 * xt2, b3 * xt3, b4 * y ** 3, ft, g.lambdas[2] * math.sqrt(abs(xt3 - xh3)))
                assert abs(new[4] - old[4]) <= 1e-12 * sum(abs(t) for t in terms)
                new[4] = old[4]
            assert new == old
