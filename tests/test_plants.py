"""Benchmark plants, fault generators, the noise table, field assembly."""

import math

import numpy as np
import pytest

from fracobs.configs import ExperimentConfig, bundled_config
from fracobs.fde import SimGrid, integrate, memory_truncation_error
from fracobs.plants import (
    FaultSignal,
    NoiseSpec,
    PlantModel,
    arneodo,
    assemble_field,
    fault_value,
    genesio_tesi,
    noise_draws,
    noise_signal,
    plant_preset,
)


class TestPresets:
    def test_arneodo_parameters(self):
        p = arneodo()
        assert p.n == 3
        assert p.alpha == 0.97
        assert p.params["betas"] == (-5.5, 3.5, 0.8, -1.0)
        assert p.x0 == pytest.approx([-0.2, 0.5, 0.2])

    def test_genesio_tesi_parameters(self):
        p = genesio_tesi()
        assert p.alpha == 0.9
        assert p.params["betas"] == (1.0, 1.1, 0.44, 1.0)

    def test_arneodo_drift_hand_value(self):
        # a(1,2,3) = 5.5*1 - 3.5*2 - 0.8*3 - 1^3
        p = arneodo()
        assert p.a(np.array([1.0, 2.0, 3.0])) == pytest.approx(-4.9)
        assert p.b(np.array([1.0, 2.0, 3.0])) == 1.0

    def test_genesio_tesi_drift_hand_value(self):
        # a(1,2,3) = -1 - 2.2 - 1.32 + 1^2
        p = genesio_tesi()
        assert p.a(np.array([1.0, 2.0, 3.0])) == pytest.approx(-3.52)

    def test_drift_broadcasts_over_rows(self):
        p = arneodo()
        rows = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        assert p.a(rows) == pytest.approx([-4.9, 0.0])

    def test_preset_lookup_and_override(self):
        p = plant_preset("arneodo-paper", alpha=0.9)
        assert p.alpha == 0.9
        with pytest.raises(ValueError):
            plant_preset("lorenz")

    def test_plant_validation(self):
        with pytest.raises(ValueError):
            PlantModel(n=1, alpha=0.9, drift=lambda x1: 0.0, gain=lambda x1: 1.0,
                       x0=np.zeros(1), params={})
        with pytest.raises(ValueError):
            PlantModel(n=3, alpha=0.9, drift=lambda *x: 0.0, gain=lambda *x: 1.0,
                       x0=np.zeros(2), params={})

    def test_drift_over_components_matches_rows(self):
        # the per-step float expression and the column readout are one drift,
        # bit for bit: the power is a product on floats and arrays alike
        rows = np.random.default_rng(25).uniform(-3.0, 3.0, size=(10_000, 3))
        for p in (arneodo(), genesio_tesi()):
            assert p.a(rows).tolist() == [p.drift(*r) for r in rows.tolist()]


class TestFaultSignal:
    def test_cosine_with_onset(self):
        f = FaultSignal(kind="cosine", amplitude=0.4, frequency=1.0, onset=2.0)
        assert fault_value(f, 1.99) == 0.0
        assert fault_value(f, 2.0) == pytest.approx(0.4)  # cos(0)
        assert fault_value(f, 2.0 + math.pi) == pytest.approx(-0.4)

    def test_sine(self):
        f = FaultSignal(kind="sine", amplitude=0.06, frequency=2.0)
        assert fault_value(f, 0.0) == 0.0
        assert fault_value(f, math.pi / 4) == pytest.approx(0.06)

    def test_step_and_ramp(self):
        st = FaultSignal(kind="step", amplitude=1.5, onset=1.0)
        assert fault_value(st, 0.5) == 0.0
        assert fault_value(st, 3.0) == 1.5
        rp = FaultSignal(kind="ramp", amplitude=2.0, onset=1.0)
        assert fault_value(rp, 2.5) == pytest.approx(3.0)  # 2.0/s * 1.5s

    def test_custom_zero_order_hold(self):
        f = FaultSignal(kind="custom", samples=(1.0, 2.0, 3.0), sample_dt=0.5, onset=0.0)
        assert fault_value(f, 0.0) == 1.0
        assert fault_value(f, 0.49) == 1.0
        assert fault_value(f, 0.5) == 2.0
        assert fault_value(f, 99.0) == 3.0  # clamped at the last sample

    def test_none_is_zero_everywhere(self):
        assert fault_value(None, 3.0) == 0.0
        none = FaultSignal(kind="none")
        assert all(fault_value(none, t) == 0.0 for t in np.linspace(0, 5, 7).tolist())

    def test_array_evaluation(self):
        # fault_value is float-in, float-out; a time column is a map over it
        f = FaultSignal(kind="cosine", amplitude=1.0, frequency=1.0, onset=1.0)
        t = np.array([0.0, 1.0, 1.0 + math.pi])
        assert [fault_value(f, v) for v in t.tolist()] == pytest.approx([0.0, 1.0, -1.0])

    @pytest.mark.parametrize("fault", [
        FaultSignal(kind="cosine", amplitude=0.4, frequency=1.3, onset=0.37),
        FaultSignal(kind="sine", amplitude=0.06, frequency=2.0, onset=0.37),
        FaultSignal(kind="step", amplitude=-1.5, onset=0.37),
        FaultSignal(kind="ramp", amplitude=2.0, onset=0.37),
        FaultSignal(kind="custom", samples=(0.1, -0.3, 0.25), sample_dt=0.7, onset=0.37),
        FaultSignal(kind="none"),
        None,
    ], ids=["cosine", "sine", "step", "ramp", "custom", "none", "None"])
    def test_each_kind_matches_a_numpy_reference(self, fault):
        t = SimGrid(h=1e-2, t_end=5.0).times()
        if fault is None or fault.kind == "none":
            ref = np.zeros_like(t)
        else:
            tau = t - fault.onset
            wave = {
                "cosine": lambda: fault.amplitude * np.cos(fault.frequency * tau),
                "sine": lambda: fault.amplitude * np.sin(fault.frequency * tau),
                "step": lambda: np.full_like(tau, fault.amplitude),
                "ramp": lambda: fault.amplitude * tau,
                "custom": lambda: np.asarray(fault.samples)[
                    np.clip((tau / fault.sample_dt).astype(int), 0, len(fault.samples) - 1)],
            }[fault.kind]()
            ref = np.where(tau >= 0.0, wave, 0.0)
        got = np.array([fault_value(fault, v) for v in t.tolist()])
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("kw", [
        dict(kind="sawtooth"),
        dict(kind="cosine", onset=-1.0),
        dict(kind="cosine", amplitude=math.nan),
        dict(kind="custom"),
        dict(kind="custom", samples=(), sample_dt=0.1),
        dict(kind="custom", samples=(1.0,), sample_dt=0.0),
        # only a custom fault reads samples and sample_dt
        dict(kind="sine", samples=(1.0, 2.0)),
        dict(kind="step", sample_dt=0.1),
        dict(kind="none", samples=(1.0,), sample_dt=0.1),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FaultSignal(**kw)


class TestNoise:
    def test_law_of_large_numbers(self):
        draws = noise_draws(NoiseSpec(variance=1.5, seed=7), 200_000)
        # 3-sigma bands for the sample mean and variance
        assert abs(draws.mean()) < 3 * math.sqrt(1.5 / 200_000)
        assert abs(draws.var() - 1.5) < 3 * 1.5 * math.sqrt(2 / 200_000)

    def test_stream_matches_noise_draws_across_a_block(self):
        # the step into t = k*h reads draw k-1, over more steps than one
        # 4096-draw block of the generator
        spec = NoiseSpec(variance=1.5, seed=0)
        grid = SimGrid(h=0.01, t_end=41.06)
        count = grid.n_steps
        assert count > 4096
        noise = noise_signal(spec, grid)
        drawn = np.array([noise(k * grid.h) for k in range(1, count + 1)])
        assert drawn.tobytes() == noise_draws(spec, count).tobytes()

    def test_ends_of_the_table_do_not_wrap(self):
        spec = NoiseSpec(variance=1.5, seed=0)
        grid = SimGrid(h=0.01, t_end=1.0)
        draws = noise_draws(spec, grid.n_steps)
        noise = noise_signal(spec, grid)
        assert noise(0.0) == draws[0] != draws[-1]
        assert noise(grid.t_end) == draws[-1]
        with pytest.raises(IndexError):
            noise(grid.t_end + grid.h)

    def test_seed_determinism(self):
        a = noise_draws(NoiseSpec(variance=1.5, seed=3), 100)
        b = noise_draws(NoiseSpec(variance=1.5, seed=3), 100)
        c = noise_draws(NoiseSpec(variance=1.5, seed=4), 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_variance_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(variance=-0.1)


class TestAssembleField:
    def test_chain_structure(self):
        # D^a x_i = x_{i+1} for i < n, independent of a and the fault
        field = assemble_field(arneodo(), FaultSignal(kind="step", amplitude=9.0))
        x = np.array([0.3, -1.2, 2.2])
        dx = field.eval(4.0, x)
        assert dx[0] == x[1] and dx[1] == x[2]

    def test_fault_enters_last_equation_only(self):
        plant = arneodo()
        clean = assemble_field(plant, None)
        faulty = assemble_field(plant, FaultSignal(kind="step", amplitude=2.5))
        x = np.array([0.1, 0.2, 0.3])
        d0, d1 = clean.eval(1.0, x), faulty.eval(1.0, x)
        assert d1[:2] == pytest.approx(d0[:2])
        assert d1[2] - d0[2] == pytest.approx(2.5)

    def test_noise_enters_last_equation_only(self):
        plant = arneodo()
        grid = SimGrid(h=0.5, t_end=1.0)
        noisy = assemble_field(plant, None, noise_signal(NoiseSpec(variance=1.5, seed=0), grid))
        clean = assemble_field(plant, None)
        x = [0.1, 0.2, 0.3]
        d0, d1 = clean.eval(0.5, x), noisy.eval(0.5, x)
        assert d1[:2] == d0[:2] == x[1:]
        expect = noise_draws(NoiseSpec(variance=1.5, seed=0), 1)[0]
        assert d1[2] == d0[2] + expect

    def test_gain_scales_the_fault_but_not_the_noise(self):
        def drift(x1, x2, x3):
            return x1 * x2 - x3

        plant = PlantModel(n=3, alpha=0.9, drift=drift, gain=lambda *x: 2.0,
                           x0=[0.0, 0.0, 0.0], params={})
        fault = FaultSignal(kind="sine", amplitude=0.7, frequency=1.3)
        grid = SimGrid(h=0.5, t_end=2.0)
        noise = noise_signal(NoiseSpec(variance=1.5, seed=0), grid)
        field = assemble_field(plant, fault, noise)
        x = [0.4, -0.5, 0.6]
        for t in (0.5, 1.0, 1.5):
            assert field.eval(t, x)[2] == drift(*x) + 2.0 * fault_value(fault, t) + noise(t)

    def test_noise_held_within_step_redrawn_on_new_t(self):
        plant = arneodo()
        grid = SimGrid(h=0.1, t_end=1.0)
        field = assemble_field(plant, None, noise_signal(NoiseSpec(variance=1.5, seed=0), grid))
        x = [0.0, 0.0, 0.0]
        v1 = field.eval(0.1, x)[2]
        v1_again = field.eval(0.1, x)[2]
        v2 = field.eval(0.2, x)[2]
        assert v1 == v1_again
        assert v1 != v2

    def test_zero_variance_consumes_no_rng(self):
        # a config without noise builds none; a zero-variance table adds 0.0
        d = bundled_config("example1")
        d["noise"]["variance"] = 0.0
        assert ExperimentConfig.from_dict(d).build_noise() is None
        plant = arneodo()
        grid = SimGrid(h=0.5, t_end=2.0)
        a = assemble_field(plant, None, noise_signal(NoiseSpec(variance=0.0, seed=0), grid))
        b = assemble_field(plant, None, None)
        x = [0.4, -0.5, 0.6]
        assert a.eval(1.0, x) == b.eval(1.0, x)

    def test_noisy_integration_reproducible_by_seed(self):
        plant = arneodo()
        grid = SimGrid(h=1e-2, t_end=1.0, memory_len="full")
        runs = [
            integrate(assemble_field(plant, None, noise_signal(NoiseSpec(variance=1.5, seed=11), grid)),
                      plant.alpha, grid, plant.x0)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].values, runs[1].values)


class TestStatelessField:
    """The plant field is a pure function of (t, x), noise included."""

    @pytest.fixture
    def example1(self):
        d = bundled_config("example1")
        d["grid"]["t_end"] = 2.0
        cfg = ExperimentConfig.from_dict(d)
        plant = cfg.build_plant()
        return assemble_field(plant, cfg.fault, cfg.build_noise()), plant, cfg.build_grid()

    def test_one_noisy_field_integrated_twice(self, example1):
        field, plant, grid = example1
        first = integrate(field, plant.alpha, grid, plant.x0)
        second = integrate(field, plant.alpha, grid, plant.x0)
        assert np.array_equal(first.values, second.values)

    def test_truncation_error_at_full_window_is_zero_with_noise(self, example1):
        field, plant, grid = example1
        rows = memory_truncation_error(field, plant.alpha, grid, plant.x0, [grid.n_steps])
        assert rows == [(grid.n_steps, 0.0)]
