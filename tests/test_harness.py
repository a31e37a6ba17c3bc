"""Co-simulation, replay, the generated step, and paired comparison.

Simulation-backed tests run short horizons on coarse grids; the long
benchmark reproductions live in test_acceptance.py.
"""

import ast
import itertools
import json

import numpy as np
import pytest

import fracobs.harness
from conftest import rhs_flat
from fracobs import native
from fracobs.cli import main
from fracobs.configs import BUNDLED_CONFIGS, ExperimentConfig, bundled_config
from fracobs.harness import compare_observers, replay_observer, run_experiment, trace_columns
from fracobs.fde import SimGrid, VectorField, integrate
from fracobs.observers import baseline_fault_readout, gates
from fracobs.plants import NoiseSpec, PlantModel, assemble_field, fault_value, noise_signal, plant_preset


def gt_dict(**over):
    """Small Genesio-Tesi run in the tame all-gains-0.5 regime."""
    d = {
        "name": "unit",
        "plant": {"preset": "genesio-tesi-paper"},
        "fault": {"kind": "sine", "amplitude": 0.06, "frequency": 1.0, "onset": 0.0},
        "noise": {"variance": 0.0},
        "observer": {"variant": "proposed", "gains": 0.5, "epsilon": 0.01},
        "grid": {"h": 1e-2, "t_end": 8.0, "memory": "full"},
        "seed": 0,
    }
    for key, val in over.items():
        sect, _, leaf = key.partition(".")
        if leaf:
            d.setdefault(sect, {})[leaf] = val
        else:
            d[sect] = val
    return d


class TestRunExperiment:
    def test_determinism_bit_identical(self):
        cfg = ExperimentConfig.from_dict(gt_dict(**{"noise.variance": 1.5}))
        t1, _ = run_experiment(cfg)
        t2, _ = run_experiment(cfg)
        assert np.array_equal(t1.values, t2.values)

    def test_exact_init_stays_in_chattering_band(self):
        # Fault-free plant, observer started on the true state. Stages 1-2
        # and the fault estimate hold a 10*epsilon band for the whole run.
        # The last-stage estimate is slew-limited by its gain (0.5) while
        # the plant's initial transient moves faster than that, so it is
        # held to the band only near t=0 and again once it re-converges.
        eps = 0.01
        init = [-0.1, 0.5, 0.5, 0.2, 0.2, 0.0, 0.0, 0.0]
        d = gt_dict(**{
            "fault.kind": "none",
            "observer.init": init,
            "grid.h": 1e-3,
            "grid.t_end": 4.0,
        })
        cfg = ExperimentConfig.from_dict(d)
        trace, _ = run_experiment(cfg)
        t = trace.times()
        for i in (1, 2):
            err = trace.channel(f"x{i}") - trace.channel(f"xhat{i}")
            assert np.max(np.abs(err)) < 10 * eps, f"x{i}"
        assert np.max(np.abs(trace.channel("f_true") - trace.channel("f_hat"))) < 10 * eps
        e3 = np.abs(trace.channel("x3") - trace.channel("xhat3"))
        assert np.max(e3[t <= 0.1]) < 10 * eps
        assert np.max(e3[t >= 3.0]) < 10 * eps
        assert np.max(e3) < 1.0

    def test_tiny_gains_never_settle(self):
        d = gt_dict(**{"observer.gains": 1e-6})
        cfg = ExperimentConfig.from_dict(d)
        _, rep = run_experiment(cfg)
        assert rep.settle["e2"] is None
        assert rep.settle["e3"] is None

    def test_fault_metrics_window_is_ef_settle(self):
        cfg = ExperimentConfig.from_dict(gt_dict(**{"grid.t_end": 15.0}))
        _, rep = run_experiment(cfg)
        assert rep.fault_from_t == rep.settle["ef"]
        assert rep.fault_rmse_post_settle == rep.rmse_post_settle["ef"]

    def test_divergence_flagged_and_metrics_absent(self):
        d = gt_dict(**{
            "plant.preset": "arneodo-paper",
            "fault.kind": "cosine", "fault.amplitude": 0.4,
            "observer.lambdas": [1.0, 1.0, 10.0, 100.0],
            "observer.alphas": [1e10, 200.0, 50.0, 100.0],
            "grid.h": 1e-3, "grid.t_end": 5.0,
        })
        del d["observer"]["gains"]
        cfg = ExperimentConfig.from_dict(d)
        trace, rep = run_experiment(cfg)
        assert trace.diverged
        assert rep.diverged
        assert rep.fault_rmse_post_settle is None
        assert rep.chattering_index is None


class TestReplay:
    def test_replay_matches_cosimulation(self):
        # Replaying the observer on the co-simulation's own recorded output
        # reproduces every observer channel to machine precision (the two
        # integrations differ only in array width, which can change the
        # reduction order of the history dot product by a few ulps).
        cfg = ExperimentConfig.from_dict(gt_dict(**{"noise.variance": 0.7}))
        trace, _ = run_experiment(cfg)
        raw = replay_observer(cfg, "proposed", trace.channel("x1"))
        for lab in ("xhat1", "xtilde2", "xhat2", "xtilde3", "xhat3",
                    "f_tilde", "f_hat", "theta_tilde"):
            err = np.max(np.abs(raw.channel(lab) - trace.channel(lab)))
            assert err < 1e-12, (lab, err)

        # a standalone plant pass with the same seed reproduces the same
        # noise realization, hence the same recorded output
        plant = cfg.build_plant()
        grid = cfg.build_grid()
        pf = assemble_field(plant, cfg.fault,
                            noise_signal(NoiseSpec(variance=0.7, seed=cfg.seed), grid))
        ptr = integrate(pf, plant.alpha, grid, plant.x0)
        assert np.max(np.abs(ptr.values[:, 0] - trace.channel("x1"))) < 1e-12

    def test_information_hiding(self):
        # corrupting a non-measured plant channel cannot touch the replay
        cfg = ExperimentConfig.from_dict(gt_dict())
        plant = cfg.build_plant()
        grid = cfg.build_grid()
        ptr = integrate(assemble_field(plant, cfg.fault, None), plant.alpha, grid, plant.x0)
        y = ptr.values[:, 0].copy()

        base = replay_observer(cfg, "proposed", y)
        ptr.values[100, 1] += 7.7  # x2 hit at one step; y unchanged
        ptr.values[200, 2] -= 3.3
        again = replay_observer(cfg, "proposed", ptr.values[:, 0])
        assert np.array_equal(base.values, again.values)

        # the output channel, in contrast, must matter
        y2 = y.copy()
        y2[100] += 0.5
        assert not np.array_equal(base.values, replay_observer(cfg, "proposed", y2).values)

    def test_replay_length_checked(self):
        cfg = ExperimentConfig.from_dict(gt_dict())
        with pytest.raises(ValueError):
            replay_observer(cfg, "proposed", np.zeros(7))


class TestGeneratedStep:
    """The run's field is generated statements (``harness._run_field``),
    and so is a plant-only field (``assemble_field``): a march of the
    field equals one that calls its ``eval`` per step, and a
    run's ``eval`` equals the plant field plus each observer's statements
    compiled alone (``rhs_flat``)."""

    @staticmethod
    def build(name, variants, fault=None, **over):
        d = bundled_config(name)
        d["grid"]["t_end"] = 2.0
        d["observer"].update(over)
        if fault is not None:
            d["fault"] = fault
        cfg = ExperimentConfig.from_dict(d)
        plant = cfg.build_plant()
        x0 = np.concatenate([plant.x0, *(cfg.build_init_state(cfg.build_observer(v, plant)) for v in variants)])

        def field():
            if not variants:
                return assemble_field(plant, cfg.fault, cfg.build_noise())
            return fracobs.harness._run_field(cfg, plant, [cfg.build_observer(v, plant) for v in variants],
                                              fracobs.harness._fault_on_grid(cfg))

        return cfg, plant, x0, field

    @pytest.mark.parametrize("name, variants, latching, fault", [
        *(pytest.param(name, variants, latching, None,
                       id=f"{name}-{'+'.join(variants)}{'-latching' if latching else ''}")
          for name, variants in [("example1", ("proposed",)), ("example2", ("proposed", "baseline")),
                                 ("example2", ("baseline",))]
          for latching in (False, True)),
        # the plant alone: example1's cosine fault and noise, then a custom fault with an onset
        pytest.param("example1", (), False, None, id="example1-plant"),
        pytest.param("example1", (), False,
                     {"kind": "custom", "samples": [0.3, -0.2, 0.5], "sample_dt": 0.4, "onset": 0.6},
                     id="example1-plant-custom"),
    ])
    def test_inlined_step_equals_its_eval(self, name, variants, latching, fault):
        cfg, plant, x0, field = self.build(name, variants, fault, latching=latching)
        grid = cfg.build_grid()
        step = field()
        marched = integrate(step, plant.alpha, grid, x0)
        called = integrate(VectorField(step.dim, step.eval), plant.alpha, grid, x0)
        assert np.array_equal(marched.values, called.values)
        # each march and the eval keep their own latch
        assert np.array_equal(integrate(step, plant.alpha, grid, x0).values, marched.values)

    @pytest.mark.parametrize("name, variants", [("example1", ("proposed",)),
                                                ("example2", ("proposed", "baseline"))])
    def test_eval_is_the_plant_field_then_each_rhs_flat(self, name, variants):
        cfg, plant, x0, field = self.build(name, variants)
        step = field()
        plant_eval = assemble_field(plant, cfg.fault, cfg.build_noise()).eval
        rhs = [(rhs_flat(obs), obs.dim) for obs in (cfg.build_observer(v, plant) for v in variants)]
        rng = np.random.default_rng(5)
        for k in rng.integers(1, cfg.build_grid().n_steps + 1, size=40):
            t = int(k) * cfg.h
            s = (x0 + rng.normal(0.0, 0.05, x0.size) * rng.integers(0, 2, x0.size)).tolist()
            ref, lo = list(plant_eval(t, s[:plant.n])), plant.n
            for f, d in rhs:
                ref += f(s[0], s[lo:lo + d])
                lo += d
            assert step.eval(t, s) == ref

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_replay_step_reads_the_sample_before_t(self, strided):
        # the replay's y is the held column of n + 1 samples: t = 0 reads
        # sample 0, t = k * h sample k - 1, and a t past them raises; a
        # trace channel (a strided column) reads as its contiguous copy
        cfg = ExperimentConfig.from_dict(gt_dict())
        plant = cfg.build_plant()
        obs = cfg.build_observer("proposed", plant)
        n = cfg.build_grid().n_steps
        y = np.arange(n + 1) * 0.01
        rec = np.column_stack([-y, y])[:, 1] if strided else y
        step = fracobs.harness._run_field(cfg, plant, [obs], None, rec)
        s, rhs = [0.0] * obs.dim, rhs_flat(obs)
        for k in (0, 1, 2, 57, n, n + 1):
            assert step.eval(k * cfg.h, s) == rhs(y[max(k - 1, 0)], s)
        with pytest.raises(IndexError):
            step.eval((n + 2) * cfg.h, s)

    def test_noisy_run_field_reads_draw_0_at_t_0(self):
        # the step into t = k*h reads draw k - 1, and t = 0 draw 0, not a
        # wrapped index -1 (the last draw)
        cfg, plant, _, _ = self.build("example1", ())
        step = fracobs.harness._run_field(cfg, plant, [], fracobs.harness._fault_on_grid(cfg))
        draws = cfg.build_noise_draws()
        n = cfg.build_grid().n_steps
        assert draws[0] != draws[-1]
        s = plant.x0.tolist()
        for k, draw in ((0, draws[0]), (1, draws[0]), (2, draws[1]), (n, draws[n - 1])):
            want = plant.drift_at(*s) + fault_value(cfg.fault, k * cfg.h) + draw
            assert step.eval(k * cfg.h, s) == [*s[1:], want]

    @pytest.mark.parametrize("name, variants, replay, gain, reads", [
        ("example1", ("proposed",), False, None, ("fault_col[k]", "noise_col[k]")),
        ("example2", ("proposed", "baseline"), False, None, ("fault_col[k]",)),
        ("example2", ("proposed",), True, None, ("y_col[k]",)),
        # a test-built plant whose gain is not unit
        ("example1", ("proposed",), False, "2.0 + x1 * x3", ("(2.0 + (s0) * (s2)) * fault_col[k]", "noise_col[k]")),
    ], ids=["example1-run", "example2-compare", "example2-replay", "example1-run-gain"])
    def test_run_step_calls_no_forcing_function(self, name, variants, replay, gain, reads):
        # forcing is read from columns by step index, and the gain and the
        # drift (plant and observer) are written in: no Python function call
        cfg, plant, _, _ = self.build(name, variants)
        if gain is not None:
            plant = PlantModel(n=3, alpha=plant.alpha, drift="x1 * x2 - x3", gain=gain, x0=plant.x0, params={})
        y_rec = np.zeros(cfg.build_grid().n_steps + 1) if replay else None
        step = fracobs.harness._run_field(cfg, plant, [cfg.build_observer(v, plant) for v in variants],
                                          None if replay else fracobs.harness._fault_on_grid(cfg), y_rec)
        _, lines, _, h = step._step
        called = {ast.unparse(node.func) for node in ast.walk(ast.parse("\n".join(lines)))
                  if isinstance(node, ast.Call)}
        assert called.isdisjoint({"fault_value", "noise", "gain"})
        assert called <= {"abs", "sqrt", "copysign"}
        assert all(term in lines[0 if replay else plant.n - 1] for term in reads)
        assert h == cfg.h

    @pytest.mark.parametrize("name", sorted(BUNDLED_CONFIGS))
    def test_every_bundled_step_compiles(self, name):
        # building a step checks its names; and the compiled leaf's translator
        # takes every step a run, a comparison or a replay writes, latching
        # or not, noisy or not, so that none falls back to the Python leaf
        # (the translation needs no compiler)
        for latching, variance in itertools.product((False, True), (0.0, 1.5)):
            d = bundled_config(name)
            d["grid"]["t_end"], d["noise"]["variance"], d["observer"]["latching"] = 1.0, variance, latching
            cfg = ExperimentConfig.from_dict(d)
            plant, rows = cfg.build_plant(), cfg.build_grid().n_steps + 1
            assemble_field(plant, cfg.fault, cfg.build_noise())
            for variants in (("proposed",), ("baseline",), ("proposed", "baseline")):
                observers = [cfg.build_observer(v, plant) for v in variants]
                for step in (fracobs.harness._run_field(cfg, plant, observers, fracobs.harness._fault_on_grid(cfg)),
                             fracobs.harness._run_field(cfg, plant, observers[:1], None, np.zeros(rows))):
                    _, lines, ns, _ = step._step
                    native._Step(step.dim, ns, rows, ast.parse("\n".join(lines)))  # raises if refused


class TestCompare:
    def test_self_comparison_ties(self):
        cfg = ExperimentConfig.from_dict(gt_dict(**{"grid.t_end": 15.0}))
        res = compare_observers(cfg, variant_a="proposed", variant_b="proposed")
        assert not res.wins_chattering
        assert not res.wins_sup_error
        assert res.report_a.to_flat_dict() == res.report_b.to_flat_dict()

    def test_noise_free_reports_ignore_seed(self):
        d1 = gt_dict(**{"grid.t_end": 15.0})
        d2 = gt_dict(**{"grid.t_end": 15.0})
        d2["seed"] = 12345
        r1 = compare_observers(ExperimentConfig.from_dict(d1))
        r2 = compare_observers(ExperimentConfig.from_dict(d2))
        assert r1.report_a.to_flat_dict() == r2.report_a.to_flat_dict()
        assert r1.report_b.to_flat_dict() == r2.report_b.to_flat_dict()

    def test_prefix_channels_identical_across_variants(self):
        cfg = ExperimentConfig.from_dict(gt_dict())
        res = compare_observers(cfg)
        for lab in ("xhat1", "xhat2", "xtilde2", "xtilde3", "e1", "e2"):
            assert np.array_equal(res.trace_a.channel(lab), res.trace_b.channel(lab)), lab

    def test_comparison_report_text(self):
        cfg = ExperimentConfig.from_dict(gt_dict(**{"grid.t_end": 15.0}))
        res = compare_observers(cfg)
        text = res.to_text()
        assert "proposed" in text and "baseline" in text
        assert "chattering_index" in text
        assert "verdict" in text


def diverging_proposed_dict():
    """Only the proposed observer's extra fault pair blows up (at t = 6.8 s);
    the baseline takes the first three, tame, gain pairs."""
    d = gt_dict(**{
        "observer.lambdas": [0.5, 0.5, 0.5, 1e9],
        "observer.alphas": [0.5, 0.5, 0.5, 1e12],
    })
    del d["observer"]["gains"]
    return d


class TestOneMarch:
    """run and compare share one co-simulation: plant plus observer blocks."""

    @pytest.fixture
    def count_integrations(self, monkeypatch):
        calls = []
        real = fracobs.harness.integrate

        def counted(*args, **kwargs):
            calls.append(args[0].dim)
            return real(*args, **kwargs)

        monkeypatch.setattr(fracobs.harness, "integrate", counted)
        return calls

    def test_run_is_one_integration(self, count_integrations):
        run_experiment(ExperimentConfig.from_dict(gt_dict()))
        assert count_integrations == [3 + 8]

    def test_compare_is_one_integration(self, count_integrations):
        compare_observers(ExperimentConfig.from_dict(gt_dict()))
        assert count_integrations == [3 + 8 + 6]

    def test_self_comparison_runs_the_variant_once(self, count_integrations):
        compare_observers(ExperimentConfig.from_dict(gt_dict()), "baseline", "baseline")
        assert count_integrations == [3 + 6]

    def test_traces_share_the_plant_columns(self):
        cfg = ExperimentConfig.from_dict(gt_dict(**{"noise.variance": 0.7}))
        res = compare_observers(cfg)
        for lab in ("x1", "x2", "x3", "f_true"):
            assert np.array_equal(res.trace_a.channel(lab), res.trace_b.channel(lab)), lab

    @pytest.mark.parametrize("variance", [0.0, 0.7])
    def test_each_variant_matches_its_own_run(self, variance):
        # The wider march can reorder the history dot product's reduction
        # by a few ulps; every channel stays within 1e-12 of the run.
        cfg = ExperimentConfig.from_dict(gt_dict(**{"noise.variance": variance}))
        res = compare_observers(cfg)
        for variant, trace, report in ((res.variant_a, res.trace_a, res.report_a),
                                       (res.variant_b, res.trace_b, res.report_b)):
            d = gt_dict(**{"noise.variance": variance, "observer.variant": variant})
            alone, alone_report = run_experiment(ExperimentConfig.from_dict(d))
            assert trace.labels == alone.labels
            err = np.max(np.abs(trace.values - alone.values))
            assert err <= 1e-12, (variant, err)
            assert report.diverged == alone_report.diverged

    def test_one_diverging_observer_flags_both_traces(self):
        cfg = ExperimentConfig.from_dict(diverging_proposed_dict())
        proposed, _ = run_experiment(cfg)
        assert proposed.diverged and proposed.diverged_at == pytest.approx(6.8)
        d = diverging_proposed_dict()
        d["observer"]["variant"] = "baseline"
        baseline, _ = run_experiment(ExperimentConfig.from_dict(d))
        assert not baseline.diverged

        res = compare_observers(cfg)
        for trace, report in ((res.trace_a, res.report_a), (res.trace_b, res.report_b)):
            assert trace.diverged and trace.diverged_at == proposed.diverged_at
            assert report.diverged and report.fault_rmse_post_settle is None
            for lab in ("x1", "xhat1", "f_hat"):
                assert np.isnan(trace.channel(lab)[-1]), lab
        assert res.common_from_t is None
        assert not (res.wins_chattering or res.wins_sup_error)

    def test_cli_compare_with_one_diverging_observer_exits_3(self, tmp_path, capsys):
        p = tmp_path / "div.json"
        p.write_text(json.dumps(diverging_proposed_dict()))
        assert main(["compare", str(p), "--out", str(tmp_path)]) == 3
        man = json.loads((tmp_path / "unit_manifest.json").read_text())
        assert man["diverged"] is True
        assert "run diverged at t = 6.8" in capsys.readouterr().err
        text = (tmp_path / "unit_comparison.txt").read_text()
        assert "common window: none (the run diverged at t = 6.8)" in text
        assert "never settles" not in text
        assert "verdict: proposed beats baseline on chattering_index: undecided" in text
        assert "verdict: proposed beats baseline on sup_error_post_settle: undecided" in text


def dict_channels(obs, y, block):
    """``ObserverDynamics.channels`` in the form the in-place trace
    replaced: a dict of new arrays, the gates through ``gates``."""
    n = obs.n
    cols = dict(zip(obs.labels, block.T))
    xtilde = [cols[f"xtilde{i}"] for i in range(2, n + 1)]
    errors = [y - cols["xhat1"], *(xt - cols[f"xhat{i}"] for i, xt in enumerate(xtilde, 2))]
    with np.errstate(invalid="ignore"):
        if obs.variant == "proposed":
            cols["e_f"] = cols["f_tilde"] - cols["f_hat"]
        else:
            cols["f_hat"] = baseline_fault_readout(
                np.column_stack([y, *xtilde]), cols["theta_tilde"], obs.plant
            )
        open_ = gates(np.column_stack(errors[: obs.gate_count]), obs._eps)
        if obs.latching:
            open_ = np.maximum.accumulate(open_, axis=0)
    cols.update((f"e{i}", e) for i, e in enumerate(errors, 1))
    cols.update((f"E{i}", g) for i, g in enumerate(open_.T.astype(float), 1))
    return cols


class TestEnrichedTrace:
    """Each trace is built in one allocation that the observer writes into;
    it equals the dict + ``np.column_stack`` form it replaced, cell for cell."""

    @pytest.mark.parametrize("over, variants", [
        ({}, ("proposed",)),
        ({"observer.variant": "baseline", "noise.variance": 0.5}, ("baseline",)),
        ({"observer.latching": True}, ("proposed", "baseline")),
        ({"noise.variance": 0.5}, ("proposed", "baseline")),
        ("diverging", ("proposed", "baseline")),
    ])
    def test_matches_the_column_stack_form(self, monkeypatch, over, variants):
        d = diverging_proposed_dict() if over == "diverging" else gt_dict(**over)
        cfg = ExperimentConfig.from_dict(d)
        marches = []
        real = fracobs.harness.integrate

        def recorded(*args, **kwargs):
            marches.append(real(*args, **kwargs))
            return marches[-1]

        monkeypatch.setattr(fracobs.harness, "integrate", recorded)
        if len(variants) == 1:
            traces = [run_experiment(cfg)[0]]
        else:
            res = compare_observers(cfg, *variants)
            traces = [res.trace_a, res.trace_b]
        (raw,) = marches
        grid, plant = cfg.build_grid(), cfg.build_plant()
        n = plant.n
        f_true = np.array([fault_value(cfg.fault, t) for t in grid.times().tolist()])
        lo = n
        for variant, trace in zip(variants, traces):
            obs = cfg.build_observer(variant, plant)
            cols = {f"x{i + 1}": raw.values[:, i] for i in range(n)}
            cols["f_true"] = f_true
            cols.update(dict_channels(obs, raw.values[:, 0], raw.values[:, lo:lo + obs.dim]))
            labels = [c for c in trace_columns(n) if c in cols]
            assert trace.labels == labels
            assert np.array_equal(trace.values, np.column_stack([cols[c] for c in labels]),
                                  equal_nan=True)
            assert trace.diverged == raw.diverged == (over == "diverging")
            lo += obs.dim

    @pytest.mark.parametrize("fault", [
        {"kind": "none"},
        {"kind": "cosine", "amplitude": 0.4, "frequency": 3.0, "onset": 0.0},
        {"kind": "sine", "amplitude": 0.06, "frequency": 1.7, "onset": 0.37},
        {"kind": "step", "amplitude": -0.25, "onset": 1.001},
        {"kind": "ramp", "amplitude": 0.3, "onset": 0.37},
        {"kind": "custom", "samples": [0.1, -0.3, 0.25], "sample_dt": 0.7, "onset": 0.37},
    ])
    def test_f_true_is_fault_value_on_the_grid_times(self, fault):
        cfg = ExperimentConfig.from_dict(gt_dict(fault=fault, **{"grid.h": 1e-3, "grid.t_end": 2.5}))
        trace, _ = run_experiment(cfg)
        want = np.array([fault_value(cfg.fault, t) for t in cfg.build_grid().times().tolist()])
        # bit for bit, so a -0.0 counts
        assert np.array_equal(trace.channel("f_true").view(np.int64), want.view(np.int64))


class TestBenchmarkSetupContract:
    """perfbench/run.py's SETUP_CODE builds a run this way; an API change
    that breaks the sequence breaks every benchmark op."""

    @pytest.mark.parametrize("name", ["example1", "example2-windowed"])
    def test_setup_sequence_builds_a_field_that_integrates(self, name):
        raw = bundled_config(name.removesuffix("-windowed"))
        if name.endswith("-windowed"):
            del raw["grid"]["memory"]
            raw["grid"]["t_end"] = 55.0
        cfg = ExperimentConfig.from_dict(raw)
        grid = cfg.build_grid()
        plant = cfg.build_plant()
        cfg.build_gains(cfg.observer_variant, plant.n)
        field = fracobs.assemble_field(plant, cfg.fault, cfg.build_noise())
        if name.endswith("-windowed"):
            assert grid.memory_len == 5000
        short = SimGrid(h=grid.h, t_end=100 * grid.h)
        trace = integrate(field, plant.alpha, short, plant.x0)
        assert trace.values.shape == (101, plant.n)
        assert not trace.diverged
