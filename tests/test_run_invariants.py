"""The exact identities of a run, checked on the whole co-simulation.

Each test draws short configs (0.5-3 s, a few step sizes, both presets,
both variants, latching on and off, every fault kind, noise on and off,
seeds) and asserts one identity on ``run_experiment``,
``compare_observers`` and ``replay_observer``:

* a seeded rerun is bit-identical;
* at plant.alpha = 1 the march is a plain explicit Euler loop on the
  augmented field, built here from ``assemble_field(...).eval`` and
  ``conftest.rhs_flat``: z_k = h * phi(t_k, x_{k-1}) + z_{k-1},
  x_k = x0 + z_k (the GL step computes h * phi - (-z_{k-1}), and
  a - (-b) equals a + b in IEEE arithmetic);
* a window of n_steps is the full memory, exactly;
* a replay reads only the output x1;
* a replay, and each trace of a comparison, stays within 1e-12 of the
  co-simulated run (a wider march can reorder the near-field dot
  product by a few ulps).

Every test runs on both leaves of the march, the compiled and the Python
one (``conftest.on_both_leaves``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_both_leaves, rhs_flat
from fracobs.configs import ExperimentConfig
from fracobs.fde import DIVERGENCE_BOUND
from fracobs.harness import compare_observers, replay_observer, run_experiment
from fracobs.plants import FAULT_KINDS, assemble_field

_GAINS = {
    # example1's gains, and example2's tame scalar
    "arneodo-paper": {"lambdas": [1.0, 1.0, 10.0, 100.0], "alphas": [10.0, 200.0, 50.0, 100.0]},
    "genesio-tesi-paper": {"gains": 0.5},
}


@st.composite
def configs(draw, **fixed):
    preset = draw(st.sampled_from(sorted(_GAINS)))
    kind = draw(st.sampled_from(FAULT_KINDS))
    fault = {
        "kind": kind,
        "amplitude": draw(st.sampled_from([0.06, 0.4, -0.3])),
        "frequency": draw(st.sampled_from([1.0, 2.5])),
        "onset": draw(st.sampled_from([0.0, 0.25, 1.0])),
    }
    if kind == "custom":
        fault["samples"] = draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=6))
        fault["sample_dt"] = draw(st.sampled_from([0.1, 0.3]))
    raw = {
        "name": "invariants",
        "plant": {"preset": preset},
        "fault": fault,
        "noise": {"variance": draw(st.sampled_from([0.0, 0.0, 0.5, 1.5]))},
        "observer": {
            "variant": draw(st.sampled_from(["proposed", "baseline"])),
            "epsilon": draw(st.sampled_from([0.01, 0.1])),
            "latching": draw(st.booleans()),
            **_GAINS[preset],
        },
        "grid": {
            "h": draw(st.sampled_from([1e-2, 5e-3, 2e-3])),
            "t_end": draw(st.floats(min_value=0.5, max_value=3.0)),
            "memory": "full",
        },
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }
    for key, val in fixed.items():
        sect, _, leaf = key.partition(".")
        raw[sect][leaf] = val
    return raw


def cfg_of(raw, **over):
    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in raw.items()}
    for key, val in over.items():
        sect, _, leaf = key.partition(".")
        raw[sect][leaf] = val
    return ExperimentConfig.from_dict(raw)


def identical(a, b):
    return np.array_equal(a, b, equal_nan=True)


def within(a, b, tol=1e-12):
    """Same NaN rows, and every finite value within tol."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return bool(np.all(np.abs(a[~nan] - b[~nan]) <= tol))


def block_columns(trace, labels):
    return np.column_stack([trace.channel(lab) for lab in labels])


def euler_march(cfg, variants):
    """The explicit Euler loop on the augmented field (plant, then one
    observer block per variant), stopped where the GL march stops."""
    grid, plant = cfg.build_grid(), cfg.build_plant()
    n, h = plant.n, grid.h
    plant_eval = assemble_field(plant, cfg.fault, cfg.build_noise()).eval
    blocks, x0 = [], list(plant.x0)
    for v in variants:
        obs = cfg.build_observer(v, plant)
        blocks.append((rhs_flat(obs), len(x0), len(x0) + obs.dim))
        x0 += cfg.build_init_state(obs).tolist()

    def phi(t, s):
        out = list(plant_eval(t, s[:n]))
        for rhs, a, b in blocks:
            out += rhs(s[0], s[a:b])
        return out

    X = np.full((grid.n_steps + 1, len(x0)), np.nan)
    X[0] = x0
    x, z = list(x0), [0.0] * len(x0)
    for k in range(1, grid.n_steps + 1):
        z = [h * p + zi for p, zi in zip(phi(k * h, x), z)]
        x = [c + zi for c, zi in zip(x0, z)]
        X[k] = x
        if not all(abs(v) <= DIVERGENCE_BOUND for v in x):
            break
    return X


def march_of(trace, plant_n, obs_labels):
    """The augmented march as the trace records it: the plant columns,
    then each observer block in flat order."""
    cols = [trace.channel(f"x{i}") for i in range(1, plant_n + 1)]
    for labels in obs_labels:
        cols += [trace.channel(lab) for lab in labels]
    return np.column_stack(cols)


_SETTINGS = settings(max_examples=12, deadline=None)


@given(configs())
@_SETTINGS
@on_both_leaves
def test_seeded_rerun_is_bit_identical(raw):
    cfg = cfg_of(raw)
    (t1, r1), (t2, r2) = run_experiment(cfg), run_experiment(cfg)
    assert t1.labels == t2.labels and identical(t1.values, t2.values)
    assert r1.to_flat_dict() == r2.to_flat_dict()
    c1, c2 = compare_observers(cfg), compare_observers(cfg)
    assert identical(c1.trace_a.values, c2.trace_a.values)
    assert identical(c1.trace_b.values, c2.trace_b.values)
    assert c1.to_text() == c2.to_text()
    y = t1.channel("x1")
    assert identical(replay_observer(cfg, cfg.observer_variant, y).values,
                     replay_observer(cfg, cfg.observer_variant, y).values)


@given(configs(**{"plant.alpha": 1.0}))
@_SETTINGS
@on_both_leaves
def test_alpha_one_is_explicit_euler(raw):
    cfg = cfg_of(raw)
    plant = cfg.build_plant()
    variant = cfg.observer_variant
    trace, _ = run_experiment(cfg)
    obs = cfg.build_observer(variant, plant)
    assert identical(march_of(trace, plant.n, [obs.labels]), euler_march(cfg, [variant]))

    res = compare_observers(cfg, "proposed", "baseline")
    ref = euler_march(cfg, ["proposed", "baseline"])
    labels = [cfg.build_observer(v, plant).labels for v in ("proposed", "baseline")]
    n, dp = plant.n, len(labels[0])
    assert identical(march_of(res.trace_a, n, labels[:1]), ref[:, :n + dp])
    assert identical(march_of(res.trace_b, n, labels[1:]), np.hstack([ref[:, :n], ref[:, n + dp:]]))


@given(configs())
@_SETTINGS
@on_both_leaves
def test_window_of_n_steps_is_full_memory(raw):
    full = cfg_of(raw)
    window = cfg_of(raw, **{"grid.memory": full.build_grid().n_steps})
    assert identical(run_experiment(full)[0].values, run_experiment(window)[0].values)
    a, b = compare_observers(full), compare_observers(window)
    assert identical(a.trace_a.values, b.trace_a.values)
    assert identical(a.trace_b.values, b.trace_b.values)
    y = run_experiment(full)[0].channel("x1")
    assert identical(replay_observer(full, "proposed", y).values,
                     replay_observer(window, "proposed", y).values)


@given(configs(), st.data())
@_SETTINGS
@on_both_leaves
def test_replay_reads_only_x1(raw, data):
    cfg = cfg_of(raw)
    trace, _ = run_experiment(cfg)
    plant = np.column_stack([trace.channel(f"x{i}") for i in (1, 2, 3)])
    base = replay_observer(cfg, cfg.observer_variant, plant[:, 0])
    rows = len(plant)
    k = data.draw(st.integers(min_value=0, max_value=rows - 1))
    plant[k:, 1] += data.draw(st.floats(-10.0, 10.0))
    plant[:, 2] = data.draw(st.floats(-10.0, 10.0))
    again = replay_observer(cfg, cfg.observer_variant, plant[:, 0])
    assert identical(base.values, again.values)


@given(configs())
@_SETTINGS
@on_both_leaves
def test_replay_and_compare_match_the_cosimulation(raw):
    cfg = cfg_of(raw)
    plant = cfg.build_plant()
    res = compare_observers(cfg, "proposed", "baseline")
    for variant, cmp_trace in (("proposed", res.trace_a), ("baseline", res.trace_b)):
        own, _ = run_experiment(cfg_of(raw, **{"observer.variant": variant}))
        assert cmp_trace.labels == own.labels
        assert within(cmp_trace.values, own.values), variant
        labels = cfg.build_observer(variant, plant).labels
        replay = replay_observer(cfg, variant, own.channel("x1"))
        assert within(replay.values, block_columns(own, labels)), variant
