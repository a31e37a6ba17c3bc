"""Experiment configs: the schema, its canonical form, and the bundled
configurations.

``ExperimentConfig.from_dict`` checks, defaults and writes each key into
the canonical dict in one pass; that dict is the config, which
``to_dict`` copies, ``config_hash`` hashes and the builders read. The
constructors built from it keep their own checks, and their ValueError
becomes a ``ConfigError`` at the key's path.

``example1`` is the noisy Arneodo fault-estimation run with the stock
high-gain set; ``example2`` is the Genesio-Tesi comparison run where
both observer variants share one plant trace and all gains equal 0.5.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import reduce
from operator import getitem
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .fde import FULL_MEMORY, SimGrid
from .observers import DEFAULT_EPSILON, VARIANTS, ObserverDynamics, required_gain_count, state_dim
from .plants import (FAULT_KINDS, PLANT_PRESETS, FaultSignal, NoiseSpec, PlantModel,
                     noise_signal, plant_preset)

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "SHORT_MEMORY_DEFAULT",
    "SHORT_MEMORY_HORIZON",
    "BUNDLED_CONFIGS",
    "bundled_config",
]

# Runs longer than this horizon default to truncated memory: this many
# steps, or every step on a grid with fewer.
SHORT_MEMORY_HORIZON = 50.0
SHORT_MEMORY_DEFAULT = 5000


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "required key is missing")
    return d[key]


def _reject_unknown(d: dict, allowed, path: str) -> None:
    for k in d:
        if k not in allowed:
            where = f"{path}.{k}" if path else k
            raise ConfigError(where, "unknown key")


def _section(raw: dict, key: str, allowed, required: bool = True) -> Optional[dict]:
    """The object under ``key``; an absent optional section reads as None."""
    sect = _require(raw, key, "") if required else raw.get(key)
    if sect is None and not required:
        return None
    if not isinstance(sect, dict):
        raise ConfigError(key, f"expected an object, got {sect!r}")
    _reject_unknown(sect, allowed, key)
    return sect


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, +-inf, or an int past the float range
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return float(v)


def _as_floats(v, path: str) -> list:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(path, f"expected a list of numbers, got {v!r}")
    return [_as_float(x, path) for x in v]


def _build(path: str, factory: Callable, *args, **kwargs):
    """``factory(*args, **kwargs)``; the ValueError it raises is a config
    error at ``path``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _entry(*path: str) -> property:
    """A read-only view of the canonical value at ``path``."""
    return property(lambda self: reduce(getitem, path, self._canon))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description in its canonical dict form; build
    it with ``from_dict``, which holds every default.

    The canonical form omits the noise at variance 0 and the fault of kind
    "none", writes ``fault.samples`` and ``fault.sample_dt`` only for the
    custom fault (the one kind that takes them), and writes every other
    key, defaults included.
    ``observer.gains`` is a scalar broadcast to the gain count a variant
    needs, or ``observer.lambdas`` and ``alphas`` list the pairs.
    ``grid.memory`` is "full" or an integer; when omitted it resolves to
    "full" for t_end <= 50 s, beyond that to min(5000, n_steps).
    """

    _canon: dict

    name = _entry("name")
    seed = _entry("seed")
    output_stride = _entry("output_stride")
    observer_variant = _entry("observer", "variant")
    epsilon = _entry("observer", "epsilon")
    h = _entry("grid", "h")
    t_end = _entry("grid", "t_end")
    memory = _entry("grid", "memory")

    @property
    def observer_init(self) -> Optional[tuple]:
        init = self._canon["observer"].get("init")
        return None if init is None else tuple(init)

    @property
    def fault(self) -> Optional[FaultSignal]:
        """The fault signal, or None for a fault-free run."""
        fault = self._canon.get("fault")
        return None if fault is None else FaultSignal(**fault)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("", f"config root must be an object, got {type(raw).__name__}")
        _reject_unknown(raw, {"name", "plant", "fault", "noise", "observer", "grid", "output_stride", "seed"}, "")
        name = raw.get("name", "run")
        if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in ("/", "\\", "\0")):
            raise ConfigError("name", f"expected a non-empty file name without path separators or NUL, got {name!r}")
        canon: dict = {"name": name}

        plant = _section(raw, "plant", {"preset", "alpha", "betas", "x0"})
        preset = _require(plant, "preset", "plant")
        if not isinstance(preset, str) or preset not in PLANT_PRESETS:
            raise ConfigError("plant.preset", f"unknown preset {preset!r}, expected one of {sorted(PLANT_PRESETS)}")
        canon["plant"] = p = {"preset": preset}
        if plant.get("alpha") is not None:
            p["alpha"] = _as_float(plant["alpha"], "plant.alpha")
            if not (0.0 < p["alpha"] <= 1.0):
                raise ConfigError("plant.alpha", f"must satisfy 0 < alpha <= 1, got {p['alpha']}")
        for key in ("betas", "x0"):
            if plant.get(key) is not None:
                p[key] = _as_floats(plant[key], f"plant.{key}")

        fault = _section(raw, "fault", {"kind", "amplitude", "frequency", "onset", "samples", "sample_dt"},
                         required=False)
        if fault is not None:
            kind = fault.get("kind", "none")
            if kind not in FAULT_KINDS:
                raise ConfigError("fault.kind", f"unknown kind {kind!r}, expected one of {FAULT_KINDS}")
            f = {"kind": kind}
            for key, default in (("amplitude", 0.0), ("frequency", 1.0), ("onset", 0.0)):
                f[key] = _as_float(fault.get(key, default), f"fault.{key}")
            samples, sample_dt = fault.get("samples"), fault.get("sample_dt")
            if samples is not None:
                f["samples"] = _as_floats(samples, "fault.samples")
            if sample_dt is not None:
                f["sample_dt"] = _as_float(sample_dt, "fault.sample_dt")
            _build("fault", FaultSignal, **f)
            if kind != "none":
                canon["fault"] = f

        noise = _section(raw, "noise", {"variance"}, required=False)
        if noise is not None:
            variance = _as_float(noise.get("variance", 0.0), "noise.variance")
            _build("noise.variance", NoiseSpec, variance)
            if variance > 0.0:
                canon["noise"] = {"variance": variance}

        obs = _section(raw, "observer", {"variant", "gains", "lambdas", "alphas", "epsilon", "latching", "init"})
        variant = _require(obs, "variant", "observer")
        if variant not in VARIANTS:
            raise ConfigError("observer.variant", f"unknown variant {variant!r}, expected one of {VARIANTS}")
        canon["observer"] = o = {"variant": variant}
        if "gains" in obs and ("lambdas" in obs or "alphas" in obs):
            raise ConfigError("observer.gains", "give either the scalar 'gains' or explicit lambdas/alphas, not both")
        if "gains" in obs:
            o["gains"] = _as_float(obs["gains"], "observer.gains")
        elif "lambdas" in obs or "alphas" in obs:
            if "lambdas" not in obs or "alphas" not in obs:
                raise ConfigError("observer.lambdas", "lambdas and alphas must be given together")
            lam = o["lambdas"] = _as_floats(obs["lambdas"], "observer.lambdas")
            alp = o["alphas"] = _as_floats(obs["alphas"], "observer.alphas")
            if len(lam) != len(alp):
                raise ConfigError("observer.alphas", f"length {len(alp)} does not match lambdas length {len(lam)}")
        else:
            raise ConfigError("observer.gains", "required key is missing (scalar gains or lambdas/alphas lists)")
        o["epsilon"] = _as_float(obs.get("epsilon", DEFAULT_EPSILON), "observer.epsilon")
        if o["epsilon"] <= 0.0:
            raise ConfigError("observer.epsilon", f"must be > 0, got {o['epsilon']}")
        o["latching"] = obs.get("latching", False)
        if not isinstance(o["latching"], bool):
            raise ConfigError("observer.latching", f"expected true/false, got {o['latching']!r}")
        if obs.get("init") is not None:
            o["init"] = _as_floats(obs["init"], "observer.init")

        grid = _section(raw, "grid", {"h", "t_end", "memory"})
        h = _as_float(_require(grid, "h", "grid"), "grid.h")
        if h <= 0.0:
            raise ConfigError("grid.h", f"must be > 0, got {h}")
        t_end = _as_float(_require(grid, "t_end", "grid"), "grid.t_end")
        if t_end <= 0.0:
            raise ConfigError("grid.t_end", f"must be > 0, got {t_end}")
        n_steps = _build("grid.t_end", SimGrid, h, t_end).n_steps
        memory = grid.get("memory")
        if memory is None:
            memory = FULL_MEMORY if t_end <= SHORT_MEMORY_HORIZON else min(SHORT_MEMORY_DEFAULT, n_steps)
        _build("grid.memory", SimGrid, h, t_end, memory)
        canon["grid"] = {"h": h, "t_end": t_end, "memory": memory}

        stride = canon["output_stride"] = raw.get("output_stride", 10)
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ConfigError("output_stride", f"expected a positive integer, got {stride!r}")
        seed = canon["seed"] = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed", f"expected a non-negative integer, got {seed!r}")

        cfg = cls(canon)
        plant_model = cfg.build_plant()
        cfg.build_observer(variant, plant_model)
        cfg.build_init_state(variant, plant_model.n)
        return cfg

    def to_dict(self) -> dict:
        """A copy of the canonical form."""
        return copy.deepcopy(self._canon)

    # -- builders ----------------------------------------------------------

    def build_grid(self) -> SimGrid:
        grid = self._canon["grid"]
        return SimGrid(grid["h"], grid["t_end"], grid["memory"])

    def build_plant(self) -> PlantModel:
        overrides = dict(self._canon["plant"])
        return _build("plant", plant_preset, overrides.pop("preset"), **overrides)

    def build_noise(self) -> Optional[Callable[[float], float]]:
        """The seeded noise as a function of t on this config's grid."""
        noise = self._canon.get("noise")
        if noise is None:
            return None
        return noise_signal(NoiseSpec(seed=self.seed, **noise), self.build_grid())

    def build_gains(self, variant: str, n: int) -> tuple[tuple, tuple]:
        """The (lambdas, alphas) a ``variant`` observer of an n-plant runs on:
        the scalar broadcast, or the first pairs of the explicit lists."""
        need = required_gain_count(variant, n)
        obs = self._canon["observer"]
        if "gains" in obs:
            return (obs["gains"],) * need, (obs["gains"],) * need
        return tuple(obs["lambdas"][:need]), tuple(obs["alphas"][:need])

    def build_observer(self, variant: str, plant: PlantModel) -> ObserverDynamics:
        """This config's ``variant`` observer on ``plant``; a gain it rejects
        is a config error."""
        lam, alp = self.build_gains(variant, plant.n)
        obs = self._canon["observer"]
        return _build("observer.gains", ObserverDynamics, variant, plant, lam, alp,
                      obs["epsilon"], obs["latching"])

    def build_init_state(self, variant: str, n: int) -> np.ndarray:
        """The observer's initial flat state (zeros unless ``observer.init``)."""
        dim = state_dim(variant, n)
        init = self._canon["observer"].get("init")
        if init is None:
            return np.zeros(dim)
        if len(init) != dim:
            raise ConfigError("observer.init", f"{variant} observer with n={n} needs {dim} entries, got {len(init)}")
        return np.array(init)


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical JSON form; stable under dict key reordering."""
    canon = json.dumps(cfg._canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# Gate threshold 0.1 instead of the package default 0.01: with this
# gain set stage 2 runs in a ~11 Hz limit cycle and the third internal
# error e3 has an rms near 0.94 (h = 1e-3, noise off), so even at 0.1
# gate E3 is open on only ~8 % of post-settle steps; a tighter
# threshold leaves the later gates closed essentially forever.
EXAMPLE1: dict = {
    "name": "example1",
    "plant": {"preset": "arneodo-paper"},
    "fault": {"kind": "cosine", "amplitude": 0.4, "frequency": 1.0, "onset": 0.0},
    "noise": {"variance": 1.5},
    "observer": {
        "variant": "proposed",
        "lambdas": [1.0, 1.0, 10.0, 100.0],
        "alphas": [10.0, 200.0, 50.0, 100.0],
        "epsilon": 0.1,
        "latching": False,
    },
    "grid": {"h": 1e-3, "t_end": 50.0, "memory": "full"},
    "seed": 0,
    "output_stride": 10,
}

EXAMPLE2: dict = {
    "name": "example2",
    "plant": {"preset": "genesio-tesi-paper"},
    "fault": {"kind": "sine", "amplitude": 0.06, "frequency": 1.0, "onset": 0.0},
    "noise": {"variance": 0.0},
    "observer": {
        "variant": "proposed",
        "gains": 0.5,
        "epsilon": 0.01,
        "latching": False,
    },
    "grid": {"h": 1e-3, "t_end": 50.0, "memory": "full"},
    "seed": 0,
    "output_stride": 10,
}

BUNDLED_CONFIGS = {
    "example1": EXAMPLE1,
    "example2": EXAMPLE2,
}


def bundled_config(name: str) -> dict:
    """Return a deep copy of a bundled config; KeyError lists the options."""
    key = name.removesuffix(".cfg").removesuffix(".json")
    if key not in BUNDLED_CONFIGS:
        raise KeyError(
            f"unknown bundled config {name!r}; available: {sorted(BUNDLED_CONFIGS)}"
        )
    return copy.deepcopy(BUNDLED_CONFIGS[key])
