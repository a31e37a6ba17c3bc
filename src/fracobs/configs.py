"""Bundled experiment configurations.

Each entry is a plain JSON-compatible dict accepted by
``ExperimentConfig.from_dict``.  ``example1`` is the noisy Arneodo
fault-estimation run with the stock high-gain set; ``example2`` is the
Genesio-Tesi comparison run where both observer variants share one
plant trace and all gains equal 0.5.
"""

from __future__ import annotations

import copy

__all__ = ["BUNDLED_CONFIGS", "bundled_config"]

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
