"""fracobs: joint state and fault estimation for fractional-order
nonlinear systems with cascaded super-twisting observers.

The package is organized bottom-up:

* ``fraccalc``  -- gamma, GL weights, discrete fractional derivative,
                   Mittag-Leffler series.
* ``fde``       -- explicit fixed-step solver for D^alpha x = phi(t, x).
* ``plants``    -- observable-form benchmark plants, faults, noise.
* ``observers`` -- baseline and proposed sliding-mode observer cascades.
* ``metrics``   -- settle time, RMSE, chattering index.
* ``harness``   -- experiment configs, co-simulation, fair comparison.
* ``cli``       -- command-line front end (run / compare / validate /
                   dump-config).
"""

from importlib.metadata import PackageNotFoundError, version

from .errors import ConfigError, ConvergenceError, SingularGainError
from .fraccalc import (
    gamma,
    gl_derivative,
    gl_weights,
    mittag_leffler,
)
from .fde import (
    DIVERGENCE_BOUND,
    SimGrid,
    Trace,
    VectorField,
    integrate,
    memory_truncation_error,
)
from .plants import (
    FaultSignal,
    NoiseSpec,
    PlantModel,
    arneodo,
    assemble_field,
    fault_value,
    genesio_tesi,
    noise_signal,
    plant_preset,
)
from .observers import (
    FstaParams,
    ObserverGains,
    baseline_fault_readout,
    fsta_rhs,
    gates,
    sta_convergence_time,
)
from .metrics import MetricsReport, chattering_index, settle_time
from .harness import (
    ComparisonResult,
    ExperimentConfig,
    compare_observers,
    config_hash,
    replay_observer,
    run_experiment,
)
from .configs import BUNDLED_CONFIGS, bundled_config

try:
    __version__ = version("fracobs")
except PackageNotFoundError:  # pragma: no cover - not installed
    __version__ = "0.0.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "SingularGainError",
    "gamma",
    "gl_derivative",
    "gl_weights",
    "mittag_leffler",
    "DIVERGENCE_BOUND",
    "SimGrid",
    "Trace",
    "VectorField",
    "integrate",
    "memory_truncation_error",
    "FaultSignal",
    "NoiseSpec",
    "PlantModel",
    "arneodo",
    "assemble_field",
    "fault_value",
    "genesio_tesi",
    "noise_signal",
    "plant_preset",
    "FstaParams",
    "ObserverGains",
    "baseline_fault_readout",
    "fsta_rhs",
    "gates",
    "sta_convergence_time",
    "MetricsReport",
    "chattering_index",
    "settle_time",
    "ComparisonResult",
    "ExperimentConfig",
    "compare_observers",
    "config_hash",
    "replay_observer",
    "run_experiment",
    "BUNDLED_CONFIGS",
    "bundled_config",
    "__version__",
]
