"""fracobs: joint state and fault estimation for fractional-order
nonlinear systems with cascaded super-twisting observers.

The package is organized bottom-up:

* ``fraccalc``  -- gamma, GL weights, discrete fractional derivative,
                   Mittag-Leffler series.
* ``fde``       -- explicit fixed-step solver for D^alpha x = phi(t, x).
* ``plants``    -- observable-form benchmark plants, faults, noise.
* ``observers`` -- baseline and proposed sliding-mode observer cascades.
* ``metrics``   -- settle time, RMSE, chattering index.
* ``configs``   -- the experiment config schema and the bundled configs.
* ``harness``   -- co-simulation, fair comparison, observer replay.
* ``cli``       -- command-line front end (run / compare / validate /
                   dump-config).
"""

__version__ = "0.1.0"

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
    baseline_fault_readout,
    fsta_rhs,
    gates,
    sta_convergence_time,
)
from .metrics import MetricsReport, chattering_index, settle_time
from .configs import BUNDLED_CONFIGS, ExperimentConfig, bundled_config, config_hash
from .harness import (
    ComparisonResult,
    compare_observers,
    replay_observer,
    run_experiment,
)

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
