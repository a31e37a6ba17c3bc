"""Experiment harness: co-simulation of plant and observers, and the
fair two-observer comparison.

``run_experiment`` and ``compare_observers`` share one co-simulation,
``_cosimulate``. It builds one augmented vector field (the plant's
channels, then one observer block per distinct variant) and integrates
it once on a shared grid. The
only plant signal entering an observer block is the measured output x1,
taken from the previous grid point exactly as the explicit stepper sees
every other state, so both observers of a comparison read the same
output stream (same noise draw) in the same march. The comparison then
re-evaluates their fault-estimate metrics on a common time window before
declaring a winner.

``replay_observer`` drives one observer from a recorded output stream
alone; it is the reference the co-simulation is checked against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError
from .fde import SimGrid, Trace, VectorField, integrate, FULL_MEMORY
from .metrics import (
    DEFAULT_DWELL,
    MetricsReport,
    chattering_index,
    default_settle_tol,
    rmse,
    settle_time,
    sup_error,
)
from .observers import (
    DEFAULT_EPSILON,
    ObserverDynamics,
    ObserverGains,
    VARIANTS,
    baseline_fault_readout,
    gate_count,
    gates,
    required_gain_count,
    state_dim,
)
from .plants import (
    FAULT_KINDS,
    FaultSignal,
    NoiseSpec,
    PLANT_PRESETS,
    PlantModel,
    assemble_field,
    fault_value,
    noise_signal,
    plant_preset,
)

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "compare_observers",
    "ComparisonResult",
    "config_hash",
    "replay_observer",
    "SHORT_MEMORY_DEFAULT",
    "SHORT_MEMORY_HORIZON",
]

# Runs longer than this horizon default to truncated memory.
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
    return float(v)


def _as_floats(v, path: str) -> tuple:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(path, f"expected a list of numbers, got {v!r}")
    return tuple(_as_float(x, path) for x in v)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (JSON-compatible).

    ``observer_gains`` is either a scalar (broadcast to the gain count the
    chosen variant needs) or a pair of explicit tuples (lambdas, alphas).
    ``memory`` is "full" or an integer; when omitted in the dict form it
    resolves to "full" for t_end <= 50 s and to 5000 steps beyond that.
    """

    name: str
    plant_preset_name: str
    observer_variant: str
    h: float
    t_end: float
    memory: Union[int, str]
    seed: int = 0
    plant_alpha: Optional[float] = None
    plant_betas: Optional[tuple] = None
    plant_x0: Optional[tuple] = None
    fault: Optional[FaultSignal] = None
    noise_variance: float = 0.0
    observer_gains: Union[float, tuple] = 1.0
    epsilon: float = DEFAULT_EPSILON
    latching: bool = False
    observer_init: Optional[tuple] = None
    output_stride: int = 10

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("", f"config root must be an object, got {type(raw).__name__}")
        _reject_unknown(
            raw,
            {"name", "plant", "fault", "noise", "observer", "grid", "output_stride", "seed"},
            "",
        )
        name = raw.get("name", "run")
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigError("name", f"expected a non-empty file name without path separators, got {name!r}")

        plant = _section(raw, "plant", {"preset", "alpha", "betas", "x0"})
        preset = _require(plant, "preset", "plant")
        if not isinstance(preset, str) or preset not in PLANT_PRESETS:
            raise ConfigError("plant.preset", f"unknown preset {preset!r}, expected one of {sorted(PLANT_PRESETS)}")
        p_alpha = plant.get("alpha")
        if p_alpha is not None:
            p_alpha = _as_float(p_alpha, "plant.alpha")
            if not (0.0 < p_alpha <= 1.0):
                raise ConfigError("plant.alpha", f"must satisfy 0 < alpha <= 1, got {p_alpha}")
        p_betas = plant.get("betas")
        if p_betas is not None:
            p_betas = _as_floats(p_betas, "plant.betas")
        p_x0 = plant.get("x0")
        if p_x0 is not None:
            p_x0 = _as_floats(p_x0, "plant.x0")

        fault_cfg = _section(
            raw, "fault", {"kind", "amplitude", "frequency", "onset", "samples", "sample_dt"},
            required=False,
        )
        fault_sig = None
        if fault_cfg is not None:
            kind = fault_cfg.get("kind", "none")
            if kind not in FAULT_KINDS:
                raise ConfigError("fault.kind", f"unknown kind {kind!r}, expected one of {FAULT_KINDS}")
            samples = fault_cfg.get("samples")
            sample_dt = fault_cfg.get("sample_dt")
            try:
                fault_sig = FaultSignal(
                    kind=kind,
                    amplitude=_as_float(fault_cfg.get("amplitude", 0.0), "fault.amplitude"),
                    frequency=_as_float(fault_cfg.get("frequency", 1.0), "fault.frequency"),
                    onset=_as_float(fault_cfg.get("onset", 0.0), "fault.onset"),
                    samples=None if samples is None else _as_floats(samples, "fault.samples"),
                    sample_dt=None if sample_dt is None else _as_float(sample_dt, "fault.sample_dt"),
                )
            except ValueError as exc:
                raise ConfigError("fault", str(exc)) from None
            if fault_sig.kind == "none":
                fault_sig = None

        noise_cfg = _section(raw, "noise", {"variance"}, required=False)
        variance = 0.0
        if noise_cfg is not None:
            variance = _as_float(noise_cfg.get("variance", 0.0), "noise.variance")
            if variance < 0.0:
                raise ConfigError("noise.variance", f"must be >= 0, got {variance}")

        obs = _section(raw, "observer", {"variant", "gains", "lambdas", "alphas", "epsilon", "latching", "init"})
        variant = _require(obs, "variant", "observer")
        if variant not in VARIANTS:
            raise ConfigError("observer.variant", f"unknown variant {variant!r}, expected one of {VARIANTS}")
        if "gains" in obs and ("lambdas" in obs or "alphas" in obs):
            raise ConfigError("observer.gains", "give either the scalar 'gains' or explicit lambdas/alphas, not both")
        if "gains" in obs:
            gains_spec: Union[float, tuple] = _as_float(obs["gains"], "observer.gains")
        elif "lambdas" in obs or "alphas" in obs:
            if "lambdas" not in obs or "alphas" not in obs:
                raise ConfigError("observer.lambdas", "lambdas and alphas must be given together")
            lam = _as_floats(obs["lambdas"], "observer.lambdas")
            alp = _as_floats(obs["alphas"], "observer.alphas")
            if len(lam) != len(alp):
                raise ConfigError("observer.alphas", f"length {len(alp)} does not match lambdas length {len(lam)}")
            gains_spec = (lam, alp)
        else:
            raise ConfigError("observer.gains", "required key is missing (scalar gains or lambdas/alphas lists)")
        epsilon = _as_float(obs.get("epsilon", DEFAULT_EPSILON), "observer.epsilon")
        if epsilon <= 0.0:
            raise ConfigError("observer.epsilon", f"must be > 0, got {epsilon}")
        latching = obs.get("latching", False)
        if not isinstance(latching, bool):
            raise ConfigError("observer.latching", f"expected true/false, got {latching!r}")
        init = obs.get("init")
        if init is not None:
            init = _as_floats(init, "observer.init")

        grid = _section(raw, "grid", {"h", "t_end", "memory"})
        h = _as_float(_require(grid, "h", "grid"), "grid.h")
        if h <= 0.0:
            raise ConfigError("grid.h", f"must be > 0, got {h}")
        t_end = _as_float(_require(grid, "t_end", "grid"), "grid.t_end")
        if t_end <= 0.0:
            raise ConfigError("grid.t_end", f"must be > 0, got {t_end}")
        n_steps = int(round(t_end / h))
        if n_steps < 1:
            raise ConfigError("grid.t_end", f"grid has no steps (t_end={t_end}, h={h})")
        memory = grid.get("memory")
        if memory is None:
            memory = FULL_MEMORY if t_end <= SHORT_MEMORY_HORIZON else SHORT_MEMORY_DEFAULT
        if memory != FULL_MEMORY:
            if isinstance(memory, bool) or not isinstance(memory, int):
                raise ConfigError("grid.memory", f"expected 'full' or an integer, got {memory!r}")
            if memory < 1 or memory > n_steps:
                raise ConfigError("grid.memory", f"must lie in [1, n_steps={n_steps}], got {memory}")

        stride = raw.get("output_stride", 10)
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ConfigError("output_stride", f"expected a positive integer, got {stride!r}")
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed", f"expected a non-negative integer, got {seed!r}")

        return cls(
            name=name,
            plant_preset_name=preset,
            observer_variant=variant,
            h=h,
            t_end=t_end,
            memory=memory,
            seed=seed,
            plant_alpha=p_alpha,
            plant_betas=p_betas,
            plant_x0=p_x0,
            fault=fault_sig,
            noise_variance=variance,
            observer_gains=gains_spec,
            epsilon=epsilon,
            latching=latching,
            observer_init=init,
            output_stride=stride,
        )

    def to_dict(self) -> dict:
        plant: dict = {"preset": self.plant_preset_name}
        if self.plant_alpha is not None:
            plant["alpha"] = self.plant_alpha
        if self.plant_betas is not None:
            plant["betas"] = list(self.plant_betas)
        if self.plant_x0 is not None:
            plant["x0"] = list(self.plant_x0)
        out: dict = {"name": self.name, "plant": plant}
        if self.fault is not None:
            f: dict = {"kind": self.fault.kind, "amplitude": self.fault.amplitude,
                       "frequency": self.fault.frequency, "onset": self.fault.onset}
            if self.fault.samples is not None:
                f["samples"] = list(self.fault.samples)
                f["sample_dt"] = self.fault.sample_dt
            out["fault"] = f
        if self.noise_variance > 0.0:
            out["noise"] = {"variance": self.noise_variance}
        obs: dict = {"variant": self.observer_variant}
        if isinstance(self.observer_gains, tuple):
            obs["lambdas"] = list(self.observer_gains[0])
            obs["alphas"] = list(self.observer_gains[1])
        else:
            obs["gains"] = self.observer_gains
        obs["epsilon"] = self.epsilon
        obs["latching"] = self.latching
        if self.observer_init is not None:
            obs["init"] = list(self.observer_init)
        out["observer"] = obs
        out["grid"] = {"h": self.h, "t_end": self.t_end, "memory": self.memory}
        out["output_stride"] = self.output_stride
        out["seed"] = self.seed
        return out

    # -- builders ----------------------------------------------------------

    def build_grid(self) -> SimGrid:
        return SimGrid(h=self.h, t_end=self.t_end, memory_len=self.memory)

    def build_plant(self) -> PlantModel:
        return plant_preset(
            self.plant_preset_name,
            alpha=self.plant_alpha,
            betas=self.plant_betas,
            x0=self.plant_x0,
        )

    def build_noise(self) -> Optional[Callable[[float], float]]:
        """The seeded noise as a function of t on this config's grid."""
        if self.noise_variance <= 0.0:
            return None
        return noise_signal(NoiseSpec(variance=self.noise_variance, seed=self.seed),
                            self.build_grid())

    def build_gains(self, variant: str, n: int) -> ObserverGains:
        need = required_gain_count(variant, n)
        if isinstance(self.observer_gains, tuple):
            lam, alp = self.observer_gains
            if len(lam) < need:
                raise ConfigError(
                    "observer.lambdas",
                    f"{variant} observer with n={n} needs {need} gain pairs, got {len(lam)}",
                )
            lam, alp = lam[:need], alp[:need]
        else:
            lam = (self.observer_gains,) * need
            alp = (self.observer_gains,) * need
        try:
            return ObserverGains(lambdas=lam, alphas_gain=alp, epsilon=self.epsilon)
        except ValueError as exc:
            raise ConfigError("observer.gains", str(exc)) from None

    def build_init_state(self, variant: str, n: int) -> np.ndarray:
        """The observer's initial flat state (zeros unless ``observer.init``)."""
        dim = state_dim(variant, n)
        if self.observer_init is None:
            return np.zeros(dim)
        flat = np.asarray(self.observer_init, dtype=float)
        if flat.size != dim:
            raise ConfigError(
                "observer.init",
                f"{variant} observer with n={n} needs {dim} entries, got {flat.size}",
            )
        return flat


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical JSON form; stable under dict key reordering."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# trace enrichment

def _enrich(
    grid: SimGrid,
    plant: PlantModel,
    fault: Optional[FaultSignal],
    variant: str,
    epsilon: float,
    latching: bool,
    plant_values: np.ndarray,
    obs_values: np.ndarray,
    diverged: bool,
    diverged_at: Optional[float],
) -> Trace:
    """Assemble the full channel set from raw plant and observer columns."""
    n = plant.n
    x = plant_values
    xhat = obs_values[:, 0:2 * n - 1:2]
    xtilde = obs_values[:, 1:2 * n - 2:2]
    theta = obs_values[:, -1]

    # observer-internal (gate-driving) errors
    e = np.empty_like(x)
    e[:, 0] = x[:, 0] - xhat[:, 0]
    e[:, 1:] = xtilde - xhat[:, 1:]

    times = grid.times()
    f_true = np.array([fault_value(fault, t) for t in times.tolist()])

    xt_full = np.column_stack([x[:, 0], xtilde])
    with np.errstate(invalid="ignore"):
        if variant == "proposed":
            f_tilde = obs_values[:, 2 * n - 1]
            f_hat = obs_values[:, 2 * n]
            e_f = f_tilde - f_hat
        else:
            f_hat = baseline_fault_readout(xt_full, theta, plant)

        m = gate_count(variant, n)
        gate_cols = gates(e[:, :m], epsilon)
        if latching:
            gate_cols = np.maximum.accumulate(gate_cols, axis=0)

    cols = [x[:, i] for i in range(n)]
    labels = [f"x{i+1}" for i in range(n)]
    cols += [xhat[:, i] for i in range(n)]
    labels += [f"xhat{i+1}" for i in range(n)]
    cols += [xtilde[:, i] for i in range(n - 1)]
    labels += [f"xtilde{i+2}" for i in range(n - 1)]
    cols += [e[:, i] for i in range(n)]
    labels += [f"e{i+1}" for i in range(n)]
    cols.append(f_true)
    labels.append("f_true")
    if variant == "proposed":
        cols += [f_tilde, f_hat, e_f]
        labels += ["f_tilde", "f_hat", "e_f"]
    else:
        cols.append(f_hat)
        labels.append("f_hat")
    cols.append(theta)
    labels.append("theta_tilde")
    cols += [gate_cols[:, i].astype(float) for i in range(m)]
    labels += [f"E{i+1}" for i in range(m)]

    return Trace(
        grid=grid,
        labels=labels,
        values=np.column_stack(cols),
        diverged=diverged,
        diverged_at=diverged_at,
    )


def _compute_metrics(
    trace: Trace,
    plant: PlantModel,
    variant: str,
    epsilon: float,
) -> MetricsReport:
    """True-error settle/RMSE metrics plus fault-estimate quality."""
    tol = default_settle_tol(epsilon)
    report = MetricsReport(variant=variant, diverged=trace.diverged,
                           settle_tol=tol, settle_dwell=DEFAULT_DWELL)
    if trace.diverged:
        return report

    grid = trace.grid
    n = plant.n
    channels = {}
    for i in range(1, n + 1):
        channels[f"e{i}"] = trace.channel(f"x{i}") - trace.channel(f"xhat{i}")
    channels["ef"] = trace.channel("f_true") - trace.channel("f_hat")

    for key, ch in channels.items():
        st = settle_time(ch, grid, tol=tol, dwell=DEFAULT_DWELL)
        report.settle[key] = st
        report.rmse_post_settle[key] = None if st is None else rmse(ch, grid, from_t=st)

    ft = report.settle["ef"]
    report.fault_from_t = ft
    if ft is not None:
        report.fault_rmse_post_settle = report.rmse_post_settle["ef"]
        report.chattering_index = chattering_index(
            trace.channel("f_hat"), trace.channel("f_true"), grid, from_t=ft
        )
        report.sup_error_post_settle = sup_error(channels["ef"], grid, from_t=ft)
    return report


# ---------------------------------------------------------------------------
# experiment drivers

def _cosimulate(cfg: ExperimentConfig, variants) -> list[tuple[Trace, MetricsReport]]:
    """Integrate the plant and one observer block per variant in one march.

    The augmented state is the plant's channels followed by each
    variant's flat observer state in turn. Every observer block reads
    nothing from the plant except component 0 (the measured output).
    Divergence of any augmented component flags the march, and with it
    every returned trace from that step on, instead of raising.
    """
    grid = cfg.build_grid()
    plant = cfg.build_plant()
    n = plant.n
    plant_eval = assemble_field(plant, cfg.fault, cfg.build_noise()).eval
    blocks = []
    x0 = [plant.x0]
    lo = n
    for variant in variants:
        obs = ObserverDynamics(variant, cfg.build_gains(variant, n), plant, latching=cfg.latching)
        x0.append(cfg.build_init_state(variant, n))
        blocks.append((obs.rhs_flat, lo, lo + obs.dim))
        lo += obs.dim

    def aug_eval(t, s):
        out = plant_eval(t, s[:n])
        for rhs, a, b in blocks:
            out += rhs(s[0], s[a:b])
        return out

    raw = integrate(VectorField(dim=lo, eval=aug_eval), plant.alpha, grid, np.concatenate(x0))
    results = []
    for variant, (_, a, b) in zip(variants, blocks):
        trace = _enrich(
            grid, plant, cfg.fault, variant, cfg.epsilon, cfg.latching,
            raw.values[:, :n], raw.values[:, a:b], raw.diverged, raw.diverged_at,
        )
        results.append((trace, _compute_metrics(trace, plant, variant, cfg.epsilon)))
    return results


def run_experiment(cfg: ExperimentConfig) -> tuple[Trace, MetricsReport]:
    """Co-simulate plant and observer once; return enriched trace + metrics.

    The observer reads nothing from the plant except the measured output;
    a diverging run flags the trace instead of raising.
    """
    return _cosimulate(cfg, (cfg.observer_variant,))[0]


def replay_observer(
    cfg: ExperimentConfig,
    variant: str,
    y_recorded: np.ndarray,
) -> Trace:
    """Integrate one observer alone, driven by a recorded output stream.

    y_recorded[k] is the measurement at grid point k; the step into point
    k consumes y_recorded[k-1], matching the explicit co-simulation.
    Returns the raw observer trace (flat layout labels).
    """
    grid = cfg.build_grid()
    plant = cfg.build_plant()
    gains = cfg.build_gains(variant, plant.n)
    init = cfg.build_init_state(variant, plant.n)
    obs = ObserverDynamics(variant, gains, plant, latching=cfg.latching)
    y_rec = np.asarray(y_recorded, dtype=float)
    if y_rec.shape != (grid.n_steps + 1,):
        raise ValueError(
            f"recorded output has shape {y_rec.shape}, grid wants ({grid.n_steps + 1},)"
        )
    h = grid.h
    obs_rhs = obs.rhs_flat
    y_list = y_rec.tolist()

    def evaluate(t, s):
        k = int(round(t / h)) - 1
        return obs_rhs(y_list[k if k > 0 else 0], s)

    fld = VectorField(dim=obs.dim, eval=evaluate)
    return integrate(fld, plant.alpha, grid, init, labels=obs.labels)


@dataclass
class ComparisonResult:
    """Outcome of a shared-plant two-observer comparison."""

    trace_a: Trace
    trace_b: Trace
    report_a: MetricsReport
    report_b: MetricsReport
    variant_a: str
    variant_b: str
    common_from_t: Optional[float] = None
    common_chattering: Optional[dict] = None
    common_sup_error: Optional[dict] = None
    wins_chattering: bool = False
    wins_sup_error: bool = False

    @property
    def diverged_at(self) -> Optional[float]:
        """t at which the shared march diverged, or None."""
        return self.trace_a.diverged_at if self.trace_a.diverged else self.trace_b.diverged_at

    def to_text(self) -> str:
        va, vb = self.variant_a, self.variant_b
        lines = [f"comparison: {va} vs {vb} (shared plant trace)"]
        rows_a = self.report_a.to_flat_dict()
        rows_b = self.report_b.to_flat_dict()
        keys = [k for k in rows_a if k != "variant"]
        width = max(len(k) for k in keys) + 2

        def _fmt(v):
            if v is None:
                return "never"
            if isinstance(v, float):
                return f"{v:.6g}"
            return str(v)

        lines.append(f"{'metric'.ljust(width)}{va:>18}{vb:>18}")
        for k in keys:
            lines.append(f"{k.ljust(width)}{_fmt(rows_a.get(k)):>18}{_fmt(rows_b.get(k)):>18}")
        if self.diverged_at is not None:
            lines.append(f"common window: none (the run diverged at t = {self.diverged_at:.6g})")
        elif self.common_from_t is None:
            lines.append("common window: none (a fault-error channel never settles)")
        else:
            lines.append(f"common window: t >= {self.common_from_t:.6g}")
            lines.append(
                f"{'common chattering_index'.ljust(width)}"
                f"{_fmt(self.common_chattering[va]):>18}{_fmt(self.common_chattering[vb]):>18}"
            )
            lines.append(
                f"{'common sup_error'.ljust(width)}"
                f"{_fmt(self.common_sup_error[va]):>18}{_fmt(self.common_sup_error[vb]):>18}"
            )
        lines.append(f"verdict: {va} beats {vb} on chattering_index: {self.wins_chattering}")
        lines.append(f"verdict: {va} beats {vb} on sup_error_post_settle: {self.wins_sup_error}")
        return "\n".join(lines) + "\n"


def compare_observers(
    cfg: ExperimentConfig,
    variant_a: str = "proposed",
    variant_b: str = "baseline",
) -> ComparisonResult:
    """Score two observer variants on one co-simulated plant run.

    Both observers run as blocks of one march and read the same plant
    output x1 at every step (hence the same noise realization); a variant
    named twice runs once and both slots share its trace. A march has one
    divergence point, so if either observer diverges both traces are
    flagged. Win booleans require strictly smaller chattering index / sup
    error on the common post-settle window, so a variant compared against
    itself ties and wins nothing.
    """
    variants = tuple(dict.fromkeys((variant_a, variant_b)))
    runs = dict(zip(variants, _cosimulate(cfg, variants)))
    (trace_a, report_a), (trace_b, report_b) = runs[variant_a], runs[variant_b]
    result = ComparisonResult(
        trace_a=trace_a, trace_b=trace_b,
        report_a=report_a, report_b=report_b,
        variant_a=variant_a, variant_b=variant_b,
    )

    ft_a, ft_b = report_a.fault_from_t, report_b.fault_from_t
    if ft_a is not None and ft_b is not None:  # a diverged trace has no settle time
        common = max(ft_a, ft_b)
        grid = trace_a.grid
        chat = {v: chattering_index(tr.channel("f_hat"), tr.channel("f_true"), grid, from_t=common)
                for v, (tr, _) in runs.items()}
        supe = {v: sup_error(tr.channel("f_true") - tr.channel("f_hat"), grid, from_t=common)
                for v, (tr, _) in runs.items()}
        result.common_from_t = common
        result.common_chattering = chat
        result.common_sup_error = supe
        result.wins_chattering = chat[variant_a] < chat[variant_b]
        result.wins_sup_error = supe[variant_a] < supe[variant_b]
    return result
