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

``trace_columns`` is the one channel schema: the CSV header, and in the
same order the labels of every enriched trace, which holds the plant
columns, the true fault and its observer's ``ObserverDynamics.channels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .configs import ExperimentConfig
from .fde import Trace, VectorField, integrate
from .metrics import (
    DEFAULT_DWELL,
    MetricsReport,
    chattering_index,
    default_settle_tol,
    rmse,
    settle_time,
    sup_error,
)
from .observers import ObserverDynamics
from .plants import PlantModel, assemble_field, fault_value

__all__ = [
    "run_experiment",
    "compare_observers",
    "ComparisonResult",
    "replay_observer",
    "trace_columns",
]


# ---------------------------------------------------------------------------
# trace enrichment

def trace_columns(n: int) -> list[str]:
    """The channel schema of a run on an n-dimensional plant: the CSV
    header, whose columns a variant lacks stay empty. A trace's labels are
    this list without "t", filtered to the channels it has."""
    idx = range(1, n + 1)
    return [
        "t", *(f"x{i}" for i in idx), *(f"xhat{i}" for i in idx),
        *(f"xtilde{i}" for i in idx[1:]), *(f"e{i}" for i in idx),
        "f_true", "f_tilde", "f_hat", "e_f", "theta_tilde", *(f"E{i}" for i in idx),
    ]


def _enrich(raw: Trace, n: int, f_true: np.ndarray, obs: ObserverDynamics,
            block: np.ndarray) -> Trace:
    """One variant's trace, built in one (rows, labels) allocation: the
    plant columns of the raw march, the true fault and the channels of
    ``obs`` on its recorded ``block``, in schema order."""
    have = {*(f"x{i}" for i in range(1, n + 1)), "f_true", *obs.channel_labels}
    labels = [c for c in trace_columns(n) if c in have]
    values = np.empty((raw.values.shape[0], len(labels)))
    cols = dict(zip(labels, values.T))
    for i in range(n):
        cols[f"x{i + 1}"][:] = raw.values[:, i]
    cols["f_true"][:] = f_true
    obs.channels(raw.values[:, 0], block, cols)
    return Trace(
        grid=raw.grid,
        labels=labels,
        values=values,
        diverged=raw.diverged,
        diverged_at=raw.diverged_at,
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
    fault = cfg.fault
    plant_eval = assemble_field(plant, fault, cfg.build_noise()).eval
    observers, blocks = [], []
    x0 = [plant.x0]
    lo = n
    for variant in variants:
        obs = cfg.build_observer(variant, plant)
        x0.append(cfg.build_init_state(variant, n))
        observers.append(obs)
        blocks.append((obs.rhs_flat, lo, lo + obs.dim))
        lo += obs.dim

    def aug_eval(t, s):
        out = plant_eval(t, s[:n])
        for rhs, a, b in blocks:
            out += rhs(s[0], s[a:b])
        return out

    raw = integrate(VectorField(dim=lo, eval=aug_eval), plant.alpha, grid, np.concatenate(x0))
    # k * h is grid.times()'s float(k) * h, so this is the fault at t_k
    rows, h = grid.n_steps + 1, grid.h
    f_true = np.fromiter((fault_value(fault, k * h) for k in range(rows)), float, rows)
    traces = [_enrich(raw, n, f_true, obs, raw.values[:, a:b])
              for obs, (_, a, b) in zip(observers, blocks)]
    del raw  # the march is not needed for the metrics
    return [(trace, _compute_metrics(trace, plant, obs.variant, cfg.epsilon))
            for trace, obs in zip(traces, observers)]


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
    init = cfg.build_init_state(variant, plant.n)
    obs = cfg.build_observer(variant, plant)
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
