"""Scalar quality metrics computed from undecimated traces.

Conventions:

* ``settle_time`` of a channel is the first grid time t such that the
  channel magnitude stays within ``tol`` over the whole window
  [t, t + dwell]; None means "never" (including when no full window fits
  inside the grid).
* ``chattering_index`` is the excess total variation of a channel over
  the true signal, per unit of window time: high-frequency switching
  shows up here, a clean tracking estimate scores near zero.
* settle/RMSE error channels are TRUE estimation errors (x_i - xhat_i,
  f - fhat). The observer-internal errors would read identically zero on
  stages that are frozen shut, which is exactly the case a "never
  settles" verdict has to catch.

Defaults: tol = 5 * epsilon (wide enough to sit outside the sliding
chattering band), dwell = 5 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fde import SimGrid

__all__ = [
    "settle_time",
    "rmse",
    "sup_error",
    "total_variation",
    "chattering_index",
    "MetricsReport",
    "DEFAULT_DWELL",
    "default_settle_tol",
]

DEFAULT_DWELL = 5.0


def default_settle_tol(epsilon: float) -> float:
    return 5.0 * float(epsilon)


def settle_time(channel, grid: SimGrid, tol: float, dwell: float = DEFAULT_DWELL) -> Optional[float]:
    """First t with |channel| <= tol over all of [t, t + dwell], else None.

    The window must lie entirely inside the grid; a channel that only
    calms down during the last instants therefore still reads "never".
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if not (dwell >= 0.0):
        raise ValueError(f"dwell must be >= 0, got {dwell!r}")
    c = np.asarray(channel, dtype=float)
    n = c.size - 1
    win = int(round(dwell / grid.h))
    if win > n:
        return None
    bad = (np.abs(c) > tol).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(bad)))
    # window starting at i covers samples i..i+win inclusive
    starts = np.arange(0, n - win + 1)
    ok = (csum[starts + win + 1] - csum[starts]) == 0
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return None
    return float(idx[0] * grid.h)


def _start_index(grid: SimGrid, from_t: float) -> int:
    i0 = int(np.ceil(round(from_t / grid.h, 9)))
    return max(0, min(i0, grid.n_steps))


def rmse(channel, grid: SimGrid, from_t: float = 0.0) -> float:
    """Root-mean-square of a channel over t >= from_t."""
    c = np.asarray(channel, dtype=float)
    i0 = _start_index(grid, from_t)
    seg = c[i0:]
    return float(np.sqrt(np.mean(seg * seg)))


def sup_error(channel, grid: SimGrid, from_t: float = 0.0) -> float:
    """Largest magnitude of a channel over t >= from_t."""
    c = np.asarray(channel, dtype=float)
    i0 = _start_index(grid, from_t)
    return float(np.max(np.abs(c[i0:])))


def total_variation(channel, grid: SimGrid, from_t: float = 0.0) -> float:
    c = np.asarray(channel, dtype=float)
    i0 = _start_index(grid, from_t)
    return float(np.sum(np.abs(np.diff(c[i0:]))))


def chattering_index(channel, truth, grid: SimGrid, from_t: float = 0.0) -> float:
    """Excess total variation per unit time over t >= from_t.

        index = max(0, TV(channel) - TV(truth)) / (t_end - from_t)

    Invariant under adding a common constant to both signals; scales
    linearly when both are scaled. A channel equal to the truth scores
    exactly 0; a square wave of amplitude a and period 2h against a
    constant truth scores a/h.
    """
    i0 = _start_index(grid, from_t)
    span = (grid.n_steps - i0) * grid.h
    if span <= 0.0:
        raise ValueError(f"empty metrics window: from_t={from_t!r} reaches past the grid")
    tv_c = total_variation(channel, grid, from_t)
    tv_t = total_variation(truth, grid, from_t)
    return max(0.0, tv_c - tv_t) / span


@dataclass
class MetricsReport:
    """Per-run metrics bundle.

    settle and rmse are keyed by error-channel name (e1..en true state
    errors, ef the true fault error f - fhat). Fault-estimate metrics are
    evaluated from ``fault_from_t`` (the settle time of the fault error);
    all fields are None when the run diverged or never settles.
    """

    variant: str
    diverged: bool = False
    settle: dict = field(default_factory=dict)
    rmse_post_settle: dict = field(default_factory=dict)
    fault_from_t: Optional[float] = None
    fault_rmse_post_settle: Optional[float] = None
    chattering_index: Optional[float] = None
    sup_error_post_settle: Optional[float] = None
    settle_tol: Optional[float] = None
    settle_dwell: Optional[float] = None

    def to_flat_dict(self) -> dict:
        out = {
            "variant": self.variant,
            "diverged": self.diverged,
            "settle_tol": self.settle_tol,
            "settle_dwell": self.settle_dwell,
        }
        for k in sorted(self.settle):
            out[f"settle_{k}"] = self.settle[k]
        for k in sorted(self.rmse_post_settle):
            out[f"rmse_post_settle_{k}"] = self.rmse_post_settle[k]
        out["fault_from_t"] = self.fault_from_t
        out["fault_rmse_post_settle"] = self.fault_rmse_post_settle
        out["chattering_index"] = self.chattering_index
        out["sup_error_post_settle"] = self.sup_error_post_settle
        return out

    def to_text(self) -> str:
        lines = []
        for k, v in self.to_flat_dict().items():
            if v is None:
                lines.append(f"{k} = never" if k.startswith(("settle", "fault_from")) else f"{k} = n/a")
            elif isinstance(v, float):
                lines.append(f"{k} = {v!r}")
            else:
                lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"
