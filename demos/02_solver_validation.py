"""Validating the explicit fractional solver against closed forms, and
measuring what the short-memory truncation costs.

Three exercises:
  1. the linear relaxation D^alpha x = -x, whose exact solution is
     E_alpha(-t^alpha), sweeping the step size;
  2. the alpha = 1 sanity limit, where the scheme must reproduce
     forward Euler step for step;
  3. the short-memory principle on a chaotic benchmark: how far does a
     run drift from the full-memory reference when the history window
     is capped at L steps?

Run:  python3 demos/02_solver_validation.py
"""

import time

import numpy as np

from fracobs import (
    SimGrid,
    VectorField,
    assemble_field,
    integrate,
    memory_truncation_error,
    mittag_leffler,
    plant_preset,
)


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


banner("1. Relaxation oracle: D^0.9 x = -x, x(0) = 1")
print("""\
The exact solution is x(t) = E_0.9(-t^0.9). The solver is explicit and
first-order accurate, so halving h should roughly halve the error.""")
field = VectorField(dim=1, eval=lambda t, x: -np.asarray(x))
print(f"  {'h':>8} {'max rel err on [0.1, 5]':>26}")
for h in (4e-3, 2e-3, 1e-3):
    grid = SimGrid(h=h, t_end=5.0, memory_len="full")
    tr = integrate(field, 0.9, grid, np.array([1.0]))
    t = tr.times()
    sel = t >= 0.1
    exact = np.array([mittag_leffler(0.9, -(tk**0.9)) for tk in t[sel]])
    rel = np.max(np.abs(tr.values[sel, 0] - exact) / exact)
    print(f"  {h:>8} {rel:>26.2e}")

banner("2. The alpha = 1 limit is forward Euler, exactly")
print("""\
With weight table [1, -1, 0, ...] the update collapses to
x_{k} = x_{k-1} + h * phi(t_k, x_{k-1}). We check it against a
hand-rolled Euler loop on the same nonlinear field.""")
h = 1e-2
grid = SimGrid(h=h, t_end=2.0, memory_len="full")
f = VectorField(dim=1, eval=lambda t, x: np.array([np.sin(3 * t) - x[0] ** 3]))
tr = integrate(f, 1.0, grid, np.array([0.5]))
x = 0.5
worst = 0.0
for k in range(1, grid.n_steps + 1):
    x = x + h * (np.sin(3 * k * h) - x**3)
    worst = max(worst, abs(x - tr.values[k, 0]))
print(f"  max |solver - euler| over {grid.n_steps} steps = {worst:.3e}")

banner("3. Short-memory principle on the cubic chaotic benchmark")
print("""\
The solver's FFT history sum makes full GL memory cost about the same
as a window (O(n log^2 n) against O(n log n log L)), so capping the
history at the most recent L steps buys no speed; it trades accuracy
only. The price is a drift away from the full-memory trajectory --
large for a chaotic system unless L is generous, because small
perturbations compound.

Truncation error (sup-norm deviation from the full-memory run),
t_end = 10, h = 1e-3 (10000 steps):""")
plant = plant_preset("arneodo-paper")
field = assemble_field(plant, None, None)
grid = SimGrid(h=1e-3, t_end=10.0, memory_len="full")
for L, err in memory_truncation_error(field, plant.alpha, grid, plant.x0,
                                      [100, 1000, 2500, 5000, 10000]):
    note = "  (= n_steps: no truncation, identical by construction)" if L == 10000 else ""
    print(f"  L = {L:>6}: {err:.3e}{note}")

print("""
The same comparison at desk scale, t_end = 50 with L = 5000 (the
default cap the experiment configs apply beyond 50 s horizons):""")
grid50 = SimGrid(h=1e-3, t_end=50.0, memory_len="full")
t0 = time.perf_counter()
full = integrate(field, plant.alpha, grid50, plant.x0)
t_full = time.perf_counter() - t0
grid_l = SimGrid(h=1e-3, t_end=50.0, memory_len=5000)
t0 = time.perf_counter()
short = integrate(field, plant.alpha, grid_l, plant.x0)
t_short = time.perf_counter() - t0
dev = np.max(np.abs(full.values - short.values))
print(f"  full memory : {t_full:.2f} s wall")
print(f"  L = 5000    : {t_short:.2f} s wall")
print(f"  sup deviation over the whole run: {dev:.3f}")
print("""
On a chaotic attractor that deviation saturates at attractor diameter
no matter how small the per-step truncation error is -- trajectories
decorrelate, while statistics (bounds, attractor shape) survive. The
two wall times above come out about equal, so the window saves no time;
the bundled benchmark configs use full memory.""")
