"""Spans and the wrappers that time fracobs's layers from outside.

Nothing in the program is edited. For a traced op the benchmark swaps the
module attributes that the program looks up at call time (``fde.integrate``
as imported by ``harness``, ``ObserverDynamics.rhs_flat``, ...) for timing
wrappers, and puts the originals back when the op ends. Untraced ops run
the program exactly as installed.

Layer boundaries crossed once or a few times per op are recorded as spans
(name, start, end, parent id, op id). Boundaries crossed once per solver
step (the field callbacks, the plant and observer right-hand sides, the
fault signal) are aggregated into the enclosing span as a call count and a
total time, so that tracing a 50k-step run does not build 200k spans.
"""

from __future__ import annotations

import inspect
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

_now = time.perf_counter

# Layer metrics of the traced run, with their units. BENCHMARK.json lists
# the same names under "per_layer"; the smoke tests keep the two in step.
LAYER_UNITS = {
    "fraccalc.import_s": "s",
    "fraccalc.gl_weights_calls": "count",
    "fraccalc.gl_weights_s": "s",
    "fde.integrate_calls": "count",
    "fde.steps": "count",
    "fde.self_s": "s",
    "fde.self_us_per_step": "us",
    "fde.history_terms": "count",
    "fde.history_bytes": "bytes",
    "fde.state_bytes": "bytes",
    "fde.null_full_s": "s",
    "fde.null_window_s": "s",
    "plants.eval_calls": "count",
    "plants.eval_s": "s",
    "plants.fault_value_calls": "count",
    "plants.noise_draws": "count",
    "observers.rhs_calls": "count",
    "observers.rhs_us_per_call": "us",
    "observers.rhs_s": "s",
    "observers.stage_enabled_fraction": "ratio",
    "observers.gate_toggles": "count",
    "harness.integrations_per_op": "count",
    "harness.glue_s": "s",
    "harness.self_s": "s",
    "metrics.calls": "count",
    "metrics.s": "s",
    "cli.write_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Tracer:
    """In-memory span store; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._origin = _now()

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        sp = {
            "id": len(self.spans) + 1,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else op,
            "name": name,
            "start": _now() - self._origin,
            "end": None,
            "agg": {},
            "attrs": {},
        }
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = _now() - self._origin
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Aggregate one crossing of a per-step boundary into the open span."""
        agg = self._stack[-1]["agg"]
        slot = agg.get(name)
        if slot is None:
            agg[name] = [1, seconds]
        else:
            slot[0] += 1
            slot[1] += seconds


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded fracobs module that binds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fracobs" or name.startswith("fracobs.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _aggregated(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name, _now() - t0)

    return wrapper


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def solver_counts(dim: int, n_steps: int, memory: int) -> dict:
    """Computed work of one GL march (no cache effects are modelled).

    Step k sums min(k, L) history rows of ``dim`` values and one weight
    per row; X and Z hold n+1 rows each and the weight table L+1 values.
    """
    rows = memory * (memory + 1) // 2 + (n_steps - memory) * memory
    return {
        "steps": n_steps,
        "dim": dim,
        "history_terms": rows * dim,
        "history_bytes": rows * (dim + 1) * 8,
        "state_bytes": 2 * (n_steps + 1) * dim * 8 + (memory + 1) * 8,
    }


def _integrate_wrapper(tracer: Tracer, integrate):
    signature = inspect.signature(integrate)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        field, grid = bound["field"], bound["grid"]
        counts = solver_counts(field.dim, grid.n_steps, grid.effective_memory())
        inner = field.eval
        object.__setattr__(field, "eval", _aggregated(tracer, "fde.callback", inner))
        try:
            with tracer.span("fde.integrate") as sp:
                sp["attrs"].update(counts)
                return integrate(*args, **kwargs)
        finally:
            object.__setattr__(field, "eval", inner)

    return wrapper


def _assemble_wrapper(tracer: Tracer, assemble):
    def wrapper(*args, **kwargs):
        fld = assemble(*args, **kwargs)
        object.__setattr__(fld, "eval", _aggregated(tracer, "plants.eval", fld.eval))
        return fld

    return wrapper


def _noise_sample_wrapper(tracer: Tracer, sample):
    # The stream draws once per grid step and holds the value while t
    # repeats; count the calls that move t.
    last_t: dict[int, float] = {}

    def wrapper(stream, t):
        if last_t.get(id(stream)) != t:
            last_t[id(stream)] = t
            tracer.add("plants.noise_draw", 0.0)
        return sample(stream, t)

    return wrapper


def _entry_wrapper(tracer: Tracer, name: str, fn, captured: list):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        captured.append(result)
        return result

    return wrapper


def install(tracer: Tracer, patches: Patches, captured: list) -> list[str]:
    """Wrap every layer boundary; returns the hook points that were not found.

    ``captured`` receives what ``run_experiment`` / ``compare_observers``
    return to the CLI, for the gate statistics taken after the op.
    """
    import fracobs.cli as cli
    import fracobs.fde as fde
    import fracobs.fraccalc as fraccalc
    import fracobs.harness as harness
    import fracobs.observers as observers
    import fracobs.plants as plants

    missing: list[str] = []

    def hook(owner, attr: str, make, everywhere: bool = True) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        elif everywhere:
            patches.everywhere(original, make(original))
        else:
            patches.set(owner, attr, make(original))

    hook(fraccalc, "gl_weights", lambda f: _spanned(tracer, "fraccalc.gl_weights", f))
    hook(fde, "integrate", lambda f: _integrate_wrapper(tracer, f))
    hook(plants, "assemble_field", lambda f: _assemble_wrapper(tracer, f))
    hook(plants, "fault_value", lambda f: _aggregated(tracer, "plants.fault_value", f))
    stream = getattr(plants, "_NoiseStream", None)
    if stream is None:
        missing.append("fracobs.plants._NoiseStream")
    else:
        hook(stream, "sample", lambda f: _noise_sample_wrapper(tracer, f), everywhere=False)
    dynamics = getattr(observers, "ObserverDynamics", None)
    if dynamics is None:
        missing.append("fracobs.observers.ObserverDynamics")
    else:
        hook(dynamics, "rhs_flat", lambda f: _aggregated(tracer, "observers.rhs", f),
             everywhere=False)
    for attr, value in list(vars(harness).items()):
        if inspect.isfunction(value) and value.__module__ == "fracobs.metrics":
            patches.set(harness, attr, _aggregated(tracer, "metrics", value))
    hook(cli, "write_trace_csv", lambda f: _spanned(tracer, "cli.write_trace_csv", f),
         everywhere=False)
    for attr in ("run_experiment", "compare_observers"):
        hook(cli, attr, lambda f, a=attr: _entry_wrapper(tracer, f"harness.{a}", f, captured),
             everywhere=False)
    return missing


_GATE_LABEL = re.compile(r"E\d+")


def gate_stats(results: list) -> dict:
    """Stage usage of the observers, read from the returned traces' gate columns.

    Step k evaluates the observer at state row k-1, where stage 1 always
    runs and stage i+1 runs only while gate E_i is open; so over rows
    0..n-1 a stage evaluation is attempted (1 + gates) times per row and
    useful (1 + open gates) times.
    """
    attempted = useful = toggles = 0
    for result in results:
        if isinstance(result, tuple):
            traces = result
        else:
            traces = [getattr(result, a) for a in ("trace_a", "trace_b") if hasattr(result, a)]
        for tr in traces:
            labels = getattr(tr, "labels", None)
            if labels is None:
                continue
            cols = [i for i, lab in enumerate(labels) if _GATE_LABEL.fullmatch(lab)]
            gates = np.asarray(tr.values)[:, cols]
            rows = gates[:-1]
            attempted += rows.shape[0] * (len(cols) + 1)
            useful += rows.shape[0] + int(np.count_nonzero(rows))
            toggles += int(np.count_nonzero(np.diff(gates, axis=0)))
    return {
        "observers.stage_enabled_fraction": useful / attempted if attempted else 0.0,
        "observers.gate_toggles": toggles,
    }


def op_layers(spans: list[dict], wall: float) -> dict:
    """Per-layer metrics of one traced op from its spans.

    Self times partition the op's wall time: fde.self + gl_weights inside
    the march + callbacks = integrate; plant + observer + glue = callbacks;
    integrate + metrics + harness.self (+ gl_weights called directly) =
    harness; and wall - harness - CSV writes is the unattributed rest
    (the CLI's own code and the benchmark's loop).
    """
    def dur(sp):
        return sp["end"] - sp["start"]

    by_id = {sp["id"]: sp for sp in spans}
    by_name: dict[str, list] = defaultdict(list)
    agg: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sp in spans:
        by_name[sp["name"]].append(sp)
        for name, (count, seconds) in sp["agg"].items():
            agg[name][0] += count
            agg[name][1] += seconds

    def parent_name(sp):
        parent = by_id.get(sp["parent"])
        return parent["name"] if parent else None

    marches = by_name["fde.integrate"]
    weights = by_name["fraccalc.gl_weights"]
    harness_spans = [sp for sp in spans if sp["name"].startswith("harness.")]
    integrate_s = sum(dur(sp) for sp in marches)
    weights_s = sum(dur(sp) for sp in weights)
    weights_in_march = sum(dur(sp) for sp in weights if parent_name(sp) == "fde.integrate")
    harness_s = sum(dur(sp) for sp in harness_spans)
    write_s = sum(dur(sp) for sp in by_name["cli.write_trace_csv"])
    callback_s = agg["fde.callback"][1]
    plant_calls, plant_s = agg["plants.eval"]
    rhs_calls, rhs_s = agg["observers.rhs"]
    metric_calls, metric_s = agg["metrics"]

    def total(key):
        return sum(sp["attrs"].get(key, 0) for sp in marches)

    steps = total("steps")
    fde_self = integrate_s - weights_in_march - callback_s
    return {
        "fraccalc.gl_weights_calls": len(weights),
        "fraccalc.gl_weights_s": weights_s,
        "fde.integrate_calls": len(marches),
        "fde.steps": steps,
        "fde.self_s": fde_self,
        "fde.self_us_per_step": fde_self / steps * 1e6 if steps else 0.0,
        "fde.history_terms": total("history_terms"),
        "fde.history_bytes": total("history_bytes"),
        "fde.state_bytes": total("state_bytes"),
        "plants.eval_calls": plant_calls,
        "plants.eval_s": plant_s,
        "plants.fault_value_calls": agg["plants.fault_value"][0],
        "plants.noise_draws": agg["plants.noise_draw"][0],
        "observers.rhs_calls": rhs_calls,
        "observers.rhs_us_per_call": rhs_s / rhs_calls * 1e6 if rhs_calls else 0.0,
        "observers.rhs_s": rhs_s,
        "harness.integrations_per_op": sum(
            1 for sp in marches if (parent_name(sp) or "").startswith("harness.")
        ),
        "harness.glue_s": callback_s - plant_s - rhs_s,
        "harness.self_s": harness_s - integrate_s - metric_s - (weights_s - weights_in_march),
        "metrics.calls": metric_calls,
        "metrics.s": metric_s,
        "cli.write_s": write_s,
        "trace.unattributed_s": wall - harness_s - write_s,
    }


def medians(rows: list[dict]) -> dict:
    """Key-wise median over the traced ops."""
    return {key: median(row[key] for row in rows) for key in rows[0]} if rows else {}
