"""fracobs benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Ops run back to back in this process (each starts when the previous one
ends) for at least ``--seconds`` and at least two ops, so every run has a
seeded rerun to compare byte for byte. BLAS threads are left as found and
recorded. The last line of stdout is the result object; the lines before
it give the run metadata, each op and every metric with its unit.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "wall_s": "s",
    "state_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fault_settle_s": "sim_s",
    "fault_rmse": "1",
    "chattering_index": "1/sim_s",
    "ok_ratio": "ratio",
}

SETUP_RUNS = {"full": 3, "tiny": 1}

# A fresh interpreter imports the package and parses and builds the
# workload's config; it prints its own elapsed time, which leaves out the
# interpreter's start-up.
SETUP_CODE = """\
import json, sys, time
raw = json.loads(sys.argv[1])
t0 = time.perf_counter()
import fracobs, fracobs.cli
cfg = fracobs.ExperimentConfig.from_dict(raw)
cfg.build_grid()
plant = cfg.build_plant()
cfg.build_gains(cfg.observer_variant, plant.n)
fracobs.assemble_field(plant, cfg.fault, cfg.build_noise())
print(time.perf_counter() - t0)
"""


@dataclass
class OpResult:
    traced: bool
    wall: float
    problems: list[str] = field(default_factory=list)
    quality: dict | None = None
    layers: dict | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(raw: dict, runs: int, trace: bool) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``runs`` fresh interpreters, and with ``trace`` the
    cumulative import time of fracobs.fraccalc from ``-X importtime``."""
    setup, imports = [], []
    flags = ["-X", "importtime"] if trace else []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", SETUP_CODE, json.dumps(raw)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
        setup.append(float(proc.stdout.split()[-1]))
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "fracobs.fraccalc":
                imports.append(int(parts[1]) / 1e6)
    return setup, imports


def null_field_seconds(dim: int, raw: dict, memory) -> float:
    """One GL march with phi == 0, so all of its time is the history sum."""
    import numpy as np

    from fracobs import ExperimentConfig, SimGrid, VectorField, integrate

    cfg = ExperimentConfig.from_dict(raw)
    zero = np.zeros(dim)
    fld = VectorField(dim=dim, eval=lambda t, x: zero)
    grid = SimGrid(h=cfg.h, t_end=cfg.t_end, memory_len=memory)
    t0 = time.perf_counter()
    integrate(fld, cfg.build_plant().alpha, grid, np.ones(dim))
    return time.perf_counter() - t0


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    # numpy's wheels bundle OpenBLAS next to the package; ask it directly.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    if info["threads"] is None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if os.environ.get(var):
                info["threads"] = os.environ[var]
                break
    return info


def run_metadata(args, workload) -> dict:
    import hashlib

    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "fracobs").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "member_seeds": [m.raw["seed"] for m in workload.members],
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "load": "closed loop, 1 client, in-process",
    }


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.workload = WORKLOADS[args.workload](args.seed, args.size, work)
        self.references = json.loads((HERE / "reference.json").read_text())["workloads"]
        self.hashes = [checks.config_hash(m.raw) for m in self.workload.members]
        self.first_digests: dict[int, dict] = {}
        self.tracer = tracing.Tracer()
        self.missing_hooks: set[str] = set()

    def run_op(self, index: int, traced: bool) -> OpResult:
        """One CLI invocation; members of the workload take turns."""
        from fracobs import cli

        j = index % len(self.workload.members)
        member = self.workload.members[j]
        out = self.work / f"op{index}"
        out.mkdir()
        captured: list = []
        patches = tracing.Patches()
        code, problems = None, []
        gc.collect()
        if traced:
            self.missing_hooks.update(tracing.install(self.tracer, patches, captured))
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(self.tracer.span("op", op=index))
                stack.enter_context(contextlib.redirect_stdout(sink))
                stack.enter_context(contextlib.redirect_stderr(sink))
                code = cli.main(member.argv + ["--out", str(out)])
        except Exception:
            problems.append("op raised:\n" + traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            patches.undo()
        result = OpResult(traced, wall, problems)
        if not problems:
            self.check_op(result, j, code, out)
        if traced:
            spans = [sp for sp in self.tracer.spans if sp["op"] == index]
            layers = tracing.op_layers(spans, wall)
            layers.update(tracing.gate_stats(captured))
            layers.update(self.output_volume(out))
            result.layers = layers
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check_op(self, result: OpResult, j: int, code: int, out: Path) -> None:
        member = self.workload.members[j]
        p = result.problems
        if code != 0:
            p.append(f"exit code {code}")
        files = member.outputs()
        rows = member.n_steps // member.raw.get("output_stride", 10) + 1
        for name, variant in files.items():
            if variant:
                p += checks.check_csv(out / name, variant, rows)
        p += checks.check_manifest(out / f"{member.raw['name']}_manifest.json", member.raw,
                                   list(files), self.hashes[j])
        report = out / member.report
        if not report.is_file():
            p.append(f"{report.name}: missing")
            return
        quality = checks.read_quality(report, member.variants)
        p += checks.check_quality(quality, member.require_settle)
        if member.reference:
            p += checks.check_reference(quality, self.hashes[j], self.references[member.reference])
        result.quality = quality[member.variants[0]]
        digests = checks.digests(out)
        first = self.first_digests.setdefault(j, digests)
        if digests != first:
            p.append("seeded rerun is not byte-identical to the first run of this input")

    @staticmethod
    def output_volume(out: Path) -> dict:
        rows = size = 0
        for path in out.iterdir():
            size += path.stat().st_size
            if path.suffix == ".csv":
                with open(path, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
        return {"cli.rows_written": rows, "cli.bytes_written": size}

    def loop(self) -> list[OpResult]:
        """Closed loop for at least ``--seconds``, and until every input has
        run twice or, for the sweep, the bundled seed has run again. Traced
        runs alternate untraced and traced ops, starting untraced."""
        results = []
        least = max(2, len(self.workload.members) + 1)
        t0 = time.perf_counter()
        while len(results) < least or time.perf_counter() - t0 < self.args.seconds:
            i = len(results)
            res = self.run_op(i, traced=bool(self.args.trace) and i % 2 == 1)
            state = "ok" if not res.problems else "FAILED: " + "; ".join(res.problems)
            print(f"# op {i} {'traced' if res.traced else 'untraced'} "
                  f"wall {res.wall:.4f} s quality {res.quality} {state}", flush=True)
            results.append(res)
        return results


def end_to_end(bench: Bench, results: list[OpResult], setup: list[float]) -> dict:
    wall = median(r.wall for r in results)
    quality = results[0].quality or {}
    failed = sum(1 for r in results if r.problems)
    return {
        "wall_s": wall,
        "state_steps_per_s": bench.workload.state_steps / wall,
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fault_settle_s": quality.get("fault_settle_s") or 0.0,
        "fault_rmse": quality.get("fault_rmse") or 0.0,
        "chattering_index": quality.get("chattering_index") or 0.0,
        "ok_ratio": 1.0 - failed / len(results),
    }


def per_layer(bench: Bench, results: list[OpResult], imports: list[float]) -> dict:
    from fracobs import harness

    traced = [r for r in results if r.traced]
    plain = [r for r in results if not r.traced]
    layers = tracing.medians([r.layers for r in traced])
    wl = bench.workload
    first = wl.members[0]
    window = min(getattr(harness, "SHORT_MEMORY_DEFAULT", 5000), first.n_steps)
    layers["fraccalc.import_s"] = median(imports) if imports else 0.0
    layers["fde.null_full_s"] = null_field_seconds(wl.dim, first.raw, "full")
    layers["fde.null_window_s"] = null_field_seconds(wl.dim, first.raw, window)
    layers["trace.overhead_s"] = (median(r.wall for r in traced)
                                  - median(r.wall for r in plain))
    return {name: layers[name] for name in tracing.LAYER_UNITS}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shortens every horizon, for the smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracobs" / "__init__.py").is_file():
        print(f"perfbench: no fracobs sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracobs

    if Path(fracobs.__file__).resolve().parent != SRC / "fracobs":
        print(f"perfbench: imported fracobs from {fracobs.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work)
        meta = run_metadata(args, bench.workload)
        print("# meta " + json.dumps(meta, sort_keys=True), flush=True)
        setup, imports = measure_setup(bench.workload.members[0].raw, SETUP_RUNS[args.size],
                                       bool(args.trace))
        results = bench.loop()
        if args.trace:
            metrics, units = per_layer(bench, results, imports), tracing.LAYER_UNITS
        else:
            metrics, units = end_to_end(bench, results, setup), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if args.trace:
        if bench.missing_hooks:
            print(f"# hooks not found: {sorted(bench.missing_hooks)}")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, "spans": bench.tracer.spans}) + "\n")
        print(f"# spans written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6g} {units[name]}")
    failed = sum(1 for r in results if r.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
