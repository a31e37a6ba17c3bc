"""Command-line front end.

Subcommands:
  run <config>          simulate one plant/observer pair, write CSV + metrics
  compare <config>      run both observer variants on one plant trace
  validate              numerics self-checks against closed-form oracles
  dump-config <preset>  print a bundled config as JSON

Exit codes: 0 ok, 1 validation failure, 2 config error, 3 diverged run,
4 the outputs could not be written.
The default output directory comes from $FRACOBS_OUT, else the cwd.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .configs import BUNDLED_CONFIGS, ExperimentConfig, bundled_config, config_hash
from .errors import ConfigError
from .fde import Trace
from .harness import compare_observers, run_experiment, trace_columns

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_OUTPUT = 4


def _load_config(source: str, overrides: list[str], seed: Optional[int]) -> ExperimentConfig:
    """Resolve a config path or bundled name, apply --set/--seed overrides."""
    path = Path(source)
    if path.is_file():
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(str(source), f"not valid JSON ({exc})") from None
    else:
        try:
            raw = bundled_config(source)
        except KeyError:
            raise ConfigError(
                str(source),
                f"no such file, and not a bundled config "
                f"(bundled: {sorted(BUNDLED_CONFIGS)})",
            ) from None
    if not isinstance(raw, dict):  # before the overrides index into it
        raise ConfigError(str(source), f"config root must be an object, got {type(raw).__name__}")
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        _apply_override(raw, key.strip(), value.strip())
    if seed is not None:
        raw["seed"] = seed
    return ExperimentConfig.from_dict(raw)


def _apply_override(raw: dict, dotted: str, value: str) -> None:
    node = raw
    parts = dotted.split(".")
    for p in parts[:-1]:
        if node.get(p) is None:  # an absent or null section is an empty one
            node[p] = {}
        node = node[p]
        if not isinstance(node, dict):
            raise ConfigError(dotted, f"{p!r} is not a section")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value  # bare strings like memory=full
    node[parts[-1]] = parsed


# ---------------------------------------------------------------------------
# serialization

# rows formatted per write, so the writer's memory does not grow with the trace
_CSV_CHUNK = 1024


def write_trace_csv(path: Path, trace: Trace, n: int, stride: int) -> None:
    """Fixed-schema CSV; columns absent from the trace stay empty.

    Every row is one row template: %r (repr, which round-trips) for each
    column the trace has, nothing for the others. A chunk of rows is one
    %-format of the template repeated, over the chunk's floats.
    """
    schema = trace_columns(n)
    cols = [trace.labels.index(name) for name in schema if name in trace.labels]
    template = ",".join("%r" if name == "t" or name in trace.labels else "" for name in schema) + "\n"
    times = trace.times()[::stride]
    values = trace.values[::stride]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(schema) + "\n")
        for k in range(0, times.size, _CSV_CHUNK):
            chunk = np.column_stack((times[k:k + _CSV_CHUNK], values[k:k + _CSV_CHUNK, cols]))
            fh.write(template * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_outputs(out_arg: Optional[str], cfg: ExperimentConfig, duration: float,
                   traces: dict[str, Trace], report: tuple[str, str],
                   diverged_at: Optional[float]) -> int:
    """Write a finished run into the output directory and print its paths.

    The directory is created here, after the run, so a config error raised
    while the run is built leaves nothing behind. A directory or file that
    cannot be written (a path under a regular file, no permission, a full
    disk) is reported, not raised. ``traces`` maps CSV file names to
    traces; ``report`` is (file name, text). Returns the exit code.
    """
    out = Path(out_arg or os.environ.get("FRACOBS_OUT", "."))
    n = cfg.build_plant().n
    paths = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, trace in traces.items():
            paths.append(out / name)
            write_trace_csv(paths[-1], trace, n, cfg.output_stride)
        paths.append(out / report[0])
        paths[-1].write_text(report[1] + "\n")
        manifest = {
            "name": cfg.name,
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "version": __version__,
            "duration_s": round(duration, 3),
            "diverged": diverged_at is not None,
            "leaf": next(iter(traces.values())).leaf,
            "outputs": [p.name for p in paths],
        }
        paths.append(out / f"{cfg.name}_manifest.json")
        paths[-1].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT

    for p in paths:
        print(p)
    if diverged_at is not None:
        print(f"run diverged at t = {diverged_at}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.set or [], args.seed)
    t0 = time.perf_counter()
    trace, report = run_experiment(cfg)
    duration = time.perf_counter() - t0
    return _write_outputs(args.out, cfg, duration, {f"{cfg.name}_trace.csv": trace},
                          (f"{cfg.name}_metrics.txt", report.to_text()), trace.diverged_at)


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.set or [], args.seed)
    if cfg.observer_init is not None:
        raise ConfigError(
            "observer.init",
            "compare runs the proposed and the baseline observer, whose states "
            "differ in length, so one flat init list cannot start both",
        )
    t0 = time.perf_counter()
    result = compare_observers(cfg)
    duration = time.perf_counter() - t0
    text = result.to_text()
    print(text)
    traces = {f"{cfg.name}_{result.variant_a}_trace.csv": result.trace_a,
              f"{cfg.name}_{result.variant_b}_trace.csv": result.trace_b}
    return _write_outputs(args.out, cfg, duration, traces,
                          (f"{cfg.name}_comparison.txt", text), result.diverged_at)


def cmd_validate(args: argparse.Namespace) -> int:
    from . import selfcheck

    return selfcheck.main()


def cmd_dump_config(args: argparse.Namespace) -> int:
    try:
        raw = bundled_config(args.preset)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(raw, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracobs",
        description="fractional-order sliding-mode observer simulations",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="config file path or bundled name")
        p.add_argument("--out", help="output directory (default $FRACOBS_OUT or cwd)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. grid.t_end=10")

    p_run = sub.add_parser("run", help="simulate one configuration")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="proposed vs baseline on one plant trace")
    add_common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_val = sub.add_parser("validate", help="run the numerics self-checks")
    p_val.set_defaults(fn=cmd_validate)

    p_dump = sub.add_parser("dump-config", help="print a bundled config as JSON")
    p_dump.add_argument("preset", help=f"one of {sorted(BUNDLED_CONFIGS)}")
    p_dump.set_defaults(fn=cmd_dump_config)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
