"""Output checks for one CLI invocation of a workload op.

Every check returns a list of problems; an op with any problem counts as
failed. The expected CSV header is written out here rather than taken from
``fracobs.cli`` so that a change to the program's schema shows.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CSV_HEADER = (
    "t,x1,x2,x3,xhat1,xhat2,xhat3,xtilde2,xtilde3,e1,e2,e3,"
    "f_true,f_tilde,f_hat,e_f,theta_tilde,E1,E2,E3"
).split(",")

# Columns a variant does not produce stay empty in the fixed schema.
EMPTY_COLUMNS = {"proposed": set(), "baseline": {"f_tilde", "e_f", "E3"}}

QUALITY_KEYS = {
    "fault_settle_s": "fault_from_t",
    "fault_rmse": "fault_rmse_post_settle",
    "chattering_index": "chattering_index",
}

# Quality figures of the bundled-seed members may drift from the values
# recorded in reference.json by this share before the op fails; roundoff
# from a reordered sum stays far inside it, a change of scheme does not.
REFERENCE_RTOL = 0.02


def config_hash(raw: dict) -> str:
    """sha256 of the canonical JSON of the parsed config, as the manifest states it."""
    from fracobs import ExperimentConfig

    canon = json.dumps(ExperimentConfig.from_dict(raw).to_dict(),
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_csv(path: Path, variant: str, rows: int) -> list[str]:
    """Fixed header, one row per output sample, the variant's columns
    filled and finite (no NaN or inf, so the run did not diverge)."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    if header != CSV_HEADER:
        return [f"{path.name}: header {header} is not the fixed schema"]
    lines = body.splitlines()
    problems = []
    if len(lines) != rows:
        problems.append(f"{path.name}: {len(lines)} rows, expected {rows}")
    empty = EMPTY_COLUMNS[variant]
    pattern = [name in empty for name in CSV_HEADER]
    for k in (0, len(lines) - 1):
        fields = lines[k].split(",") if lines else []
        if [f == "" for f in fields] != pattern:
            problems.append(f"{path.name}: row {k} does not fill exactly the {variant} columns")
    if body.count(",") != len(lines) * (len(CSV_HEADER) - 1):
        problems.append(f"{path.name}: rows with the wrong number of fields")
    if problems:
        return problems
    filled = [i for i, p in enumerate(pattern) if not p]
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=filled, ndmin=2)
    if not np.all(np.isfinite(values)):
        problems.append(f"{path.name}: non-finite values")
    return problems


def check_manifest(path: Path, raw: dict, outputs: list[str], expected_hash: str) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    man = json.loads(path.read_text())
    problems = []
    want = {
        "name": raw["name"],
        "seed": raw["seed"],
        "diverged": False,
        "outputs": outputs,
        "config_hash": expected_hash,
    }
    for key, value in want.items():
        if man.get(key) != value:
            problems.append(f"{path.name}: {key} is {man.get(key)!r}, expected {value!r}")
    if not isinstance(man.get("duration_s"), (int, float)):
        problems.append(f"{path.name}: no duration_s")
    return problems


def _number(text: str):
    return None if text in ("never", "n/a") else float(text)


def read_quality(path: Path, variants: list[str]) -> dict:
    """Fault-estimate figures per variant from ``*_metrics.txt`` (one
    variant, ``key = value`` lines) or ``*_comparison.txt`` (a table with
    one column per variant)."""
    wanted = set(QUALITY_KEYS.values())
    found: dict[str, dict] = {v: {} for v in variants}
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(variants) == 1 and len(parts) == 3 and parts[1] == "=" and parts[0] in wanted:
            found[variants[0]][parts[0]] = _number(parts[2])
        elif len(parts) == 1 + len(variants) and parts[0] in wanted:
            for variant, text in zip(variants, parts[1:]):
                found[variant][parts[0]] = _number(text)
    return {
        v: {metric: found[v].get(key) for metric, key in QUALITY_KEYS.items()}
        for v in variants
    }


def check_quality(quality: dict, require_settle: bool) -> list[str]:
    problems = []
    for variant, figures in quality.items():
        missing = [k for k, v in figures.items() if v is None]
        if missing and require_settle:
            problems.append(f"{variant}: fault estimate never settles "
                            f"({', '.join(missing)} absent)")
        bad = [k for k, v in figures.items() if v is not None and not math.isfinite(v)]
        if bad:
            problems.append(f"{variant}: non-finite {', '.join(bad)}")
    return problems


def check_reference(quality: dict, config_hash_value: str, reference: dict) -> list[str]:
    problems = []
    if config_hash_value != reference["config_hash"]:
        problems.append("config hash differs from the recorded reference")
    for variant, figures in reference["quality"].items():
        for metric, ref in figures.items():
            got = quality.get(variant, {}).get(metric)
            if got is None or abs(got - ref) > REFERENCE_RTOL * abs(ref):
                problems.append(f"{variant} {metric} = {got}, recorded {ref}")
    return problems


def digests(out: Path) -> dict:
    """Content digest of every output; the manifest without its wall time."""
    result = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            man = json.loads(data)
            man.pop("duration_s", None)
            data = json.dumps(man, sort_keys=True).encode()
        result[path.name] = hashlib.sha256(data).hexdigest()
    return result
