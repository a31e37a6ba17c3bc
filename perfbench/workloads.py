"""The benchmark's workloads: the CLI invocations their ops take turns at.

Every op is one ``fracobs.cli.main`` call, in-process, writing into a
fresh directory. Inputs are the bundled configs: ``run-full-memory`` and
``compare-windowed`` run them as bundled (their inputs do not depend on
the seed), and ``seed-sweep`` cycles through the bundled seed and noise
seeds derived from the benchmark's ``--seed``.

The first member always has the bundled seed. Its fault-estimate figures
are the workload's quality metrics and are checked against the values
recorded in reference.json. The noise realisation decides when, and
whether, the example1 fault estimate settles: over 55 random seeds at a
40 s horizon it settled at 0 to 33 s, and 2 never settled. So derived
sweep members are checked for everything except settling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Horizons (s) and sweep sizes by --size. Tiny keeps every bundled-seed
# member long enough for its fault estimate to settle (example1 at 14.6 s,
# example2 baseline at 11.3 s, each plus the 5 s dwell).
RUN_T_END = {"full": None, "tiny": 20.0}
COMPARE_T_END = {"full": 55.0, "tiny": 18.0}
SWEEP_T_END = {"full": 22.0, "tiny": 20.0}
SWEEP_MEMBERS = {"full": 3, "tiny": 2}

# State dimensions of the co-simulated blocks (plant n = 3): the proposed
# observer carries 2n+2 states, the baseline 2n.
PLANT_DIM, PROPOSED_DIM, BASELINE_DIM = 3, 8, 6


@dataclass
class Member:
    """One input of the workload: the ``fracobs.cli.main`` call an op makes."""

    argv: list[str]
    raw: dict  # the config the CLI should end up with
    command: str  # "run" or "compare"
    reference: str | None = None  # key into reference.json, bundled seed only
    require_settle: bool = True

    @property
    def variants(self) -> list[str]:
        if self.command == "compare":
            return ["proposed", "baseline"]
        return [self.raw["observer"]["variant"]]

    @property
    def n_steps(self) -> int:
        return int(round(self.raw["grid"]["t_end"] / self.raw["grid"]["h"]))

    @property
    def report(self) -> str:
        kind = "comparison" if self.command == "compare" else "metrics"
        return f"{self.raw['name']}_{kind}.txt"

    def outputs(self) -> dict[str, str | None]:
        """Output files as the manifest lists them: CSV name -> variant,
        then the report (None)."""
        name = self.raw["name"]
        if self.command == "compare":
            csvs = {f"{name}_{v}_trace.csv": v for v in self.variants}
        else:
            csvs = {f"{name}_trace.csv": self.variants[0]}
        return {**csvs, self.report: None}


@dataclass
class Workload:
    members: list[Member]  # ops take turns; the first has the bundled seed
    dim: int  # summed state dim of the integrations of one op

    @property
    def state_steps(self) -> int:
        """Sum of steps x state dim over the integrations of one op."""
        return self.members[0].n_steps * self.dim


def _bundled(name: str) -> dict:
    from fracobs import bundled_config

    return bundled_config(name)


def run_full_memory(seed: int, size: str, work: Path) -> Workload:
    """``run example1`` as bundled: Arneodo plant with noise and the
    proposed observer, dim 11, full GL memory over 50k steps."""
    raw = _bundled("example1")
    argv = ["run", "example1"]
    if RUN_T_END[size] is not None:
        raw["grid"]["t_end"] = RUN_T_END[size]
        argv += ["--set", f"grid.t_end={RUN_T_END[size]}"]
    member = Member(argv, raw, "run", reference="run-full-memory" if size == "full" else None)
    return Workload([member], PLANT_DIM + PROPOSED_DIM)


def compare_windowed(seed: int, size: str, work: Path) -> Workload:
    """``compare example2`` past the 50 s short-memory horizon with the
    memory key removed, so the harness's default window applies."""
    raw = _bundled("example2")
    del raw["grid"]["memory"]
    raw["grid"]["t_end"] = COMPARE_T_END[size]
    path = work / "example2-windowed.json"
    path.write_text(json.dumps(raw, indent=2))
    member = Member(["compare", str(path)], raw, "compare",
                    reference="compare-windowed" if size == "full" else None)
    return Workload([member], PLANT_DIM + PROPOSED_DIM + BASELINE_DIM)


def seed_sweep(seed: int, size: str, work: Path) -> Workload:
    """``run example1`` at a shorter horizon with ``output_stride`` 1, for
    the bundled seed and noise seeds derived from ``seed``."""
    t_end = SWEEP_T_END[size]
    derived = np.random.SeedSequence(seed).generate_state(SWEEP_MEMBERS[size] - 1)
    members = []
    for s in [0] + [int(v) for v in derived]:
        raw = _bundled("example1")
        raw["grid"]["t_end"] = t_end
        raw["output_stride"] = 1
        raw["seed"] = s
        argv = ["run", "example1", "--seed", str(s),
                "--set", f"grid.t_end={t_end}", "--set", "output_stride=1"]
        bundled = s == 0
        members.append(Member(argv, raw, "run",
                              reference="seed-sweep" if bundled and size == "full" else None,
                              require_settle=bundled))
    return Workload(members, PLANT_DIM + PROPOSED_DIM)


WORKLOADS = {
    "run-full-memory": run_full_memory,
    "compare-windowed": compare_windowed,
    "seed-sweep": seed_sweep,
}
