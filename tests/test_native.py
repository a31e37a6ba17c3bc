"""The compiled leaf (``fracobs.native``) against the Python leaf.

* The four canonical runs write byte-identical arrays on both leaves, and
  where gcc and numpy's bundled OpenBLAS are there the compiled leaf is
  the one that ran, so a silent fallback cannot hide.
* Every refused construct, a missing compiler and a missing dgemv symbol
  give the Python leaf; a cache directory that cannot be written still
  gives a compiled leaf.
* Importing the package and building a run's parts, as perfbench's
  set-up interpreter does, compiles nothing and imports neither the
  native module nor subprocess.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracobs import bundled_config, native
from fracobs.cli import _load_config
from fracobs.fde import SimGrid, VectorField, integrate
from fracobs.harness import compare_observers, run_experiment

ROOT = Path(__file__).resolve().parent.parent

# ROADMAP item 1's canonical runs: (command, config, --set entries, --seed)
CANONICAL = {
    "run-example1": ("run", "example1", [], None),
    "compare-example2": ("compare", "example2", ["grid.t_end=55", "grid.memory=null"], None),
    "run-example1-seed7": ("run", "example1", ["grid.t_end=22", "output_stride=1"], 7),
    "run-example2-latching-baseline": ("run", "example2", ["observer.variant=baseline",
                                                           "observer.latching=true"], None),
}
# the runs whose speed the compiled leaf is for
GUARDED = ("run-example1", "compare-example2", "run-example2-latching-baseline")


def toolchain() -> bool:
    return native._version(native.CC) is not None and native._dgemv(native.DGEMV) is not None


def canonical(name):
    """The traces, the report and the leaf of a canonical run."""
    command, config, sets, seed = CANONICAL[name]
    cfg = _load_config(config, sets, seed)
    if command == "run":
        trace, report = run_experiment(cfg)
        return [trace.values], report.to_text(), trace.leaf
    result = compare_observers(cfg)
    return [result.trace_a.values, result.trace_b.values], result.to_text(), result.trace_a.leaf


def refuse(monkeypatch):
    monkeypatch.setattr(native, "make_leaf", lambda *args: None)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_run_is_byte_identical_on_both_leaves(name, monkeypatch):
    compiled, text, leaf = canonical(name)
    if toolchain() and name in GUARDED:
        assert leaf == "compiled"
    refuse(monkeypatch)
    python, python_text, python_leaf = canonical(name)
    assert python_leaf == "python" and text == python_text
    for a, b in zip(compiled, python):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))  # -0.0 and NaN bits count


GRID = SimGrid(h=0.01, t_end=3.0)  # 300 steps over several leaves
COLUMN = memoryview(np.sin(np.arange(GRID.n_steps + 1) * 0.37))


def run(step, ns):
    """The trace of a two-state field whose first component is ``step``'s p0."""
    field = VectorField.from_statements(2, "native-test", [*step, "p1 = -0.5 * s1 + s0"], ns, GRID.h)
    return integrate(field, 0.9, GRID, [0.25, -0.5])


@pytest.mark.parametrize("step, ns", [
    (["p0 = -s0 / 2.0"], {}),
    (["p0 = -s0 ** 2"], {}),
    (["p0 = -sqrt(s1 * s1)"], {"sqrt": math.sqrt}),
    (["p0 = -exp(s0)"], {"exp": math.exp}),
    (["p0 = -s0 * two"], {"two": 2}),  # an int global
    (["p0 = -2 * s0"], {}),
    (["p0 = -s0 + 0.001 * k"], {}),  # k reads only a column
    (["p0 = -math.copysign(s0, s1)"], {"math": math}),
    (["p0 = -s0 * w[1]"], {"w": [2.0, 0.5]}),  # a latch holds one float
    (["p0 = -s0 * w[0]"], {"w": [2]}),
    (["p0 = -s0 if s0 > 0.0 and s1 > 0.0 else 0.0"], {}),
    (["p0 = -s0 if 0.0 < s0 < 1.0 else 0.0"], {}),
    (["j = 0", "p0 = -s0 * w[j]"], {"w": (2.0,)}),
    (["p0 = -s0 + col[0]"], {"col": COLUMN}),
    (["p0 = -s0 + col[k - 1]"], {"col": COLUMN}),
    (["if s0 > 0.0:", "    g = 1.0", "p0 = g"], {}),  # g unbound when s0 <= 0
], ids=["div", "pow", "bare-sqrt", "unknown-call", "int-global", "int-constant", "k-as-value", "math-call",
        "float-list", "one-int-list", "and", "chained-comparison", "variable-index",
        "constant-column-index", "column-index-not-k", "maybe-unbound"])
def test_refused_step_runs_the_python_leaf(step, ns, monkeypatch):
    trace = run(step, ns)
    assert trace.leaf == "python"
    refuse(monkeypatch)
    assert np.array_equal(trace.values.view(np.int64), run(step, ns).values.view(np.int64))


def test_short_column_raises_as_the_python_leaf_does():
    # one entry short of n + 1: the compiled leaf would read past its end
    with pytest.raises(IndexError):
        run(["p0 = -s0 + col[k]"], {"col": COLUMN[:-1]})


# every form of the language, with a latch cell that carries its peak from leaf to leaf
STEP = (["if s1 > peak[0]:", "    peak[0] = s1", "else:", "    peak[0] = peak[0] - 0.001",
         "p0 = -s0 * w[1] + col[k] if abs(s1) <= 0.3 else copysign(sqrt(abs(s0)), s1) - gain * peak[0]"],
        {"w": (0.5, 1.5), "col": COLUMN, "peak": [-1.0], "gain": 0.5, "abs": abs, "sqrt": math.sqrt,
         "copysign": math.copysign})


@pytest.mark.skipif(not toolchain(), reason="needs gcc and numpy's bundled OpenBLAS")
def test_whitelisted_step_compiles_and_matches(monkeypatch):
    trace = run(*STEP)
    assert trace.leaf == "compiled"
    refuse(monkeypatch)
    assert np.array_equal(trace.values.view(np.int64), run(*STEP).values.view(np.int64))


@pytest.mark.parametrize("patch", ["CC", "DGEMV"])
def test_missing_compiler_or_dgemv_runs_the_python_leaf(patch, tmp_path, monkeypatch):
    reference = run(*STEP).values
    monkeypatch.setattr(native, patch, str(tmp_path / "missing") if patch == "CC" else "no_such_dgemv64_")
    trace = run(*STEP)
    assert trace.leaf == "python"
    assert np.array_equal(trace.values.view(np.int64), reference.view(np.int64))


@pytest.fixture
def fresh_build():
    """No shared object loaded yet in this process, before and after."""
    native._build.cache_clear()
    yield
    native._build.cache_clear()


@pytest.mark.skipif(not toolchain(), reason="needs gcc and numpy's bundled OpenBLAS")
@pytest.mark.usefixtures("fresh_build")
def test_unwritable_cache_builds_in_a_private_directory(tmp_path, monkeypatch):
    reference = run(*STEP).values
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # no directory can be made under a file
    native._build.cache_clear()
    trace = run(*STEP)
    assert trace.leaf == "compiled"
    assert np.array_equal(trace.values.view(np.int64), reference.view(np.int64))
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]


@pytest.mark.skipif(not toolchain(), reason="needs gcc and numpy's bundled OpenBLAS")
@pytest.mark.usefixtures("fresh_build")
def test_cache_holds_one_object_per_source(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    run(*STEP)
    native._build.cache_clear()
    run(*STEP)  # read back, not compiled again
    cache = tmp_path / "fracobs"
    assert [p.suffix for p in cache.iterdir()] == [".so"]
    assert cache.stat().st_mode & 0o777 == 0o700


@pytest.mark.skipif(not toolchain(), reason="needs gcc and numpy's bundled OpenBLAS")
@pytest.mark.usefixtures("fresh_build")
def test_cache_keeps_the_most_recently_used_objects(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    run(*STEP)
    cache = tmp_path / "fracobs"
    (used,) = cache.iterdir()
    os.utime(used, (1, 1))  # older than every dummy, until it is loaded again
    for i in range(native.CACHED):
        (cache / f"leaf-dummy{i:03}.so").write_bytes(b"")
        os.utime(cache / f"leaf-dummy{i:03}.so", (2 + i, 2 + i))
    native._build.cache_clear()
    run(*STEP)  # read back: marked used, and nothing published or pruned
    assert used.stat().st_mtime > 2 + native.CACHED
    native._build.cache_clear()
    run(["p0 = -s0"], {})  # a new object: the two least recently used go
    names = {p.name for p in cache.iterdir()}
    assert len(names) == native.CACHED and used.name in names
    assert not {"leaf-dummy000.so", "leaf-dummy001.so"} & names and "leaf-dummy002.so" in names


def test_set_up_compiles_and_imports_nothing(tmp_path):
    # perfbench's set-up interpreter times these steps as setup_s
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    setup = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SETUP_CODE"])
    check = "print(json.dumps(sorted({'subprocess', 'fracobs.native'} & set(sys.modules))))\n"
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", setup + check, json.dumps(bundled_config("example1"))],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == []
    assert not (tmp_path / "cache").exists()
