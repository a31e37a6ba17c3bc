"""The compiled objects (``fracobs.native``) against their Python forms.

* The four canonical runs write byte-identical arrays and trace CSVs on
  both leaves and both writers, and where gcc and numpy's bundled OpenBLAS
  are there the compiled leaf is the one that ran, so a silent fallback
  cannot hide; where gcc compiles C++17's floating-point ``to_chars``, so
  is the compiled writer.
* The compiled writer prints ``repr``'s bytes at every switch of its
  layout, and for any bit pattern and any float hypothesis draws.
* Every refused construct, a missing compiler and a missing dgemv symbol
  give the Python leaf; a missing compiler and a failed C++ compile give
  the Python writer and the same bytes; a cache directory that cannot be
  written still gives a compiled leaf.
* Importing the package and building a run's parts, as perfbench's
  set-up interpreter does, compiles nothing and imports neither the
  native module nor subprocess.
"""

import ast
import functools
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracobs import bundled_config, native
from fracobs.cli import _load_config, write_trace_csv
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


@functools.cache
def cxx() -> bool:
    """Whether gcc compiles C++17 with floating-point ``std::to_chars`` (GCC 11 on)."""
    probe = "#include <charconv>\nchar b[32];\nauto r = std::to_chars(b, b + 32, 0.5, std::chars_format::scientific);\n"
    try:
        subprocess.run([native.CC, "-x", "c++", "-std=c++17", "-fsyntax-only", "-"], input=probe,
                       capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def canonical(name, tmp_path):
    """The traces, the report, the leaf and the trace CSVs' bytes of a canonical run."""
    command, config, sets, seed = CANONICAL[name]
    cfg = _load_config(config, sets, seed)
    if command == "run":
        trace, report = run_experiment(cfg)
        traces = [trace]
    else:
        report = compare_observers(cfg)
        traces = [report.trace_a, report.trace_b]
    csv = []
    for trace in traces:
        write_trace_csv(tmp_path / "trace.csv", trace, cfg.build_plant().n, cfg.output_stride)
        csv.append((tmp_path / "trace.csv").read_bytes())
    return [trace.values for trace in traces], report.to_text(), traces[0].leaf, csv


def refuse(monkeypatch):
    monkeypatch.setattr(native, "make_leaf", lambda *args: None)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_run_is_byte_identical_on_both_leaves(name, tmp_path, monkeypatch):
    writers = []
    make_writer = native.make_writer
    monkeypatch.setattr(native, "make_writer", lambda *args: writers.append(make_writer(*args)) or writers[-1])
    compiled, text, leaf, csv = canonical(name, tmp_path)
    if toolchain() and name in GUARDED:
        assert leaf == "compiled"
    assert writers and all(w is not None for w in writers) == cxx()
    refuse(monkeypatch)
    monkeypatch.setattr(native, "make_writer", lambda *args: None)
    python, python_text, python_leaf, python_csv = canonical(name, tmp_path)
    assert python_leaf == "python" and text == python_text and csv == python_csv
    for a, b in zip(compiled, python):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))  # -0.0 and NaN bits count


def written(values) -> list:
    """The compiled writer's text of ``values``, one cell a row."""
    writer = native.make_writer("%r\n", len(values))
    assert writer is not None  # gcc compiles C++17, so a fallback would hide here
    return bytes(writer(np.array(values, dtype=float).reshape(-1, 1))).decode().splitlines()


def layout_switches() -> list:
    """Every power of two and of ten near the double range, with both
    neighbours; the fixed/exponent switches; signed zeros, infinities and a
    NaN with its sign bit set."""
    values = [9999999999999998.0, 1e16, 1e-4, 1e-5, 0.0, math.inf]
    for x in [math.ldexp(1.0, e) for e in range(-1074, 1024)] + [float(f"1e{d}") for d in range(-20, 25)]:
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    negative_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0000))[0]
    assert math.isnan(negative_nan) and math.copysign(1.0, negative_nan) < 0
    return values + [-x for x in values] + [negative_nan]


needs_cxx = pytest.mark.skipif(not cxx(), reason="needs gcc with C++17 floating-point to_chars")


@needs_cxx
def test_writer_prints_repr_at_every_layout_switch():
    values = layout_switches()
    assert written(values) == [repr(x) for x in values]
    assert written([values[-1]]) == ["nan"]


@needs_cxx
@given(st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=64))
def test_writer_prints_repr_of_any_bit_pattern(patterns):
    values = [struct.unpack("<d", pattern)[0] for pattern in patterns]
    assert written(values) == [repr(x) for x in values]


@needs_cxx
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_writer_prints_repr_of_any_float(values):
    assert written(values) == [repr(x) for x in values]


@pytest.mark.parametrize("fault", ["no-compiler", "no-float-to_chars"])
def test_failed_writer_build_writes_the_same_bytes(fault, tmp_path, monkeypatch):
    cfg = _load_config("example2", ["grid.t_end=2", "output_stride=1"], None)
    trace, _ = run_experiment(cfg)
    write_trace_csv(tmp_path / "a.csv", trace, cfg.build_plant().n, 1)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if fault == "no-compiler":
        monkeypatch.setattr(native, "CC", str(tmp_path / "missing"))
    else:  # as a libstdc++ before GCC 11, whose to_chars takes integers only
        monkeypatch.setattr(native, "_CSV", "#error no floating-point std::to_chars\n" + native._CSV)
    assert native.make_writer("%r\n", 1) is None
    write_trace_csv(tmp_path / "b.csv", trace, cfg.build_plant().n, 1)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
    dummies = [cache / f"leaf-dummy{i:03}.so" for i in range(native.CACHED)]
    for i, dummy in enumerate(dummies):
        dummy.write_bytes(b"")
        os.utime(dummy, (2 + i, 2 + i))
    native._build.cache_clear()
    run(*STEP)  # read back: marked used, and nothing published or pruned
    assert used.stat().st_mtime > 2 + native.CACHED
    native._build.cache_clear()
    run(["p0 = -s0"], {})  # a new leaf: the two least recently used go
    names = {p.name for p in cache.iterdir()}
    assert len(names) == native.CACHED and used.name in names
    assert not {d.name for d in dummies[:2]} & names and dummies[2].name in names
    if cxx():  # the writer's object counts too: one more goes
        assert native.make_writer("%r\n", 1) is not None
        assert len(list(cache.iterdir())) == native.CACHED
        assert not dummies[2].exists() and dummies[3].exists()


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
