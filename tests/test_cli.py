"""Command-line interface: subcommands, exit codes, and output artifacts."""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracobs.fraccalc
from conftest import on_both_writers
from fracobs import __version__, bundled_config, cli, native
from fracobs.cli import main
from fracobs.configs import ExperimentConfig, config_hash
from fracobs.fde import SimGrid, Trace
from fracobs.harness import compare_observers, run_experiment, trace_columns


def cfg_dict(**over):
    d = {
        "name": "cliunit",
        "plant": {"preset": "genesio-tesi-paper"},
        "fault": {"kind": "sine", "amplitude": 0.06, "frequency": 1.0, "onset": 0.0},
        "noise": {"variance": 0.0},
        "observer": {"variant": "proposed", "gains": 0.5, "epsilon": 0.01},
        "grid": {"h": 1e-2, "t_end": 8.0, "memory": "full"},
        "seed": 0,
        "output_stride": 10,
    }
    for key, val in over.items():
        sect, _, leaf = key.partition(".")
        if leaf:
            d.setdefault(sect, {})[leaf] = val
        else:
            d[sect] = val
    return d


def diverging_dict(t_end):
    """A run whose observer blows up within its first second."""
    d = cfg_dict(**{
        "plant.preset": "arneodo-paper",
        "fault.kind": "cosine", "fault.amplitude": 0.4,
        "observer.lambdas": [1.0, 1.0, 10.0, 100.0],
        "observer.alphas": [1e10, 200.0, 50.0, 100.0],
        "grid.h": 1e-3, "grid.t_end": t_end,
    })
    del d["observer"]["gains"]
    return d


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "cliunit.json"
    p.write_text(json.dumps(cfg_dict()))
    return p


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDumpConfig:
    def test_round_trips_to_identical_config(self, capsys):
        assert main(["dump-config", "example1"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert ExperimentConfig.from_dict(dumped) == ExperimentConfig.from_dict(
            bundled_config("example1")
        )

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["dump-config", "nope"]) == 2
        assert "example1" in capsys.readouterr().err

    def test_every_bundled_config_parses(self, capsys):
        from fracobs import BUNDLED_CONFIGS

        for name in BUNDLED_CONFIGS:
            assert main(["dump-config", name]) == 0
            ExperimentConfig.from_dict(json.loads(capsys.readouterr().out))


class TestRun:
    def test_writes_csv_metrics_manifest(self, tmp_path, cfg_file, capsys):
        assert main(["run", str(cfg_file), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        csv_p = tmp_path / "cliunit_trace.csv"
        met_p = tmp_path / "cliunit_metrics.txt"
        man_p = tmp_path / "cliunit_manifest.json"
        for p in (csv_p, met_p, man_p):
            assert p.is_file()
            assert str(p) in out

        header, rows = read_csv(csv_p)
        assert header == trace_columns(3)
        # 801 grid points strided by 10 -> 81 rows
        assert len(rows) == 81
        # times advance by stride * h and floats survive a text round trip
        t = [float(r[0]) for r in rows]
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 0.1, rtol=0, atol=1e-12)

        man = json.loads(man_p.read_text())
        cfg = ExperimentConfig.from_dict(cfg_dict())
        assert man["config_hash"] == config_hash(cfg)
        assert man["seed"] == 0
        assert man["version"] == __version__
        assert man["diverged"] is False
        assert man["outputs"] == ["cliunit_trace.csv", "cliunit_metrics.txt"]
        assert isinstance(man["duration_s"], float)
        assert man["leaf"] in ("compiled", "python")

        metrics = met_p.read_text()
        assert "settle_e1" in metrics and "chattering_index" in metrics

    def test_float_cells_round_trip_exactly(self, tmp_path, cfg_file):
        main(["run", str(cfg_file), "--out", str(tmp_path)])
        header, rows = read_csv(tmp_path / "cliunit_trace.csv")
        x1 = header.index("x1")
        from fracobs.harness import run_experiment

        trace, _ = run_experiment(ExperimentConfig.from_dict(cfg_dict()))
        want = trace.channel("x1")[::10]
        got = np.array([float(r[x1]) for r in rows])
        assert np.array_equal(got, want)

    def test_baseline_leaves_fault_columns_empty(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(cfg_dict(**{"observer.variant": "baseline"})))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "cliunit_trace.csv")
        for col in ("f_tilde", "e_f", "E3"):
            i = header.index(col)
            assert all(r[i] == "" for r in rows), col
        for col in ("f_hat", "theta_tilde", "E2", "xtilde3"):
            i = header.index(col)
            assert all(r[i] != "" for r in rows), col

    def test_seed_and_set_overrides_change_manifest(self, tmp_path, cfg_file):
        main(["run", str(cfg_file), "--out", str(tmp_path / "a")])
        main(["run", str(cfg_file), "--out", str(tmp_path / "b"), "--seed", "7"])
        main(["run", str(cfg_file), "--out", str(tmp_path / "c"),
              "--set", "grid.t_end=4", "--set", "grid.memory=full"])
        ha = json.loads((tmp_path / "a/cliunit_manifest.json").read_text())
        hb = json.loads((tmp_path / "b/cliunit_manifest.json").read_text())
        hc = json.loads((tmp_path / "c/cliunit_manifest.json").read_text())
        assert hb["seed"] == 7
        assert len({ha["config_hash"], hb["config_hash"], hc["config_hash"]}) == 3

    def test_bad_override_exits_2(self, tmp_path, cfg_file, capsys):
        rc = main(["run", str(cfg_file), "--out", str(tmp_path), "--set", "grid.h=0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "grid.h" in err
        assert main(["run", str(cfg_file), "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        rc = main(["run", str(cfg_file), "--out", str(tmp_path / "sub"), "--set", "name=../escaped"])
        assert rc == 2
        assert not list(tmp_path.glob("escaped_*"))
        # a NUL byte would pass the run and fail at open(); it is a config error instead
        rc = main(["run", str(cfg_file), "--out", str(tmp_path / "nul"), "--set", 'name="a\\u0000b"'])
        assert rc == 2
        assert "name: " in capsys.readouterr().err
        assert not (tmp_path / "nul").exists()

    @pytest.mark.parametrize("override", [
        "grid.h=NaN",
        "grid.t_end=Infinity",
        "noise.variance=NaN",
        "noise.variance=1e400",
        "observer.epsilon=NaN",
        "observer.epsilon=Infinity",
        "observer.gains=-1",
        "plant.betas=[1,2]",
        "plant.x0=[1,2]",
    ])
    def test_unusable_number_or_plant_exits_2_before_output(self, tmp_path, cfg_file, capsys, override):
        out = tmp_path / "out"
        assert main(["run", str(cfg_file), "--out", str(out), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        key = override.partition("=")[0]
        assert ("plant" if key.startswith("plant.") else key) + ": " in err
        assert not out.exists()

    @pytest.mark.parametrize("init", ["[0,0]", "[0,0,0,0,0,0]"])
    def test_observer_init_of_wrong_length_exits_2_before_output(self, tmp_path, cfg_file, capsys, init):
        out = tmp_path / "out"
        assert main(["run", str(cfg_file), "--out", str(out), "--set", f"observer.init={init}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: observer.init: proposed observer with n=3 needs 8 entries")
        assert not out.exists()

    @pytest.mark.parametrize("override, section", [("noise.variance=0.1", {"noise": {"variance": 0.1}}),
                                                   ("fault.kind=step", {"fault": {"kind": "step"}})],
                             ids=["noise", "fault"])
    def test_set_fills_a_null_section(self, tmp_path, override, section):
        # from_dict reads a null section as absent; --set into it starts an empty one
        runs = {"null": (cfg_dict(**dict.fromkeys(section), **{"grid.t_end": 1.0}), ["--set", override]),
                "given": (cfg_dict(**section, **{"grid.t_end": 1.0}), [])}
        for name, (d, sets) in runs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(d))
            assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name), *sets]) == 0
        hashes = {json.loads((tmp_path / name / "cliunit_manifest.json").read_text())["config_hash"] for name in runs}
        assert len(hashes) == 1

    def test_section_of_wrong_type_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg_dict(grid=5)))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "grid" in err
        assert not (tmp_path / "cliunit_manifest.json").exists()

    def test_root_of_wrong_type_with_overrides_exits_2(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert main(["run", str(p), "--out", str(tmp_path), "--seed", "3",
                     "--set", "grid.h=0.1"]) == 2
        assert "config root must be an object" in capsys.readouterr().err

    def test_unknown_config_source_exits_2(self, tmp_path, capsys):
        rc = main(["run", "no-such-thing", "--out", str(tmp_path)])
        assert rc == 2
        assert "bundled" in capsys.readouterr().err

    def test_divergent_run_exits_3(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(diverging_dict(t_end=5.0)))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 3
        assert "diverged" in capsys.readouterr().err
        man = json.loads((tmp_path / "cliunit_manifest.json").read_text())
        assert man["diverged"] is True

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_unwritable_out_exits_4(self, tmp_path, cfg_file, capsys, command):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main([command, str(cfg_file), "--out", str(blocker / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "Traceback" not in err

    def test_outputs_byte_identical_across_runs(self, tmp_path, cfg_file):
        main(["run", str(cfg_file), "--out", str(tmp_path / "r1")])
        main(["run", str(cfg_file), "--out", str(tmp_path / "r2")])
        b1 = (tmp_path / "r1/cliunit_trace.csv").read_bytes()
        b2 = (tmp_path / "r2/cliunit_trace.csv").read_bytes()
        assert b1 == b2
        m1 = json.loads((tmp_path / "r1/cliunit_manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2/cliunit_manifest.json").read_text())
        m1.pop("duration_s"), m2.pop("duration_s")
        assert m1 == m2

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_manifest_names_the_leaf_outside_the_config_hash(self, command, tmp_path, cfg_file, monkeypatch):
        assert main([command, str(cfg_file), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(native, "make_leaf", lambda *args: None)
        assert main([command, str(cfg_file), "--out", str(tmp_path / "b")]) == 0
        a, b = (json.loads((tmp_path / d / "cliunit_manifest.json").read_text()) for d in "ab")
        assert a["leaf"] in ("compiled", "python") and b["leaf"] == "python"
        assert a["config_hash"] == b["config_hash"] == config_hash(ExperimentConfig.from_dict(cfg_dict()))
        for man in (a, b):
            del man["duration_s"], man["leaf"]
        assert a == b
        for name in a["outputs"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_default_out_dir_from_env(self, tmp_path, cfg_file, monkeypatch):
        monkeypatch.setenv("FRACOBS_OUT", str(tmp_path / "envout"))
        assert main(["run", str(cfg_file)]) == 0
        assert (tmp_path / "envout/cliunit_trace.csv").is_file()


class TestCompare:
    def test_writes_both_variants_and_report(self, tmp_path, cfg_file, capsys):
        assert main(["compare", str(cfg_file), "--out", str(tmp_path)]) == 0
        for name in ("cliunit_proposed_trace.csv", "cliunit_baseline_trace.csv",
                     "cliunit_comparison.txt", "cliunit_manifest.json"):
            assert (tmp_path / name).is_file(), name
        out = capsys.readouterr().out
        assert "verdict" in out

        hp, _ = read_csv(tmp_path / "cliunit_proposed_trace.csv")
        hb, _ = read_csv(tmp_path / "cliunit_baseline_trace.csv")
        assert hp == hb == trace_columns(3)

    def test_gains_fitting_only_the_baseline_exit_2_before_output(self, tmp_path, capsys):
        # from_dict builds only the configured baseline; compare also builds
        # the proposed observer, which needs n+1 = 4 gain pairs
        d = cfg_dict(**{"observer.variant": "baseline",
                        "observer.lambdas": [1.0, 2.0, 3.0], "observer.alphas": [1.0, 2.0, 3.0]})
        del d["observer"]["gains"]
        p = tmp_path / "b3.json"
        p.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["compare", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: observer.gains: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("init", ["[0,0,0,0,0,0,0,0]", "[0,0,0,0,0,0]"])
    def test_observer_init_exits_2_before_output(self, tmp_path, cfg_file, capsys, init):
        # the two observers' states differ in length, so no one list fits both
        out = tmp_path / "out"
        assert main(["compare", str(cfg_file), "--out", str(out), "--set", f"observer.init={init}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: observer.init: ") and "Traceback" not in err
        assert not out.exists()


def reference_csv(trace, n, stride):
    """The trace CSV formatted cell by cell with repr."""
    schema = trace_columns(n)
    have = {lab: trace.values[::stride, i] for i, lab in enumerate(trace.labels)}
    have["t"] = trace.times()[::stride]
    columns = [have.get(name) for name in schema]
    lines = [",".join(schema)]
    for k in range(len(have["t"])):
        lines.append(",".join("" if col is None else repr(float(col[k])) for col in columns))
    return ("\n".join(lines) + "\n").encode()


CSV_CHUNK = cli._CSV_CHUNK
# the two widest cells, of 24 characters, and the longest exponent on the fewest digits
WIDEST = (-2.2250738585072014e-308, -1.7976931348623157e+308, -5e-324)


class TestWriteTraceCsv:
    """``write_trace_csv`` against a per-cell repr reference, on both writers
    (``conftest.on_both_writers``), in chunks of 7 rows so that the rows span
    several chunks and the last one is short."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CHUNK", 7)

    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_observers(ExperimentConfig.from_dict(cfg_dict(**{"grid.t_end": 1.0})))

    @pytest.mark.parametrize("stride", [1, 3])
    @on_both_writers
    def test_proposed_and_baseline_traces(self, tmp_path, comparison, stride):
        base = comparison.trace_b
        assert {"f_tilde", "e_f", "E3"}.isdisjoint(base.labels)
        for trace in (comparison.trace_a, base):
            path = tmp_path / "t.csv"
            cli.write_trace_csv(path, trace, 3, stride)
            assert path.read_bytes() == reference_csv(trace, 3, stride)
        _, rows = read_csv(path)
        empty = [trace_columns(3).index(c) for c in ("f_tilde", "e_f", "E3")]
        assert all(row[i] == "" for row in rows for i in empty)

    @on_both_writers
    def test_diverged_trace_writes_nan_rows(self, tmp_path):
        trace, _ = run_experiment(ExperimentConfig.from_dict(diverging_dict(t_end=1.0)))
        assert trace.diverged
        path = tmp_path / "d.csv"
        cli.write_trace_csv(path, trace, 3, 1)
        assert path.read_bytes() == reference_csv(trace, 3, 1)
        assert ",nan," in path.read_text().splitlines()[-1]

    @on_both_writers
    def test_negative_zero_keeps_its_sign(self, tmp_path, comparison):
        src = comparison.trace_a
        values = src.values.copy()
        values[0, 0] = -0.0
        values[5, 4] = -0.0
        trace = Trace(grid=src.grid, labels=src.labels, values=values)
        path = tmp_path / "z.csv"
        cli.write_trace_csv(path, trace, 3, 1)
        assert path.read_bytes() == reference_csv(trace, 3, 1)
        _, rows = read_csv(path)
        assert rows[0][1] == "-0.0"

    @on_both_writers
    def test_widest_cells_over_full_chunks(self, tmp_path, comparison, monkeypatch):
        # every value cell one of WIDEST, over two full chunks and a short one
        monkeypatch.setattr(cli, "_CSV_CHUNK", CSV_CHUNK)
        labels = comparison.trace_a.labels
        grid = SimGrid(h=0.01, t_end=(2 * CSV_CHUNK + 5) * 0.01)
        values = np.resize(WIDEST, (grid.n_steps + 1, len(labels)))
        trace = Trace(grid=grid, labels=labels, values=values)
        assert set(trace_columns(3)) == {"t", *labels}
        path = tmp_path / "w.csv"
        cli.write_trace_csv(path, trace, 3, 1)
        assert path.read_bytes() == reference_csv(trace, 3, 1)
        _, rows = read_csv(path)
        assert len(rows) > 2 * CSV_CHUNK and {cell for row in rows for cell in row[1:]} == set(map(repr, WIDEST))
        assert max(len(cell) for cell in rows[0]) == native.CELL


class TestValidate:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass  ") == 7
        assert "FAIL" not in out
        assert "7/7 checks passed" in out
        # the report names its tolerances
        assert "tolerances:" in out

    def test_detects_broken_weights(self, capsys, monkeypatch):
        real = fracobs.fraccalc.gl_weights

        def bad(alpha, k_max):
            return np.abs(real(alpha, k_max))

        monkeypatch.setattr(fracobs.fraccalc, "gl_weights", bad)
        assert main(["validate"]) == 1
        assert "FAIL" in capsys.readouterr().out


SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy costs most of a cold import, and
    # importlib.metadata pulls in email, socket and calendar
    code = (
        "import sys, fracobs, fracobs.cli; "
        "print(sorted(m for m in sys.modules for top in ('scipy', 'importlib.metadata') "
        "if m == top or m.startswith(top + '.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_version_from_a_checkout():
    # the version is a literal in the package, so an uninstalled checkout has it too
    out = subprocess.run(
        [sys.executable, "-m", "fracobs.cli", "--version"],
        cwd=SRC, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "fracobs 0.1.0\n"


def test_package_exports_come_from_submodule_all():
    # every re-export resolves and is the object a submodule declares in
    # its own __all__, so no stale or undeclared name can linger
    subs = [importlib.import_module(f"fracobs.{m.name}") for m in pkgutil.iter_modules(fracobs.__path__)]
    for name in fracobs.__all__:
        obj = getattr(fracobs, name)
        if name == "__version__":
            continue
        owners = [m for m in subs if name in getattr(m, "__all__", ())]
        assert owners, name
        assert all(getattr(m, name) is obj for m in owners), name
