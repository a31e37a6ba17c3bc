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
from fracobs import __version__, bundled_config
from fracobs.cli import _csv_schema, main
from fracobs.harness import ExperimentConfig, config_hash


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
        assert header == _csv_schema(3)
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
        d = cfg_dict(**{
            "plant.preset": "arneodo-paper",
            "fault.kind": "cosine", "fault.amplitude": 0.4,
            "observer.lambdas": [1.0, 1.0, 10.0, 100.0],
            "observer.alphas": [1e10, 200.0, 50.0, 100.0],
            "grid.h": 1e-3, "grid.t_end": 5.0,
        })
        del d["observer"]["gains"]
        p = tmp_path / "d.json"
        p.write_text(json.dumps(d))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 3
        assert "diverged" in capsys.readouterr().err
        man = json.loads((tmp_path / "cliunit_manifest.json").read_text())
        assert man["diverged"] is True

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
        assert hp == hb == _csv_schema(3)


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


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy costs most of a cold import
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, fracobs, fracobs.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
