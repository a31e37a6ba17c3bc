"""Reading a config (parsing, defaults, validation) and its canonical
form: what ``to_dict`` returns and ``config_hash`` hashes, which every
run's manifest states."""

import json

import pytest

from fracobs.cli import main
from fracobs.configs import ExperimentConfig, bundled_config, config_hash
from fracobs.errors import ConfigError
from test_harness import gt_dict


def test_to_dict_is_a_copy():
    cfg = ExperimentConfig.from_dict(gt_dict())
    d = cfg.to_dict()
    d["observer"]["gains"] = 2.0
    d["grid"]["h"] = 0.5
    assert cfg.to_dict() == ExperimentConfig.from_dict(gt_dict()).to_dict()


class TestCanonicalForm:
    """``to_dict`` and ``config_hash`` are what a run's manifest states, so
    their bytes are pinned: a change here changes every recorded hash."""

    @pytest.mark.parametrize("name, digest", [
        ("example1", "18d216a9b54f1781c43358a2855161b196c3d32c13132e8ac7567e4cdb3e50ac"),
        ("example2", "b3fdc044c8411e6818bc0d10f596649bbebe3f0e335a046115c6225037f50e0a"),
    ])
    def test_bundled_hashes(self, name, digest):
        assert config_hash(ExperimentConfig.from_dict(bundled_config(name))) == digest

    @pytest.mark.parametrize("over, canon", [
        # custom fault: samples and sample_dt are written with the samples
        ({"fault": {"kind": "custom", "samples": [0.1, -0.3, 1], "sample_dt": 0.7, "onset": 0.37}},
         '{"fault": {"amplitude": 0.0, "frequency": 1.0, "kind": "custom", "onset": 0.37, '
         '"sample_dt": 0.7, "samples": [0.1, -0.3, 1.0]}, "grid": {"h": 0.01, "memory": "full", '
         '"t_end": 8.0}, "name": "unit", "observer": {"epsilon": 0.01, "gains": 0.5, '
         '"latching": false, "variant": "proposed"}, "output_stride": 10, '
         '"plant": {"preset": "genesio-tesi-paper"}, "seed": 0}'),
        ({"observer": {"variant": "baseline", "lambdas": [1, 2, 3], "alphas": [4, 5, 6.5]}},
         '{"fault": {"amplitude": 0.06, "frequency": 1.0, "kind": "sine", "onset": 0.0}, '
         '"grid": {"h": 0.01, "memory": "full", "t_end": 8.0}, "name": "unit", '
         '"observer": {"alphas": [4.0, 5.0, 6.5], "epsilon": 0.01, "lambdas": [1.0, 2.0, 3.0], '
         '"latching": false, "variant": "baseline"}, "output_stride": 10, '
         '"plant": {"preset": "genesio-tesi-paper"}, "seed": 0}'),
        # a fault of kind none is omitted whatever its other keys say
        ({"fault": {"kind": "none", "amplitude": 0.3, "frequency": 2}},
         '{"grid": {"h": 0.01, "memory": "full", "t_end": 8.0}, "name": "unit", '
         '"observer": {"epsilon": 0.01, "gains": 0.5, "latching": false, "variant": "proposed"}, '
         '"output_stride": 10, "plant": {"preset": "genesio-tesi-paper"}, "seed": 0}'),
        # noise is omitted at variance 0 (gt_dict's own)
        ({},
         '{"fault": {"amplitude": 0.06, "frequency": 1.0, "kind": "sine", "onset": 0.0}, '
         '"grid": {"h": 0.01, "memory": "full", "t_end": 8.0}, "name": "unit", '
         '"observer": {"epsilon": 0.01, "gains": 0.5, "latching": false, "variant": "proposed"}, '
         '"output_stride": 10, "plant": {"preset": "genesio-tesi-paper"}, "seed": 0}'),
        # beyond the 50 s horizon the resolved default memory is written
        ({"grid": {"h": 1e-2, "t_end": 60}},
         '{"fault": {"amplitude": 0.06, "frequency": 1.0, "kind": "sine", "onset": 0.0}, '
         '"grid": {"h": 0.01, "memory": 5000, "t_end": 60.0}, "name": "unit", '
         '"observer": {"epsilon": 0.01, "gains": 0.5, "latching": false, "variant": "proposed"}, '
         '"output_stride": 10, "plant": {"preset": "genesio-tesi-paper"}, "seed": 0}'),
    ])
    def test_edge_configs(self, over, canon):
        cfg = ExperimentConfig.from_dict(gt_dict(**over))
        assert json.dumps(cfg.to_dict(), sort_keys=True) == canon


class TestConfigParsing:
    def test_round_trip_through_dict(self):
        cfg = ExperimentConfig.from_dict(gt_dict())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg == again

    def test_hash_stable_under_key_reordering(self):
        d = gt_dict()
        scrambled = {k: d[k] for k in reversed(list(d))}
        scrambled["observer"] = dict(reversed(list(d["observer"].items())))
        h1 = config_hash(ExperimentConfig.from_dict(d))
        h2 = config_hash(ExperimentConfig.from_dict(scrambled))
        assert h1 == h2

    def test_hash_changes_with_values(self):
        h1 = config_hash(ExperimentConfig.from_dict(gt_dict()))
        h2 = config_hash(ExperimentConfig.from_dict(gt_dict(**{"grid.t_end": 9.0})))
        assert h1 != h2

    def test_memory_defaults_by_horizon(self, tmp_path):
        short = gt_dict()
        del short["grid"]["memory"]
        assert ExperimentConfig.from_dict(short).memory == "full"
        long = gt_dict(**{"grid.t_end": 60.0})
        del long["grid"]["memory"]
        assert ExperimentConfig.from_dict(long).memory == 5000
        # a long run on a coarse grid keeps every step it has
        coarse = gt_dict(**{"grid.t_end": 60.0, "grid.h": 0.02})
        del coarse["grid"]["memory"]
        assert ExperimentConfig.from_dict(coarse).memory == 3000
        assert main(["run", "example2", "--out", str(tmp_path), "--set", "grid.t_end=60",
                     "--set", "grid.h=0.02", "--set", "grid.memory=null"]) == 0

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.pop("observer"), "observer"),
        (lambda d: d.pop("grid"), "grid"),
        (lambda d: d["grid"].__setitem__("h", 0.0), "grid.h"),
        (lambda d: d["grid"].__setitem__("t_end", -1.0), "grid.t_end"),
        (lambda d: d["grid"].__setitem__("dt", 1e-3), "grid"),
        (lambda d: d["grid"].update(h=1, t_end=0.4), "grid.t_end: grid must contain at least one step"),
        (lambda d: d["grid"].__setitem__("memory", 801), "grid.memory"),
        (lambda d: d["observer"].__setitem__("variant", "improved"), "observer.variant"),
        (lambda d: d["observer"].__setitem__("epsilon", 0.0), "observer.epsilon"),
        (lambda d: d["observer"].__setitem__("latching", "yes"), "observer.latching"),
        (lambda d: d["observer"].pop("gains"), "observer.gains"),
        (lambda d: d["observer"].__setitem__("lambdas", [1, 2, 3, 4]), "observer.gains"),
        (lambda d: d["fault"].__setitem__("kind", "sawtooth"), "fault.kind"),
        # a fault of kind none is left out of the canonical form, but still checked
        (lambda d: d["fault"].update(kind="none", onset=-1.0), "fault: fault onset must be >= 0"),
        (lambda d: d["noise"].__setitem__("variance", -1.0), "noise.variance"),
        (lambda d: d["plant"].__setitem__("preset", "lorenz"), "plant.preset"),
        (lambda d: d.__setitem__("output_stride", 0), "output_stride"),
        (lambda d: d.__setitem__("typo_key", 1), ""),
        # the name becomes an output file prefix inside --out
        (lambda d: d.__setitem__("name", "../escaped"), "name"),
        (lambda d: d.__setitem__("name", "sub/run"), "name"),
        (lambda d: d.__setitem__("name", "sub\\run"), "name"),
        (lambda d: d.__setitem__("name", ""), "name"),
        (lambda d: d.__setitem__("name", "."), "name"),
        (lambda d: d.__setitem__("name", ".."), "name"),
        (lambda d: d.__setitem__("name", 5), "name"),
        (lambda d: d.__setitem__("name", "a\0b"), "name"),
        (lambda d: d.__setitem__("seed", -1), "seed"),
        # sections must be objects and list keys lists
        (lambda d: d.__setitem__("grid", 5), "grid"),
        (lambda d: d.__setitem__("noise", 2), "noise"),
        (lambda d: d.__setitem__("fault", [1]), "fault"),
        (lambda d: d.__setitem__("plant", "genesio-tesi-paper"), "plant"),
        (lambda d: d.__setitem__("observer", None), "observer: expected an object"),
        (lambda d: d["plant"].__setitem__("preset", ["genesio-tesi-paper"]), "plant.preset: unknown"),
        (lambda d: d["plant"].__setitem__("betas", 3), "plant.betas"),
        (lambda d: d["plant"].__setitem__("x0", 0.5), "plant.x0"),
        (lambda d: (d["observer"].pop("gains"),
                    d["observer"].update(lambdas=1, alphas=[1, 1, 1, 1])), "observer.lambdas"),
        (lambda d: (d["observer"].pop("gains"),
                    d["observer"].update(lambdas=[1, 1, 1, 1], alphas="1111")), "observer.alphas"),
        (lambda d: d["observer"].__setitem__("init", 0.0), "observer.init"),
        (lambda d: d["fault"].__setitem__("amplitude", [1]), "fault.amplitude"),
        (lambda d: d["fault"].__setitem__("frequency", "1"), "fault.frequency"),
        (lambda d: d["fault"].__setitem__("onset", None), "fault.onset"),
        (lambda d: d["fault"].update(kind="custom", samples=1.0, sample_dt=0.1), "fault.samples"),
        (lambda d: d["fault"].update(kind="custom", samples=[1.0], sample_dt=[0.1]), "fault.sample_dt"),
        # only a custom fault reads samples and sample_dt
        (lambda d: d["fault"].update(samples=[1.0, 2.0]), "fault: a sine fault takes no samples"),
        (lambda d: d["fault"].update(sample_dt=0.1), "fault: a sine fault takes no samples"),
        (lambda d: d["fault"].update(kind="none", samples=[1.0], sample_dt=0.1), "fault: a none fault"),
        # numbers must be finite (JSON readers accept NaN, Infinity and 1e400)
        (lambda d: d["grid"].__setitem__("h", float("nan")), "grid.h: expected a finite number, got nan"),
        (lambda d: d["grid"].__setitem__("t_end", float("inf")), "grid.t_end: expected a finite number, got inf"),
        (lambda d: d["noise"].__setitem__("variance", float("nan")), "noise.variance: expected a finite number, got nan"),
        (lambda d: d["noise"].__setitem__("variance", float("inf")), "noise.variance: expected a finite number, got inf"),
        (lambda d: d["noise"].__setitem__("variance", 10 ** 400), "noise.variance: expected a finite number, got 1000"),
        (lambda d: d["observer"].__setitem__("epsilon", float("nan")), "observer.epsilon: expected a finite number, got nan"),
        (lambda d: d["observer"].__setitem__("epsilon", float("-inf")), "observer.epsilon: expected a finite number, got -inf"),
        (lambda d: d["observer"].__setitem__("epsilon", float("inf")), "observer.epsilon: expected a finite number, got inf"),
        # the positivity check lives in ObserverDynamics, which from_dict builds once
        (lambda d: d["observer"].__setitem__("gains", -1), "observer.gains: all observer gains must be strictly positive"),
        (lambda d: (d["observer"].pop("gains"), d["observer"].update(lambdas=[1, 1, 1], alphas=[1, 1, 1])),
         "observer.gains: proposed observer with n=3 needs 4 gain pairs"),
        # the plant is built once at load, so a misfit override fails there
        (lambda d: d["plant"].__setitem__("betas", [1, 2]), "plant: genesio_tesi needs 4 betas"),
        (lambda d: d["plant"].__setitem__("x0", [1, 2]), "plant: x0 shape"),
    ])
    def test_validation_names_the_field(self, mutate, field):
        d = gt_dict()
        mutate(d)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        if field:
            assert field in str(exc.value)

    def test_explicit_gain_lists(self):
        d = gt_dict(**{"observer.lambdas": [1, 2, 3, 4], "observer.alphas": [5, 6, 7, 8]})
        del d["observer"]["gains"]
        cfg = ExperimentConfig.from_dict(d)
        lam, _ = cfg.build_gains("proposed", 3)
        assert lam == (1, 2, 3, 4)
        # baseline leg of a comparison takes the first n pairs
        assert cfg.build_gains("baseline", 3) == ((1, 2, 3), (5, 6, 7))

    def test_scalar_gain_broadcast(self):
        cfg = ExperimentConfig.from_dict(gt_dict())
        assert cfg.build_gains("proposed", 3) == ((0.5,) * 4, (0.5,) * 4)
        assert cfg.build_gains("baseline", 3) == ((0.5,) * 3, (0.5,) * 3)

    def test_observer_init_length_checked(self):
        # against the configured variant when the config is read, before any run
        d = gt_dict(**{"observer.init": [0.0] * 5})
        with pytest.raises(ConfigError, match="observer.init: proposed observer with n=3 needs 8 entries, got 5"):
            ExperimentConfig.from_dict(d)
        cfg = ExperimentConfig.from_dict(gt_dict(**{"observer.init": [0.0] * 8}))
        assert cfg.build_init_state(cfg.build_observer("proposed", cfg.build_plant())).tolist() == [0.0] * 8
        with pytest.raises(ConfigError, match="baseline observer with n=3 needs 6 entries, got 8"):
            cfg.build_init_state(cfg.build_observer("baseline", cfg.build_plant()))
