"""The canonical form of a config: what ``to_dict`` returns and
``config_hash`` hashes, which every run's manifest states."""

import json

import pytest

from fracobs.configs import ExperimentConfig, bundled_config, config_hash
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
