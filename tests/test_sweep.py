import csv

import pytest

from wmhseg import sweep
from wmhseg.errors import ConfigurationError, ContractError
from wmhseg.net.training import TrainConfig
from wmhseg.net.unet import build_unet
from wmhseg.phantom import PhantomSpec, phantom_generate
from wmhseg.metrics import METRIC_NAMES
from wmhseg.sweep import ensemble_sweep


@pytest.fixture(scope="module")
def tiny_cases():
    spec = PhantomSpec(dims=(32, 32, 8), lesion_count_range=(2, 3),
                       lesion_radius_range=(1.5, 2.5), seed=11)
    return phantom_generate(spec, 5)


@pytest.fixture(scope="module")
def tiny_sweep(tiny_cases):
    spec = build_unet(input_channels=2, base_width=4)
    cfg = TrainConfig(batch_size=16, learning_rate=4e-4, epochs=2, seed=0)
    return ensemble_sweep(tiny_cases, [1, 2], repeats=2, spec=spec,
                          train_config=cfg, seed=3)


class TestEnsembleSweep:
    def test_summary_structure(self, tiny_sweep):
        assert tiny_sweep.sizes == (1, 2)
        assert tiny_sweep.repeats == 2
        assert set(tiny_sweep.summary) == set(METRIC_NAMES)
        for metric in METRIC_NAMES:
            assert set(tiny_sweep.summary[metric]) == {1, 2}
            for mean, std in tiny_sweep.summary[metric].values():
                assert std >= 0.0

    def test_dsc_values_valid(self, tiny_sweep):
        for mean, _ in tiny_sweep.summary["dsc"].values():
            assert 0.0 <= mean <= 1.0

    def test_to_csv(self, tiny_sweep, tmp_path):
        out = tmp_path / "sweep.csv"
        tiny_sweep.to_csv(out)
        rows = list(csv.DictReader(open(out)))
        assert [r["size"] for r in rows] == ["1", "2"]
        assert "dsc_mean" in rows[0] and "f1_std" in rows[0]

    def test_validation(self, tiny_cases, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("validation must fail before any training")

        monkeypatch.setattr(sweep, "train", no_training)
        spec = build_unet(base_width=4)
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ConfigurationError, match="every ensemble size must be >= 1"):
            ensemble_sweep(tiny_cases, [1, 0], 2, spec, cfg)
        with pytest.raises(ConfigurationError):
            ensemble_sweep(tiny_cases, [], 2, spec, cfg)
        with pytest.raises(ConfigurationError):
            ensemble_sweep(tiny_cases, [1], 1, spec, cfg)
        with pytest.raises(ConfigurationError):
            ensemble_sweep(tiny_cases[:1], [1], 2, spec, cfg)

    @pytest.mark.parametrize("missing", [0, 4], ids=["held-out", "training"])
    def test_case_without_mask_rejected_before_training(self, tiny_cases, monkeypatch,
                                                         missing):
        def no_training(*args, **kwargs):
            raise AssertionError("a missing mask must fail before any training")

        monkeypatch.setattr(sweep, "train", no_training)
        cases = list(tiny_cases)
        c = cases[missing]
        cases[missing] = type(c)(c.subject_id, c.scanner_id, c.flair, c.t1, None)
        with pytest.raises(ContractError, match=f"case {c.subject_id} has no"):
            ensemble_sweep(cases, [1], 2, build_unet(base_width=4), TrainConfig(epochs=1))

    def test_split_without_training_case_named(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("an empty training set must fail before any training")

        monkeypatch.setattr(sweep, "train", no_training)
        spec = PhantomSpec(dims=(32, 32, 8), lesion_count_range=(2, 3),
                           scanners=("a", "b", "c"), seed=11)
        with pytest.raises(ContractError, match="^ratio split leaves no training case"):
            ensemble_sweep(phantom_generate(spec, 3), [1], 2, build_unet(base_width=4),
                           TrainConfig(epochs=1))
