import tracemalloc

import numpy as np
import pytest

from wmhseg.ensemble import (
    EnsembleConfig,
    ensemble_predict,
    postprocess,
    threshold_map,
)
from wmhseg.errors import ContractError
from wmhseg.grids import BinaryMask3D
from wmhseg.net.unet import build_unet, forward, init_weights
from wmhseg.preprocess import PreprocessRecord


class TestConfig:
    def test_defaults(self):
        cfg = EnsembleConfig()
        assert cfg.model_count == 3
        assert cfg.threshold == 0.5
        assert cfg.z_trim_fraction == 0.10

    @pytest.mark.parametrize("kwargs", [
        {"model_count": 0},
        {"threshold": 0.0},
        {"threshold": 1.0},
        {"z_trim_fraction": -0.1},
        {"z_trim_fraction": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ContractError):
            EnsembleConfig(**kwargs)


class TestEnsemblePredict:
    def _models(self, n, base_width=2):
        spec = build_unet(base_width=base_width)
        models = [init_weights(spec, np.random.default_rng(i)) for i in range(n)]
        return spec, models

    def test_mean_of_identical_models(self):
        spec, models = self._models(1)
        x = np.random.default_rng(0).normal(size=(2, 2, 16, 16)).astype(np.float32)
        single = ensemble_predict(models, spec, x)
        triple = ensemble_predict(models * 3, spec, x)
        np.testing.assert_allclose(triple, single, atol=1e-7)

    def test_mean_of_distinct_models(self):
        spec, models = self._models(3)
        x = np.random.default_rng(1).normal(size=(1, 2, 16, 16)).astype(np.float32)
        combined = ensemble_predict(models, spec, x)
        singles = [ensemble_predict([m], spec, x) for m in models]
        np.testing.assert_allclose(combined, np.mean(singles, axis=0), atol=1e-7)

    def test_output_cropped_to_input_dims(self):
        spec, models = self._models(1)
        x = np.random.default_rng(2).normal(size=(1, 2, 20, 25)).astype(np.float32)
        assert ensemble_predict(models, spec, x).shape == (1, 20, 25)

    def test_matches_batched_forward_mean(self):
        spec, models = self._models(3, base_width=4)
        x = np.random.default_rng(3).normal(size=(4, 2, 20, 25)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (0, 0), (0, 12), (0, 7)))  # up to 32 x 32
        batched = np.mean([forward(spec, m, padded) for m in models], axis=0)
        np.testing.assert_allclose(ensemble_predict(models, spec, x),
                                   batched[:, :20, :25], rtol=0, atol=1e-6)

    def test_peak_memory_flat_in_slice_count(self):
        spec, models = self._models(3, base_width=8)
        rng = np.random.default_rng(4)

        def peak_bytes(n_slices):
            x = rng.normal(size=(n_slices, 2, 64, 64)).astype(np.float32)
            tracemalloc.start()
            try:
                ensemble_predict(models, spec, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(8) <= 1.5 * peak_bytes(2)

    def test_no_models_rejected(self):
        spec, _ = self._models(1)
        with pytest.raises(ContractError):
            ensemble_predict([], spec, np.zeros((1, 2, 16, 16)))


class TestThresholdMap:
    def test_strict_inequality(self):
        prob = np.array([[[0.4, 0.5, 0.6]]])
        mask = threshold_map(prob, 0.5)
        np.testing.assert_array_equal(mask.data, [[[False, False, True]]])

    def test_mean_of_02_08_is_at_threshold(self):
        # mean(0.2, 0.8) = 0.5 exactly: excluded by the strict rule
        prob = np.mean([np.full((1, 1, 1), 0.2), np.full((1, 1, 1), 0.8)], axis=0)
        assert not threshold_map(prob, 0.5).data.any()

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            threshold_map(np.array([[[1.5]]]), 0.5)

    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            threshold_map(np.full((2, 2, 2), np.nan), 0.5)


def record_for(dims, offsets=((0, 0), (0, 0))):
    return PreprocessRecord(original_dims=dims, offsets=offsets, normalization={})


class TestPostprocess:
    def test_never_adds_voxels_in_overlap(self):
        # on a trivial geometry the mask comes back unchanged
        rng = np.random.default_rng(3)
        data = rng.random((20, 8, 8)) < 0.3
        out = postprocess(BinaryMask3D(data, (1, 1, 1)), record_for((8, 8, 20)))
        np.testing.assert_array_equal(out.data, data)

    def test_idempotent_on_trivial_geometry(self):
        rng = np.random.default_rng(4)
        data = rng.random((20, 8, 8)) < 0.3
        rec = record_for((8, 8, 20))
        once = postprocess(BinaryMask3D(data, (1, 1, 1)), rec)
        twice = postprocess(once, rec)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_inverts_crop_geometry(self):
        # processed slices are 16x16 but the case was 20x20: crop offsets -2/-2
        data = np.zeros((10, 16, 16), bool)
        data[5, 8, 8] = True
        rec = record_for((20, 20, 10), offsets=((-2, -2), (-2, -2)))
        out = postprocess(BinaryMask3D(data, (1, 1, 1)), rec)
        assert out.data.shape == (10, 20, 20)
        assert out.data[5, 10, 10]
        assert out.population == 1

    def test_slice_count_mismatch_rejected(self):
        data = np.zeros((10, 8, 8), bool)
        with pytest.raises(ContractError):
            postprocess(BinaryMask3D(data, (1, 1, 1)), record_for((8, 8, 12)))
