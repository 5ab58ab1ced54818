import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg import augment
from wmhseg.augment import (
    ROTATION_RANGE,
    SCALE_RANGE,
    SHEAR_RANGE,
    AffineParams,
    apply_affine,
    augment_dataset,
    sample_affine,
    transform_for,
)
from wmhseg.phantom import PhantomSpec, phantom_generate
from wmhseg.pipeline import case_training_arrays

from oracles import affine_resample_oracle, augment_dataset_reference, map_coordinates_affine


class TestMatrix:
    def test_identity_params(self):
        np.testing.assert_allclose(AffineParams().matrix(), np.eye(2))

    def test_rotation_90(self):
        m = AffineParams(rotation_deg=90.0).matrix()
        np.testing.assert_allclose(m, [[0, -1], [1, 0]], atol=1e-12)

    def test_shear_45(self):
        m = AffineParams(shear_deg=45.0).matrix()
        np.testing.assert_allclose(m, [[1, 1], [0, 1]], atol=1e-12)

    def test_scale_only(self):
        m = AffineParams(scale_x=2.0, scale_y=0.5).matrix()
        np.testing.assert_allclose(m, [[2, 0], [0, 0.5]])

    def test_determinant_is_scale_product(self):
        p = AffineParams(rotation_deg=10, shear_deg=-12, scale_x=0.95, scale_y=1.07)
        assert np.linalg.det(p.matrix()) == pytest.approx(0.95 * 1.07)


class TestSampling:
    def test_ranges_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = sample_affine(rng)
            assert ROTATION_RANGE[0] <= p.rotation_deg <= ROTATION_RANGE[1]
            assert SHEAR_RANGE[0] <= p.shear_deg <= SHEAR_RANGE[1]
            assert SCALE_RANGE[0] <= p.scale_x <= SCALE_RANGE[1]
            assert SCALE_RANGE[0] <= p.scale_y <= SCALE_RANGE[1]

    def test_transform_for_deterministic(self):
        assert transform_for(3, 5, 1) == transform_for(3, 5, 1)
        assert transform_for(3, 5, 1) != transform_for(3, 5, 2)
        assert transform_for(3, 5, 1) != transform_for(4, 5, 1)


class TestApplyAffine:
    def test_identity_bilinear_exact(self):
        x = np.random.default_rng(1).random((16, 16))
        np.testing.assert_allclose(apply_affine(x, AffineParams()), x)

    def test_identity_nearest_exact(self):
        m = np.random.default_rng(2).random((10, 10)) < 0.5
        np.testing.assert_array_equal(apply_affine(m, AffineParams(), "nearest"), m)

    def test_center_pixel_fixed_point(self):
        # odd dims: the exact center maps to itself under any transform
        x = np.zeros((11, 11))
        x[5, 5] = 1.0
        out = apply_affine(x, AffineParams(rotation_deg=13, shear_deg=-9,
                                           scale_x=0.93, scale_y=1.08))
        assert out[5, 5] == pytest.approx(1.0)

    def test_rotation_90_moves_pixel(self):
        x = np.zeros((11, 11))
        x[5, 8] = 1.0  # offset (dx=+3, dy=0) from center
        out = apply_affine(x, AffineParams(rotation_deg=90.0))
        # forward map sends (3, 0) -> (0, 3): row 8, col 5
        assert out[8, 5] == pytest.approx(1.0, abs=1e-9)
        assert out[5, 8] == pytest.approx(0.0, abs=1e-9)

    def test_out_of_bounds_reads_zero(self):
        x = np.ones((8, 8))
        out = apply_affine(x, AffineParams(scale_x=2.0, scale_y=2.0))
        # 2x zoom keeps the interior at 1; shrinking instead would pull zeros in
        assert out.min() >= 0
        shrunk = apply_affine(x, AffineParams(scale_x=0.5, scale_y=0.5))
        assert shrunk[0, 0] == 0.0

    def test_nearest_preserves_values(self):
        m = (np.random.default_rng(3).random((12, 12)) < 0.4).astype(np.uint8)
        out = apply_affine(m, AffineParams(rotation_deg=7, scale_x=1.05), "nearest")
        assert set(np.unique(out)) <= {0, 1}

    def test_nearest_ties_round_half_to_even(self):
        # source columns 0.5, 1, 1.5 round to 0, 1, 2 (half up would give 1, 1, 2)
        x = np.arange(1, 10).reshape(3, 3)
        np.testing.assert_array_equal(apply_affine(x, AffineParams(scale_x=2.0), "nearest"), x)

    @pytest.mark.parametrize("shape", [(9, 7), (8, 10), (1, 6), (5, 1), (1, 1)],
                             ids=["odd", "even", "one-row", "one-column", "one-pixel"])
    def test_matches_per_pixel_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(8):
            params = AffineParams(rotation_deg=rng.uniform(-40, 40),
                                  shear_deg=rng.uniform(-25, 25),
                                  scale_x=rng.uniform(0.6, 1.6), scale_y=rng.uniform(0.6, 1.6))
            m = params.matrix()
            x32 = rng.normal(size=shape).astype(np.float32)
            got = apply_affine(x32, params)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(
                got, affine_resample_oracle(x32, m, "bilinear").astype(np.float32))
            x64 = rng.normal(size=shape)
            np.testing.assert_allclose(apply_affine(x64, params),
                                       affine_resample_oracle(x64, m, "bilinear"),
                                       rtol=0, atol=1e-12)
            labels = rng.random(shape) < 0.5
            np.testing.assert_array_equal(apply_affine(labels, params, "nearest"),
                                          affine_resample_oracle(labels, m, "nearest") > 0)

    def test_unknown_interpolation(self):
        with pytest.raises(ValueError):
            apply_affine(np.zeros((4, 4)), AffineParams(), "cubic")

    @given(st.floats(-15, 15), st.floats(0.9, 1.1))
    @settings(max_examples=30, deadline=None)
    def test_bilinear_respects_value_range(self, rot, scale):
        x = np.random.default_rng(4).random((14, 14))
        out = apply_affine(x, AffineParams(rotation_deg=rot, scale_x=scale, scale_y=scale))
        assert out.min() >= -1e-9
        assert out.max() <= x.max() + 1e-9


class TestAugmentDataset:
    def _data(self, n=3):
        rng = np.random.default_rng(6)
        samples = rng.random((n, 2, 12, 12)).astype(np.float32)
        labels = rng.random((n, 12, 12)) < 0.3
        return samples, labels

    def test_factor_expansion(self):
        samples, labels = self._data()
        out_s, out_l = augment_dataset(samples, labels, factor=10, seed=0)
        assert out_s.shape == (30, 2, 12, 12)
        assert out_l.shape == (30, 12, 12)

    def test_originals_kept_first(self):
        samples, labels = self._data()
        out_s, out_l = augment_dataset(samples, labels, factor=4, seed=1)
        np.testing.assert_array_equal(out_s[:3], samples)
        np.testing.assert_array_equal(out_l[:3], labels)

    def test_factor_one_is_identity(self):
        samples, labels = self._data()
        out_s, out_l = augment_dataset(samples, labels, factor=1, seed=0)
        assert out_s is samples and out_l is labels

    def test_deterministic_across_calls(self):
        samples, labels = self._data()
        a = augment_dataset(samples, labels, factor=3, seed=9)
        b = augment_dataset(samples, labels, factor=3, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = augment_dataset(samples, labels, factor=3, seed=10)
        assert not np.array_equal(a[0], c[0])

    def test_channels_share_transform_with_label(self):
        # a one-hot sample in both channels and in the label must end up with
        # identical support after nearest resampling of a binarized channel
        samples = np.zeros((1, 1, 15, 15), np.float32)
        labels = np.zeros((1, 15, 15), bool)
        samples[0, 0, 4:7, 9:12] = 1.0
        labels[0, 4:7, 9:12] = True
        out_s, out_l = augment_dataset(samples, labels, factor=2, seed=5)
        params = transform_for(5, 0, 1)
        np.testing.assert_array_equal(
            out_l[1], apply_affine(labels[0], params, "nearest"))
        np.testing.assert_allclose(
            out_s[1, 0], apply_affine(samples[0, 0], params, "bilinear"), atol=1e-6)

    def test_zero_area_slices(self):
        out_s, out_l = augment_dataset(np.zeros((2, 2, 0, 5), np.float32),
                                       np.zeros((2, 0, 5), bool), factor=3, seed=0)
        assert out_s.shape == (6, 2, 0, 5) and out_l.shape == (6, 0, 5)

    def test_invalid_factor(self):
        samples, labels = self._data()
        with pytest.raises(ValueError):
            augment_dataset(samples, labels, factor=0, seed=0)


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def reference(samples, labels, factor, seed):
    return augment_dataset_reference(samples, labels, factor,
                                     lambda i, j: transform_for(seed, i, j).matrix())


class TestMatchesMapCoordinates:
    """The stacked kernel repeats map_coordinates' arithmetic: byte-identical output."""

    def test_criterion_5_phantoms(self):
        x, g = case_training_arrays(phantom_generate(PhantomSpec(seed=7), 3))
        assert x.shape == (48, 2, 64, 64)
        assert_same_bytes(augment_dataset(x, g, 10, 7), reference(x, g, 10, 7))

    def test_paper_slice_size(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(5, 2, 200, 200)).astype(np.float32)
        g = rng.random((5, 200, 200)) < 0.05
        assert_same_bytes(augment_dataset(x, g, 3, 4), reference(x, g, 3, 4))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_integer_labels_nearest(self, dtype):
        rng = np.random.default_rng(21)
        x = rng.random((4, 2, 13, 11)).astype(np.float32)
        g = rng.integers(0, 200, (4, 13, 11)).astype(dtype)
        assert_same_bytes(augment_dataset(x, g, 4, 5), reference(x, g, 4, 5))

    @pytest.mark.parametrize("slices", [1, 3, None], ids=["one-slice", "three-slices", "whole-set"])
    def test_chunk_size_does_not_change_bytes(self, monkeypatch, slices):
        # 7 samples x 3 copies: a three-slice chunk straddles copies and ends short
        rng = np.random.default_rng(22)
        x = rng.normal(size=(7, 2, 12, 12)).astype(np.float32)
        g = rng.random((7, 12, 12)) < 0.3
        want = reference(x, g, 4, 6)
        monkeypatch.setattr(augment, "CHUNK_PIXELS", 144 * (slices or 21))
        assert_same_bytes(augment_dataset(x, g, 4, 6), want)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 7), (7, 2), (3, 3), (9, 7), (33, 17)])
    def test_apply_affine_wide_transforms(self, shape):
        # rotations to 90 deg, shears to 40 deg, scales 0.3-3, float64 and float32;
        # a side of 2 pixels puts coordinates below 1, where 1 - (1 - t) != t
        rng = np.random.default_rng(sum(shape))
        for _ in range(40):
            params = AffineParams(rotation_deg=rng.uniform(-90, 90),
                                  shear_deg=rng.uniform(-40, 40),
                                  scale_x=rng.uniform(0.3, 3), scale_y=rng.uniform(0.3, 3))
            inv = np.linalg.inv(params.matrix())
            x = rng.normal(size=shape)
            assert apply_affine(x, params).tobytes() == \
                map_coordinates_affine(x, inv, "bilinear").tobytes()
            x32 = x.astype(np.float32)
            assert apply_affine(x32, params).tobytes() == \
                map_coordinates_affine(x32, inv, "bilinear").astype(np.float32).tobytes()
            labels = rng.random(shape) < 0.5
            assert apply_affine(labels, params, "nearest").tobytes() == \
                map_coordinates_affine(labels, inv, "nearest").tobytes()

    def test_memory_bounded_by_output(self):
        # 48 samples x 10 at 64x64: the output plus chunk-sized temporaries
        rng = np.random.default_rng(23)
        x = rng.random((48, 2, 64, 64)).astype(np.float32)
        g = rng.random((48, 64, 64)) < 0.1
        tracemalloc.start()
        try:
            out_x, out_g = augment_dataset(x, g, 10, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out_x.shape[0] == 480
        assert peak < 1.5 * (out_x.nbytes + out_g.nbytes)
