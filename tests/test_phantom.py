import numpy as np
import pytest

from wmhseg.errors import ConfigurationError
from wmhseg.grids import connected_components_3d
from wmhseg.phantom import (
    DEFAULT_SCANNERS,
    FLAIR_LESION_INTENSITY,
    T1_LESION_INTENSITY,
    PhantomSpec,
    phantom_generate,
)
from wmhseg.preprocess import brain_mask


class TestSpecValidation:
    @pytest.mark.parametrize("lesions", [(5, 3), (-2, -1), (-1, 2)],
                             ids=["descending", "negative", "negative-low"])
    def test_lesion_count_range_ordered_and_non_negative(self, lesions):
        with pytest.raises(ConfigurationError, match="lesion count range"):
            PhantomSpec(lesion_count_range=lesions)

    @pytest.mark.parametrize("radii", [(3.0, 1.5), (-2.0, -1.0), (0.0, 2.0)],
                             ids=["descending", "negative", "zero-low"])
    def test_lesion_radius_range_ordered_and_positive(self, radii):
        with pytest.raises(ConfigurationError, match="lesion radius range"):
            PhantomSpec(lesion_radius_range=radii)

    @pytest.mark.parametrize("z_radius", [-1.0, 0.0])
    def test_lesion_z_radius_positive(self, z_radius):
        with pytest.raises(ConfigurationError, match="lesion z radius must be > 0"):
            PhantomSpec(lesion_z_radius=z_radius)

    def test_noise_std_non_negative(self):
        with pytest.raises(ConfigurationError, match="noise std must be >= 0"):
            PhantomSpec(noise_std=-5.0)

    @pytest.mark.parametrize("dims", [(64, 64, 0), (0, 64, 16), (8, -1, 8)])
    def test_dims_at_least_one(self, dims):
        with pytest.raises(ConfigurationError, match="dims must be >= 1"):
            PhantomSpec(dims=dims)

    def test_lesion_must_fit(self):
        with pytest.raises(ConfigurationError):
            PhantomSpec(dims=(8, 8, 16), lesion_radius_range=(1.5, 10.0))

    def test_infeasible_placement_raises(self):
        spec = PhantomSpec(dims=(24, 24, 8), lesion_count_range=(12, 12),
                           lesion_radius_range=(2.5, 3.0))
        with pytest.raises(ConfigurationError):
            phantom_generate(spec, 1)


class TestGeneration:
    def test_deterministic(self):
        a = phantom_generate(PhantomSpec(seed=5), 2)
        b = phantom_generate(PhantomSpec(seed=5), 2)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.flair.data, cb.flair.data)
            np.testing.assert_array_equal(ca.t1.data, cb.t1.data)
            np.testing.assert_array_equal(ca.ground_truth.data, cb.ground_truth.data)

    def test_seed_changes_data(self):
        a = phantom_generate(PhantomSpec(seed=1), 1)[0]
        b = phantom_generate(PhantomSpec(seed=2), 1)[0]
        assert not np.array_equal(a.ground_truth.data, b.ground_truth.data)

    def test_cases_differ_within_run(self):
        cases = phantom_generate(PhantomSpec(seed=0), 3)
        assert not np.array_equal(cases[0].ground_truth.data, cases[1].ground_truth.data)

    def test_dims_and_spacing(self):
        spec = PhantomSpec()
        case = phantom_generate(spec, 1)[0]
        assert case.flair.data.shape == (16, 64, 64)  # (nz, ny, nx)
        assert case.flair.dims == spec.dims
        assert case.flair.spacing == spec.spacing

    def test_scanner_round_robin(self):
        cases = phantom_generate(PhantomSpec(), 7)
        assert [c.scanner_id for c in cases[:4]] == [
            DEFAULT_SCANNERS[0], DEFAULT_SCANNERS[1], DEFAULT_SCANNERS[2],
            DEFAULT_SCANNERS[0],
        ]
        assert len({c.subject_id for c in cases}) == 7

    def test_lesion_component_count_in_range(self):
        spec = PhantomSpec(seed=3)
        for case in phantom_generate(spec, 8):
            cc = connected_components_3d(case.ground_truth, 26)
            assert spec.lesion_count_range[0] <= cc.count <= spec.lesion_count_range[1]

    def test_lesions_inside_brain_masks(self):
        # ground truth must survive the default 70/30 threshold masks
        for case in phantom_generate(PhantomSpec(seed=4), 4):
            gt = case.ground_truth.data
            flair_mask = brain_mask(case.flair, 70.0)
            t1_mask = brain_mask(case.t1, 30.0)
            assert (gt & ~flair_mask.data).sum() == 0
            assert (gt & ~t1_mask.data).sum() == 0

    def test_lesions_clear_of_z_trim(self):
        # a 10% z-trim must never clip a ground-truth voxel
        for case in phantom_generate(PhantomSpec(seed=6), 6):
            gt = case.ground_truth.data
            nz = gt.shape[0]
            n_trim = int(0.10 * nz)
            assert not gt[:n_trim].any()
            assert not gt[nz - n_trim:].any()

    def test_lesions_hyperintense_on_flair(self):
        spec = PhantomSpec(seed=7, noise_std=0.0)
        case = phantom_generate(spec, 1)[0]
        gt = case.ground_truth.data
        assert (case.flair.data[gt] == FLAIR_LESION_INTENSITY).all()
        assert (case.t1.data[gt] == T1_LESION_INTENSITY).all()

    def test_zero_lesion_spec(self):
        spec = PhantomSpec(lesion_count_range=(0, 0))
        case = phantom_generate(spec, 1)[0]
        assert case.ground_truth.population == 0

    def test_noise_applied(self):
        noisy = phantom_generate(PhantomSpec(seed=8), 1)[0]
        clean = phantom_generate(PhantomSpec(seed=8, noise_std=0.0), 1)[0]
        assert not np.array_equal(noisy.flair.data, clean.flair.data)
        assert np.array_equal(
            noisy.ground_truth.data, clean.ground_truth.data
        )  # noise never moves the truth
