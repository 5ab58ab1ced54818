import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.errors import ContractError
from wmhseg.grids import BinaryMask3D, Volume3D, fill_holes_2d, largest_component_2d
from wmhseg.phantom import PhantomSpec, phantom_generate
from wmhseg.preprocess import (
    CaseRecord,
    brain_mask,
    crop_or_pad_slice,
    gaussian_normalize,
    invert_crop_or_pad,
    preprocess_case,
    write_record,
)

from oracles import flood_fill_components_2d, preprocess_case_reference


class TestCropOrPad:
    def test_240_center_crop(self):
        out, offsets = crop_or_pad_slice(np.ones((240, 240)), (200, 200))
        assert out.shape == (200, 200)
        assert offsets == ((-20, -20), (-20, -20))

    def test_mixed_pad_and_crop(self):
        out, offsets = crop_or_pad_slice(np.ones((132, 256)), (200, 200))
        assert out.shape == (200, 200)
        assert offsets == ((34, 34), (-28, -28))

    def test_identity(self):
        x = np.random.default_rng(0).random((200, 200))
        out, offsets = crop_or_pad_slice(x, (200, 200))
        np.testing.assert_array_equal(out, x)
        assert offsets == ((0, 0), (0, 0))

    def test_odd_excess_goes_high(self):
        _, offsets = crop_or_pad_slice(np.ones((133, 241)), (200, 200))
        assert offsets == ((33, 34), (-20, -21))

    def test_padding_value_zero(self):
        out, _ = crop_or_pad_slice(np.ones((100, 100)), (200, 200))
        assert out[0, 0] == 0 and out[199, 199] == 0
        assert out[100, 100] == 1

    def test_round_trip_240(self):
        x = np.random.default_rng(1).random((240, 240))
        out, offsets = crop_or_pad_slice(x, (200, 200))
        back = invert_crop_or_pad(out, offsets, (240, 240))
        # border ring restored as background, interior preserved
        np.testing.assert_array_equal(back[20:220, 20:220], x[20:220, 20:220])
        assert not back[:20].any() and not back[220:].any()

    def test_round_trip_132x256(self):
        x = np.random.default_rng(2).random((132, 256))
        out, offsets = crop_or_pad_slice(x, (200, 200))
        back = invert_crop_or_pad(out, offsets, (132, 256))
        np.testing.assert_array_equal(back[:, 28:228], x[:, 28:228])

    @pytest.mark.parametrize("shape", [(240, 256), (132, 180)], ids=["crop", "pad"])
    def test_stack_matches_slices(self, shape):
        x = np.random.default_rng(5).random((3, *shape))
        out, offsets = crop_or_pad_slice(x, (200, 200))
        per_slice = [crop_or_pad_slice(plane, (200, 200)) for plane in x]
        np.testing.assert_array_equal(out, np.stack([o for o, _ in per_slice]))
        assert all(o == offsets for _, o in per_slice)
        back = invert_crop_or_pad(out, offsets, shape)
        np.testing.assert_array_equal(
            back, np.stack([invert_crop_or_pad(o, offsets, shape) for o, _ in per_slice]))

    def test_invert_rejects_inconsistent_dims(self):
        out, offsets = crop_or_pad_slice(np.ones((240, 240)), (200, 200))
        with pytest.raises(ContractError):
            invert_crop_or_pad(out, offsets, (100, 100))

    @given(st.integers(64, 512), st.integers(64, 512))
    @settings(max_examples=40, deadline=None)
    def test_overlap_identity_property(self, h, w):
        rng = np.random.default_rng(h * 1000 + w)
        x = rng.random((h, w))
        out, offsets = crop_or_pad_slice(x, (200, 200))
        back = invert_crop_or_pad(out, offsets, (h, w))
        overlap = (back != 0) | (x != 0)
        lo_r = max(0, -offsets[0][0])
        hi_r = h - max(0, -offsets[0][1])
        lo_c = max(0, -offsets[1][0])
        hi_c = w - max(0, -offsets[1][1])
        np.testing.assert_array_equal(back[lo_r:hi_r, lo_c:hi_c], x[lo_r:hi_r, lo_c:hi_c])
        del overlap


def disc_volume():
    """A bright disc with a hollow center on every slice."""
    data = np.zeros((4, 32, 32), np.float32)
    y, x = np.ogrid[0:32, 0:32]
    disc = (x - 16) ** 2 + (y - 16) ** 2 <= 100
    hole = (x - 16) ** 2 + (y - 16) ** 2 <= 9
    for z in range(4):
        data[z][disc] = 100.0
        data[z][hole] = 0.0
    return Volume3D(data, (1, 1, 1)), disc


class TestBrainMask:
    def test_hollow_disc_filled(self):
        vol, disc = disc_volume()
        mask = brain_mask(vol, 70.0)
        for z in range(4):
            np.testing.assert_array_equal(mask.data[z], disc)

    def test_zero_volume_empty_mask(self):
        vol = Volume3D(np.zeros((3, 16, 16), np.float32), (1, 1, 1))
        assert brain_mask(vol, 70.0).population == 0

    def test_single_component_per_slice(self):
        rng = np.random.default_rng(9)
        vol = Volume3D((rng.random((5, 20, 20)) * 200).astype(np.float32), (1, 1, 1))
        mask = brain_mask(vol, 70.0)
        for z in range(5):
            _, count = flood_fill_components_2d(mask.data[z])
            assert count <= 1

    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(10)
        vol = Volume3D((rng.random((3, 24, 24)) * 150).astype(np.float32), (1, 1, 1))
        mask = brain_mask(vol, 70.0)
        for z in range(3):
            expected = fill_holes_2d(largest_component_2d(vol.data[z] > 70.0))
            np.testing.assert_array_equal(mask.data[z], expected)


class TestGaussianNormalize:
    def test_masked_statistics(self):
        rng = np.random.default_rng(3)
        vol = Volume3D(rng.normal(50, 20, (4, 16, 16)).astype(np.float32), (1, 1, 1))
        mask = BinaryMask3D(rng.random((4, 16, 16)) < 0.6, (1, 1, 1))
        out, mean, std, degenerate = gaussian_normalize(vol, mask)
        assert not degenerate
        values = out.data[mask.data]
        assert abs(values.mean()) < 1e-6
        assert abs(values.std() - 1.0) < 1e-5

    def test_two_voxel_case(self):
        vol = Volume3D(np.array([[[10.0, 20.0]]]), (1, 1, 1))
        mask = BinaryMask3D(np.ones((1, 1, 2), bool), (1, 1, 1))
        out, mean, std, _ = gaussian_normalize(vol, mask)
        assert mean == 15.0 and std == 5.0  # population std
        np.testing.assert_allclose(out.data, [[[-1.0, 1.0]]])

    def test_constant_interior_degenerate(self):
        vol = Volume3D(np.full((2, 4, 4), 7.0), (1, 1, 1))
        mask = BinaryMask3D(np.ones((2, 4, 4), bool), (1, 1, 1))
        out, _, _, degenerate = gaussian_normalize(vol, mask)
        assert degenerate
        assert not out.data.any()

    def test_empty_mask_degenerate(self):
        vol = Volume3D(np.ones((2, 4, 4)), (1, 1, 1))
        mask = BinaryMask3D(np.zeros((2, 4, 4), bool), (1, 1, 1))
        assert gaussian_normalize(vol, mask)[3]

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.normal(0, 1, (3, 10, 10))
        mask = BinaryMask3D(rng.random((3, 10, 10)) < 0.5, (1, 1, 1))
        base, *_ = gaussian_normalize(Volume3D(data, (1, 1, 1)), mask)
        scaled, *_ = gaussian_normalize(Volume3D(3.5 * data + 11.0, (1, 1, 1)), mask)
        np.testing.assert_allclose(scaled.data, base.data, atol=1e-6)


def make_case(nz=4, side=32, with_gt=True):
    vol, disc = disc_volume()
    flair = np.zeros((nz, side, side), np.float32)
    t1 = np.zeros((nz, side, side), np.float32)
    y, x = np.ogrid[0:side, 0:side]
    brain = (x - side // 2) ** 2 + (y - side // 2) ** 2 <= (side // 3) ** 2
    gt = np.zeros((nz, side, side), bool)
    for z in range(nz):
        flair[z][brain] = 120.0
        t1[z][brain] = 100.0
        gt[z, side // 2, side // 2] = True
        flair[z][gt[z]] = 300.0
    spacing = (1.0, 1.0, 3.0)
    return CaseRecord(
        subject_id="s1", scanner_id="a",
        flair=Volume3D(flair, spacing), t1=Volume3D(t1, spacing),
        ground_truth=BinaryMask3D(gt, spacing) if with_gt else None,
    )


class TestPreprocessCase:
    def test_two_channel_samples(self):
        case = make_case()
        samples, truth, record = preprocess_case(case, target=(48, 48))
        assert samples.shape == (4, 2, 48, 48)
        assert truth.shape == (4, 48, 48)
        assert set(record.normalization) == {"flair", "t1"}

    def test_flair_only_mode(self):
        case = make_case()
        samples, _, record = preprocess_case(case, target=(48, 48), modalities=("flair",))
        assert samples.shape == (4, 1, 48, 48)
        assert set(record.normalization) == {"flair"}

    def test_empty_brain_degenerate(self):
        case = make_case()
        case.flair.data[:] = 0
        case.t1.data[:] = 0
        samples, _, record = preprocess_case(case, target=(48, 48))
        assert record.degenerate
        assert not samples.any()

    @pytest.mark.parametrize("modality", ["flair", "t1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_rejected(self, modality, value):
        case = make_case()
        getattr(case, modality).data[1, 16, 16] = value
        with pytest.raises(ContractError, match=f"case s1: {modality} has 1 non-finite"):
            preprocess_case(case, target=(48, 48))

    def test_truth_binary_after_geometry(self):
        case = make_case()
        _, truth, _ = preprocess_case(case, target=(64, 64))
        assert truth.dtype == bool

    @pytest.mark.parametrize("target", [(0, 48), (48, -1)])
    def test_bad_target_rejected_before_any_work(self, target):
        case = make_case()
        case.flair.data[1, 16, 16] = np.nan
        with pytest.raises(ContractError, match=r"target dims must be positive, got \("):
            preprocess_case(case, target=target)

    def test_case_requires_aligned_grids(self):
        case = make_case()
        with pytest.raises(ContractError):
            CaseRecord("x", "a", case.flair,
                       Volume3D(np.zeros((2, 8, 8)), case.flair.spacing))


def phantom_case(dims=(36, 28, 8), seed=11):
    return phantom_generate(PhantomSpec(dims=dims, lesion_count_range=(2, 3), seed=seed), 1)[0]


class TestMatchesReference:
    """``preprocess_case`` gives the bytes of the per-modality construction."""

    @staticmethod
    def check(case, target, modalities=("flair", "t1")):
        samples, truth, record = preprocess_case(case, target=target, modalities=modalities)
        want_samples, want_truth, want_record = preprocess_case_reference(case, target, modalities)
        assert samples.dtype == want_samples.dtype == np.float32
        assert samples.shape == want_samples.shape
        assert samples.tobytes() == want_samples.tobytes()
        if want_truth is None:
            assert truth is None
        else:
            assert truth.dtype == want_truth.dtype and truth.shape == want_truth.shape
            assert truth.tobytes() == want_truth.tobytes()
        assert record == want_record
        return record

    @pytest.mark.parametrize("target", [(28, 36), (20, 24), (48, 40), (21, 45)],
                             ids=["same", "crop", "pad", "crop-rows-pad-cols"])
    def test_both_modalities(self, target):
        record = self.check(phantom_case(), target)
        assert not record.degenerate and list(record.normalization) == ["flair", "t1"]

    @pytest.mark.parametrize("target", [(20, 24), (48, 40)], ids=["crop", "pad"])
    def test_flair_only(self, target):
        record = self.check(phantom_case(seed=12), target, modalities=("flair",))
        assert list(record.normalization) == ["flair"]

    def test_all_zero_case_is_degenerate(self):
        case = phantom_case(seed=13)
        case.flair.data[:] = 0
        case.t1.data[:] = 0
        record = self.check(case, (32, 32))
        assert record.degenerate

    def test_first_modality_degenerate(self):
        case = phantom_case(seed=14)
        case.flair.data[:] = 0
        assert self.check(case, (32, 32)).degenerate

    def test_without_truth(self):
        case = phantom_case(seed=15)
        case.ground_truth = None
        self.check(case, (24, 30))


def test_record_round_trip(tmp_path):
    case = make_case()
    _, _, record = preprocess_case(case, target=(48, 48))
    path = tmp_path / "record.txt"
    write_record(record, path)
    kv = dict(line.split("=", 1) for line in path.read_text().splitlines())
    assert tuple(map(int, kv["original_dims"].split(","))) == record.original_dims
    assert (tuple(map(int, kv["offsets_rows"].split(","))),
            tuple(map(int, kv["offsets_cols"].split(",")))) == record.offsets
    assert (kv["threshold_flair"], kv["threshold_t1"]) == ("70.0", "30.0")
    assert bool(int(kv["degenerate"])) == record.degenerate
    for modality in record.normalization:
        np.testing.assert_allclose((float(kv[f"mean_{modality}"]), float(kv[f"std_{modality}"])),
                                   record.normalization[modality])
