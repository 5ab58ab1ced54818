import numpy as np
import pytest

from wmhseg.errors import ContractError
from wmhseg.grids import BinaryMask3D
from wmhseg.metrics import avd, dsc, evaluate_case, hausdorff95, lesion_f1, lesion_recall

from oracles import dsc_oracle, hausdorff95_allpairs, lesion_counts_oracle
from test_grids import INSET, ROW_WRAP, SLICE_WRAP

SPACING = (1.0, 1.0, 1.0)


def mask(data, spacing=SPACING):
    return BinaryMask3D(np.asarray(data, bool), spacing)


def random_pair(rng, shape=(6, 12, 12), density=0.25):
    return (mask(rng.random(shape) < density),
            mask(rng.random(shape) < density))


class TestDSC:
    def test_identical(self):
        m = mask(np.random.default_rng(0).random((4, 8, 8)) < 0.3)
        assert dsc(m, m) == 1.0

    def test_both_empty(self):
        z = mask(np.zeros((3, 4, 4)))
        assert dsc(z, z) == 1.0

    def test_disjoint(self):
        a = np.zeros((2, 4, 4), bool)
        b = np.zeros((2, 4, 4), bool)
        a[0, 0, 0] = True
        b[1, 1, 1] = True
        assert dsc(mask(a), mask(b)) == 0.0

    def test_hand_case(self):
        # |G|=4, |P|=2, overlap=2 -> 2*2/6
        g = np.zeros((1, 4, 4), bool)
        p = np.zeros((1, 4, 4), bool)
        g[0, 0, :4] = True
        p[0, 0, :2] = True
        assert dsc(mask(g), mask(p)) == pytest.approx(2 / 3)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = random_pair(rng)
        assert dsc(a, b) == dsc(b, a)

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_pair(rng)
            assert dsc(a, b) == pytest.approx(dsc_oracle(a.data, b.data))

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            dsc(mask(np.zeros((2, 4, 4))), mask(np.zeros((2, 5, 5))))


class TestSpacing:
    @pytest.mark.parametrize("metric", [dsc, hausdorff95, avd, lesion_recall, lesion_f1,
                                        evaluate_case])
    def test_mismatch_rejected(self, metric):
        data = np.zeros((2, 4, 4), bool)
        data[1, 1:3, 1:3] = True
        with pytest.raises(ContractError, match=r"mask spacings differ: "
                                                r"\(1\.0, 1\.0, 3\.0\) vs \(2\.0, 2\.0, 6\.0\)"):
            metric(mask(data, (1.0, 1.0, 3.0)), mask(data, (2.0, 2.0, 6.0)))

    def test_float32_rounding_is_aligned(self):
        # a NIfTI header stores pixdim as float32
        spacing = (0.95, 0.9375, 3.3)
        stored = tuple(float(np.float32(s)) for s in spacing)
        assert stored != spacing
        ones = np.ones((2, 4, 4))
        assert dsc(mask(ones, spacing), mask(ones, stored)) == 1.0


class TestHausdorff95:
    def test_identical_masks_zero(self):
        rng = np.random.default_rng(3)
        m = mask(rng.random((4, 8, 8)) < 0.4)
        assert hausdorff95(m, m) == 0.0

    def test_empty_mask_undefined(self):
        a = mask(np.zeros((3, 4, 4)))
        b = mask(np.ones((3, 4, 4)))
        assert hausdorff95(a, b) is None
        assert hausdorff95(b, a) is None

    def test_two_voxels_axial_offset(self):
        # single voxels 3 slices apart with 3 mm slice spacing -> 9 mm
        a = np.zeros((7, 5, 5), bool)
        b = np.zeros((7, 5, 5), bool)
        a[1, 2, 2] = True
        b[4, 2, 2] = True
        assert hausdorff95(mask(a, (1, 1, 3)), mask(b, (1, 1, 3))) == pytest.approx(9.0)

    def test_anisotropic_inplane(self):
        a = np.zeros((1, 5, 5), bool)
        b = np.zeros((1, 5, 5), bool)
        a[0, 2, 0] = True
        b[0, 2, 4] = True  # 4 voxels along x at 0.5 mm
        assert hausdorff95(mask(a, (0.5, 2.0, 1.0)),
                           mask(b, (0.5, 2.0, 1.0))) == pytest.approx(2.0)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a, b = random_pair(rng)
        assert hausdorff95(a, b) == hausdorff95(b, a)

    def test_matches_allpairs_oracle(self):
        rng = np.random.default_rng(5)
        spacing = (0.96, 0.95, 3.0)
        for _ in range(30):
            a = mask(rng.random((5, 9, 9)) < 0.2, spacing)
            b = mask(rng.random((5, 9, 9)) < 0.2, spacing)
            if a.population == 0 or b.population == 0:
                continue
            assert hausdorff95(a, b) == pytest.approx(
                hausdorff95_allpairs(a.data, b.data, spacing))

    def test_scaling_with_spacing(self):
        rng = np.random.default_rng(6)
        a = mask(rng.random((4, 8, 8)) < 0.3)
        b = mask(rng.random((4, 8, 8)) < 0.3)
        base = hausdorff95(a, b)
        doubled = hausdorff95(a, b, spacing=(2.0, 2.0, 2.0))
        assert doubled == pytest.approx(2 * base)


class TestAVD:
    def test_exact_volume_match(self):
        rng = np.random.default_rng(7)
        data = rng.random((3, 6, 6)) < 0.4
        shifted = np.roll(data, 1, axis=1)
        assert avd(mask(data), mask(shifted)) == 0.0

    def test_hand_case(self):
        g = np.zeros((1, 4, 4), bool)
        p = np.zeros((1, 4, 4), bool)
        g[0, 0, :4] = True  # 4 voxels
        p[0, 1, :3] = True  # 3 voxels
        assert avd(mask(g), mask(p)) == pytest.approx(0.25)

    def test_empty_truth_undefined(self):
        assert avd(mask(np.zeros((2, 3, 3))), mask(np.ones((2, 3, 3)))) is None

    def test_empty_prediction(self):
        g = mask(np.ones((2, 3, 3)))
        assert avd(g, mask(np.zeros((2, 3, 3)))) == 1.0


class TestLesionMetrics:
    def _two_lesion_fixture(self):
        g = np.zeros((4, 10, 10), bool)
        g[1, 2:4, 2:4] = True   # lesion A
        g[1, 7:9, 7:9] = True   # lesion B
        p = np.zeros((4, 10, 10), bool)
        p[1, 3, 3] = True       # touches A only
        p[2, 0, 0] = True       # false positive
        return mask(g), mask(p)

    def test_recall_half(self):
        g, p = self._two_lesion_fixture()
        assert lesion_recall(g, p) == 0.5

    def test_f1_half(self):
        g, p = self._two_lesion_fixture()
        # 2 predicted components, 1 touching truth
        assert lesion_f1(g, p) == 0.5

    def test_perfect_detection(self):
        g, _ = self._two_lesion_fixture()
        assert lesion_recall(g, g) == 1.0
        assert lesion_f1(g, g) == 1.0

    def test_empty_truth_recall_undefined(self):
        z = mask(np.zeros((2, 4, 4)))
        p = mask(np.ones((2, 4, 4)))
        assert lesion_recall(z, p) is None

    def test_empty_prediction_f1_undefined(self):
        g = mask(np.ones((2, 4, 4)))
        z = mask(np.zeros((2, 4, 4)))
        assert lesion_f1(g, z) is None
        assert lesion_recall(g, z) == 0.0

    @pytest.mark.parametrize("connectivity", [26])
    def test_matches_oracle(self, connectivity):
        rng = np.random.default_rng(8 + connectivity)
        for _ in range(25):
            g, p = random_pair(rng, shape=(5, 9, 9), density=0.15)
            ng, nd, nh, nf = lesion_counts_oracle(g.data, p.data, connectivity)
            if ng:
                assert lesion_recall(g, p) == pytest.approx(nd / ng)
            if nh + nf:
                assert lesion_f1(g, p) == pytest.approx(nh / (nh + nf))


class TestEvaluateCase:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(9)
        g, p = random_pair(rng)
        report = evaluate_case(g, p)
        assert report.dsc == pytest.approx(dsc(g, p))
        assert report.h95 == pytest.approx(hausdorff95(g, p))
        assert report.avd == pytest.approx(avd(g, p))
        assert report.recall == pytest.approx(lesion_recall(g, p))
        assert report.f1 == pytest.approx(lesion_f1(g, p))

    def test_both_empty_flag(self):
        z = mask(np.zeros((2, 4, 4)))
        report = evaluate_case(z, z)
        assert report.dsc == 1.0
        assert report.h95 is None and report.avd is None
        assert report.recall is None and report.f1 is None

    def test_as_row_formats_none_as_empty(self):
        z = mask(np.zeros((2, 4, 4)))
        row = evaluate_case(z, z).as_row()
        assert row["dsc"] == "1.000000"
        assert row["h95_mm"] == ""

    def test_lesion_counts(self):
        g = np.zeros((3, 8, 8), bool)
        g[0, 1, 1] = g[1, 5, 5] = g[2, 3, 3] = True  # 3 separate lesions
        p = np.zeros((3, 8, 8), bool)
        p[0, 1, 1] = True  # detects one
        p[2, 7, 7] = True  # false positive
        report = evaluate_case(mask(g), mask(p))
        assert report.recall == pytest.approx(1 / 3)  # 1 of 3 truth lesions
        assert report.f1 == pytest.approx(1 / 2)  # 1 of 2 predicted lesions


def _embed(layout, shape, origin):
    data = np.zeros(shape, bool)
    data[tuple(slice(o, o + n) for o, n in zip(origin, layout.shape))] = layout
    return data


def _first_voxel(layout):
    only = np.zeros_like(layout)
    only.flat[np.flatnonzero(layout)[0]] = True
    return only


def _boxed_pairs():
    """(id, truth, pred) pairs whose foreground fills only part of the grid."""
    pairs = []
    for name, layout in (("row-wrap", ROW_WRAP), ("slice-wrap", SLICE_WRAP), ("inset", INSET)):
        shape = tuple(n + 4 for n in layout.shape)
        for where, origin in (("low-edges", (0, 0, 0)), ("high-edges", (4, 4, 4)),
                              ("inside", (1, 3, 2))):
            whole = _embed(layout, shape, origin)
            part = _embed(_first_voxel(layout), shape, origin)
            pairs += [(f"{name}-{where}", whole, part), (f"{name}-{where}-swapped", part, whole)]
    rng = np.random.default_rng(24)
    shape, sub_box = (9, 20, 24), (slice(2, 7), slice(5, 16), slice(3, 19))

    def confined(density):
        data = np.zeros(shape, bool)
        data[sub_box] = rng.random(data[sub_box].shape) < density
        return data

    empty = np.zeros(shape, bool)
    pairs += [("random-sparse", confined(0.03), confined(0.03)),
              ("random-dense", confined(0.5), confined(0.5)),
              ("empty-pred", confined(0.03), empty), ("empty-truth", empty, confined(0.03)),
              ("both-empty", empty, empty)]
    return [pytest.param(truth, pred, id=name) for name, truth, pred in pairs]


@pytest.mark.parametrize("truth, pred", _boxed_pairs())
def test_evaluate_case_equals_full_grid_metrics(truth, pred):
    # evaluate_case scores the pair's foreground box; the metric functions
    # here run on the whole grid.
    g, p = mask(truth, (0.96, 0.95, 3.0)), mask(pred, (0.96, 0.95, 3.0))
    report = evaluate_case(g, p)
    assert report.dsc == dsc(g, p)
    assert report.avd == avd(g, p)
    assert report.recall == lesion_recall(g, p)
    assert report.f1 == lesion_f1(g, p)
    h95 = hausdorff95(g, p)
    if h95 is None:
        assert report.h95 is None
    else:
        assert report.h95 == pytest.approx(h95, rel=1e-12, abs=0)
