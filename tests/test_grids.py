import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wmhseg.errors import ContractError
from wmhseg.grids import (
    BinaryMask3D,
    Volume3D,
    boundary_voxels,
    connected_components_3d,
    fill_holes_2d,
    largest_component_2d,
)

from oracles import (
    boundary_voxels_oracle,
    fill_holes_2d_oracle,
    flood_fill_components_2d,
    flood_fill_components_3d,
)

SPACING = (1.0, 1.0, 1.0)


def mask(data):
    return BinaryMask3D(data=np.asarray(data, bool), spacing=SPACING)


def two_voxels(shape, a, b):
    m = np.zeros(shape, bool)
    m[a] = m[b] = True
    return m


# Neighbours in flat index order that are not neighbours on the grid: the
# last voxel of a row and the first of the next (flat distance 1), and the
# last row of a slice and the first row of the next (flat distance nx).  The
# oracles give two components under 26-connectivity and two boundary voxels.
# Both sit on the first and last index of the axes they span, so a bounding
# box that loses an end drops one of them.
ROW_WRAP = two_voxels((1, 2, 4), (0, 0, 3), (0, 1, 0))
SLICE_WRAP = two_voxels((2, 3, 2), (0, 2, 1), (1, 0, 1))
# Foreground whose bounding box starts past 0 on every axis.
INSET = two_voxels((4, 5, 6), (1, 2, 3), (2, 3, 4))


class TestTypes:
    def test_volume_rejects_nonpositive_spacing(self):
        with pytest.raises(ContractError):
            Volume3D(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0))

    def test_mask_rejects_2d_data_by_name(self):
        with pytest.raises(ContractError, match="^BinaryMask3D data must be 3D"):
            BinaryMask3D(np.zeros((2, 2), bool), SPACING)

    def test_mask_shares_a_bool_array(self):
        data = np.zeros((2, 3, 4), bool)
        assert np.shares_memory(BinaryMask3D(data, SPACING).data, data)

    def test_mask_casts_a_uint8_array_to_bool(self):
        data = np.arange(24, dtype=np.uint8).reshape(2, 3, 4) % 3
        m = BinaryMask3D(data, SPACING)
        assert m.data.dtype == bool
        np.testing.assert_array_equal(m.data, data != 0)

    def test_dims_ordering(self):
        v = Volume3D(np.zeros((3, 4, 5)), (0.96, 0.95, 3.0))
        assert v.dims == (5, 4, 3)  # (nx, ny, nz)


class TestConnectedComponents3D:
    def test_empty_mask(self):
        cc = connected_components_3d(mask(np.zeros((4, 4, 4))))
        assert cc.count == 0
        assert not cc.labels.any()

    def test_full_mask(self):
        cc = connected_components_3d(mask(np.ones((4, 4, 4))))
        assert cc.count == 1
        assert (cc.labels == 1).all()

    def test_corner_touching_voxels(self):
        m = np.zeros((3, 3, 3), bool)
        m[0, 0, 0] = m[1, 1, 1] = True
        assert connected_components_3d(mask(m), 26).count == 1
        assert connected_components_3d(mask(m), 6).count == 2

    def test_edge_touching_voxels(self):
        m = np.zeros((3, 3, 3), bool)
        m[0, 0, 0] = m[0, 1, 1] = True
        assert connected_components_3d(mask(m), 18).count == 1
        assert connected_components_3d(mask(m), 6).count == 2

    def test_invalid_connectivity(self):
        with pytest.raises(ContractError):
            connected_components_3d(mask(np.zeros((2, 2, 2))), 4)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_flood_fill_oracle(self, connectivity):
        rng = np.random.default_rng(100 + connectivity)
        for _ in range(50):
            m = rng.random((12, 12, 6)) < 0.35
            cc = connected_components_3d(mask(m), connectivity)
            expected_labels, expected_count = flood_fill_components_3d(m, connectivity)
            assert cc.count == expected_count
            np.testing.assert_array_equal(cc.labels, expected_labels)

    @given(arrays(bool, array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=12)),
           st.sampled_from([6, 18, 26]))
    @example(np.zeros((3, 1, 12), bool), 26)
    @example(np.ones((12, 5, 1), bool), 6)
    @example(ROW_WRAP, 26)
    @example(SLICE_WRAP, 26)
    @example(INSET, 6)
    @settings(max_examples=80, deadline=None)
    def test_labels_equal_flood_fill_any_shape(self, m, connectivity):
        # ndimage.label's own numbering must already be the scan order
        cc = connected_components_3d(mask(m), connectivity)
        expected_labels, expected_count = flood_fill_components_3d(m, connectivity)
        assert cc.count == expected_count
        np.testing.assert_array_equal(cc.labels, expected_labels)

    def test_label_set_contiguous(self):
        rng = np.random.default_rng(5)
        m = rng.random((10, 10, 5)) < 0.3
        cc = connected_components_3d(mask(m))
        assert set(np.unique(cc.labels)) <= set(range(cc.count + 1))
        assert cc.labels.max() == cc.count or cc.count == 0


class TestLargestComponent2D:
    def test_keeps_bigger_blob(self):
        m = np.zeros((8, 8), bool)
        m[0, 0:3] = True          # 3-pixel blob
        m[5, 0:5] = True          # 5-pixel blob
        out = largest_component_2d(m)
        assert out[5, 0:5].all()
        assert not out[0].any()

    def test_empty_and_full(self):
        assert not largest_component_2d(np.zeros((4, 4), bool)).any()
        np.testing.assert_array_equal(
            largest_component_2d(np.ones((4, 4), bool)), np.ones((4, 4), bool)
        )

    def test_tie_takes_first_in_scan_order(self):
        m = np.zeros((6, 6), bool)
        m[1, 1:3] = True
        m[4, 1:3] = True
        out = largest_component_2d(m)
        assert out[1, 1:3].all() and not out[4].any()

    @given(arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)))
    @example(np.zeros((1, 7), bool))
    @example(np.ones((12, 12), bool))
    @settings(max_examples=80, deadline=None)
    def test_subset_with_max_component_size(self, m):
        # exactly the first largest flood-fill component in scan order
        out = largest_component_2d(m)
        assert not (out & ~m).any()
        labels, count = flood_fill_components_2d(m)
        expected = np.zeros_like(m)
        if count:
            sizes = np.bincount(labels.ravel())[1:]
            expected = labels == 1 + int(np.argmax(sizes))
        np.testing.assert_array_equal(out, expected)


class TestFillHoles2D:
    def test_ring_becomes_disc(self):
        m = np.zeros((9, 9), bool)
        m[2:7, 2:7] = True
        m[3:6, 3:6] = False
        out = fill_holes_2d(m)
        assert out[2:7, 2:7].all()

    def test_no_holes_identity(self):
        m = np.zeros((6, 6), bool)
        m[1:3, 1:4] = True
        np.testing.assert_array_equal(fill_holes_2d(m), m)

    def test_empty(self):
        assert not fill_holes_2d(np.zeros((5, 5), bool)).any()

    @given(arrays(bool, (10, 10)))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_superset_and_oracle(self, m):
        out = fill_holes_2d(m)
        assert (out | m == out).all()  # superset
        np.testing.assert_array_equal(fill_holes_2d(out), out)  # idempotent
        np.testing.assert_array_equal(out, fill_holes_2d_oracle(m))


class TestBoundaryVoxels:
    def test_single_voxel(self):
        m = np.zeros((3, 3, 3), bool)
        m[1, 1, 1] = True
        np.testing.assert_array_equal(boundary_voxels(mask(m)), [[1, 1, 1]])

    def test_solid_cube_shell(self):
        m = np.zeros((5, 5, 5), bool)
        m[1:4, 1:4, 1:4] = True
        coords = boundary_voxels(mask(m))
        assert len(coords) == 26
        assert [2, 2, 2] not in coords.tolist()

    def test_empty(self):
        assert boundary_voxels(mask(np.zeros((3, 3, 3)))).shape == (0, 3)

    def test_matches_oracle_on_random_masks(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m = rng.random((6, 7, 5)) < 0.4
            got = boundary_voxels(mask(m))
            np.testing.assert_array_equal(got, boundary_voxels_oracle(m))

    @given(arrays(bool, array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=12)))
    @example(ROW_WRAP)
    @example(SLICE_WRAP)
    @example(INSET)
    # (1, 1, 2) and (1, 2, 1) lack their +x and +y neighbours, though the next
    # voxel in flat order at those distances is foreground
    @example(np.ones((3, 3, 3), bool))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_any_shape(self, m):
        np.testing.assert_array_equal(boundary_voxels(mask(m)), boundary_voxels_oracle(m))

    def test_peeling_shrinks_boundary(self):
        rng = np.random.default_rng(8)
        m = rng.random((8, 8, 8)) < 0.6
        while m.any():
            coords = boundary_voxels(mask(m))
            assert len(coords)
            assert m[tuple(coords.T)].all()  # boundary is a subset of foreground
            m = m.copy()
            m[tuple(coords.T)] = False
