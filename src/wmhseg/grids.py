"""Core 3D/2D grid types plus connected components, morphology and boundaries.

Volumes are stored axial-slice-major: ``data[z, y, x]``, so per-slice
operations touch contiguous memory.  ``dims`` follows the (nx, ny, nz)
convention of the NIfTI header, ``spacing`` is (sx, sy, sz) in mm.
Labeling and hole filling are ``scipy.ndimage`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ContractError

# 2D slices use 8-connectivity for foreground, 4-connectivity for the
# background complement (standard duality).
_STRUCT_2D_FG = np.ones((3, 3), dtype=bool)


def _structure_3d(connectivity: int) -> np.ndarray:
    if connectivity not in (6, 18, 26):
        raise ContractError(f"3D connectivity must be 6, 18 or 26, got {connectivity}")
    order = {6: 1, 18: 2, 26: 3}[connectivity]
    return ndimage.generate_binary_structure(3, order)


@dataclass
class _Grid3D:
    """Validation and ``dims`` shared by the 3D grid types.

    ``data`` has shape (nz, ny, nx); ``spacing`` is (sx, sy, sz).  ``header``
    holds the 348 NIfTI-1 header bytes of a grid read from disk, so writing
    it again keeps the orientation fields; it is None for a grid built in
    memory.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    header: bytes | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        name = type(self).__name__
        if self.data.ndim != 3:
            raise ContractError(f"{name} data must be 3D, got ndim={self.data.ndim}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ContractError(f"spacing components must be positive, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)


class Volume3D(_Grid3D):
    """A 3D scalar grid with voxel spacing in mm."""


class BinaryMask3D(_Grid3D):
    """A boolean grid aligned with a Volume3D."""

    def __post_init__(self):
        super().__post_init__()
        self.data = self.data.astype(bool, copy=False)

    @property
    def population(self) -> int:
        return int(np.count_nonzero(self.data))


@dataclass
class ComponentLabeling:
    """Result of 3D connected-component labeling.

    ``labels`` holds one nonnegative integer per voxel (0 = background);
    label values form the contiguous set {0..count}, assigned in
    first-encounter scan order.
    """

    labels: np.ndarray
    count: int


def connected_components_3d(mask: BinaryMask3D, connectivity: int = 26) -> ComponentLabeling:
    """Label 3D connected components under 6/18/26-connectivity.

    Labels are deterministic: component k is the k-th one encountered in a
    (z, y, x) raster scan.  ``ndimage.label`` already numbers them so, since
    it hands out provisional labels in scan order and merges each component
    into its smallest one.  An empty mask yields count 0.
    """
    labels, count = ndimage.label(mask.data, structure=_structure_3d(connectivity))
    return ComponentLabeling(labels=labels, count=int(count))


def largest_component_2d(mask_slice: np.ndarray) -> np.ndarray:
    """Keep only the largest 8-connected component of a 2D boolean grid.

    Ties are broken in favor of the component encountered first in scan
    order.  An empty slice maps to an empty slice.
    """
    mask_slice = np.asarray(mask_slice, dtype=bool)
    labels, count = ndimage.label(mask_slice, structure=_STRUCT_2D_FG)
    if count == 0:
        return np.zeros_like(mask_slice)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    best = 1 + int(np.argmax(sizes[1:]))  # argmax keeps the lowest (earliest) label on ties
    return labels == best


def fill_holes_2d(mask_slice: np.ndarray) -> np.ndarray:
    """Fill background regions not 4-connected to the slice border."""
    mask_slice = np.asarray(mask_slice, dtype=bool)
    return ndimage.binary_fill_holes(mask_slice)


_NEIGHBORS_6 = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]


def boundary_voxels(mask: BinaryMask3D) -> np.ndarray:
    """Coordinates (z, y, x) of foreground voxels with a background 6-neighbor.

    Voxels on the grid border count as boundary (outside is background).
    Returns an (n, 3) integer array in raster order, empty for an empty mask.
    """
    m = mask.data
    padded = np.pad(m, 1, mode="constant", constant_values=False)
    interior = np.ones_like(m, dtype=bool)
    for dz, dy, dx in _NEIGHBORS_6:
        interior &= padded[
            1 + dz : 1 + dz + m.shape[0],
            1 + dy : 1 + dy + m.shape[1],
            1 + dx : 1 + dx + m.shape[2],
        ]
    return np.argwhere(m & ~interior)
