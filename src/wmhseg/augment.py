"""Random per-slice affine augmentation: rotation, shear and scaling.

Transforms compose as scale @ shear @ rotation about the slice center.
Shear acts along the x axis.  Sampling is uniform within the configured
ranges and fully determined by (seed, sample index, copy index).  Each
output pixel's source coordinate is ``inv(M) @ (p - c) + c``; the gather at
those coordinates is ``scipy.ndimage.map_coordinates``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

ROTATION_RANGE = (-15.0, 15.0)   # degrees
SHEAR_RANGE = (-18.0, 18.0)      # degrees
SCALE_RANGE = (0.9, 1.1)


@dataclass(frozen=True)
class AffineParams:
    rotation_deg: float = 0.0
    shear_deg: float = 0.0
    scale_x: float = 1.0
    scale_y: float = 1.0

    def matrix(self) -> np.ndarray:
        """Forward 2x2 map acting on (x, y) offsets from the slice center."""
        theta = np.deg2rad(self.rotation_deg)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shear = np.array([[1.0, np.tan(np.deg2rad(self.shear_deg))],
                          [0.0, 1.0]])
        scale = np.diag([self.scale_x, self.scale_y])
        return scale @ shear @ rot


def sample_affine(rng: np.random.Generator) -> AffineParams:
    """Draw parameters uniformly within the augmentation ranges."""
    return AffineParams(
        rotation_deg=float(rng.uniform(*ROTATION_RANGE)),
        shear_deg=float(rng.uniform(*SHEAR_RANGE)),
        scale_x=float(rng.uniform(*SCALE_RANGE)),
        scale_y=float(rng.uniform(*SCALE_RANGE)),
    )


def apply_affine(slice2d: np.ndarray, params: AffineParams, interpolation: str = "bilinear"):
    """Resample a 2D array under the affine map, about the slice center.

    Out-of-bounds samples read as 0, and a bilinear sample within one pixel
    of the edge still weighs its in-bounds neighbours ("grid-constant").  Use
    "bilinear" for images and "nearest" for label masks (source coordinates
    rounded half to even); output dims equal input dims either way.
    """
    if interpolation not in ("bilinear", "nearest"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    slice2d = np.asarray(slice2d)
    h, w = slice2d.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0

    inv = np.linalg.inv(params.matrix())
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dx, dy = xs - cx, ys - cy
    coords = np.stack([inv[1, 0] * dx + inv[1, 1] * dy + cy,   # source rows
                       inv[0, 0] * dx + inv[0, 1] * dy + cx])  # source columns

    if interpolation == "nearest":
        # scipy's order 0 rounds halves up; rint rounds them to even.
        return ndimage.map_coordinates(slice2d, np.rint(coords), order=0, mode="grid-constant")
    out = ndimage.map_coordinates(slice2d.astype(np.float64), coords, order=1,
                                  mode="grid-constant")
    return out.astype(slice2d.dtype if np.issubdtype(slice2d.dtype, np.floating) else np.float64)


def transform_for(seed: int, sample_index: int, copy_index: int) -> AffineParams:
    """Deterministic per-copy transform derived from (seed, indices)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, sample_index, copy_index)))
    return sample_affine(rng)


def augment_dataset(samples: np.ndarray, labels: np.ndarray, factor: int, seed: int):
    """Expand a dataset ``factor``-fold with affine-transformed copies.

    ``samples`` is (N, C, H, W); ``labels`` (N, H, W) bool.  Output keeps
    every original sample and appends (factor - 1) transformed copies each; a
    sample and its label share identical parameters (image channels bilinear,
    labels nearest).
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return samples, labels

    out_samples = [samples]
    out_labels = [labels]
    n = samples.shape[0]
    for j in range(1, factor):
        batch_s = np.empty_like(samples)
        batch_l = np.empty_like(labels)
        for i in range(n):
            params = transform_for(seed, i, j)
            for c in range(samples.shape[1]):
                batch_s[i, c] = apply_affine(samples[i, c], params, "bilinear")
            batch_l[i] = apply_affine(labels[i], params, "nearest")
        out_samples.append(batch_s)
        out_labels.append(batch_l)
    return np.concatenate(out_samples), np.concatenate(out_labels)
