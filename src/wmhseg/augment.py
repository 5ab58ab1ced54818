"""Random per-slice affine augmentation: rotation, shear and scaling.

Transforms compose as scale @ shear @ rotation about the slice center.
Shear acts along the x axis.  Sampling is uniform within the configured
ranges and fully determined by (seed, sample index, copy index).  Each
output pixel's source coordinate is ``inv(M) @ (p - c) + c``.  Images are
sampled bilinearly and labels at the nearest pixel, in whole-array numpy
passes over a stack of slices that repeat ``scipy.ndimage.map_coordinates``'
arithmetic (order 1, mode "grid-constant", cval 0) operation for operation,
so the output is byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROTATION_RANGE = (-15.0, 15.0)   # degrees
SHEAR_RANGE = (-18.0, 18.0)      # degrees
SCALE_RANGE = (0.9, 1.1)
CHUNK_PIXELS = 32_768            # output pixels resampled per pass: 8 slices at 64x64


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


def _zero_bordered(a: np.ndarray, dtype) -> np.ndarray:
    """Copy of a stack of slices with a two-pixel border of zeros on every side."""
    out = np.zeros(a.shape[:-2] + (a.shape[-2] + 4, a.shape[-1] + 4), dtype)
    out[..., 2:-2, 2:-2] = a
    return out


def _resample(images, labels, inv: np.ndarray):
    """Resample n slices about their centers under n inverse 2x2 maps.

    ``images`` is (n, C, H, W) or None and comes back float64, sampled
    bilinearly; ``labels`` is (n, H, W) or None and keeps its dtype, sampled
    at the nearest pixel; ``inv`` is (n, 2, 2).  Out-of-slice pixels read as
    0, and a bilinear sample within one pixel of the edge still weighs its
    in-slice neighbours ("grid-constant").

    The arithmetic is ``map_coordinates``' own: source coordinates are
    ``inv @ (p - c) + c`` in float64; along each axis the weights are
    ``1 - t`` and ``1 - (1 - t)`` with ``t = u - floor(u)``, and a pixel is
    ``0 + (v00*wy0)*wx0 + (v01*wy0)*wx1 + (v10*wy1)*wx0 + (v11*wy1)*wx1``.
    Labels are read at ``rint`` coordinates (half to even).  One difference:
    ndimage reads a float label of -0.0 as +0.0, this gather keeps -0.0.
    """
    n = inv.shape[0]
    h, w = (images if labels is None else labels).shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy = np.arange(h, dtype=np.float64)[:, None] - cy
    dx = np.arange(w, dtype=np.float64)[None, :] - cx
    m = inv[:, :, :, None, None]
    rows = m[:, 1, 0] * dx + m[:, 1, 1] * dy + cy
    cols = m[:, 0, 0] * dx + m[:, 0, 1] * dy + cx

    # Offset of source pixel (r, c) in a slice with a two-pixel zero border.
    # Clipping to [-2, h] puts every r outside the slice on the border, and,
    # the border being two wide, r + 1 as well when it is outside too; no
    # pixel inside the slice moves.
    stride = (h + 4) * (w + 4)

    def offset(r, c):
        return ((np.clip(r, -2, h) + 2) * (w + 4) + np.clip(c, -2, w) + 2).astype(np.intp)

    out_labels = None
    if labels is not None:
        first = np.arange(n)[:, None, None] * stride
        index = first + offset(np.rint(rows), np.rint(cols))
        out_labels = _zero_bordered(labels, labels.dtype).reshape(-1).take(index)

    out_images = None
    if images is not None:
        bordered = _zero_bordered(images, np.float64).reshape(-1)
        first = np.arange(n * images.shape[1]).reshape(n, -1, 1, 1) * stride
        y0, x0 = np.floor(rows), np.floor(cols)
        wy0, wx0 = 1.0 - (rows - y0), 1.0 - (cols - x0)
        wy = (wy0[:, None], (1.0 - wy0)[:, None])
        wx = (wx0[:, None], (1.0 - wx0)[:, None])
        top_left = first + offset(y0, x0)[:, None]
        out_images = np.zeros(images.shape)
        for a in (0, 1):
            for b in (0, 1):
                v = bordered.take(top_left + (a * (w + 4) + b))
                v *= wy[a]
                v *= wx[b]
                out_images += v
    return out_images, out_labels


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
    inv = np.linalg.inv(params.matrix())[None]
    if interpolation == "nearest":
        return _resample(None, slice2d[None], inv)[1][0]
    out = _resample(slice2d[None, None], None, inv)[0][0, 0]
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
    labels nearest).  Copies are resampled ``CHUNK_PIXELS`` output pixels at
    a time, straight into the preallocated output.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return samples, labels

    n = samples.shape[0]
    out_samples = np.empty((factor * n,) + samples.shape[1:], samples.dtype)
    out_labels = np.empty((factor * n,) + labels.shape[1:], labels.dtype)
    out_samples[:n], out_labels[:n] = samples, labels
    step = max(1, CHUNK_PIXELS // max(1, samples.shape[-2] * samples.shape[-1]))
    for start in range(n, factor * n, step):
        stop = min(start + step, factor * n)
        copy, src = np.divmod(np.arange(start, stop), n)
        inv = np.linalg.inv(np.stack([transform_for(seed, int(i), int(j)).matrix()
                                      for i, j in zip(src, copy)]))
        out_samples[start:stop], out_labels[start:stop] = _resample(samples[src], labels[src], inv)
    return out_samples, out_labels
