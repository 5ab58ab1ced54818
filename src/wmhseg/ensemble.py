"""Ensemble inference and post-processing back to the original geometry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .grids import BinaryMask3D
from .net.unet import forward
from .preprocess import PreprocessRecord, invert_crop_or_pad


@dataclass
class EnsembleConfig:
    model_count: int = 3
    threshold: float = 0.5
    z_trim_fraction: float = 0.10

    def __post_init__(self):
        if self.model_count < 1:
            raise ContractError(f"model_count must be >= 1, got {self.model_count}")
        if not 0.0 < self.threshold < 1.0:
            raise ContractError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not 0.0 <= self.z_trim_fraction < 0.5:
            raise ContractError(
                f"z_trim_fraction must lie in [0, 0.5), got {self.z_trim_fraction}"
            )


def ensemble_predict(models, spec, samples: np.ndarray) -> np.ndarray:
    """Voxelwise mean of the per-model probability maps.

    ``models`` is a list of weight sets matching ``spec``; ``samples`` is
    (N, C, H, W).  Each model sees one slice at a time, so peak memory does
    not grow with the slice count.
    Returns (N, H, W) float probabilities.
    """
    if not models:
        raise ContractError("ensemble needs at least one model")
    samples = np.asarray(samples)
    n, _, h, w = samples.shape
    total = np.zeros((n, h, w))
    for z in range(n):
        for weights in models:
            total[z] += forward(spec, weights, samples[z : z + 1])[0]
    return total / len(models)


def threshold_map(prob: np.ndarray, threshold: float,
                  spacing=(1.0, 1.0, 1.0)) -> BinaryMask3D:
    """Binarize a probability map with a strict p > t rule."""
    data = np.asarray(prob)
    if not (data.min() >= 0 and data.max() <= 1):  # NaN fails both
        raise ContractError("probability map values must lie in [0, 1]")
    return BinaryMask3D(data=data > threshold, spacing=spacing)


def postprocess(mask: BinaryMask3D, record: PreprocessRecord,
                header: bytes | None = None) -> BinaryMask3D:
    """Map a processed slice stack back through the recorded crop/pad.

    ``header`` (the source scan's NIfTI header bytes) goes to the returned
    mask, so writing it keeps the scan's orientation.
    """
    nz = mask.data.shape[0]
    nx, ny, _ = record.original_dims
    if record.original_dims[2] != nz:
        raise ContractError(
            f"mask has {nz} slices but the record says {record.original_dims[2]}"
        )
    restored = invert_crop_or_pad(mask.data, record.offsets, (ny, nx))
    return BinaryMask3D(data=restored, spacing=mask.spacing, header=header)
