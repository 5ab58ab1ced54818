"""In-plane crop/pad, threshold brain masking and Gaussian normalization.

The geometry bookkeeping (PreprocessRecord) lets the prediction path invert
every spatial change exactly, so final masks land back on the original grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .grids import BinaryMask3D, Volume3D, fill_holes_2d, largest_component_2d

DEFAULT_TARGET = (200, 200)
# Brain-mask intensity thresholds of the method, per modality.
BRAIN_THRESHOLDS = {"flair": 70.0, "t1": 30.0}

# Offsets are ((row_low, row_high), (col_low, col_high)); negative = cropped
# on that side, positive = padded.
Offsets = tuple[tuple[int, int], tuple[int, int]]


@dataclass
class CaseRecord:
    """One subject: FLAIR + T1 volumes and (optionally) ground truth."""

    subject_id: str
    scanner_id: str
    flair: Volume3D
    t1: Volume3D
    ground_truth: BinaryMask3D | None = None

    def __post_init__(self):
        shapes = {self.flair.data.shape, self.t1.data.shape}
        spacings = {self.flair.spacing, self.t1.spacing}
        if self.ground_truth is not None:
            shapes.add(self.ground_truth.data.shape)
            spacings.add(self.ground_truth.spacing)
        if len(shapes) != 1 or len(spacings) != 1:
            raise ContractError(
                f"case {self.subject_id}: all grids must share dims and spacing"
            )


@dataclass
class PreprocessRecord:
    """Everything needed to undo preprocessing geometry and audit statistics."""

    original_dims: tuple[int, int, int]          # (nx, ny, nz)
    offsets: Offsets
    normalization: dict[str, tuple[float, float]]  # modality -> (mean, std)
    degenerate: bool = False


def _split_excess(excess: int) -> tuple[int, int]:
    # excess > 0: pad amounts; excess < 0: crop amounts (negated). Extra
    # element goes to the high-index side.
    low = abs(excess) // 2
    high = abs(excess) - low
    sign = 1 if excess >= 0 else -1
    return sign * low, sign * high


def _cut_or_pad(arr: np.ndarray, offsets: Offsets) -> np.ndarray:
    """Apply signed per-side offsets to the last two axes of ``arr``.

    A positive offset zero-pads that side, a negative one cuts it off.
    """
    (r0, r1), (c0, c1) = offsets
    h, w = arr.shape[-2:]
    arr = arr[..., max(0, -r0) : h - max(0, -r1), max(0, -c0) : w - max(0, -c1)]
    pad = [(max(0, r0), max(0, r1)), (max(0, c0), max(0, c1))]
    if any(pad[0] + pad[1]):
        arr = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + pad, mode="constant", constant_values=0)
    return arr


def _target_offsets(shape, target) -> Offsets:
    th, tw = target
    if th <= 0 or tw <= 0:
        raise ContractError(f"target dims must be positive, got {target}")
    h, w = shape[-2:]
    return _split_excess(th - h), _split_excess(tw - w)


def crop_or_pad_slice(slices: np.ndarray, target=DEFAULT_TARGET):
    """Center-crop or zero-pad the last two axes to ``target`` (rows, cols).

    Takes one (H, W) slice or an (nz, H, W) stack.  Returns (output, offsets).
    Excess is split evenly with the extra pixel on the high side; padding
    value is 0.
    """
    slices = np.asarray(slices)
    offsets = _target_offsets(slices.shape, target)
    return _cut_or_pad(slices, offsets), offsets


def invert_crop_or_pad(mask: np.ndarray, offsets: Offsets, original_dims):
    """Undo crop_or_pad_slice on a slice or stack of matching processed size.

    Voxels in the overlap region are preserved exactly; regions that were
    cropped away come back as background.
    """
    (r0, r1), (c0, c1) = offsets
    out = _cut_or_pad(np.asarray(mask), ((-r0, -r1), (-c0, -c1)))
    if out.shape[-2:] != tuple(original_dims):
        raise ContractError(
            f"offsets {offsets} do not reproduce original dims {original_dims} "
            f"(got {out.shape[-2:]})"
        )
    return out


def brain_mask(volume: Volume3D, threshold: float) -> BinaryMask3D:
    """Threshold-based brain mask, built slice by slice.

    Per axial slice: voxels above the threshold, then the largest 8-connected
    component, then hole filling.  Slices with no suprathreshold voxel stay
    empty.
    """
    if not np.isfinite(threshold):
        raise ContractError("threshold must be finite")
    out = np.zeros(volume.data.shape, dtype=bool)
    for z, plane in enumerate(volume.data):
        raw = plane > threshold
        if not raw.any():
            continue
        out[z] = fill_holes_2d(largest_component_2d(raw))
    return BinaryMask3D(data=out, spacing=volume.spacing)


def gaussian_normalize(volume: Volume3D, mask: BinaryMask3D):
    """Z-score a scan with mean/std taken over the masked voxels.

    The transform is applied to every voxel, inside and outside the mask.
    Returns (normalized_volume, mean, std, degenerate).  A degenerate case
    (empty mask, or a std below 1e-9) yields an all-zero volume.
    """
    if mask.data.shape != volume.data.shape:
        raise ContractError("mask is not aligned with the volume")
    values = volume.data[mask.data]
    if values.size == 0:
        return Volume3D(np.zeros(volume.data.shape, np.float32), volume.spacing), 0.0, 0.0, True
    mean = float(values.mean(dtype=np.float64))
    std = float(values.std(dtype=np.float64))  # population std
    if std < 1e-9:
        return Volume3D(np.zeros(volume.data.shape, np.float32), volume.spacing), mean, std, True
    normalized = ((volume.data.astype(np.float64) - mean) / std).astype(np.float32)
    return Volume3D(normalized, volume.spacing), mean, std, False


def preprocess_case(
    case: CaseRecord,
    target=DEFAULT_TARGET,
    modalities: tuple[str, ...] = ("flair", "t1"),
):
    """Turn a case into per-slice network samples plus a PreprocessRecord.

    Each modality is masked at its ``BRAIN_THRESHOLDS`` value, z-scored inside
    the mask and cropped or padded to ``target``.  Returns (samples, truth,
    record): samples is (n_slices, channels, target_h, target_w) float32,
    truth a (n_slices, target_h, target_w) bool stack or None.
    """
    offsets = _target_offsets(case.flair.data.shape, target)
    samples = np.zeros((case.flair.data.shape[0], len(modalities), *target), np.float32)
    normalization, degenerate = {}, False
    for channel, modality in enumerate(modalities):
        vol = getattr(case, modality)
        # One NaN would turn the masked mean and std, so every sample, to NaN.
        n_bad = vol.data.size - np.count_nonzero(np.isfinite(vol.data))
        if n_bad:
            raise ContractError(f"case {case.subject_id}: {modality} has {n_bad} "
                                f"non-finite voxel(s)")
        mask = brain_mask(vol, BRAIN_THRESHOLDS[modality])
        normalized, mean, std, modality_degenerate = gaussian_normalize(vol, mask)
        samples[:, channel] = _cut_or_pad(normalized.data, offsets)
        normalization[modality] = (mean, std)
        degenerate = degenerate or modality_degenerate

    truth = None
    if case.ground_truth is not None:
        truth = _cut_or_pad(case.ground_truth.data, offsets).astype(bool)

    record = PreprocessRecord(original_dims=case.flair.dims, offsets=offsets,
                              normalization=normalization, degenerate=degenerate)
    return samples, truth, record


def write_record(record: PreprocessRecord, path) -> None:
    """Serialize the scalar fields of a PreprocessRecord as key=value lines."""
    nx, ny, nz = record.original_dims
    lines = [
        f"original_dims={nx},{ny},{nz}",
        f"offsets_rows={record.offsets[0][0]},{record.offsets[0][1]}",
        f"offsets_cols={record.offsets[1][0]},{record.offsets[1][1]}",
        f"degenerate={int(record.degenerate)}",
    ]
    for modality in record.normalization:
        lines.append(f"threshold_{modality}={BRAIN_THRESHOLDS[modality]!r}")
    for modality, (mean, std) in record.normalization.items():
        lines.append(f"mean_{modality}={mean!r}")
        lines.append(f"std_{modality}={std!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")

