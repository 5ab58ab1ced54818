"""The five challenge evaluation metrics.

Voxel-level: dice similarity coefficient, 95th-percentile Hausdorff distance
(mm, over boundary voxels in physical coordinates) and average volume
difference.  Lesion-level: recall and F1, where a lesion is a 26-connected
3D component and a component counts as detected when it shares at least one
voxel with the other map.  Degenerate inputs (empty masks) yield ``None``
for the affected metrics rather than an arbitrary number.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ContractError, FormatError
from .grids import BinaryMask3D, boundary_voxels, connected_components_3d

# The scoring table: metric names in table order, each one's CSV column, and
# whether a higher value is better.
METRIC_NAMES = ("dsc", "h95", "avd", "recall", "f1")
COLUMN = {m: m for m in METRIC_NAMES} | {"h95": "h95_mm"}
HIGHER_BETTER = {"dsc": True, "h95": False, "avd": False, "recall": True, "f1": True}


@dataclass
class MetricReport:
    """Per-case metric values; None marks an undefined (degenerate) metric."""

    dsc: float | None
    h95: float | None
    avd: float | None
    recall: float | None
    f1: float | None

    def as_row(self) -> dict[str, str]:
        """CSV column -> value in table order; an undefined metric is empty."""
        values = {COLUMN[m]: getattr(self, m) for m in METRIC_NAMES}
        return {col: "" if v is None else f"{v:.6f}" for col, v in values.items()}


def parse_cell(text: str, path, line: int, column: str) -> float:
    """One cell of a scoring CSV as a finite float, or FormatError saying where."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{path}, line {line}, column {column!r}: "
                          f"{text!r} is not a finite number")
    return value


def read_table(path) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """A scoring CSV's header and its non-blank rows as (line, column -> cell).

    A short row leaves its missing cells out.  An empty file, a blank header,
    a repeated column or a row longer than the header is a FormatError.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path} is empty")
        if not header:
            raise FormatError(f"{path}, line 1: the header line is blank")
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise FormatError(f"{path}: column {repeated[0]!r} appears twice in the header")
        rows = []
        for cells in reader:
            if len(cells) > len(header):
                raise FormatError(f"{path}, line {reader.line_num}: more cells than the "
                                  "header has columns")
            if cells:
                rows.append((reader.line_num, dict(zip(header, cells))))
    return header, rows


def _check_aligned(truth: BinaryMask3D, pred: BinaryMask3D):
    if truth.data.shape != pred.data.shape:
        raise ContractError(
            f"mask shapes differ: {truth.data.shape} vs {pred.data.shape}"
        )
    if not all(math.isclose(a, b, rel_tol=1e-6) for a, b in zip(truth.spacing, pred.spacing)):
        raise ContractError(f"mask spacings differ: {truth.spacing} vs {pred.spacing}")


def _bounding_box(data: np.ndarray):
    """Slices of the smallest box holding all foreground; zero-size if none."""
    z = np.flatnonzero(data.any(axis=(1, 2)))
    if z.size == 0:
        return (slice(0, 0),) * 3
    plane = data[z[0]:z[-1] + 1].any(axis=0)
    y = np.flatnonzero(plane.any(axis=1))
    x = np.flatnonzero(plane.any(axis=0))
    return slice(z[0], z[-1] + 1), slice(y[0], y[-1] + 1), slice(x[0], x[-1] + 1)


def dsc(truth: BinaryMask3D, pred: BinaryMask3D) -> float:
    """Dice similarity coefficient 2|G n P| / (|G| + |P|); both empty -> 1."""
    _check_aligned(truth, pred)
    vg, vp = truth.population, pred.population
    if vg + vp == 0:
        return 1.0
    overlap = int(np.count_nonzero(truth.data & pred.data))
    return 2.0 * overlap / (vg + vp)


def hausdorff95(truth: BinaryMask3D, pred: BinaryMask3D, spacing=None) -> float | None:
    """Robust Hausdorff distance: max of the two directed 95th percentiles.

    Distances are Euclidean over boundary voxels in physical (mm)
    coordinates; the percentile is the linear-interpolated order statistic.
    Undefined (None) when either mask is empty.
    """
    _check_aligned(truth, pred)
    if truth.population == 0 or pred.population == 0:
        return None
    spacing = spacing if spacing is not None else truth.spacing
    scale = np.array([spacing[2], spacing[1], spacing[0]])  # coords are (z, y, x)
    a = boundary_voxels(truth) * scale
    b = boundary_voxels(pred) * scale
    d_ab, _ = cKDTree(b).query(a)
    d_ba, _ = cKDTree(a).query(b)
    return float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))


def avd(truth: BinaryMask3D, pred: BinaryMask3D) -> float | None:
    """Average volume difference |V_G - V_P| / V_G; undefined for empty G."""
    _check_aligned(truth, pred)
    vg = truth.population
    if vg == 0:
        return None
    return abs(vg - pred.population) / vg


def _lesion_scores(truth: BinaryMask3D, pred: BinaryMask3D):
    """(recall, f1) over 26-connected lesions; a ratio over no lesions is None."""
    _check_aligned(truth, pred)
    truth_cc = connected_components_3d(truth)
    pred_cc = connected_components_3d(pred)

    # Ground-truth components touched by any predicted voxel.
    touched_truth = np.unique(truth_cc.labels.flat[np.flatnonzero(pred.data)])
    n_detected = int(np.count_nonzero(touched_truth))
    # Predicted components touched by any truth voxel.
    touched_pred = np.unique(pred_cc.labels.flat[np.flatnonzero(truth.data)])
    n_pred_hit = int(np.count_nonzero(touched_pred))
    recall = n_detected / truth_cc.count if truth_cc.count else None
    f1 = n_pred_hit / pred_cc.count if pred_cc.count else None
    return recall, f1


def lesion_recall(truth: BinaryMask3D, pred: BinaryMask3D):
    """Fraction of ground-truth lesions overlapped by the prediction."""
    return _lesion_scores(truth, pred)[0]


def lesion_f1(truth: BinaryMask3D, pred: BinaryMask3D):
    """Fraction of predicted lesions that overlap the ground truth.

    (The challenge's "F1" is algebraically the lesion precision
    N_P / (N_P + N_F); it is implemented exactly as published.)
    """
    return _lesion_scores(truth, pred)[1]


def evaluate_case(truth: BinaryMask3D, pred: BinaryMask3D, spacing=None) -> MetricReport:
    """All five metrics for one case, scored on the smallest box holding both
    masks' foreground: both are background outside it, so the box keeps every
    lesion, overlap and boundary voxel, and its origin cancels in distances."""
    _check_aligned(truth, pred)
    box = _bounding_box(truth.data | pred.data)
    spacing = spacing if spacing is not None else truth.spacing
    truth, pred = (BinaryMask3D(m.data[box], spacing) for m in (truth, pred))
    recall, f1 = _lesion_scores(truth, pred)
    return MetricReport(
        dsc=dsc(truth, pred),
        h95=hausdorff95(truth, pred),
        avd=avd(truth, pred),
        recall=recall,
        f1=f1,
    )
