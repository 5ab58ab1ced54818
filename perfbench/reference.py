"""Computations made apart from the package, used to check its outputs.

Nothing here imports ``wmhseg``: the U-Net, the preprocessing, the NIfTI
reader, the metrics and the rank rule are written again from their published
definitions with plain numpy/scipy, so a fault in the package cannot hide in
the check that is meant to catch it.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np
from scipy import ndimage

# ---------------------------------------------------------------- U-Net ----


def conv_same(x, w, b):
    """Same-padded cross-correlation by shift-and-accumulate: one GEMM per
    kernel offset, no column buffer.  x (N, C, H, W), w (F, C, k, k)."""
    f, _, k, _ = w.shape
    n, _, h, wd = x.shape
    p = k // 2
    xt = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).transpose(1, 0, 2, 3)
    out = np.zeros((f, n, h, wd), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            out += np.tensordot(w[:, :, i, j], xt[:, :, i : i + h, j : j + wd], axes=(1, 0))
    return out.transpose(1, 0, 2, 3) + b[None, :, None, None]


def unet_forward(weights, x, dtype=np.float64, kinks=None):
    """The 19-conv U-Net: 4 encoder stages of two convs + 2x2 max pool, a
    two-conv bottleneck, 4 decoder stages of nearest 2x upsampling, skip
    concatenation and two convs, then a 1x1 conv and a sigmoid.  ReLU after
    every conv but the last.  Returns probabilities (N, H, W).

    With a ``kinks`` list, every ReLU's active set and every pool's argmax is
    appended to it: two inputs with equal kinks lie on one smooth piece.
    """
    ws = [(np.asarray(w, dtype), np.asarray(b, dtype)) for w, b in weights]
    record = kinks.append if kinks is not None else (lambda _: None)

    def conv_relu(h, li):
        h = conv_same(h, *ws[li])
        record(h > 0)
        return np.maximum(h, 0)

    h = np.asarray(x, dtype)
    skips = []
    li = 0
    for _ in range(4):
        h = conv_relu(conv_relu(h, li), li + 1)
        li += 2
        skips.append(h)
        n, c, hh, ww = h.shape
        windows = h.reshape(n, c, hh // 2, 2, ww // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        windows = windows.reshape(n, c, hh // 2, ww // 2, 4)
        record(windows.argmax(axis=-1))
        h = windows.max(axis=-1)
    h = conv_relu(conv_relu(h, li), li + 1)
    li += 2
    for skip in reversed(skips):
        h = np.concatenate([h.repeat(2, axis=2).repeat(2, axis=3), skip], axis=1)
        h = conv_relu(conv_relu(h, li), li + 1)
        li += 2
    z = conv_same(h, *ws[li])[:, 0]
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def dice_loss(p, g, smooth=1.0):
    """-(2 sum(pg) + s) / (sum(p) + sum(g) + s) over the whole batch, in float64."""
    p = np.asarray(p, np.float64)
    g = np.asarray(g, np.float64)
    return -(2.0 * np.sum(p * g) + smooth) / (np.sum(p) + np.sum(g) + smooth)


# -------------------------------------------------------- preprocessing ----


def split_excess(excess):
    """Centre crop (excess < 0) or zero pad (excess > 0); the odd voxel goes high."""
    low = abs(excess) // 2
    return low, abs(excess) - low


def brain_mask(vol, threshold):
    """Per axial slice: voxels above threshold, largest 8-connected component, holes filled."""
    out = np.zeros(vol.shape, bool)
    for z in range(vol.shape[0]):
        raw = vol[z] > threshold
        labels, count = ndimage.label(raw, structure=np.ones((3, 3)))
        if count == 0:
            continue
        sizes = np.bincount(labels.ravel())[1:]
        out[z] = ndimage.binary_fill_holes(labels == 1 + int(np.argmax(sizes)))
    return out


def network_input(volumes, thresholds, target, multiple=16):
    """Z-score each modality over its brain mask, centre crop/pad every slice to
    ``target``, then zero-pad the high side up to ``multiple``.  Returns the
    (N, C, H, W) batch and the (row, col) excess splits."""
    chans = []
    for vol, thr in zip(volumes, thresholds):
        vol = np.asarray(vol, np.float64)
        vals = vol[brain_mask(vol, thr)]
        chans.append((vol - vals.mean()) / vals.std())
    x = np.stack(chans, axis=1)  # (N, C, ny, nx)
    splits = []
    for axis, (size, want) in enumerate(zip(x.shape[2:], target), start=2):
        low, high = split_excess(want - size)
        if want < size:
            x = x.take(np.arange(low, size - high), axis=axis)
        else:
            pad = [(0, 0)] * 4
            pad[axis] = (low, high)
            x = np.pad(x, pad)
        splits.append((want - size, low))
    pad = [(0, 0), (0, 0), (0, (-target[0]) % multiple), (0, (-target[1]) % multiple)]
    return np.pad(x, pad), splits


def to_original_grid(slice2d, splits, shape):
    """Inverse of the crop/pad in ``network_input`` for one (target) slice."""
    out = np.zeros(shape, slice2d.dtype)
    src = [slice(None), slice(None)]
    dst = [slice(None), slice(None)]
    for axis, ((excess, low), size) in enumerate(zip(splits, shape)):
        if excess < 0:   # was cropped: the target sits at [low, low + target)
            dst[axis] = slice(low, low + size + excess)
        else:            # was padded: the original sits at [low, low + size)
            src[axis] = slice(low, low + size)
    out[tuple(dst)] = slice2d[tuple(src)]
    return out


# ---------------------------------------------------------------- NIfTI ----


def read_nifti_u8(path):
    """Read a little-endian single-file NIfTI-1 uint8 volume.

    Returns (data (nz, ny, nx), (sx, sy, sz)).  Raises ValueError for
    anything else, which the caller counts as a failed check.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if struct.unpack_from("<i", raw, 0)[0] != 348 or raw[344:348] != b"n+1\x00":
        raise ValueError(f"{path}: not a little-endian single-file NIfTI-1")
    dim = struct.unpack_from("<8h", raw, 40)
    datatype = struct.unpack_from("<h", raw, 70)[0]
    pixdim = struct.unpack_from("<8f", raw, 76)
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    if dim[0] != 3 or datatype != 2:
        raise ValueError(f"{path}: expected a 3-D uint8 volume, got dim {dim}, type {datatype}")
    nx, ny, nz = dim[1:4]
    data = np.frombuffer(raw, np.uint8, count=nx * ny * nz, offset=offset)
    return data.reshape(nz, ny, nx), tuple(float(p) for p in pixdim[1:4])


# -------------------------------------------------------------- metrics ----

_FACE = ndimage.generate_binary_structure(3, 1)
_CUBE = np.ones((3, 3, 3), bool)


def surface(m):
    """Foreground voxels with a background 6-neighbour; outside the grid is background."""
    return m & ~ndimage.binary_erosion(m, structure=_FACE, border_value=0)


def h95(a, b, spacing):
    """Max of the two directed 95th percentiles of surface-to-surface distance
    (mm), read off Euclidean distance transforms of each surface."""
    sa, sb = surface(a), surface(b)
    sampling = (spacing[2], spacing[1], spacing[0])
    d_ab = ndimage.distance_transform_edt(~sb, sampling=sampling)[sa]
    d_ba = ndimage.distance_transform_edt(~sa, sampling=sampling)[sb]
    return float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))


def lesion_counts(truth, pred):
    """(truth lesions, detected truth lesions, predicted lesions, predicted
    lesions touching truth) under 26-connectivity."""
    lt, nt = ndimage.label(truth, structure=_CUBE)
    lp, npred = ndimage.label(pred, structure=_CUBE)
    detected = np.count_nonzero(np.unique(lt[pred]))
    hit = np.count_nonzero(np.unique(lp[truth]))
    return nt, detected, npred, hit


def case_metrics(truth, pred, spacing):
    """The five challenge metrics; None where a metric is undefined.

    Everything is computed inside the bounding box of both masks grown by one
    voxel, which holds every lesion and every surface voxel.
    """
    found = ndimage.find_objects((truth | pred).astype(np.uint8))
    if found:
        box = tuple(slice(max(0, s.start - 1), s.stop + 1) for s in found[0])
        truth, pred = truth[box], pred[box]
    vt, vp = int(truth.sum()), int(pred.sum())
    overlap = int(np.count_nonzero(truth & pred))
    nt, detected, npred, hit = lesion_counts(truth, pred)
    return {
        "dsc": 1.0 if vt + vp == 0 else 2.0 * overlap / (vt + vp),
        "h95": h95(truth, pred, spacing) if vt and vp else None,
        "avd": abs(vt - vp) / vt if vt else None,
        "recall": detected / nt if nt else None,
        "f1": hit / npred if npred else None,
    }


HIGHER_BETTER = {"dsc": True, "h95": False, "avd": False, "recall": True, "f1": True}


def minmax_scores(table):
    """Per metric, best team -> 0 and worst -> 1 (all equal -> 0); the final
    score is the mean of the per-metric scores a team has."""
    scores = {t: {} for t in table}
    for m, higher in HIGHER_BETTER.items():
        vals = {t: v[m] for t, v in table.items() if v.get(m) is not None}
        if not vals:
            continue
        best = max(vals.values()) if higher else min(vals.values())
        worst = min(vals.values()) if higher else max(vals.values())
        for t, v in vals.items():
            scores[t][m] = 0.0 if worst == best else (v - best) / (worst - best)
    final = {t: sum(s.values()) / len(s) for t, s in scores.items()}
    return scores, final
