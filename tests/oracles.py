"""Independent brute-force oracles used to check the library implementations.

Everything here is deliberately naive (explicit flood fill, all-pairs
distances, per-pixel resampling, nested-loop convolution, exhaustive sign
enumeration) or is the straightforward library call the package replaced
(per-slice ``map_coordinates``), and shares no code with the package.  The
one exception, ``preprocess_case_reference``, composes the package's public
preprocessing pieces the plain way, to pin how ``preprocess_case`` joins them.
"""

from collections import deque
from itertools import product

import numpy as np
from scipy import ndimage

from wmhseg.preprocess import (PreprocessRecord, brain_mask, crop_or_pad_slice,
                               gaussian_normalize)


def neighbor_offsets_3d(connectivity):
    offsets = []
    for dz, dy, dx in product((-1, 0, 1), repeat=3):
        if (dz, dy, dx) == (0, 0, 0):
            continue
        order = abs(dz) + abs(dy) + abs(dx)
        if connectivity == 6 and order > 1:
            continue
        if connectivity == 18 and order > 2:
            continue
        offsets.append((dz, dy, dx))
    return offsets


def flood_fill_components_3d(mask, connectivity):
    """BFS labeling in first-encounter scan order. Returns (labels, count)."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int32)
    offsets = neighbor_offsets_3d(connectivity)
    count = 0
    nz, ny, nx = mask.shape
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x] or labels[z, y, x]:
                    continue
                count += 1
                queue = deque([(z, y, x)])
                labels[z, y, x] = count
                while queue:
                    cz, cy, cx = queue.popleft()
                    for dz, dy, dx in offsets:
                        pz, py, px = cz + dz, cy + dy, cx + dx
                        if 0 <= pz < nz and 0 <= py < ny and 0 <= px < nx:
                            if mask[pz, py, px] and not labels[pz, py, px]:
                                labels[pz, py, px] = count
                                queue.append((pz, py, px))
    return labels, count


def flood_fill_components_2d(mask, connectivity=8):
    mask3d = np.asarray(mask, dtype=bool)[None]
    labels, count = flood_fill_components_3d(mask3d, 26 if connectivity == 8 else 6)
    return labels[0], count


def fill_holes_2d_oracle(mask):
    """Complement of the border-connected (4-conn) background."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    outside = np.zeros((h, w), dtype=bool)
    queue = deque()
    for y in range(h):
        for x in range(w):
            if (y in (0, h - 1) or x in (0, w - 1)) and not mask[y, x]:
                outside[y, x] = True
                queue.append((y, x))
    while queue:
        cy, cx = queue.popleft()
        for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            py, px = cy + dy, cx + dx
            if 0 <= py < h and 0 <= px < w and not mask[py, px] and not outside[py, px]:
                outside[py, px] = True
                queue.append((py, px))
    return ~outside


def boundary_voxels_oracle(mask):
    mask = np.asarray(mask, dtype=bool)
    nz, ny, nx = mask.shape
    out = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x]:
                    continue
                for dz, dy, dx in ((-1, 0, 0), (1, 0, 0), (0, -1, 0),
                                   (0, 1, 0), (0, 0, -1), (0, 0, 1)):
                    pz, py, px = z + dz, y + dy, x + dx
                    if not (0 <= pz < nz and 0 <= py < ny and 0 <= px < nx) \
                            or not mask[pz, py, px]:
                        out.append((z, y, x))
                        break
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def affine_resample_oracle(img, matrix, interpolation):
    """Pixel-by-pixel resampling of a 2D array under a forward 2x2 map on
    (x, y) offsets from the center.  Pixels outside the array read as 0; a
    bilinear sample weighs whichever of its four taps lie inside, and nearest
    rounds the source coordinate half to even."""
    img = np.asarray(img)
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    inv = np.linalg.inv(matrix)

    def pixel(y, x):
        return float(img[y, x]) if 0 <= y < h and 0 <= x < w else 0.0

    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            dx, dy = float(x) - cx, float(y) - cy
            sx = inv[0, 0] * dx + inv[0, 1] * dy + cx
            sy = inv[1, 0] * dx + inv[1, 1] * dy + cy
            if interpolation == "nearest":
                out[y, x] = pixel(int(np.rint(sy)), int(np.rint(sx)))
                continue
            x0, y0 = int(np.floor(sx)), int(np.floor(sy))
            fx, fy = sx - x0, sy - y0
            out[y, x] = ((1 - fy) * (1 - fx) * pixel(y0, x0) + (1 - fy) * fx * pixel(y0, x0 + 1)
                         + fy * (1 - fx) * pixel(y0 + 1, x0) + fy * fx * pixel(y0 + 1, x0 + 1))
    return out


def map_coordinates_affine(slice2d, inv, interpolation):
    """One slice resampled by ``scipy.ndimage.map_coordinates`` under an
    inverse 2x2 map on (x, y) offsets from the center: order 1 for
    "bilinear" (float64 out), order 0 at rint coordinates for "nearest"
    (the input's dtype out), mode "grid-constant", cval 0."""
    h, w = slice2d.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dx, dy = xs - cx, ys - cy
    coords = np.stack([inv[1, 0] * dx + inv[1, 1] * dy + cy,
                       inv[0, 0] * dx + inv[0, 1] * dy + cx])
    if interpolation == "nearest":
        return ndimage.map_coordinates(slice2d, np.rint(coords), order=0, mode="grid-constant")
    return ndimage.map_coordinates(slice2d.astype(np.float64), coords, order=1,
                                   mode="grid-constant")


def augment_dataset_reference(samples, labels, factor, transforms):
    """The originals, then copy j of every sample i resampled slice by slice
    under ``transforms(i, j)``'s forward 2x2 map: channels bilinear, labels
    nearest."""
    out_samples, out_labels = [samples], [labels]
    for j in range(1, factor):
        batch_s, batch_l = np.empty_like(samples), np.empty_like(labels)
        for i in range(samples.shape[0]):
            inv = np.linalg.inv(transforms(i, j))
            for c in range(samples.shape[1]):
                batch_s[i, c] = map_coordinates_affine(samples[i, c], inv, "bilinear")
            batch_l[i] = map_coordinates_affine(labels[i], inv, "nearest")
        out_samples.append(batch_s)
        out_labels.append(batch_l)
    return np.concatenate(out_samples), np.concatenate(out_labels)


def preprocess_case_reference(case, target, modalities):
    """``preprocess_case`` built one modality at a time: brain mask at 70
    (FLAIR) or 30 (T1), Gaussian normalization, crop or pad to ``target``,
    a float32 copy, then ``np.stack`` on the channel axis."""
    thresholds = {"flair": 70.0, "t1": 30.0}
    stacks, normalization, degenerate = [], {}, False
    for modality in modalities:
        vol = getattr(case, modality)
        mask = brain_mask(vol, thresholds[modality])
        normalized, mean, std, flat = gaussian_normalize(vol, mask)
        stack, offsets = crop_or_pad_slice(normalized.data, target)
        stacks.append(stack.astype(np.float32))
        normalization[modality] = (mean, std)
        degenerate = degenerate or flat
    truth = None
    if case.ground_truth is not None:
        truth = crop_or_pad_slice(case.ground_truth.data, target)[0].astype(bool)
    record = PreprocessRecord(original_dims=case.flair.dims, offsets=offsets,
                              normalization=normalization, degenerate=degenerate)
    return np.stack(stacks, axis=1), truth, record


def percentile_linear(values, q):
    """Linear-interpolated order statistic, written out explicitly."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = len(values)
    if n == 1:
        return float(values[0])
    pos = (q / 100.0) * (n - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(values[lo] * (1 - frac) + values[hi] * frac)


def hausdorff95_allpairs(truth, pred, spacing):
    """All-pairs directed distances over oracle boundary sets."""
    sx, sy, sz = spacing
    a = boundary_voxels_oracle(truth).astype(np.float64) * [sz, sy, sx]
    b = boundary_voxels_oracle(pred).astype(np.float64) * [sz, sy, sx]
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    return max(percentile_linear(d.min(axis=1), 95), percentile_linear(d.min(axis=0), 95))


def dsc_oracle(truth, pred):
    truth, pred = np.asarray(truth, bool), np.asarray(pred, bool)
    vg, vp = truth.sum(), pred.sum()
    if vg + vp == 0:
        return 1.0
    return 2.0 * np.logical_and(truth, pred).sum() / (vg + vp)


def lesion_counts_oracle(truth, pred, connectivity):
    lg, ng = flood_fill_components_3d(truth, connectivity)
    lp, np_count = flood_fill_components_3d(pred, connectivity)
    detected = len({lg[z, y, x] for z, y, x in np.argwhere(np.asarray(pred, bool))
                    if lg[z, y, x]})
    hit = len({lp[z, y, x] for z, y, x in np.argwhere(np.asarray(truth, bool))
               if lp[z, y, x]})
    return ng, detected, hit, np_count - hit


def conv2d_naive(x, w, b):
    """Direct nested-loop same-padded convolution (cross-correlation)."""
    n, c, h, width = x.shape
    f, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((n, f, h, width), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for yi in range(h):
                for xi in range(width):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                acc += xp[ni, ci, yi + ky, xi + kx] * w[fi, ci, ky, kx]
                    y[ni, fi, yi, xi] = acc + b[fi]
    return y


def unet_forward_oracle(weights, x, kinks=None):
    """Float64 forward of the 19-conv U-Net: 4 encoder stages of two convs
    and a 2x2 max pool, two bottleneck convs, 4 decoder stages of nearest 2x
    upsampling, concatenation [upsampled, skip] and two convs, a 1x1 conv and
    a sigmoid; ReLU after every conv but the last.  The input is zero-padded
    at the high end of each side to a multiple of 16 and the output cropped
    back.  Every ReLU's active set and every pool's argmax is appended to
    ``kinks``: two weight sets with equal kinks lie on one smooth piece."""
    record = kinks.append if kinks is not None else (lambda _: None)

    def conv(h, li):
        w, b = weights[li]
        k = w.shape[-1]
        p = k // 2
        n, _, hh, ww = h.shape
        hp = np.pad(h, ((0, 0), (0, 0), (p, p), (p, p)))
        out = np.zeros((n, w.shape[0], hh, ww))
        for i in range(k):
            for j in range(k):
                out += np.einsum("fc,nchw->nfhw", w[:, :, i, j], hp[:, :, i:i + hh, j:j + ww])
        return out + b[None, :, None, None]

    def conv_relu(h, li):
        h = conv(h, li)
        record(h > 0)
        return np.maximum(h, 0)

    n, _, height, width = x.shape
    h = np.pad(x, ((0, 0), (0, 0), (0, -height % 16), (0, -width % 16)))
    skips, li = [], 0
    for _ in range(4):
        h = conv_relu(conv_relu(h, li), li + 1)
        li += 2
        skips.append(h)
        _, c, hh, ww = h.shape
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
    z = conv(h, li)[:, 0, :height, :width]
    return 1.0 / (1.0 + np.exp(-z))


def dice_loss_oracle(p, g):
    """Negative soft Dice over the whole batch, smoothing 1."""
    return -(2.0 * np.sum(p * g) + 1.0) / (np.sum(p) + np.sum(g) + 1.0)


def wilcoxon_enumerate(differences):
    """Exact two-sided p by listing every sign pattern (n <= ~14)."""
    d = np.asarray(differences, dtype=np.float64)
    d = d[d != 0]
    n = len(d)
    absd = np.abs(d)
    # midranks
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    sorted_abs = absd[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = ranks[d > 0].sum()
    sums = []
    for signs in product((0, 1), repeat=n):
        sums.append(sum(r for r, s in zip(ranks, signs) if s))
    sums = np.array(sums)
    lower = (sums <= w_obs + 1e-9).mean()
    upper = (sums >= w_obs - 1e-9).mean()
    return min(1.0, 2.0 * min(lower, upper))
