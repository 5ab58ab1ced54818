"""Numpy forward/backward primitives for the 2D segmentation network.

All tensors are (N, C, H, W) at the function boundary.  Convolutions are
same-padded and column-free: the input is copied once into a zero-padded
channels-last buffer, and each of the k*k kernel offsets is one GEMM over a
shifted contiguous window of that buffer, accumulated into a single output
(the k^2-GEMM or "kn2row" form).  No im2col buffer is built, and the backward
pass needs only the padded input.

BLAS adds each tap's product into the accumulator in place (gemm, beta=1): no
per-tap temporary, no separate add pass.  Every conv GEMM uses scipy's BLAS,
because numpy and scipy bundle separate BLAS thread pools and mixing the two
within one training step was slower.

The weight gradient runs the same k^2 taps the other way round: each tap is
an (F x rows) by (rows x C) product added into its slice of one (k, k, C, F)
accumulator.  The rows are cut into blocks of 10**6 // (F*C), so one product
stays within 10**6 multiply-adds: OpenBLAS takes its unpacked small-matrix
path there (at 16 -> 16 channels a 2048-row block ran about 2x faster than a
4096-row one), and a block's slice of dy stays in cache across its k^2 taps.
Below 1024 rows a block costs more in calls than it saves (5-row blocks at
768 -> 256 channels ran about 5x slower), so wide layers keep one product per
tap.

ReLU and max pooling take ``keep_cache``.  Inference passes False: ReLU then
clips its input in place and builds no mask, and pooling returns the max of
the four strided views of each 2x2 window with no cache.  Training pools the
same way and caches three boolean selectors, for the first, second and third
quarter of each window, that route the gradient to the first max (the fourth
quarter takes what none of them takes).  Backward writes the four strided
quarters; upsampling's backward is four strided adds.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs


def _pad_nhwc(x, pad, dtype):
    """(N, C, H, W) -> zero-padded channels-last (N, H+2p, W+2p, C) copy."""
    n, c, h, width = x.shape
    xp = np.zeros((n, h + 2 * pad, width + 2 * pad, c), dtype=dtype)
    xp[:, pad : pad + h, pad : pad + width] = x.transpose(0, 2, 3, 1)
    return xp


def _shift_accumulate(src, taps):
    """Sum over kernel offsets (i, j) of the shifted window of ``src`` times
    ``taps[i, j]``.

    ``src`` is a padded (N, Hp, Wp, Cin) buffer and ``taps`` (k, k, Cin, Cout).
    Row r of the flattened buffer is pixel (n, y, x); offset (i, j) reads row
    r + i*Wp + j, so each offset is one contiguous GEMM.  Output pixel (y, x)
    is exact for y < Hp - k + 1 and x < Wp - k + 1; the rest is junk the
    caller crops.  Returns (N, Hp, Wp, Cout).
    """
    n, hp, wp, cin = src.shape
    k = taps.shape[0]
    flat = src.reshape(-1, cin)
    rows = flat.shape[0] - (k - 1) * (wp + 1)
    out = np.zeros((flat.shape[0], taps.shape[3]), dtype=np.result_type(src, taps, np.float32))
    gemm = get_blas_funcs("gemm", (out,))
    acc_t = out[:rows].T  # Fortran-ordered, so BLAS updates it without a copy
    for i in range(k):
        for j in range(k):
            off = i * wp + j
            acc_t = gemm(1.0, taps[i, j], flat[off : off + rows].T, beta=1.0, c=acc_t,
                         trans_a=1, overwrite_c=1)
    return out.reshape(n, hp, wp, -1)


def conv2d_forward(x, w, b):
    """Same-padded 2D convolution (cross-correlation).

    x: (N, C, H, W); w: (F, C, k, k); b: (F,).  Returns (y, cache); the
    cache is the padded channels-last input.
    """
    _, _, h, width = x.shape
    k = w.shape[2]
    xp = _pad_nhwc(x, k // 2, np.result_type(x, w))
    out = _shift_accumulate(xp, w.transpose(2, 3, 1, 0))
    y = np.ascontiguousarray(out[:, :h, :width].transpose(0, 3, 1, 2))
    y += b[:, None, None]
    return y, xp


def _dw_block_rows(f, c):
    """Rows per block of the dw tap GEMMs: the most that keep one (F x rows)
    by (rows x C) product within 10**6 multiply-adds, or None (one block) when
    that would be fewer than 1024 rows."""
    rows = 10**6 // (f * c)
    return rows if rows >= 1024 else None


def conv2d_backward(dy, w, xp, need_dx=True):
    """Gradients for conv2d_forward, given its cache ``xp``. Returns (dx, dw, db);
    dx is None when ``need_dx`` is False."""
    _, _, wp, c = xp.shape
    f, _, k, _ = w.shape
    pad = k // 2
    h, width = dy.shape[2:]

    db = dy.sum(axis=(0, 2, 3))
    dyp = _pad_nhwc(dy, pad, dy.dtype)
    dx = None
    if need_dx:
        # dx is the forward conv of the padded dy with the flipped kernel.
        dx = _shift_accumulate(dyp, w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1))
        dx = np.ascontiguousarray(dx[:, :h, :width].transpose(0, 3, 1, 2))

    # dw[:, :, i, j] pairs output pixel r (stored at row r + pad*(Wp+1) of the
    # padded dy) with input row r + i*Wp + j; dy's zero border masks the rest.
    # Each block of rows adds its k^2 tap products into acc[i, j] in place.
    dflat = dyp.reshape(-1, f)
    xflat = xp.reshape(-1, c)
    rows = xflat.shape[0] - (k - 1) * (wp + 1)
    start = pad * (wp + 1)
    acc = np.zeros((k, k, c, f), dtype=np.result_type(dy, xp, np.float32))
    gemm = get_blas_funcs("gemm", (acc,))
    block = _dw_block_rows(f, c) or rows
    for r0 in range(0, rows, block):
        n_rows = min(block, rows - r0)
        dsrc = dflat[start + r0 : start + r0 + n_rows].T
        for i in range(k):
            for j in range(k):
                off = r0 + i * wp + j
                gemm(1.0, dsrc, xflat[off : off + n_rows].T, beta=1.0, c=acc[i, j].T,
                     trans_b=1, overwrite_c=1)
    dw = np.ascontiguousarray(acc.transpose(3, 2, 0, 1))
    return dx, dw, db


def relu_forward(x, keep_cache=True):
    """max(x, 0) and the mask of positive inputs; without ``keep_cache`` x is
    clipped in place and the cache is None."""
    if not keep_cache:
        return np.maximum(x, 0, out=x), None
    return np.maximum(x, 0), x > 0


def relu_backward(dy, cache):
    return dy * cache


def maxpool2x2_forward(x, keep_cache=True):
    """2x2 max pooling, stride 2: the max of the window's four strided views.

    Ties route the gradient to the first max in the order (0,0), (0,1), (1,0),
    (1,1).  The cache is three boolean selectors, one per quarter but the
    last, each True where the gradient goes to that quarter; without
    ``keep_cache`` it is None.
    """
    quarters = (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], x[:, :, 1::2, 0::2],
                x[:, :, 1::2, 1::2])
    top = np.maximum(quarters[0], quarters[1])
    y = np.maximum(top, np.maximum(quarters[2], quarters[3]), out=top)
    if not keep_cache:
        return y, None
    first = quarters[0] == y
    second = np.greater(quarters[1] == y, first)  # a tie with the first loses
    third = np.greater(quarters[2] == y, first | second)
    return y, (first, second, third)


def maxpool2x2_backward(dy, cache):
    first, second, third = cache
    n, c, h, w = dy.shape
    dx = np.empty((n, c, 2 * h, 2 * w), dtype=dy.dtype)
    np.multiply(dy, first, out=dx[:, :, 0::2, 0::2])
    np.multiply(dy, second, out=dx[:, :, 0::2, 1::2])
    np.multiply(dy, third, out=dx[:, :, 1::2, 0::2])
    np.multiply(dy, ~(first | second | third), out=dx[:, :, 1::2, 1::2])
    return dx


def upsample2x_forward(x):
    """Parameter-free nearest-neighbor 2x upsampling."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample2x_backward(dy):
    dx = dy[:, :, 0::2, 0::2] + dy[:, :, 0::2, 1::2]
    dx += dy[:, :, 1::2, 0::2]
    dx += dy[:, :, 1::2, 1::2]
    return dx


def concat_forward(a, b):
    """Channel concatenation (skip connections)."""
    return np.concatenate([a, b], axis=1), a.shape[1]


def concat_backward(dy, split):
    return dy[:, :split], dy[:, split:]


def sigmoid_forward(x):
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y, y


def sigmoid_backward(dy, cache):
    return dy * cache * (1.0 - cache)
