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

ReLU and max pooling take ``keep_cache``.  Inference passes False: ReLU then
clips its input in place and builds no mask, and pooling takes the max of the
four strided views of each 2x2 window with no argmax.  Both give the same
outputs as the cached forms, which training uses.
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


def conv2d_backward(dy, w, xp):
    """Gradients for conv2d_forward, given its cache ``xp``. Returns (dx, dw, db)."""
    _, _, wp, c = xp.shape
    f, _, k, _ = w.shape
    pad = k // 2
    h, width = dy.shape[2:]

    db = dy.sum(axis=(0, 2, 3))
    # dx is the forward conv of the padded dy with the flipped kernel.
    dyp = _pad_nhwc(dy, pad, dy.dtype)
    dx = _shift_accumulate(dyp, w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1))
    dx = np.ascontiguousarray(dx[:, :h, :width].transpose(0, 3, 1, 2))

    # dw[:, :, i, j] pairs output pixel r (stored at row r + pad*(Wp+1) of the
    # padded dy) with input row r + i*Wp + j; dy's zero border masks the rest.
    dflat = dyp.reshape(-1, f)
    xflat = xp.reshape(-1, c)
    rows = xflat.shape[0] - (k - 1) * (wp + 1)
    start = pad * (wp + 1)
    dsrc = dflat[start : start + rows].T
    dw = np.empty(w.shape, dtype=np.result_type(dy, xp, np.float32))
    gemm = get_blas_funcs("gemm", (dw,))
    for i in range(k):
        for j in range(k):
            off = i * wp + j
            dw[:, :, i, j] = gemm(1.0, dsrc, xflat[off : off + rows].T, trans_b=1)
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
    """2x2 max pooling, stride 2. Ties route the gradient to the first max.

    Without ``keep_cache`` the output is the max of the window's four strided
    views and the cache is None.
    """
    if not keep_cache:
        top = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
        return np.maximum(top, np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]), out=top), None
    n, c, h, w = x.shape
    windows = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = windows.reshape(n, c, h // 2, w // 2, 4)
    idx = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return y, (idx, x.shape)


def maxpool2x2_backward(dy, cache):
    idx, x_shape = cache
    n, c, h, w = x_shape
    dflat = np.zeros((n, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(dflat, idx[..., None], dy[..., None], axis=-1)
    dx = dflat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return dx.reshape(n, c, h, w)


def upsample2x_forward(x):
    """Parameter-free nearest-neighbor 2x upsampling."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample2x_backward(dy):
    n, c, h, w = dy.shape
    return dy.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


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
