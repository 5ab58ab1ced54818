"""The 19-conv-layer U-Net variant: spec, initialization, forward/backward.

Structure: four encoder stages of two same-padded convolutions each (the
first two kernels are 5x5, the rest 3x3), 2x2/stride-2 max pooling between
stages, a two-conv bottleneck, and four decoder stages that nearest-upsample
2x, concatenate the matching encoder feature map and apply two convolutions.
A final 1x1 convolution with logistic activation produces the probability
map.  ReLU follows every other convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ContractError
from . import layers as L

DEFAULT_WIDTHS = (64, 96, 128, 256, 512)
N_STAGES = 4
DOWNSAMPLE_FACTOR = 2 ** N_STAGES  # input dims must divide this


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: int


@dataclass(frozen=True)
class NetworkSpec:
    input_channels: int
    widths: tuple[int, ...]
    layers: tuple[ConvSpec, ...]

    @property
    def n_conv_layers(self) -> int:
        return len(self.layers)


def build_unet(input_channels: int = 2, base_width: int = 64) -> NetworkSpec:
    """Construct the network spec, channel widths scaled by base_width/64."""
    if input_channels < 1:
        raise ConfigurationError(f"input_channels must be >= 1, got {input_channels}")
    if base_width < 1:
        raise ConfigurationError(f"base_width must be >= 1, got {base_width}")
    widths = tuple(max(1, round(w * base_width / 64)) for w in DEFAULT_WIDTHS)
    w0, w1, w2, w3, w4 = widths

    convs = []
    # Encoder: first two convolutions use 5x5 kernels.
    in_ch = input_channels
    for i, w in enumerate((w0, w1, w2, w3)):
        k = 5 if i == 0 else 3
        convs.append(ConvSpec(in_ch, w, k))
        convs.append(ConvSpec(w, w, k))
        in_ch = w
    # Bottleneck.
    convs.append(ConvSpec(w3, w4, 3))
    convs.append(ConvSpec(w4, w4, 3))
    # Decoder: input is the upsampled map concatenated with the skip.
    up_ch = w4
    for skip_ch, w in ((w3, w3), (w2, w2), (w1, w1), (w0, w0)):
        convs.append(ConvSpec(up_ch + skip_ch, w, 3))
        convs.append(ConvSpec(w, w, 3))
        up_ch = w
    # Head: 1x1 projection to a single logistic channel.
    convs.append(ConvSpec(w0, 1, 1))
    return NetworkSpec(input_channels=input_channels, widths=widths, layers=tuple(convs))


def param_count(spec: NetworkSpec) -> int:
    """Total trainable parameters: kernel volume x in x out + out per layer."""
    return sum(c.kernel * c.kernel * c.in_channels * c.out_channels + c.out_channels
               for c in spec.layers)


def init_weights(spec: NetworkSpec, rng: np.random.Generator, dtype=np.float32):
    """Fan-in-scaled uniform kernels, zero biases."""
    weights = []
    for c in spec.layers:
        fan_in = c.in_channels * c.kernel * c.kernel
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(c.out_channels, c.in_channels, c.kernel, c.kernel))
        b = np.zeros(c.out_channels)
        weights.append((w.astype(dtype), b.astype(dtype)))
    return weights


def _check_input(spec, weights, x):
    if x.ndim != 4:
        raise ContractError(f"batch must be (N, C, H, W), got shape {x.shape}")
    if x.shape[1] != spec.input_channels:
        raise ContractError(
            f"batch has {x.shape[1]} channels, spec expects {spec.input_channels}"
        )
    if x.shape[2] % DOWNSAMPLE_FACTOR or x.shape[3] % DOWNSAMPLE_FACTOR:
        raise ContractError(
            f"spatial dims {x.shape[2:]} must be divisible by {DOWNSAMPLE_FACTOR}"
        )
    if len(weights) != len(spec.layers):
        raise ContractError("weight set does not match the spec layer count")
    for (w, _), c in zip(weights, spec.layers):
        if w.shape != (c.out_channels, c.in_channels, c.kernel, c.kernel):
            raise ContractError(f"weight shape {w.shape} does not match layer {c}")


def _forward_impl(spec, weights, x, keep_caches):
    caches = [] if keep_caches else None

    def record(kind, cache):
        if keep_caches:
            caches.append((kind, cache))

    def conv_relu(h, li, relu=True):
        w, b = weights[li]
        h, cc = L.conv2d_forward(h, w, b)
        record("conv", (li, cc))
        if relu:
            h, rc = L.relu_forward(h, keep_cache=keep_caches)
            record("relu", rc)
        return h

    h = x
    li = 0
    skips = []
    for _ in range(N_STAGES):
        h = conv_relu(h, li)
        h = conv_relu(h, li + 1)
        li += 2
        skips.append(h)
        h, pc = L.maxpool2x2_forward(h, keep_cache=keep_caches)
        record("pool", pc)

    h = conv_relu(h, li)
    h = conv_relu(h, li + 1)
    li += 2

    for skip in reversed(skips):
        h = L.upsample2x_forward(h)
        record("upsample", None)
        h, split = L.concat_forward(h, skip)
        record("concat", split)
        h = conv_relu(h, li)
        h = conv_relu(h, li + 1)
        li += 2

    h = conv_relu(h, li, relu=False)
    p, sc = L.sigmoid_forward(h)
    record("sigmoid", sc)
    return p[:, 0], caches


def forward(spec: NetworkSpec, weights, x: np.ndarray) -> np.ndarray:
    """Run the network on a batch (N, C, H, W) -> probability maps (N, H, W)."""
    x = np.asarray(x, dtype=weights[0][0].dtype)
    _check_input(spec, weights, x)
    p, _ = _forward_impl(spec, weights, x, keep_caches=False)
    return p


def forward_with_caches(spec, weights, x):
    x = np.asarray(x, dtype=weights[0][0].dtype)
    _check_input(spec, weights, x)
    return _forward_impl(spec, weights, x, keep_caches=True)


def backprop(spec, weights, caches, dp):
    """Propagate dLoss/dprobabilities back through recorded caches.

    Returns a per-layer list of (dw, db) matching the weight layout.  The
    input gradient is not computed: conv01 skips its dx.
    """
    grads = [None] * len(weights)
    dy = dp[:, None, :, :]
    skip_grads = []
    for kind, cache in reversed(caches):
        if kind == "sigmoid":
            dy = L.sigmoid_backward(dy, cache)
        elif kind == "relu":
            dy = L.relu_backward(dy, cache)
        elif kind == "conv":
            li, cc = cache
            dy, dw, db = L.conv2d_backward(dy, weights[li][0], cc, need_dx=li > 0)
            grads[li] = (dw, db)
        elif kind == "concat":
            dy, dskip = L.concat_backward(dy, cache)
            skip_grads.append(dskip)
        elif kind == "upsample":
            dy = L.upsample2x_backward(dy)
        elif kind == "pool":
            # The skip branch re-joins here: the pooled tensor is the same
            # one the matching decoder concat consumed.  Concats appear in
            # reverse stage order, so the matching gradient is the last one.
            dy = L.maxpool2x2_backward(dy, cache)
            dy += skip_grads.pop()
        else:
            raise RuntimeError(f"unknown cache kind {kind}")
    return grads
