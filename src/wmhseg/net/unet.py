"""The 19-conv-layer U-Net variant: spec, initialization, forward/backward.

Structure: four encoder stages of two same-padded convolutions each (the
first two kernels are 5x5, the rest 3x3), 2x2/stride-2 max pooling between
stages, a two-conv bottleneck, and four decoder stages that nearest-upsample
2x, concatenate the matching encoder feature map and apply two convolutions.
A final 1x1 convolution with logistic activation produces the probability
map.  ReLU follows every other convolution.

One forward path serves inference and training; activations are channels-last
in memory (see ``layers``), and the training cache is the 19 padded conv inputs
plus the probability map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ContractError
from . import layers as L

DEFAULT_WIDTHS = (64, 96, 128, 256, 512)
N_STAGES = 4
DOWNSAMPLE_FACTOR = 2 ** N_STAGES  # the network pads each side to a multiple


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
    if len(weights) != len(spec.layers):
        raise ContractError("weight set does not match the spec layer count")
    for (w, _), c in zip(weights, spec.layers):
        if w.shape != (c.out_channels, c.in_channels, c.kernel, c.kernel):
            raise ContractError(f"weight shape {w.shape} does not match layer {c}")


def _pad_aligned(x):
    """x zero-padded at the high end of each side to a multiple of DOWNSAMPLE_FACTOR."""
    extra = [(0, -n % DOWNSAMPLE_FACTOR) for n in x.shape[2:]]
    return np.pad(x, [(0, 0), (0, 0), *extra]) if any(e for _, e in extra) else x


def _forward_impl(spec, weights, x, xps=None):
    """The network's one forward path; appends each conv's padded input to the
    list ``xps`` when one is given."""
    x = np.asarray(x, dtype=weights[0][0].dtype)
    _check_input(spec, weights, x)

    def conv_relu(h, li, relu=True):
        w, b = weights[li]
        h, xp = L.conv2d_forward(h, w, b)
        if xps is not None:
            xps.append(xp)
        return L.relu_forward(h) if relu else h

    h, li, skips = _pad_aligned(x), 0, []
    for _ in range(N_STAGES):
        h = conv_relu(conv_relu(h, li), li + 1)
        li += 2
        skips.append(h)
        h = L.maxpool2x2_forward(h)

    h = conv_relu(conv_relu(h, li), li + 1)
    li += 2

    for skip in reversed(skips):
        h = L.concat_forward(L.upsample2x_forward(h), skip)
        h = conv_relu(conv_relu(h, li), li + 1)
        li += 2

    return L.sigmoid_forward(conv_relu(h, li, relu=False))[:, 0, : x.shape[2], : x.shape[3]]


def forward(spec: NetworkSpec, weights, x: np.ndarray) -> np.ndarray:
    """Run the network on a batch (N, C, H, W) -> probability maps (N, H, W)."""
    return _forward_impl(spec, weights, x)


def forward_with_caches(spec, weights, x):
    """forward, plus the training cache: (the 19 padded conv inputs, p)."""
    xps = []
    p = _forward_impl(spec, weights, x, xps)
    return p, (xps, p)


def backprop(spec, weights, caches, dp):
    """Propagate dLoss/dprobabilities back through the network.

    Each ReLU output is read back from the padded input of the conv that
    consumed it: the next conv's interior, the skip half of a decoder conv's
    input, or every other pixel of its upsampled half.  Returns a per-layer
    list of (dw, db) matching the weight layout.  The input gradient is not
    computed: conv01 skips its dx.  The logit gradient is zero-padded like x.
    """
    xps, p = caches
    grads = [None] * len(weights)

    def conv_input(li):
        """Conv li's unpadded input, a (N, C, H, W) view of its cache."""
        pad = spec.layers[li].kernel // 2
        inner = slice(pad, -pad or None)
        return xps[li][:, inner, inner].transpose(0, 3, 1, 2)

    def conv_back(dy, li, y=None):
        """Back through the ReLU with output ``y``, if given, then conv li."""
        if y is not None:
            dy = L.relu_backward(dy, y)
        dx, dw, db = L.conv2d_backward(dy, weights[li][0], xps[li], need_dx=li > 0)
        grads[li] = (dw, db)
        return dx

    li = len(weights) - 1
    dy = conv_back(_pad_aligned(L.sigmoid_backward(dp[:, None], p[:, None])), li)
    y = conv_input(li)
    skips = []  # (skip map, its gradient), deepest stage last
    for _ in range(N_STAGES):
        li -= 2
        dy = conv_back(dy, li + 1, y)
        dy = conv_back(dy, li, conv_input(li + 1))
        x = conv_input(li)
        up = spec.layers[li - 1].out_channels
        skips.append((x[:, up:], dy[:, up:]))
        dy = L.upsample2x_backward(dy[:, :up])
        y = x[:, :up, ::2, ::2]  # the ReLU output this stage upsampled

    for _ in range(N_STAGES + 1):  # the bottleneck, then the encoder stages
        li -= 2
        dy = conv_back(dy, li + 1, y)
        dy = conv_back(dy, li, conv_input(li + 1))
        if skips:  # conv li's input is the pooled skip below it
            y, dskip = skips.pop()
            dy = L.maxpool2x2_backward(dy, y, conv_input(li))
            dy += dskip
    return grads
