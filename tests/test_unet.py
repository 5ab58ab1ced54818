import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.errors import ConfigurationError, ContractError, FormatError, WmhsegError
from wmhseg.net.unet import (
    DEFAULT_WIDTHS,
    DOWNSAMPLE_FACTOR,
    backprop,
    build_unet,
    forward,
    forward_with_caches,
    init_weights,
    param_count,
)
from wmhseg.net.loss import dice_loss_grad
from wmhseg.net.weights_io import MAGIC, VERSION, load_weights, save_weights

from oracles import dice_loss_oracle, unet_forward_oracle


class TestSpec:
    def test_nineteen_conv_layers(self):
        assert len(build_unet().layers) == 19

    def test_first_two_kernels_5x5(self):
        spec = build_unet()
        kernels = [c.kernel for c in spec.layers]
        assert kernels[:2] == [5, 5]
        assert kernels[-1] == 1
        assert all(k == 3 for k in kernels[2:-1])

    def test_default_widths(self):
        assert build_unet().widths == DEFAULT_WIDTHS == (64, 96, 128, 256, 512)

    def test_base_width_scaling(self):
        assert build_unet(base_width=16).widths == (16, 24, 32, 64, 128)

    def test_channel_chaining(self):
        spec = build_unet(input_channels=2)
        assert spec.layers[0].in_channels == 2
        assert spec.layers[-1].out_channels == 1
        # first decoder conv sees bottleneck + deepest skip channels
        assert spec.layers[10].in_channels == spec.widths[4] + spec.widths[3]

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            build_unet(input_channels=0)
        with pytest.raises(ConfigurationError):
            build_unet(base_width=0)


class TestParamCount:
    def test_head_layer(self):
        # 1x1 conv, 64 -> 1: 64 weights + 1 bias
        spec = build_unet()
        c = spec.layers[-1]
        assert c.kernel == 1
        assert c.kernel**2 * c.in_channels * c.out_channels + c.out_channels == 65

    def test_first_layer(self):
        # 5x5 conv, 2 -> 64: 2*64*25 + 64 = 3264
        c = build_unet().layers[0]
        assert c.kernel**2 * c.in_channels * c.out_channels + c.out_channels == 3264

    def test_total_default_network(self):
        assert param_count(build_unet(input_channels=2)) == 8_283_457

    def test_count_matches_materialized_arrays(self):
        spec = build_unet(input_channels=2, base_width=8)
        weights = init_weights(spec, np.random.default_rng(0))
        total = sum(w.size + b.size for w, b in weights)
        assert total == param_count(spec)


def reseal(body):
    """A weight file body followed by its valid checksum."""
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


# (offset, struct format) of each header integer in a weight file: version,
# input channels, base width and the dtype code.
HEADER_FIELDS = [(8, "<I"), (12, "<I"), (16, "<I"), (20, "<B")]


def tiny_net(input_channels=2, base_width=4, seed=0):
    spec = build_unet(input_channels=input_channels, base_width=base_width)
    weights = init_weights(spec, np.random.default_rng(seed), dtype=np.float64)
    return spec, weights


class TestForward:
    def test_output_shape_and_range(self):
        spec, weights = tiny_net()
        x = np.random.default_rng(1).normal(size=(2, 2, 32, 48))
        p = forward(spec, weights, x)
        assert p.shape == (2, 32, 48)
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_zero_weights_give_half(self):
        spec, weights = tiny_net()
        zeros = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
        x = np.random.default_rng(2).normal(size=(1, 2, 16, 16))
        np.testing.assert_allclose(forward(spec, zeros, x), 0.5)

    def test_rejects_wrong_channel_count(self):
        spec, weights = tiny_net()
        with pytest.raises(ContractError):
            forward(spec, weights, np.zeros((1, 3, 16, 16)))

    def test_pads_unaligned_dims(self):
        spec, weights = tiny_net()
        assert DOWNSAMPLE_FACTOR == 16
        x = np.random.default_rng(12).normal(size=(2, 2, 20, 25))
        padded = np.pad(x, ((0, 0), (0, 0), (0, 12), (0, 7)))
        np.testing.assert_array_equal(forward(spec, weights, x),
                                      forward(spec, weights, padded)[:, :20, :25])

    def test_rejects_wrong_rank(self):
        spec, weights = tiny_net()
        with pytest.raises(ContractError):
            forward(spec, weights, np.zeros((2, 16, 16)))

    def test_deterministic(self):
        spec, weights = tiny_net()
        x = np.random.default_rng(3).normal(size=(1, 2, 16, 16))
        np.testing.assert_array_equal(forward(spec, weights, x), forward(spec, weights, x))

    def test_batch_independence(self):
        spec, weights = tiny_net()
        rng = np.random.default_rng(4)
        a = rng.normal(size=(1, 2, 16, 16))
        b = rng.normal(size=(1, 2, 16, 16))
        together = forward(spec, weights, np.concatenate([a, b]))
        np.testing.assert_allclose(together[0], forward(spec, weights, a)[0], atol=1e-12)
        np.testing.assert_allclose(together[1], forward(spec, weights, b)[0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cache_free_forward_matches_cached(self, dtype):
        spec = build_unet(input_channels=2, base_width=4)
        rng = np.random.default_rng(8)
        # Dyadic weights and integer inputs keep the sums exact enough that
        # pool windows hold tied maxima, where the two pool forms could part.
        weights = [(np.round(w * 8) / 8, b) for w, b in init_weights(spec, rng, dtype=dtype)]
        x = rng.integers(0, 3, size=(2, 2, 32, 32)).astype(dtype)
        p = forward(spec, weights, x)
        cached, _ = forward_with_caches(spec, weights, x)
        assert p.dtype == dtype
        np.testing.assert_array_equal(p, cached)


def worst_gradient_error(spec, weights, x, g, parts=(0,)):
    """Largest relative gap between backprop's gradients and central
    differences of the Dice loss, at four entries (or fewer) of five layers'
    kernels (part 0) and, when ``parts`` holds 1, biases."""
    p, caches = forward_with_caches(spec, weights, x)
    _, dp = dice_loss_grad(p, g)
    grads = backprop(spec, weights, caches, dp)

    eps = 1e-6
    worst = 0.0
    rng = np.random.default_rng(7)
    for part in parts:
        for li in (0, 5, 9, 12, 18):  # encoder, bottleneck, decoder, head
            flat = weights[li][part].reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi, _ = dice_loss_grad(forward(spec, weights, x), g)
                flat[idx] = orig - eps
                lo, _ = dice_loss_grad(forward(spec, weights, x), g)
                flat[idx] = orig
                numeric = (hi - lo) / (2 * eps)
                analytic = grads[li][part].reshape(-1)[idx]
                worst = max(worst, abs(numeric - analytic) / max(abs(numeric), 1e-8))
    return worst


class TestBackprop:
    def test_full_network_gradient_check(self):
        spec, weights = tiny_net(base_width=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 16, 16))
        g = (rng.random((1, 16, 16)) < 0.3).astype(np.float64)
        assert worst_gradient_error(spec, weights, x, g) < 1e-4

    def test_padded_gradient_check(self):
        # Nonzero biases: with init_weights' zero biases every pre-activation
        # on the padded ring is exactly 0, on the ReLU kink, and a central
        # difference in a bias sees there half a slope that backprop does not.
        spec, weights = tiny_net(base_width=2, seed=5)
        rng = np.random.default_rng(6)
        weights = [(w, rng.normal(0.0, 0.1, b.shape)) for w, b in weights]
        x = rng.normal(size=(1, 2, 20, 25))
        g = (rng.random((1, 20, 25)) < 0.3).astype(np.float64)
        assert worst_gradient_error(spec, weights, x, g, parts=(0, 1)) < 1e-4

    @pytest.mark.parametrize("size", [(16, 16), (20, 25)], ids=["aligned", "padded"])
    def test_directional_derivative(self, size):
        # Every weight and bias moves along one seeded direction.  The central
        # difference of the oracle's loss is taken over a step on which no
        # ReLU and no max pool changes its choice, so it sees one smooth piece
        # and float64 keeps its error far below the tolerance.
        spec, weights = tiny_net(base_width=2, seed=5)
        rng = np.random.default_rng(11)
        weights = [(w, rng.normal(0.0, 0.1, b.shape)) for w, b in weights]
        x = rng.normal(size=(2, 2, *size))
        g = (rng.random((2, *size)) < 0.3).astype(np.float64)
        p, caches = forward_with_caches(spec, weights, x)
        _, dp = dice_loss_grad(p, g)
        grads = backprop(spec, weights, caches, dp)
        direction = [(rng.standard_normal(w.shape), rng.standard_normal(b.shape))
                     for w, b in weights]
        analytic = sum(np.vdot(dw, vw) + np.vdot(db, vb)
                       for (dw, db), (vw, vb) in zip(grads, direction))

        def loss(step, kinks):
            moved = [(w + step * vw, b + step * vb)
                     for (w, b), (vw, vb) in zip(weights, direction)]
            return dice_loss_oracle(unet_forward_oracle(moved, x, kinks), g)

        for eps in (1e-6, 1e-7, 1e-8, 1e-9):
            plus, minus = [], []
            numeric = (loss(eps, plus) - loss(-eps, minus)) / (2 * eps)
            if all(np.array_equal(a, b) for a, b in zip(plus, minus)):
                break
        else:
            pytest.fail("every step changes a ReLU or max-pool choice")
        assert abs(numeric - analytic) <= 1e-6 * abs(numeric)

    def test_every_layer_gets_a_gradient(self):
        spec, weights = tiny_net(base_width=2)
        x = np.random.default_rng(8).normal(size=(1, 2, 16, 16))
        p, caches = forward_with_caches(spec, weights, x)
        grads = backprop(spec, weights, caches, np.ones_like(p))
        assert all(g is not None for g in grads)
        for (dw, db), (w, b) in zip(grads, weights):
            assert dw.shape == w.shape and db.shape == b.shape


def _level(li):
    """How many 2x poolings deep layer li works (encoder, bottleneck, decoder, head)."""
    return li // 2 if li < 10 else max(0, 3 - (li - 10) // 2)


class TestTrainingCache:
    def test_only_padded_conv_inputs_and_p(self):
        spec, weights = tiny_net()
        x = np.random.default_rng(10).normal(size=(2, 2, 32, 48))
        p, caches = forward_with_caches(spec, weights, x)
        xps, cached_p = caches
        assert cached_p is p and p.shape == (2, 32, 48)
        assert len(xps) == 19
        for li, (xp, c) in enumerate(zip(xps, spec.layers)):
            pad = c.kernel // 2
            h, w = 32 >> _level(li), 48 >> _level(li)
            assert xp.shape == (2, h + 2 * pad, w + 2 * pad, c.in_channels)


class TestLayerCallContract:
    """perfbench's layer trace names conv rows by call order and reads NCHW
    shapes off the conv arguments; these are the calls it relies on."""

    # wmhseg.net.layers names the trace times (concat_backward is gone: a
    # decoder conv's input gradient splits by slicing)
    TRACED = ("conv2d_forward", "conv2d_backward", "relu_forward", "relu_backward",
              "sigmoid_forward", "sigmoid_backward", "concat_forward",
              "maxpool2x2_forward", "maxpool2x2_backward",
              "upsample2x_forward", "upsample2x_backward")

    def test_conv_calls_in_layer_order(self, monkeypatch):
        from wmhseg.net import layers
        from wmhseg.net.training import backward

        calls = []
        for name in ("conv2d_forward", "conv2d_backward"):
            def wrapped(*args, _fn=getattr(layers, name), _name=name, **kwargs):
                calls.append((_name, args[0].shape, args[1]))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(layers, name, wrapped)

        spec, weights = tiny_net()
        rng = np.random.default_rng(11)
        n, h, w = 2, 32, 48
        x = rng.normal(size=(n, 2, h, w))
        truth = (rng.random((n, h, w)) < 0.3).astype(np.float64)
        backward(spec, weights, x, truth)

        assert [c[0] for c in calls] == ["conv2d_forward"] * 19 + ["conv2d_backward"] * 19
        for li, (_, shape, kernel) in enumerate(calls[:19]):
            c = spec.layers[li]
            assert shape == (n, c.in_channels, h >> _level(li), w >> _level(li))
            assert kernel is weights[li][0]
        for li, (_, shape, kernel) in zip(reversed(range(19)), calls[19:]):
            c = spec.layers[li]
            assert shape == (n, c.out_channels, h >> _level(li), w >> _level(li))
            assert kernel is weights[li][0]

    def test_traced_names_exist(self):
        from wmhseg.net import layers

        for name in self.TRACED:
            assert callable(getattr(layers, name, None)), name


class TestWeightsIO:
    def test_loaded_arrays_own_writeable_memory(self, tmp_path):
        spec, weights = tiny_net(base_width=4)
        path = tmp_path / "model.wmhnet"
        save_weights(path, spec, weights)
        _, loaded = load_weights(path)
        for pair in loaded:
            for a in pair:
                assert a.base is None and a.flags.writeable  # Adam updates in place


    def test_round_trip(self, tmp_path):
        spec, weights = tiny_net(base_width=4)
        path = tmp_path / "model.wmhnet"
        save_weights(path, spec, weights)
        spec2, weights2 = load_weights(path)
        assert spec2 == spec
        for (w, b), (w2, b2) in zip(weights, weights2):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)

    def test_round_trip_preserves_forward(self, tmp_path):
        spec, weights = tiny_net(base_width=4)
        path = tmp_path / "model.wmhnet"
        save_weights(path, spec, weights)
        spec2, weights2 = load_weights(path)
        x = np.random.default_rng(9).normal(size=(1, 2, 16, 16))
        np.testing.assert_array_equal(forward(spec, weights, x),
                                      forward(spec2, weights2, x))

    def test_corrupted_payload_rejected(self, tmp_path):
        spec, weights = tiny_net(base_width=4)
        path = tmp_path / "model.wmhnet"
        save_weights(path, spec, weights)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_weights(path)

    def test_truncated_rejected(self, tmp_path):
        spec, weights = tiny_net(base_width=4)
        path = tmp_path / "model.wmhnet"
        save_weights(path, spec, weights)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(FormatError):
            load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.wmhnet"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(FormatError):
            load_weights(path)

    @pytest.mark.parametrize("input_channels, base_width, field", [
        (0, 4, "input_channels"),
        (2, 0, "base_width"),
    ], ids=["channels", "width"])
    def test_zero_channels_or_width_rejected(self, tmp_path, input_channels, base_width, field):
        path = tmp_path / "model.wmhnet"
        path.write_bytes(reseal(MAGIC + struct.pack("<IIIB", VERSION, input_channels,
                                                    base_width, 1)))
        with pytest.raises(FormatError, match=f"weight file header: {field} must be >= 1"):
            load_weights(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "model.wmhnet"
        path.write_bytes(reseal(MAGIC + struct.pack("<I", 1) + bytes(64)))
        with pytest.raises(FormatError, match="unsupported weight file version 1"):
            load_weights(path)

    @pytest.mark.parametrize("layer, part, shape", [
        (3, 0, (6, 6, 1, 1)),
        (3, 1, (6, 1)),
        (18, 1, (2,)),
    ], ids=["kernel", "bias-ndim", "bias-length"])
    def test_misshaped_save_rejected(self, tmp_path, layer, part, shape):
        spec, weights = tiny_net(base_width=4)
        pair = list(weights[layer])
        pair[part] = np.zeros(shape)
        weights[layer] = tuple(pair)
        path = tmp_path / "model.wmhnet"
        name = ("kernel", "bias")[part]
        with pytest.raises(ContractError, match=rf"layer {layer + 1} {name} has shape "
                                                rf"\({', '.join(map(str, shape))},?\)"):
            save_weights(path, spec, weights)
        assert not path.exists()

    def test_save_with_a_layer_missing_rejected(self, tmp_path):
        spec, weights = tiny_net(base_width=4)
        with pytest.raises(ContractError, match="weight set has 36 arrays, the spec needs 38"):
            save_weights(tmp_path / "model.wmhnet", spec, weights[:-1])

    def test_spec_not_from_build_unet_rejected(self, tmp_path):
        spec, weights = tiny_net(base_width=4)
        spec = dataclasses.replace(spec, widths=(4, 6, 8, 16, 33))
        with pytest.raises(ContractError, match="spec is not one build_unet"):
            save_weights(tmp_path / "model.wmhnet", spec, weights)

    @pytest.mark.parametrize("kernel, bias", [(np.float16, np.float16), (np.float32, np.float64)],
                             ids=["float16", "mixed"])
    def test_save_needs_one_float_dtype(self, tmp_path, kernel, bias):
        spec, weights = tiny_net(base_width=4)
        weights = [(w.astype(kernel), b.astype(bias)) for w, b in weights]
        with pytest.raises(ContractError, match="share one float32 or float64 dtype"):
            save_weights(tmp_path / "model.wmhnet", spec, weights)

    @pytest.mark.parametrize("delta", [1, -1, -8], ids=["extra-byte", "missing-byte",
                                                       "missing-array"])
    def test_body_length_checked_against_spec(self, tmp_path, delta):
        # Resealed, so only the length is wrong; the last array is the
        # head's one float64 bias, 8 bytes.
        spec, weights = tiny_net(base_width=4)
        path = tmp_path / "model.wmhnet"
        save_weights(path, spec, weights)
        body = path.read_bytes()[:-4]
        path.write_bytes(reseal(body[:len(body) + delta] + bytes(max(delta, 0))))
        with pytest.raises(FormatError, match=f"body is {len(body) + delta} bytes, "
                                              f"the spec needs {len(body)}"):
            load_weights(path)

    @given(field=st.sampled_from(HEADER_FIELDS), value=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_header_integer_fuzz(self, tmp_path_factory, field, value):
        # One header integer set to an arbitrary value and the checksum
        # recomputed: the load succeeds or raises a WmhsegError.
        spec, weights = tiny_net()
        path = tmp_path_factory.mktemp("fuzz") / "model.wmhnet"
        save_weights(path, spec, weights)
        body = bytearray(path.read_bytes()[:-4])
        offset, fmt = field
        struct.pack_into(fmt, body, offset, value % 2 ** (8 * struct.calcsize(fmt)))
        path.write_bytes(reseal(body))
        try:
            load_weights(path)
        except WmhsegError:
            pass
