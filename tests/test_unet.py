import numpy as np
import pytest

from wmhseg.errors import ConfigurationError, ContractError, FormatError
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
from wmhseg.net.weights_io import load_weights, save_weights


class TestSpec:
    def test_nineteen_conv_layers(self):
        assert build_unet().n_conv_layers == 19

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

    def test_rejects_indivisible_dims(self):
        spec, weights = tiny_net()
        assert DOWNSAMPLE_FACTOR == 16
        with pytest.raises(ContractError):
            forward(spec, weights, np.zeros((1, 2, 20, 16)))

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


class TestBackprop:
    def test_full_network_gradient_check(self):
        spec, weights = tiny_net(base_width=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 16, 16))
        g = (rng.random((1, 16, 16)) < 0.3).astype(np.float64)

        p, caches = forward_with_caches(spec, weights, x)
        _, dp = dice_loss_grad(p, g)
        grads = backprop(spec, weights, caches, dp)

        eps = 1e-6
        worst = 0.0
        rng2 = np.random.default_rng(7)
        for li in (0, 5, 9, 12, 18):  # encoder, bottleneck, decoder, head
            w = weights[li][0]
            flat = w.reshape(-1)
            for idx in rng2.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi, _ = dice_loss_grad(forward(spec, weights, x), g)
                flat[idx] = orig - eps
                lo, _ = dice_loss_grad(forward(spec, weights, x), g)
                flat[idx] = orig
                numeric = (hi - lo) / (2 * eps)
                analytic = grads[li][0].reshape(-1)[idx]
                worst = max(worst, abs(numeric - analytic) / max(abs(numeric), 1e-8))
        assert worst < 1e-4

    def test_every_layer_gets_a_gradient(self):
        spec, weights = tiny_net(base_width=2)
        x = np.random.default_rng(8).normal(size=(1, 2, 16, 16))
        p, caches = forward_with_caches(spec, weights, x)
        grads = backprop(spec, weights, caches, np.ones_like(p))
        assert all(g is not None for g in grads)
        for (dw, db), (w, b) in zip(grads, weights):
            assert dw.shape == w.shape and db.shape == b.shape


class TestWeightsIO:
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
