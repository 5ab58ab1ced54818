import numpy as np
import pytest

from wmhseg.errors import ContractError, DivergenceError
from wmhseg.net.training import TrainConfig, backward, train
from wmhseg.net.loss import dice_loss, dice_loss_grad
from wmhseg.net.unet import backprop, build_unet, forward, forward_with_caches, init_weights


def blob_dataset(n=8, side=16, seed=0):
    """Tiny synthetic slices: a bright square on channel 0 marks the target."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(0, 0.1, (n, 2, side, side)).astype(np.float32)
    truth = np.zeros((n, side, side), bool)
    for i in range(n):
        r, c = rng.integers(2, side - 6, 2)
        samples[i, 0, r : r + 4, c : c + 4] += 2.0
        truth[i, r : r + 4, c : c + 4] = True
    return samples, truth


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 30
        assert cfg.learning_rate == pytest.approx(2e-4)
        assert cfg.epochs == 50

    def test_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=-1.0)
        for epochs in (0, -1):
            with pytest.raises(ContractError, match="epochs must be >= 1"):
                TrainConfig(epochs=epochs)


class TestBackward:
    def test_loss_in_range(self):
        spec = build_unet(base_width=2)
        from wmhseg.net.unet import init_weights
        weights = init_weights(spec, np.random.default_rng(0))
        samples, truth = blob_dataset(2)
        loss, grads = backward(spec, weights, samples, truth)
        assert -1.0 <= loss < 0.0
        assert len(grads) == len(weights)
        assert all(np.isfinite(g).all() for dw_db in grads for g in dw_db)

    def test_loss_is_dice_with_unit_smooth(self):
        spec = build_unet(base_width=2)
        weights = init_weights(spec, np.random.default_rng(1))
        samples, truth = blob_dataset(2, seed=1)
        loss, _ = backward(spec, weights, samples, truth)
        want = dice_loss(forward(spec, weights, samples), truth)
        assert loss == pytest.approx(want, rel=1e-6)

    def test_unaligned_batch_equals_hand_padding(self):
        # The network pads 20x25 to 32x32 itself: the same loss and gradients
        # as padding by hand, cropping p before the loss and backpropagating
        # a dp that is zero on the padded ring.
        spec = build_unet(base_width=2)
        weights = init_weights(spec, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(2, 2, 20, 25)).astype(np.float32)
        truth = rng.random((2, 20, 25)) < 0.3
        loss, grads = backward(spec, weights, samples, truth)

        p, caches = forward_with_caches(spec, weights,
                                        np.pad(samples, ((0, 0), (0, 0), (0, 12), (0, 7))))
        want_loss, dp = dice_loss_grad(p[:, :20, :25], truth)
        padded_dp = np.zeros_like(p)
        padded_dp[:, :20, :25] = dp
        assert loss == want_loss
        for got, want in zip(grads, backprop(spec, weights, caches, padded_dp)):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestTrain:
    def test_loss_decreases(self):
        spec = build_unet(base_width=2)
        samples, truth = blob_dataset(8)
        cfg = TrainConfig(batch_size=8, learning_rate=2e-3, epochs=8, seed=0)
        _, history = train(spec, samples, truth, cfg)
        assert history["train_loss"][-1] < history["train_loss"][0]

    def test_deterministic_given_seed(self):
        spec = build_unet(base_width=2)
        samples, truth = blob_dataset(6)
        cfg = TrainConfig(batch_size=6, learning_rate=1e-3, epochs=3, seed=42)
        w1, h1 = train(spec, samples, truth, cfg)
        w2, h2 = train(spec, samples, truth, cfg)
        assert h1["train_loss"] == h2["train_loss"]
        for (a, ab), (b, bb) in zip(w1, w2):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(ab, bb)

    def test_seed_changes_outcome(self):
        spec = build_unet(base_width=2)
        samples, truth = blob_dataset(6)
        _, h1 = train(spec, samples, truth,
                      TrainConfig(batch_size=6, epochs=2, seed=0))
        _, h2 = train(spec, samples, truth,
                      TrainConfig(batch_size=6, epochs=2, seed=1))
        assert h1["train_loss"] != h2["train_loss"]

    def test_stop_loss_ends_early(self):
        spec = build_unet(base_width=2)
        samples, truth = blob_dataset(8)
        cfg = TrainConfig(batch_size=8, learning_rate=2e-3, epochs=50,
                          seed=0, stop_loss=-0.2)
        _, history = train(spec, samples, truth, cfg)
        assert len(history["train_loss"]) < 50
        assert history["train_loss"][-1] < -0.2

    def test_divergence_raised_at_high_learning_rate(self):
        spec = build_unet(base_width=2)
        samples, truth = blob_dataset(8, seed=3)
        cfg = TrainConfig(batch_size=8, learning_rate=0.1, epochs=30, seed=0)
        with pytest.raises(DivergenceError) as exc_info:
            train(spec, samples, truth, cfg)
        assert len(exc_info.value.loss_trace) >= 1

    def test_empty_dataset_rejected(self):
        spec = build_unet(base_width=2)
        with pytest.raises(ContractError):
            train(spec, np.zeros((0, 2, 16, 16)), np.zeros((0, 16, 16)),
                  TrainConfig(epochs=1))

    def test_mismatched_truth_rejected(self):
        spec = build_unet(base_width=2)
        samples, truth = blob_dataset(4)
        with pytest.raises(ContractError):
            train(spec, samples, truth[:3], TrainConfig(epochs=1))

    def test_trained_model_predicts_better_than_init(self):
        spec = build_unet(base_width=4)
        samples, truth = blob_dataset(10, seed=5)
        cfg = TrainConfig(batch_size=10, learning_rate=5e-3, epochs=30, seed=0)
        weights, _ = train(spec, samples, truth, cfg)
        pred = forward(spec, weights, samples) > 0.5
        tp = (pred & truth).sum()
        dsc = 2 * tp / (pred.sum() + truth.sum() + 1e-9)
        assert dsc > 0.5
