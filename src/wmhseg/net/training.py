"""Mini-batch training loop with per-epoch reshuffling and a divergence guard."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, DivergenceError
from .loss import dice_loss, dice_loss_grad
from .optim import Adam
from .unet import backprop, forward, forward_with_caches, init_weights


@dataclass
class TrainConfig:
    batch_size: int = 30
    learning_rate: float = 2e-4
    epochs: int = 50
    seed: int = 0
    smooth: float = 1.0
    # Optional early stop: finish once the epoch training loss drops below
    # this value (dice loss is in [-1, 0), lower is better).
    stop_loss: float | None = None
    dtype: type = np.float32

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")


def backward(spec, weights, batch, truth, smooth: float = 1.0):
    """Dice-loss gradients for one batch. Returns (loss, per-layer grads)."""
    pred, caches = forward_with_caches(spec, weights, batch)
    loss, dpred = dice_loss_grad(pred, np.asarray(truth), smooth)
    grads = backprop(spec, weights, caches, dpred)
    return loss, grads


def _check_divergence(epoch_loss, baseline_loss, trace):
    if not np.isfinite(epoch_loss):
        raise DivergenceError(
            f"training loss became non-finite ({epoch_loss})", loss_trace=trace
        )
    # The failure mode at high learning rates is a collapse of the loss
    # toward 0 (the degenerate all-background optimum of the dice loss).
    if epoch_loss > 0.2 * baseline_loss and epoch_loss > -0.05:
        raise DivergenceError(
            f"training diverged: epoch loss {epoch_loss:.6f} collapsed toward 0 "
            f"(baseline {baseline_loss:.6f}); lower the learning rate",
            loss_trace=trace,
        )


def train(spec, samples, truth, config: TrainConfig, validation=None):
    """Train from random initialization; returns (weights, history).

    ``samples`` is (N, C, H, W), ``truth`` (N, H, W).  ``history`` holds
    per-epoch "train_loss" and, when a (val_samples, val_truth) pair is
    given, "val_loss".
    """
    samples = np.asarray(samples, dtype=config.dtype)
    truth = np.asarray(truth)
    if samples.shape[0] == 0:
        raise ContractError("training data is empty")
    if truth.shape[0] != samples.shape[0]:
        raise ContractError("samples and truth disagree on the number of slices")

    rng = np.random.default_rng(config.seed)
    weights = init_weights(spec, rng, dtype=config.dtype)
    optimizer = Adam(config.learning_rate)

    n = samples.shape[0]
    history = {"train_loss": [], "val_loss": []}
    baseline_loss = None

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss, grads = backward(
                spec, weights, samples[batch_idx], truth[batch_idx], config.smooth
            )
            if baseline_loss is None:
                baseline_loss = loss  # loss of the very first batch, pre-update
            optimizer.step(weights, grads)
            epoch_losses.append(loss)

        epoch_loss = float(np.mean(epoch_losses))
        history["train_loss"].append(epoch_loss)
        if validation is not None:
            val_pred = forward(spec, weights, np.asarray(validation[0], dtype=config.dtype))
            history["val_loss"].append(
                dice_loss(val_pred, np.asarray(validation[1]), config.smooth)
            )
        _check_divergence(epoch_loss, baseline_loss, history["train_loss"])
        if config.stop_loss is not None and epoch_loss < config.stop_loss:
            break

    return weights, history
