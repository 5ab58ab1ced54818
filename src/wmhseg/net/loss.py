"""Dice loss over a batch of probability maps.

DL = -(2 * sum(p * g) + s) / (sum(p) + sum(g) + s), with the sums running
jointly over all maps in the batch.  The smoothing term s = SMOOTH = 1 keeps
the loss finite (and its gradient defined) when both maps are empty.  The
value lies in [-1, 0); -1 means perfect agreement.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError

SMOOTH = 1.0


def dice_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    g = truth.astype(pred.dtype, copy=False)
    num = 2.0 * float(np.sum(pred * g)) + SMOOTH
    den = float(np.sum(pred)) + float(np.sum(g)) + SMOOTH
    return -num / den


def dice_loss_grad(pred: np.ndarray, truth: np.ndarray):
    """Returns (loss, dLoss/dpred)."""
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    g = truth.astype(pred.dtype, copy=False)
    num = 2.0 * np.sum(pred * g) + SMOOTH
    den = np.sum(pred) + np.sum(g) + SMOOTH
    loss = -num / den
    # d/dp_i [-num/den] = -(2 g_i den - num) / den^2
    grad = (num / den**2 - 2.0 * g / den).astype(pred.dtype)
    return float(loss), grad
