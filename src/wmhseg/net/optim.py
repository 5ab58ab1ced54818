"""Adaptive-moment gradient optimizer with the standard decay constants."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9     # first-moment decay
BETA2 = 0.999   # second-moment decay
EPS = 1e-8      # keeps the step finite where the second moment is ~0


class Adam:
    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self._m = None
        self._v = None

    def step(self, weights, grads):
        """Update a list of (w, b) pairs in place from matching gradients."""
        if self._m is None:
            self._m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
            self._v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
        self.t += 1
        correction1 = 1.0 - BETA1 ** self.t
        correction2 = 1.0 - BETA2 ** self.t
        for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(weights, grads, self._m, self._v):
            for param, grad, m, v in ((w, gw, mw, vw), (b, gb, mb, vb)):
                m *= BETA1
                m += (1.0 - BETA1) * grad
                v *= BETA2
                v += (1.0 - BETA2) * grad * grad
                m_hat = m / correction1
                v_hat = v / correction2
                param -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
