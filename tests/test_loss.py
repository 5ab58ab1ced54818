import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.errors import ContractError
from wmhseg.net.loss import dice_loss, dice_loss_grad


class TestDiceLoss:
    def test_perfect_prediction(self):
        g = np.zeros((2, 4, 4))
        g[0, 1, 1] = 1.0
        assert dice_loss(g.copy(), g) == pytest.approx(-1.0)

    def test_both_empty(self):
        z = np.zeros((1, 4, 4))
        # -(0 + s) / (0 + 0 + s) = -1
        assert dice_loss(z, z) == pytest.approx(-1.0)

    def test_hand_computed_case(self):
        # p = [0.5, 0.5], g = [1, 0], s = 1:
        # num = 2*0.5 + 1 = 2; den = (0.5+0.5) + 1 + 1 = 3 -> loss = -2/3
        p = np.array([[[0.5, 0.5]]])
        g = np.array([[[1.0, 0.0]]])
        assert dice_loss(p, g) == pytest.approx(-2.0 / 3.0)

    def test_disjoint_prediction(self):
        p = np.array([[[1.0, 0.0]]])
        g = np.array([[[0.0, 1.0]]])
        # num = 0 + 1; den = 1 + 1 + 1
        assert dice_loss(p, g) == pytest.approx(-1.0 / 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            dice_loss(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounded_in_minus_one_zero(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random((2, 5, 5))
        g = (rng.random((2, 5, 5)) < 0.4).astype(float)
        loss = dice_loss(p, g)
        assert -1.0 <= loss < 0.0

    def test_batch_pooling_not_per_slice_mean(self):
        # sums run over the whole batch jointly; a per-slice average would
        # give a different value on this asymmetric pair
        p = np.stack([np.full((2, 2), 0.9), np.full((2, 2), 0.1)])
        g = np.stack([np.ones((2, 2)), np.zeros((2, 2))])
        num = 2 * 0.9 * 4 + 1
        den = 0.9 * 4 + 0.1 * 4 + 4 + 1
        assert dice_loss(p, g) == pytest.approx(-num / den)


class TestDiceLossGrad:
    def test_loss_value_matches(self):
        rng = np.random.default_rng(0)
        p = rng.random((2, 4, 4))
        g = (rng.random((2, 4, 4)) < 0.3).astype(float)
        loss, _ = dice_loss_grad(p, g)
        assert loss == pytest.approx(dice_loss(p, g))

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        p = rng.random((1, 3, 3))
        g = (rng.random((1, 3, 3)) < 0.5).astype(float)
        _, grad = dice_loss_grad(p, g)
        eps = 1e-7
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + eps
            hi = dice_loss(p, g)
            p[idx] = orig - eps
            lo = dice_loss(p, g)
            p[idx] = orig
            assert grad[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-8)

    def test_gradient_sign_structure(self):
        # raising p on a truth voxel should lower the loss, and vice versa
        rng = np.random.default_rng(2)
        p = rng.uniform(0.2, 0.8, (1, 4, 4))
        g = np.zeros((1, 4, 4))
        g[0, 1, 1] = 1.0
        _, grad = dice_loss_grad(p, g)
        assert grad[0, 1, 1] < 0
        assert grad[0, 0, 0] > 0
