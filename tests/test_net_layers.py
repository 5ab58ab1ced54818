"""Per-layer forward checks against naive references plus finite-difference
gradient checks for every backward pass."""

import tracemalloc

import numpy as np
import pytest

from wmhseg.net import layers as L

from oracles import conv2d_naive


def finite_diff(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestConv2D:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forward_matches_naive(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        y, _ = L.conv2d_forward(x, w, b)
        np.testing.assert_allclose(y, conv2d_naive(x, w, b), atol=1e-10)

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y, _ = L.conv2d_forward(x, w, np.zeros(1))
        np.testing.assert_allclose(y, x)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gradients_finite_difference(self, k):
        rng = np.random.default_rng(10 + k)
        x = rng.normal(size=(2, 2, 5, 6))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        target = rng.normal(size=(2, 3, 5, 6))

        def loss_of(x_, w_, b_):
            y, _ = L.conv2d_forward(x_, w_, b_)
            return float(np.sum(y * target))

        y, cache = L.conv2d_forward(x, w, b)
        dx, dw, db = L.conv2d_backward(target, w, cache)
        assert rel_err(dx, finite_diff(lambda v: loss_of(v, w, b), x)) < 1e-6
        assert rel_err(dw, finite_diff(lambda v: loss_of(x, v, b), w)) < 1e-6
        assert rel_err(db, finite_diff(lambda v: loss_of(x, w, v), b)) < 1e-6


class TestConv2DBackwardBlocks:
    """dw sums its tap products over row blocks; conv01 skips dx."""

    @staticmethod
    def _direct_dw(x, dy, k):
        pad = k // 2
        h, width = x.shape[2:]
        xpad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        dw = np.empty((dy.shape[1], x.shape[1], k, k))
        for i in range(k):
            for j in range(k):
                dw[:, :, i, j] = np.einsum("nfyx,ncyx->fc", dy, xpad[:, :, i:i + h, j:j + width])
        return dw

    def test_several_blocks_ragged_last(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 16, 48, 48))
        w = rng.normal(size=(16, 16, 3, 3))
        b = rng.normal(size=16)
        target = rng.normal(size=(2, 16, 48, 48))
        _, cache = L.conv2d_forward(x, w, b)
        rows = cache.shape[0] * 50 * 50 - 2 * 51
        block = L._dw_block_rows(16, 16)
        assert block is not None and rows > block and rows % block
        _, dw, db = L.conv2d_backward(target, w, cache)
        assert rel_err(dw, self._direct_dw(x, target, 3)) < 1e-10
        assert rel_err(db, target.sum(axis=(0, 2, 3))) < 1e-10

        def loss_of(w_):
            return float(np.sum(L.conv2d_forward(x, w_, b)[0] * target))

        for f, c, i, j in rng.integers(0, (16, 16, 3, 3), size=(6, 4)):
            def loss_at(v):
                w_ = w.copy()
                w_[f, c, i, j] = v[0]
                return loss_of(w_)
            numeric = finite_diff(loss_at, w[f, c, i, j : j + 1].copy(), eps=1e-3)[0]
            assert abs(numeric - dw[f, c, i, j]) / abs(dw[f, c, i, j]) < 1e-6

    @pytest.mark.parametrize("k", [3, 5])
    def test_tiny_blocks_against_naive(self, k, monkeypatch):
        # Blocks of 7 rows put block edges inside image rows and taps.
        monkeypatch.setattr(L, "_dw_block_rows", lambda f, c: 7)
        rng = np.random.default_rng(30 + k)
        x = rng.normal(size=(2, 2, 5, 6))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        target = rng.normal(size=(2, 3, 5, 6))

        def loss_of(w_, b_):
            return float(np.sum(conv2d_naive(x, w_, b_) * target))

        _, cache = L.conv2d_forward(x, w, b)
        _, dw, db = L.conv2d_backward(target, w, cache)
        assert rel_err(dw, self._direct_dw(x, target, k)) < 1e-10
        assert rel_err(dw, finite_diff(lambda v: loss_of(v, b), w)) < 1e-6
        assert rel_err(db, finite_diff(lambda v: loss_of(w, v), b)) < 1e-6

    def test_block_rule(self):
        assert L._dw_block_rows(16, 16) == 10**6 // 256
        assert L._dw_block_rows(976, 1) == 1024
        assert L._dw_block_rows(977, 1) is None  # one block: 1023 rows would be slower
        assert L._dw_block_rows(256, 768) is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_dx_same_dw(self, dtype):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 20, 12)).astype(dtype)
        w = rng.normal(size=(4, 3, 5, 5)).astype(dtype)
        target = rng.normal(size=(2, 4, 20, 12)).astype(dtype)
        _, cache = L.conv2d_forward(x, w, np.zeros(4, dtype))
        _, dw, db = L.conv2d_backward(target, w, cache)
        no_dx, dw2, db2 = L.conv2d_backward(target, w, cache, need_dx=False)
        assert no_dx is None
        np.testing.assert_array_equal(dw2, dw)
        np.testing.assert_array_equal(db2, db)


def _arrays(obj):
    """Every numpy array reachable through nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


class TestConv2DEdgeShapes:
    """Maps smaller than the kernel, H != W, batch 3, both float dtypes.

    float64 uses the tolerances of TestConv2D; float32 runs the same checks
    at single-precision resolution (a few ulps of the summed terms)."""

    FWD_TOL = {np.float64: 1e-10, np.float32: 1e-5}
    GRAD_TOL = {np.float64: 1e-6, np.float32: 1e-5}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("hw", [(1, 1), (2, 1), (1, 2)])
    def test_forward_and_gradients(self, hw, k, dtype):
        rng = np.random.default_rng(100 + 10 * k + hw[0] * 3 + hw[1])
        x, w, b, target = (rng.normal(size=s).astype(dtype)
                           for s in ((3, 2, *hw), (4, 2, k, k), 4, (3, 4, *hw)))
        # The oracle and the finite differences run in float64 on the same values.
        x64, w64, b64, t64 = (a.astype(np.float64) for a in (x, w, b, target))

        y, cache = L.conv2d_forward(x, w, b)
        assert y.dtype == dtype and y.shape == (3, 4, *hw)
        assert rel_err(y, conv2d_naive(x64, w64, b64)) < self.FWD_TOL[dtype]

        def loss_of(x_, w_, b_):
            return float(np.sum(conv2d_naive(x_, w_, b_) * t64))

        dx, dw, db = L.conv2d_backward(target, w, cache)
        assert dx.dtype == dw.dtype == db.dtype == dtype
        tol = self.GRAD_TOL[dtype]
        assert rel_err(dx, finite_diff(lambda v: loss_of(v, w64, b64), x64)) < tol
        assert rel_err(dw, finite_diff(lambda v: loss_of(x64, v, b64), w64)) < tol
        assert rel_err(db, finite_diff(lambda v: loss_of(x64, w64, v), b64)) < tol

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cache_holds_no_columns(self, k):
        rng = np.random.default_rng(k)
        n, c, h, width = 3, 4, 6, 5
        x = rng.normal(size=(n, c, h, width)).astype(np.float32)
        w = rng.normal(size=(8, c, k, k)).astype(np.float32)
        _, cache = L.conv2d_forward(x, w, np.zeros(8, np.float32))
        pad = k // 2
        padded_bytes = n * c * (h + 2 * pad) * (width + 2 * pad) * x.itemsize
        arrays = list(_arrays(cache))
        assert arrays
        for a in arrays:
            base = a if a.base is None else a.base
            assert base.nbytes <= padded_bytes


class TestConv2DAccumulation:
    """Tap products accumulate in place inside BLAS."""

    def test_no_per_tap_temporary(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 16, 64, 64)).astype(np.float32)
        w = rng.normal(size=(16, 16, 5, 5)).astype(np.float32)
        b = np.zeros(16, np.float32)
        L.conv2d_forward(x, w, b)  # warm up BLAS and the wrappers
        tracemalloc.start()
        try:
            y, xp = L.conv2d_forward(x, w, b)
            held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = L._shift_accumulate(xp, w.transpose(2, 3, 1, 0))
            accumulate_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # Whole forward: padded input, junk-row output and y, plus less than
        # one more output-sized buffer.
        assert forward_peak < xp.nbytes + out.nbytes + 2 * y.nbytes
        # The tap loop allocates next to nothing beyond its output; a product
        # temporary per tap would add about one more output.
        assert accumulate_peak < out.nbytes + out.nbytes // 8

    @pytest.mark.parametrize("x_dtype, w_dtype", [(np.float32, np.float64),
                                                  (np.float64, np.float32),
                                                  (np.int64, np.int64)])
    def test_mixed_dtypes(self, x_dtype, w_dtype):
        # The BLAS routine follows the output dtype, float64 here; the other
        # operand is cast, and integers compute in float64.
        rng = np.random.default_rng(7)
        x = (rng.normal(size=(2, 2, 4, 5)) * 4).astype(x_dtype)
        w = (rng.normal(size=(3, 2, 3, 3)) * 4).astype(w_dtype)
        b = rng.normal(size=3)
        target = rng.normal(size=(2, 3, 4, 5)).astype(x_dtype)
        x64, w64, t64 = (a.astype(np.float64) for a in (x, w, target))

        y, cache = L.conv2d_forward(x, w, b)
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, conv2d_naive(x64, w64, b), atol=1e-10)

        def loss_of(x_, w_):
            return float(np.sum(conv2d_naive(x_, w_, b) * t64))

        dx, dw, _ = L.conv2d_backward(target, w, cache)
        assert rel_err(dx, finite_diff(lambda v: loss_of(v, w64), x64)) < 1e-6
        assert rel_err(dw, finite_diff(lambda v: loss_of(x64, v), w64)) < 1e-6


class TestRelu:
    def test_forward(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        y, _ = L.relu_forward(x)
        np.testing.assert_array_equal(y, [[0, 0, 3]])

    def test_backward_masks_negatives(self):
        x = np.array([[-1.0, 2.0]])
        _, cache = L.relu_forward(x)
        np.testing.assert_array_equal(L.relu_backward(np.ones_like(x), cache), [[0, 1]])

    def test_cache_free_clips_in_place(self):
        x = np.array([[-2.0, 0.0, 3.0, -0.5]])
        want, _ = L.relu_forward(x)
        y, cache = L.relu_forward(x, keep_cache=False)
        assert cache is None and y is x
        np.testing.assert_array_equal(y, want)


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        y, _ = L.maxpool2x2_forward(x)
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cache_free_matches_argmax_pool(self, dtype):
        # small integers make many windows hold a tied maximum
        x = np.random.default_rng(6).integers(-2, 3, size=(2, 3, 8, 6)).astype(dtype)
        y, _ = L.maxpool2x2_forward(x)
        fast, cache = L.maxpool2x2_forward(x, keep_cache=False)
        assert cache is None and fast.dtype == dtype
        np.testing.assert_array_equal(fast, y)

    def test_gradient_routes_to_argmax(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 0] = 5.0
        y, cache = L.maxpool2x2_forward(x)
        dx = L.maxpool2x2_backward(np.ones_like(y), cache)
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 1, 0] = 1.0
        np.testing.assert_array_equal(dx, expected)

    def test_tie_routes_to_first(self):
        x = np.zeros((1, 1, 2, 2))  # all equal
        y, cache = L.maxpool2x2_forward(x)
        dx = L.maxpool2x2_backward(np.ones_like(y), cache)
        assert dx.sum() == 1.0
        assert dx[0, 0, 0, 0] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_routes_ties_like_argmax(self, dtype):
        rng = np.random.default_rng(11)
        x = rng.integers(-2, 3, size=(2, 3, 8, 6)).astype(dtype)
        dy = rng.normal(size=(2, 3, 4, 3)).astype(dtype)
        _, cache = L.maxpool2x2_forward(x)
        # first-max routing: argmax over each window in (0,0), (0,1), (1,0), (1,1) order
        windows = x.reshape(2, 3, 4, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 4, 3, 4)
        routed = np.zeros_like(windows)
        np.put_along_axis(routed, windows.argmax(axis=-1)[..., None], dy[..., None], axis=-1)
        want = routed.reshape(2, 3, 4, 3, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
        np.testing.assert_array_equal(L.maxpool2x2_backward(dy, cache), want)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        # distinct values avoid subgradient ambiguity at ties
        x = rng.permutation(48).astype(np.float64).reshape(1, 2, 4, 6)
        target = rng.normal(size=(1, 2, 2, 3))

        def loss_of(x_):
            y, _ = L.maxpool2x2_forward(x_)
            return float(np.sum(y * target))

        _, cache = L.maxpool2x2_forward(x)
        dx = L.maxpool2x2_backward(target, cache)
        assert rel_err(dx, finite_diff(loss_of, x)) < 1e-6


class TestUpsample:
    def test_forward_repeats(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y = L.upsample2x_forward(x)
        np.testing.assert_array_equal(
            y[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
        )

    def test_backward_sums_blocks(self):
        dy = np.ones((1, 1, 4, 4))
        np.testing.assert_array_equal(L.upsample2x_backward(dy), np.full((1, 1, 2, 2), 4.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_window_sums(self, dtype):
        dy = np.random.default_rng(12).normal(size=(2, 3, 6, 8)).astype(dtype)
        want = np.empty((2, 3, 3, 4), dtype=dtype)
        for n, c, i, j in np.ndindex(want.shape):
            want[n, c, i, j] = (dy[n, c, 2 * i, 2 * j] + dy[n, c, 2 * i, 2 * j + 1]
                                + dy[n, c, 2 * i + 1, 2 * j] + dy[n, c, 2 * i + 1, 2 * j + 1])
        np.testing.assert_array_equal(L.upsample2x_backward(dy), want)

    def test_adjoint_identity(self):
        # <up(x), y> == <x, up^T(y)> for random tensors
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 3, 4))
        y = rng.normal(size=(2, 3, 6, 8))
        lhs = np.sum(L.upsample2x_forward(x) * y)
        rhs = np.sum(x * L.upsample2x_backward(y))
        assert lhs == pytest.approx(rhs)


class TestConcat:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 5, 4, 4))
        y, split = L.concat_forward(a, b)
        assert y.shape == (2, 8, 4, 4)
        da, db = L.concat_backward(y, split)
        np.testing.assert_array_equal(da, a)
        np.testing.assert_array_equal(db, b)


class TestSigmoid:
    def test_values(self):
        y, _ = L.sigmoid_forward(np.array([0.0]))
        assert y[0] == 0.5

    def test_extreme_inputs_stable(self):
        y, _ = L.sigmoid_forward(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        x = np.linspace(-5, 5, 21)
        y, _ = L.sigmoid_forward(x)
        np.testing.assert_allclose(y + y[::-1], 1.0, atol=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 1, 3, 3))
        target = rng.normal(size=x.shape)

        def loss_of(x_):
            y, _ = L.sigmoid_forward(x_)
            return float(np.sum(y * target))

        _, cache = L.sigmoid_forward(x)
        dx = L.sigmoid_backward(target, cache)
        assert rel_err(dx, finite_diff(loss_of, x)) < 1e-6
