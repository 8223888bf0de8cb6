"""Functional ops: softmax family, layer norm, losses, im2col adjoint."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from tests.conftest import numerical_gradient


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)))
        s = F.softmax(x, axis=-1)
        assert np.allclose(s.data.sum(-1), 1.0, atol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        a = F.softmax(Tensor(x), axis=-1).data
        b = F.softmax(Tensor(x + 100.0), axis=-1).data
        assert np.allclose(a, b, atol=1e-6)

    def test_gradient(self, rng):
        x0 = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 4))
        x = Tensor(x0.copy(), requires_grad=True)
        F.mse_loss(F.softmax(x, axis=-1), target).backward()

        def scalar(a):
            return float(F.mse_loss(F.softmax(Tensor(a), axis=-1),
                                    target).data)

        expected = numerical_gradient(scalar, x0.copy())
        assert np.abs(x.grad - expected).max() < 1e-5

    def test_masked_softmax_zeroes_invalid(self, rng):
        x = Tensor(rng.standard_normal((2, 6)))
        mask = np.array([[True] * 4 + [False] * 2, [True] * 6])
        s = F.masked_softmax(x, mask, axis=-1).data
        assert np.allclose(s[0, 4:], 0.0)
        assert np.allclose(s.sum(-1), 1.0, atol=1e-5)

    def test_masked_softmax_all_invalid_row_is_zero(self, rng):
        x = Tensor(rng.standard_normal((1, 4)))
        mask = np.zeros((1, 4), dtype=bool)
        s = F.masked_softmax(x, mask, axis=-1).data
        assert np.allclose(s, 0.0)

class TestLayerNormAndLosses:
    def test_layer_norm_statistics(self, rng):
        x = Tensor(rng.standard_normal((6, 9)) * 5 + 3)
        gamma = Tensor(np.ones(9))
        beta = Tensor(np.zeros(9))
        out = F.layer_norm(x, gamma, beta).data
        assert np.allclose(out.mean(-1), 0.0, atol=1e-5)
        assert np.allclose(out.var(-1), 1.0, atol=1e-2)

    def test_mse_loss_value_and_grad(self):
        pred = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        loss = F.mse_loss(pred, np.array([[0.0, 0.0]]))
        assert np.isclose(loss.item(), (1 + 4) / 2)
        loss.backward()
        assert np.allclose(pred.grad, [[1.0, 2.0]])

    def test_dropout_train_and_eval(self, rng):
        x = Tensor(np.ones((100,)))
        out_eval = F.dropout(x, 0.5, rng, training=False)
        assert np.allclose(out_eval.data, 1.0)
        out_train = F.dropout(x, 0.5, rng, training=True).data
        assert (out_train == 0).any()
        # Inverted dropout keeps the expectation.
        assert abs(out_train.mean() - 1.0) < 0.3

class TestFusedOps:
    """The training hot-path ops record one graph node, correct grads."""

    def test_linear_is_single_node(self, rng):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        out = F.linear(x, w, b)
        assert out._parents == (x, w, b)

    def test_linear_gradients(self, rng):
        x0 = rng.standard_normal((5, 3))
        w0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal(4)
        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        F.linear(x, w, b).sum().backward()

        for tensor, base, pick in ((x, x0, 0), (w, w0, 1), (b, b0, 2)):
            def scalar(a, pick=pick):
                args = [Tensor(x0.copy()), Tensor(w0.copy()),
                        Tensor(b0.copy())]
                args[pick] = Tensor(a)
                return float(F.linear(*args).sum().data)

            expected = numerical_gradient(scalar, base.copy())
            assert np.abs(tensor.grad - expected).max() < 1e-4

    def test_linear_batched_and_vector_inputs(self, rng):
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        batched = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
        F.linear(batched, w).sum().backward()
        assert w.grad.shape == (3, 2)
        assert batched.grad.shape == (4, 5, 3)
        w.zero_grad()
        vec = Tensor(rng.standard_normal(3), requires_grad=True)
        F.linear(vec, w, Tensor(np.zeros(2), requires_grad=True)
                 ).sum().backward()
        assert vec.grad.shape == (3,) and w.grad.shape == (3, 2)

    def test_softmax_is_single_node(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = F.softmax(x, axis=-1)
        assert out._parents == (x,)

    def test_masked_softmax_gradient(self, rng):
        x0 = rng.standard_normal((2, 5))
        mask = np.array([[True, True, True, False, False], [True] * 5])
        target = rng.standard_normal((2, 5)) * mask
        x = Tensor(x0.copy(), requires_grad=True)
        F.mse_loss(F.masked_softmax(x, mask, axis=-1), target).backward()

        def scalar(a):
            return float(F.mse_loss(F.masked_softmax(Tensor(a), mask,
                                                     axis=-1), target).data)

        expected = numerical_gradient(scalar, x0.copy())
        assert np.abs(x.grad - expected).max() < 1e-5
        assert np.allclose(x.grad[0, 3:], 0.0)

    def test_mse_loss_is_single_node(self, rng):
        pred = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        loss = F.mse_loss(pred, rng.standard_normal((3, 2)))
        assert loss._parents == (pred,)
        assert loss.size == 1


class TestIm2Col:
    def test_shapes(self, rng):
        images = rng.standard_normal((2, 3, 8, 8))
        cols, oh, ow = F.im2col(images, kernel=3, stride=2, padding=1)
        assert (oh, ow) == (4, 4)
        assert cols.shape == (2, 16, 27)

    def test_matches_direct_convolution(self, rng):
        images = rng.standard_normal((1, 2, 6, 6))
        weight = rng.standard_normal((4, 2, 3, 3))
        cols, oh, ow = F.im2col(images, 3, 1, 1)
        gemm = cols[0] @ weight.reshape(4, -1).T
        result = gemm.T.reshape(4, oh, ow)
        # Direct (slow) convolution for one output position.
        # Output (oy, ox) reads padded[:, oy:oy+3, ox:ox+3].
        padded = np.pad(images[0], ((0, 0), (1, 1), (1, 1)))
        direct = sum((padded[c, 3:6, 4:7] * weight[1, c]).sum()
                     for c in range(2))
        assert np.isclose(result[1, 3, 4], direct, atol=1e-5)

    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> certifies the gradient."""
        x = rng.standard_normal((2, 3, 7, 7))
        cols, oh, ow = F.im2col(x, 3, 2, 1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, 3, 2, 1)
        rhs = float((x * back).sum())
        assert np.isclose(lhs, rhs, rtol=1e-6)


class TestLinearSplit:
    """``linear_split``: concat-free partitioned affine map."""

    def test_matches_concatenated_linear(self, rng):
        a = Tensor(rng.standard_normal((5, 7, 9, 4)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(rng.standard_normal((5, 7, 9, 3)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((7, 6)).astype(np.float32),
                   requires_grad=True)
        bias = Tensor(rng.standard_normal(6).astype(np.float32),
                      requires_grad=True)
        out = F.linear_split([a, b], w, bias)
        ref = F.linear(F.concatenate([a, b], axis=-1), w, bias)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-5)

    def test_broadcast_input_gradients(self, rng):
        """A (1, R, C) input broadcast over the view axis receives the
        view-summed gradient, and the weight slice sees it once."""
        views = 4
        a = Tensor(rng.standard_normal((views, 6, 5)).astype(np.float32),
                   requires_grad=True)
        pooled = Tensor(rng.standard_normal((1, 6, 3)).astype(np.float32),
                        requires_grad=True)
        w = Tensor(rng.standard_normal((8, 2)).astype(np.float32),
                   requires_grad=True)
        out = F.linear_split([a, pooled], w)
        g = rng.standard_normal(out.shape).astype(np.float32)
        (out * Tensor(g)).sum().backward()

        a2 = Tensor(a.data.copy(), requires_grad=True)
        pooled_b = Tensor(np.broadcast_to(pooled.data,
                                          (views, 6, 3)).copy(),
                          requires_grad=True)
        w2 = Tensor(w.data.copy(), requires_grad=True)
        ref = F.linear(F.concatenate([a2, pooled_b], axis=-1), w2)
        (ref * Tensor(g)).sum().backward()

        np.testing.assert_allclose(a.grad, a2.grad, atol=1e-4)
        np.testing.assert_allclose(
            pooled.grad, pooled_b.grad.sum(axis=0, keepdims=True), atol=1e-4)
        np.testing.assert_allclose(w.grad, w2.grad, atol=1e-3)

    def test_width_mismatch_raises(self, rng):
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((9, 2)).astype(np.float32))
        with pytest.raises(ValueError):
            F.linear_split([a], w)
