"""Shared flat-parameter layout: init, views and the checkpoint loader; the
in-place optimizer and im2col against the plain expressions they replace."""

import tracemalloc

import numpy as np
import pytest

from strokecraft import nn
from strokecraft.diffusion.denoiser import Denoiser
from strokecraft.errors import ConfigError
from strokecraft.painting.predictor import StrokePredictor


def glorot(rng, fan_in, fan_out, size):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size)


class TestInit:
    def test_denoiser_matches_a_per_tensor_transcription(self):
        # data 4 + time 6 -> 5 -> 3 -> 4
        rng = np.random.default_rng(11)
        expected = np.concatenate([
            glorot(rng, 10, 5, 50), np.zeros(5),
            glorot(rng, 5, 3, 15), np.zeros(3),
            glorot(rng, 3, 4, 12), np.zeros(4),
        ])
        net = Denoiser.create(4, hidden=(5, 3), time_dim=6, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(net.params, expected)

    def test_predictor_matches_a_per_tensor_transcription(self):
        # 3-channel 8x8 pairs, conv 4 and 6 channels, hidden 16, 2 slots of 17
        rng = np.random.default_rng(12)
        expected = np.concatenate([
            glorot(rng, 6 * 9, 4 * 9, 4 * 6 * 9), np.zeros(4),
            glorot(rng, 4 * 9, 6 * 9, 6 * 4 * 9), np.zeros(6),
            glorot(rng, 6 * 2 * 2, 16, 24 * 16), np.zeros(16),
            glorot(rng, 16, 34, 16 * 34), np.zeros(34),
        ])
        predictor = StrokePredictor.create(np.random.default_rng(12), input_side=8,
                                           conv_channels=(4, 6), fc_hidden=16, max_strokes=2)
        np.testing.assert_array_equal(predictor.params, expected)


class TestViews:
    def test_views_tile_the_vector_in_order(self):
        shapes = [(2, 3, 1, 1), (2,), (3, 4), (4,)]
        params = np.arange(6 + 2 + 12 + 4, dtype=np.float64)
        views = nn.param_views(params, shapes)
        assert [v.shape for v in views] == shapes
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in views]), params)
        views[2][0, 0] = -1.0
        assert params[8] == -1.0


class TestLoadModel:
    def test_weight_count_must_match(self, tmp_path):
        predictor = StrokePredictor.create(np.random.default_rng(0), input_side=8,
                                           conv_channels=(4, 6), fc_hidden=16, max_strokes=2)
        nn.save_checkpoint(tmp_path / "p.ckpt", predictor.arch, predictor.params[:-1])
        with pytest.raises(ConfigError):
            StrokePredictor.load(tmp_path / "p.ckpt")


def plain_adam_update(params, grad, m, v, t, lr, beta1, beta2, eps):
    """The update as one expression per line, with fresh arrays; returns the new m, v."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    params -= lr * mhat / (np.sqrt(vhat) + eps)
    return m, v


def padded_im2col(x, kh, kw, stride, pad):
    """im2col over np.pad, as the in-place padding replaced it."""
    b, c, h, w = x.shape
    hp = (h + 2 * pad - kh) // stride + 1
    wp = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, c, kh, kw, hp, wp), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * hp : stride, j : j + stride * wp : stride]
    return cols.reshape(b, c * kh * kw, hp * wp)


BLOCK = nn.Adam.BLOCK


class TestInPlace:
    @pytest.mark.parametrize("lr", [1e-3, 3e-2])
    @pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_adam_matches_the_plain_expression(self, size, lr):
        rng = np.random.default_rng(21)
        params = rng.normal(size=size)
        expected = params.copy()
        m, v = np.zeros(size), np.zeros(size)
        adam = nn.Adam(size, lr=lr)
        for t in range(1, 61):
            grad = rng.normal(size=size) * rng.uniform(0.0, 3.0)
            grad[:10] = 0.0  # moments that only decay
            seen = grad.copy()
            adam.update(params, grad)
            np.testing.assert_array_equal(grad, seen)
            m, v = plain_adam_update(expected, grad, m, v, t, lr,
                                     nn.Adam.beta1, nn.Adam.beta2, nn.Adam.eps)
            np.testing.assert_array_equal(params, expected)
        np.testing.assert_array_equal(adam.m, m)
        np.testing.assert_array_equal(adam.v, v)

    @pytest.mark.parametrize("size", [0, 1, BLOCK, 150_352])
    def test_adam_work_buffers_hold_one_block(self, size):
        adam = nn.Adam(size)
        assert adam._step.size == adam._denom.size == min(size, BLOCK)

    def test_adam_holds_no_full_size_work_vector(self):
        # the stroke predictor's size: m and v take 2.41 MB, two full-size
        # work buffers another 2.41 MB, two blocks 0.26 MB
        size = 150_352
        rng = np.random.default_rng(24)
        params, grad = rng.normal(size=size), rng.normal(size=size)
        tracemalloc.start()
        try:
            adam = nn.Adam(size)
            for _ in range(3):
                adam.update(params, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    @pytest.mark.parametrize("params_shape, grad_shape", [
        ((5,), (1,)), ((5,), (6,)), ((5,), (4,)), ((4,), (5,)), ((6,), (5,)),
        ((5,), ()), ((5,), (5, 1)), ((1, 5), (5,)),
    ])
    def test_adam_refuses_a_mismatched_shape_before_any_change(self, params_shape, grad_shape):
        rng = np.random.default_rng(25)
        adam = nn.Adam(5)
        adam.update(rng.normal(size=5), rng.normal(size=5))
        state = (adam.t, adam.m.copy(), adam.v.copy())
        params = rng.normal(size=params_shape)
        before = params.copy()
        with pytest.raises(ConfigError, match="Adam over 5 values"):
            adam.update(params, np.ones(grad_shape))
        assert adam.t == state[0]
        np.testing.assert_array_equal(adam.m, state[1])
        np.testing.assert_array_equal(adam.v, state[2])
        np.testing.assert_array_equal(params, before)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(1, 6, 32, 32), (2, 3, 9, 7)])
    def test_im2col_matches_np_pad(self, shape, stride, pad):
        x = np.random.default_rng(22).normal(size=shape)
        np.testing.assert_array_equal(nn._im2col(x, 3, 3, stride, pad),
                                      padded_im2col(x, 3, 3, stride, pad))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_backward_fills_views_with_the_bits_of_fresh_arrays(self, batch):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(batch, 2, 8, 8))
        w = rng.normal(size=(4, 2, 3, 3))
        out, cache = nn.conv2d_forward(x, w, rng.normal(size=4), stride=2, pad=1)
        grad_out = rng.normal(size=out.shape)
        xs, lin_w, lin_grad = (rng.normal(size=s) for s in [(batch, 5), (5, 6), (batch, 6)])
        flat = np.full(w.size + 4 + lin_w.size + 6, np.nan)
        kernel, bias, weight, lin_bias = nn.param_views(flat, [w.shape, (4,), (5, 6), (6,)])
        got = [nn.conv2d_backward(cache, w, grad_out, kernel, bias), kernel, bias,
               nn.linear_backward(xs, lin_w, lin_grad, weight, lin_bias), weight, lin_bias]
        # the expressions the backward passes returned as fresh arrays
        gmat = grad_out.reshape(batch, 4, -1)
        grad_cols = np.einsum("ok,bop->bkp", w.reshape(4, -1), gmat)
        want = [nn._col2im(grad_cols, x.shape, 3, 3, 2, 1),
                np.einsum("bop,bkp->ok", gmat, cache[0]).reshape(w.shape),
                gmat.sum(axis=(0, 2)),
                lin_grad @ lin_w.T, xs.T @ lin_grad, lin_grad.sum(axis=0)]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert np.isfinite(flat).all()
