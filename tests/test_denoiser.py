"""Denoiser net: analytic gradients against finite differences, checkpoints."""

import numpy as np
import pytest

from strokecraft import nn
from strokecraft.diffusion import (
    Denoiser,
    SmrConfig,
    build_schedule,
    make_eta,
    smr_forward_sample,
    time_embedding,
)
from strokecraft.errors import ConfigError, DataIOError


def make_batch(rng, schedule, dim=12, size=3):
    """Forward draws stacked into the (x_t, t, τ) arrays the denoiser's loss takes."""
    draws = []
    cfg = SmrConfig(upsilon=0.5)
    for _ in range(size):
        t = int(rng.integers(0, schedule.num_steps))
        eta = make_eta(rng, cfg)
        draws.append(
            smr_forward_sample(
                rng.standard_normal(dim), rng.standard_normal(dim), t, eta, schedule, rng=rng
            )
        )
    return (np.stack([d.x_t for d in draws]), np.array([d.t for d in draws], dtype=np.float64),
            np.stack([d.tau for d in draws]))


def concatenated_layer_gradients(net, x, t, target):
    """The loss gradient as one list of per-layer arrays, concatenated at the end."""
    out, acts = net._forward(net._features(x, t))
    diff = out - np.atleast_2d(target)
    layers = net._layers()
    grads = []
    grad_h = 2.0 * diff / diff.size
    for i in range(len(layers) - 1, -1, -1):
        grads[:0] = [acts[i].T @ grad_h, grad_h.sum(axis=0)]
        if i > 0:
            grad_h = (grad_h @ layers[i][0].T) * nn.dtanh(acts[i])
    return np.concatenate([g.ravel() for g in grads])


class TestTimeEmbedding:
    def test_shape_and_bounds(self):
        emb = time_embedding(np.arange(10.0), 16)
        assert emb.shape == (10, 16)
        assert np.all(np.abs(emb) <= 1.0)

    def test_distinct_steps_get_distinct_features(self):
        emb = time_embedding(np.array([3.0, 4.0]), 16)
        assert not np.allclose(emb[0], emb[1])

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            time_embedding(np.zeros(2), 7)


class TestDenoiserForward:
    def test_output_shape_and_determinism(self):
        rng = np.random.default_rng(0)
        net = Denoiser.create(12, hidden=(16, 16), rng=rng)
        x = rng.standard_normal((5, 12))
        out1 = net.predict(x, 3)
        out2 = net.predict(x, 3)
        assert out1.shape == (5, 12)
        assert np.array_equal(out1, out2)

    def test_zero_parameters_give_zero_output(self):
        rng = np.random.default_rng(1)
        net = Denoiser.create(6, hidden=(8,), rng=rng)
        net.params[:] = 0.0
        out = net.predict(rng.standard_normal((2, 6)), 1)
        assert np.array_equal(out, np.zeros((2, 6)))

    def test_wrong_width_rejected(self):
        net = Denoiser.create(6, hidden=(8,), rng=np.random.default_rng(2))
        with pytest.raises(ConfigError):
            net.predict(np.zeros((2, 7)), 0)


class TestTrainingLoss:
    def test_zero_output_scores_mean_squared_target(self):
        rng = np.random.default_rng(4)
        schedule = build_schedule(32)
        net = Denoiser.create(12, hidden=(8,), rng=rng)
        net.params[:] = 0.0
        x, t, tau = make_batch(rng, schedule)
        want = float(np.mean(tau**2))
        np.testing.assert_allclose(net.loss_and_grad(x, t, tau)[0], want, rtol=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        schedule = build_schedule(32)
        worst = 0.0
        for _ in range(20):
            net = Denoiser.create(12, hidden=(16, 16), rng=rng)
            x, t, tau = make_batch(rng, schedule)
            loss, grad = net.loss_and_grad(x, t, tau)
            assert np.isfinite(loss)
            # spot coordinates plus a couple of random directions
            for idx in rng.choice(net.params.size, size=25, replace=False):
                h = 1e-5 * max(1.0, abs(net.params[idx]))
                old = net.params[idx]
                net.params[idx] = old + h
                hi = net.loss_and_grad(x, t, tau)[0]
                net.params[idx] = old - h
                lo = net.loss_and_grad(x, t, tau)[0]
                net.params[idx] = old
                fd = (hi - lo) / (2 * h)
                scale = max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(fd - grad[idx]) / scale)
            for _ in range(3):
                direction = rng.standard_normal(net.params.size)
                direction /= np.linalg.norm(direction)
                h = 1e-5
                base = net.params.copy()
                net.params[:] = base + h * direction
                hi = net.loss_and_grad(x, t, tau)[0]
                net.params[:] = base - h * direction
                lo = net.loss_and_grad(x, t, tau)[0]
                net.params[:] = base
                fd = (hi - lo) / (2 * h)
                proj = float(grad @ direction)
                worst = max(worst, abs(fd - proj) / max(abs(fd), abs(proj), 1e-8))
        assert worst <= 1e-4

    def test_gradient_is_bit_equal_to_concatenated_layer_gradients(self):
        rng = np.random.default_rng(11)
        schedule = build_schedule(32)
        for hidden in [(8,), (16, 8), (5, 7, 3)]:
            net = Denoiser.create(12, hidden=hidden, time_dim=6, rng=rng)
            x, t, tau = make_batch(rng, schedule)
            _, grad = net.loss_and_grad(x, t, tau)
            assert grad.tobytes() == concatenated_layer_gradients(net, x, t, tau).tobytes()

    def test_empty_batch_is_a_config_error(self):
        net = Denoiser.create(4, hidden=(8,), rng=np.random.default_rng(6))
        with pytest.raises(ConfigError, match="empty batch"):
            net.loss_and_grad(np.zeros((0, 4)), np.zeros(0, dtype=int), np.zeros((0, 4)))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        net = Denoiser.create(10, hidden=(16, 8), rng=rng)
        path = tmp_path / "net.ckpt"
        net.save(path)
        back = Denoiser.load(path)
        assert back.arch == net.arch
        assert np.array_equal(back.params, net.params)

    def test_header_holds_only_the_architecture(self, tmp_path):
        net = Denoiser.create(4, hidden=(8,), rng=np.random.default_rng(9))
        net.save(tmp_path / "net.ckpt")
        header, _ = nn.load_checkpoint(tmp_path / "net.ckpt")
        assert sorted(header) == ["data_dim", "format", "hidden", "kind", "param_count",
                                  "time_dim"]

    def test_header_with_a_zero_cond_dim_still_loads(self, tmp_path):
        net = Denoiser.create(4, hidden=(8,), rng=np.random.default_rng(10))
        nn.save_checkpoint(tmp_path / "old.ckpt", dict(net.arch, cond_dim=0), net.params)
        back = Denoiser.load(tmp_path / "old.ckpt")
        assert back.arch == net.arch
        assert np.array_equal(back.params, net.params)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        net = Denoiser.create(10, hidden=(16,), rng=rng)
        path = tmp_path / "net.ckpt"
        net.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(DataIOError):
            Denoiser.load(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x10\x00\x00\x00not json at all!" + b"\x00" * 32)
        with pytest.raises(DataIOError):
            Denoiser.load(path)

    def test_header_with_an_integer_too_long_to_convert_rejected(self, tmp_path):
        header = b"[1" + b"0" * 5000 + b"]"
        path = tmp_path / "long.ckpt"
        path.write_bytes(len(header).to_bytes(4, "little") + header)
        with pytest.raises(DataIOError):
            Denoiser.load(path)

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "list.ckpt"
        path.write_bytes(b"\x03\x00\x00\x00[1]" + b"\x00" * 8)
        with pytest.raises(DataIOError):
            Denoiser.load(path)
