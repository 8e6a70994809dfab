"""Training loop: determinism, loss bookkeeping, prior modes, divergence."""

import math

import numpy as np
import pytest

from strokecraft.diffusion import (
    ETA_MODES,
    PRIOR_MODES,
    Denoiser,
    SmrConfig,
    build_schedule,
    deterministic_prior_weight,
    make_eta,
    train_diffusion,
)
from strokecraft.errors import ConfigError, NumericalError
from strokecraft.nn import Adam


def tiny_dataset(rng, n=8, side=4):
    return rng.uniform(-1.0, 1.0, size=(n, side, side))


def per_instance_training(dataset, schedule, config, *, epochs, rng, batch_size, lr, hidden):
    """Reference loop: one forward draw per instance, with scalar math.sqrt coefficients."""
    flat = np.asarray(dataset, dtype=np.float64).reshape(len(dataset), -1)
    n, dim = flat.shape
    denoiser = Denoiser.create(dim, hidden=hidden, rng=rng)
    instances = []
    for i in range(n):
        for _ in range(config.prior_pairs):
            j = i if config.prior_mode == "x0" else int(rng.integers(0, n))
            eta = None
            if config.prior_mode in ("stochastic", "x0"):
                eta = float(make_eta(rng, config))
            instances.append((i, j, eta))
    num_steps = schedule.num_steps
    opt = Adam(denoiser.params.size, lr=lr)
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(instances))
        total, seen = 0.0, 0
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            xs, steps, taus = [], [], []
            for k in chunk:
                i, j, eta = instances[k]
                t = int(rng.integers(0, num_steps))
                if eta is None:
                    w = deterministic_prior_weight(
                        t, num_steps, config.prior_mode, w_max=config.upsilon
                    )
                    eta = float(w) ** 2
                eps = rng.standard_normal(dim)
                eps_star = rng.standard_normal(dim)
                ab = schedule.alpha_bars[t]
                root, root_eta = math.sqrt(1.0 - ab), math.sqrt(eta)
                xs.append(math.sqrt(ab) * flat[i] + root * eps + root * root_eta * flat[j]
                          - root * root_eta * eps_star)
                merged = (eps - math.sqrt(eta) * eps_star) / math.sqrt(1.0 + eta)
                taus.append(math.sqrt(1.0 + eta) * merged + math.sqrt(eta) * flat[j])
                steps.append(t)
            loss, grad = denoiser.loss_and_grad(
                np.stack(xs), np.array(steps, dtype=np.float64), np.stack(taus)
            )
            opt.update(denoiser.params, grad)
            total += loss * len(chunk)
            seen += len(chunk)
        history.append(total / seen)
    return denoiser, history


class TestTrainDiffusion:
    def test_history_length_and_finiteness(self):
        rng = np.random.default_rng(0)
        data = tiny_dataset(rng)
        res = train_diffusion(
            data, build_schedule(16), SmrConfig(prior_pairs=2),
            epochs=3, rng=np.random.default_rng(1), batch_size=8, hidden=(16,),
        )
        assert len(res.loss_history) == 3
        assert all(np.isfinite(v) for v in res.loss_history)

    def test_same_seed_reproduces_parameters_bitwise(self):
        data = tiny_dataset(np.random.default_rng(2))
        kwargs = dict(epochs=2, batch_size=8, hidden=(16,))
        a = train_diffusion(
            data, build_schedule(8), SmrConfig(prior_pairs=2),
            rng=np.random.default_rng(7), **kwargs,
        )
        b = train_diffusion(
            data, build_schedule(8), SmrConfig(prior_pairs=2),
            rng=np.random.default_rng(7), **kwargs,
        )
        assert np.array_equal(a.denoiser.params, b.denoiser.params)
        assert a.loss_history == b.loss_history

    @pytest.mark.parametrize("mode", ["x0", "linear", "cosine", "ellipse"])
    def test_alternative_prior_modes_run(self, mode):
        data = tiny_dataset(np.random.default_rng(3), n=4)
        res = train_diffusion(
            data, build_schedule(8), SmrConfig(prior_pairs=2, prior_mode=mode),
            epochs=1, rng=np.random.default_rng(4), batch_size=4, hidden=(8,),
        )
        assert np.isfinite(res.loss_history[0])

    def test_non_finite_data_aborts(self):
        data = tiny_dataset(np.random.default_rng(5), n=4)
        data[0, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="epoch 0"):
            train_diffusion(
                data, build_schedule(8), SmrConfig(prior_pairs=2),
                epochs=1, rng=np.random.default_rng(6), batch_size=4, hidden=(8,),
            )

    @pytest.mark.parametrize("eta_mode", ETA_MODES)
    @pytest.mark.parametrize("prior_mode", PRIOR_MODES)
    def test_batch_draws_equal_per_instance_draws_bitwise(self, prior_mode, eta_mode):
        # 5 images x 3 priors = 15 instances, so the last batch of 4 holds 3
        data = np.random.default_rng(10).uniform(-1.0, 1.0, size=(5, 3, 3, 2))
        config = SmrConfig(upsilon=0.7, eta_mode=eta_mode, prior_mode=prior_mode,
                           prior_pairs=3)
        kwargs = dict(epochs=3, batch_size=4, lr=3e-3, hidden=(8,))
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        res = train_diffusion(data, build_schedule(16), config, rng=rng, **kwargs)
        want, history = per_instance_training(data, build_schedule(16), config,
                                              rng=oracle_rng, **kwargs)
        assert np.array_equal(res.denoiser.params, want.params)
        assert res.loss_history == history
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("bad", [dict(epochs=0), dict(epochs=-1), dict(batch_size=0),
                                     dict(batch_size=-3)])
    def test_counts_below_one_rejected(self, bad):
        kwargs = {"epochs": 1, "batch_size": 4, "hidden": (8,), **bad}
        with pytest.raises(ConfigError):
            train_diffusion(tiny_dataset(np.random.default_rng(0), n=4), build_schedule(8),
                            SmrConfig(prior_pairs=2), rng=np.random.default_rng(1), **kwargs)

    def test_scalar_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_diffusion(
                np.zeros(5), build_schedule(8), SmrConfig(),
                epochs=1, rng=np.random.default_rng(0),
            )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_diffusion(
                np.zeros((0, 4)), build_schedule(8), SmrConfig(),
                epochs=1, rng=np.random.default_rng(0),
            )

    def test_loss_drops_on_easy_data(self):
        # constant images make tau almost deterministic per (t, prior) pair
        rng = np.random.default_rng(8)
        data = np.full((4, 3, 3), 0.5) + rng.normal(0, 0.05, size=(4, 3, 3))
        res = train_diffusion(
            data, build_schedule(8), SmrConfig(prior_pairs=4),
            epochs=40, rng=np.random.default_rng(9), batch_size=16, hidden=(32,), lr=3e-3,
        )
        assert res.loss_history[-1] < res.loss_history[0]
