"""Ancestral sampling: exactness with an oracle predictor, determinism, aborts."""

import numpy as np
import pytest

from strokecraft.diffusion import ancestral_sample, build_schedule
from strokecraft.errors import NumericalError


class TestAncestralSampler:
    def _oracle(self, schedule, x0):
        class _P:
            def predict(self_inner, x, t):
                ab = schedule.alpha_bars[t]
                return (x - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab)

        return _P()

    def test_oracle_predictor_recovers_target_exactly(self):
        schedule = build_schedule(64)
        x0 = np.linspace(-1.0, 1.0, 16)
        model = self._oracle(schedule, x0)
        out = ancestral_sample(
            model, schedule, count=3, data_dim=16, rng=np.random.default_rng(0)
        )
        np.testing.assert_allclose(out, np.broadcast_to(x0, (3, 16)), atol=1e-9)

    def test_oracle_predictor_without_innovation_noise(self):
        schedule = build_schedule(64)
        x0 = np.linspace(0.0, 1.0, 8)
        model = self._oracle(schedule, x0)
        out = ancestral_sample(
            model, schedule, count=2, data_dim=8,
            rng=np.random.default_rng(1), inject_noise=False,
        )
        np.testing.assert_allclose(out, np.broadcast_to(x0, (2, 8)), atol=1e-9)

    def test_same_seed_bitwise_identical(self):
        schedule = build_schedule(32)
        model = self._oracle(schedule, np.zeros(4))
        a = ancestral_sample(model, schedule, 2, 4, np.random.default_rng(42))
        b = ancestral_sample(model, schedule, 2, 4, np.random.default_rng(42))
        c = ancestral_sample(model, schedule, 2, 4, np.random.default_rng(43))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_non_finite_prediction_aborts_with_step(self):
        schedule = build_schedule(16)

        class Bad:
            def predict(self, x, t):
                return np.full_like(x, np.inf)

        with pytest.raises(NumericalError, match="step 15"):
            ancestral_sample(Bad(), schedule, 1, 4, np.random.default_rng(2))
