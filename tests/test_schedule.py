"""Noise schedule construction against an exact-arithmetic product oracle."""

from fractions import Fraction

import numpy as np
import pytest

from strokecraft.diffusion.schedule import BETA_ENDPOINTS, build_schedule
from strokecraft.errors import ConfigError


def exact_alpha_bars(betas):
    """Cumulative products in rational arithmetic, seeded from the exact floats."""
    out = []
    acc = Fraction(1)
    for b in betas:
        acc *= 1 - Fraction(b)
        out.append(acc)
    return out


class TestBuildSchedule:
    def test_scaled_linear_endpoints_reproduced(self):
        s = build_schedule(1000, "scaled_linear")
        np.testing.assert_allclose(s.betas[0], 0.00085, rtol=1e-13)
        np.testing.assert_allclose(s.betas[-1], 0.012, rtol=1e-13)

    def test_sqrt_beta_is_linear_in_scaled_mode(self):
        s = build_schedule(100, "scaled_linear")
        second_diff = np.diff(np.sqrt(s.betas), n=2)
        np.testing.assert_allclose(second_diff, 0.0, atol=1e-15)

    def test_beta_is_linear_in_linear_mode(self):
        s = build_schedule(100, "linear")
        np.testing.assert_allclose(s.betas[[0, -1]], BETA_ENDPOINTS, rtol=1e-13)
        second_diff = np.diff(s.betas, n=2)
        np.testing.assert_allclose(second_diff, 0.0, atol=1e-15)

    @pytest.mark.parametrize("mode", ["linear", "scaled_linear"])
    @pytest.mark.parametrize("num_steps", [1, 2, 100, 1000])
    def test_alpha_bar_matches_exact_product(self, mode, num_steps):
        s = build_schedule(num_steps, mode)
        exact = exact_alpha_bars(s.betas)
        rel = [abs(Fraction(float(got)) - want) / want for got, want in zip(s.alpha_bars, exact)]
        assert max(rel) <= 1e-12

    def test_alpha_bar_strictly_decreasing(self):
        s = build_schedule(1000)
        assert np.all(np.diff(s.alpha_bars) < 0)

    def test_single_step_linear(self):
        s = build_schedule(1, "linear")
        np.testing.assert_allclose(s.alpha_bars, [1.0 - BETA_ENDPOINTS[0]])

    def test_betas_stay_inside_unit_interval(self):
        for mode in ("linear", "scaled_linear"):
            s = build_schedule(500, mode)
            assert np.all(s.betas > 0) and np.all(s.betas < 1)

    def test_rejects_bad_configs(self):
        with pytest.raises(ConfigError):
            build_schedule(0)
        with pytest.raises(ConfigError):
            build_schedule(10, mode="cosine")

    def test_check_step_bounds(self):
        s = build_schedule(10)
        with pytest.raises(ConfigError):
            s.check_step(10)
        with pytest.raises(ConfigError):
            s.check_step(-1)
        with pytest.raises(ConfigError):
            s.check_step(0, lowest=1)
        s.check_step(9)

    def test_check_step_takes_integer_arrays_and_refuses_bools_and_floats(self):
        s = build_schedule(10)
        s.check_step(np.int64(3))
        s.check_step(np.array([[0], [9], [4]]))
        s.check_step(np.array([1, 2], dtype=np.uint8), lowest=1)
        with pytest.raises(ConfigError, match=r"integer in \[1, 9\]"):
            s.check_step(np.array([2, 0]), lowest=1)
        for bad in (np.array([[0], [10], [4]]), 2**70, 2.0, np.array([1.0]), True,
                    np.bool_(True), np.array([True, False])):
            with pytest.raises(ConfigError, match=r"integer in \[0, 9\]"):
                s.check_step(bad)
