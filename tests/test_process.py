"""Forward-process moments, posterior algebra, targets, and the SNR view.

Derived formulas are checked against independent routes: Monte Carlo for the
moments, symbolic expansion for the conjugacy denominator, and exact rational
arithmetic for the signal-to-noise examples.
"""

import math

import numpy as np
import pytest
import sympy

from strokecraft.diffusion.process import (
    SmrConfig,
    ddpm_forward_sample,
    ddpm_posterior_mean_simplified,
    ddpm_posterior_moments,
    ddpm_posterior_variance,
    deterministic_prior_weight,
    make_eta,
    recover_x0,
    smr_forward_sample,
    smr_marginal_moments,
    smr_posterior_moments,
    smr_transition_moments,
    snr_trajectory,
    tau_target,
)
from strokecraft.diffusion.schedule import NoiseSchedule, build_schedule
from strokecraft.errors import ConfigError


def schedule_from_betas(betas):
    betas = np.asarray(betas, dtype=np.float64)
    alphas = 1.0 - betas
    return NoiseSchedule(
        mode="explicit", betas=betas, alphas=alphas, alpha_bars=np.cumprod(alphas)
    )


# alpha_bar_0 = 0.5 exactly, for the worked scalar examples
HALF_STEP = schedule_from_betas([0.5])
# alpha_1 = 0.9, alpha_bar_1 = 0.45, alpha_bar_0 = 0.5
TWO_STEP = schedule_from_betas([0.5, 0.1])


class TestForwardSample:
    def test_deterministic_part_of_the_draw(self):
        # sqrt(0.5)*1 + sqrt(0.5)*0.5*2 = sqrt(2)
        d = smr_forward_sample(
            np.float64(1.0), np.float64(2.0), 0, 0.25, HALF_STEP,
            eps=np.float64(0.0), eps_star=np.float64(0.0),
        )
        np.testing.assert_allclose(d.x_t, math.sqrt(2.0), rtol=1e-12)

    def test_zero_eta_equals_plain_forward_bitwise(self):
        s = build_schedule(50)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((4, 4))
        eps = rng.standard_normal((4, 4))
        d = smr_forward_sample(x0, np.zeros_like(x0), 17, 0.0, s, eps=eps, eps_star=eps)
        assert np.array_equal(d.x_t, ddpm_forward_sample(x0, 17, s, eps))

    def test_grouped_form_reconstructs_the_draw(self):
        s = build_schedule(200)
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = int(rng.integers(0, 200))
            eta = float(rng.uniform(0, 0.5))
            d = smr_forward_sample(
                rng.standard_normal(5), rng.standard_normal(5), t, eta, s, rng=rng
            )
            ab = s.alpha_bars[t]
            rebuilt = math.sqrt(ab) * (d.x_t - math.sqrt(1 - ab) * d.tau) / math.sqrt(ab)
            np.testing.assert_allclose(
                math.sqrt(ab) * recover_x0(d.x_t, d.tau, t, s) + math.sqrt(1 - ab) * d.tau,
                d.x_t,
                atol=1e-12,
            )
            assert rebuilt.shape == d.x_t.shape

    def test_merged_noise_is_standard_normal(self):
        s = build_schedule(10)
        rng = np.random.default_rng(5)
        d = smr_forward_sample(
            np.zeros(200_000), np.zeros(200_000), 5, 0.4, s, rng=rng
        )
        merged = d.merged_eps
        assert abs(float(np.mean(merged))) < 4.0 / math.sqrt(merged.size)
        assert abs(float(np.var(merged)) - 1.0) < 4.0 * math.sqrt(2.0 / merged.size)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            smr_forward_sample(np.zeros(3), np.zeros(4), 0, 0.1, HALF_STEP,
                               eps=np.zeros(3), eps_star=np.zeros(3))
        with pytest.raises(ConfigError):
            smr_forward_sample(np.zeros(3), np.zeros(3), 0, -0.1, HALF_STEP,
                               eps=np.zeros(3), eps_star=np.zeros(3))
        with pytest.raises(ConfigError):
            smr_forward_sample(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 1), int),
                               np.array([[0.1], [-0.1]]), HALF_STEP,
                               eps=np.zeros((2, 3)), eps_star=np.zeros((2, 3)))

    def test_batch_rows_equal_single_draws(self):
        s = build_schedule(64)
        rng = np.random.default_rng(12)
        for batch in (1, 7, 32):
            x0, x_s, eps, eps_star = rng.standard_normal((4, batch, 9))
            t = rng.integers(0, 64, size=(batch, 1))
            eta = rng.uniform(0.0, 0.5, size=(batch, 1)) ** 2
            eta[0] = 0.0
            d = smr_forward_sample(x0, x_s, t, eta, s, eps=eps, eps_star=eps_star)
            for b in range(batch):
                one = smr_forward_sample(x0[b], x_s[b], int(t[b, 0]), float(eta[b, 0]), s,
                                         eps=eps[b], eps_star=eps_star[b])
                assert np.array_equal(d.x_t[b], one.x_t)
                assert np.array_equal(d.tau[b], one.tau)


class TestMarginalMoments:
    def test_worked_example(self):
        g = smr_marginal_moments(np.float64(1.0), np.float64(2.0), 0, 0.25, HALF_STEP)
        np.testing.assert_allclose(g.mean, math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(g.variance, 0.625, rtol=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(6)
        n = 200_000
        d = smr_forward_sample(np.full(n, 1.0), np.full(n, 2.0), 0, 0.25, HALF_STEP, rng=rng)
        g = smr_marginal_moments(np.float64(1.0), np.float64(2.0), 0, 0.25, HALF_STEP)
        sd = math.sqrt(g.variance)
        assert abs(float(np.mean(d.x_t)) - float(g.mean)) < 4 * sd / math.sqrt(n)
        assert abs(float(np.var(d.x_t)) / g.variance - 1.0) < 4 * math.sqrt(2.0 / n)

    def test_zero_eta_is_plain_marginal(self):
        s = build_schedule(100)
        g = smr_marginal_moments(np.float64(2.0), np.float64(5.0), 40, 0.0, s)
        ab = s.alpha_bars[40]
        np.testing.assert_allclose(g.mean, math.sqrt(ab) * 2.0, rtol=1e-13)
        np.testing.assert_allclose(g.variance, 1.0 - ab, rtol=1e-13)


class TestTransitionMoments:
    def test_worked_example(self):
        g = smr_transition_moments(np.float64(0.0), np.float64(1.0), 1, 0.25, TWO_STEP)
        want_mean = (math.sqrt(0.55) - math.sqrt(0.9) * math.sqrt(0.5)) * 0.5
        np.testing.assert_allclose(g.mean, want_mean, rtol=1e-12)
        np.testing.assert_allclose(g.variance, 0.35, rtol=1e-12)

    def test_monte_carlo_agreement(self):
        # one-step construction: sqrt(a)*x_prev + drift*x_s plus the three
        # independent noise sources the stated variance accounts for
        rng = np.random.default_rng(7)
        n = 300_000
        t, eta, x_prev, x_s = 1, 0.25, 0.7, 1.0
        alpha = TWO_STEP.alphas[t]
        ab = TWO_STEP.alpha_bars[t]
        ab_prev = TWO_STEP.alpha_bars[t - 1]
        draws = (
            math.sqrt(alpha) * x_prev
            + (math.sqrt(1 - ab) - math.sqrt(alpha) * math.sqrt(1 - ab_prev)) * math.sqrt(eta) * x_s
            + math.sqrt(alpha * eta * (1 - ab_prev)) * rng.standard_normal(n)
            + math.sqrt(1 - alpha) * rng.standard_normal(n)
            + math.sqrt((1 - ab) * eta) * rng.standard_normal(n)
        )
        g = smr_transition_moments(np.float64(x_prev), np.float64(x_s), t, eta, TWO_STEP)
        sd = math.sqrt(g.variance)
        assert abs(float(np.mean(draws)) - float(g.mean)) < 4 * sd / math.sqrt(n)
        assert abs(float(np.var(draws)) / g.variance - 1.0) < 4 * math.sqrt(2.0 / n)

    def test_zero_eta_is_plain_transition(self):
        s = build_schedule(100)
        g = smr_transition_moments(np.float64(1.0), np.float64(9.0), 30, 0.0, s)
        np.testing.assert_allclose(g.mean, math.sqrt(s.alphas[30]), rtol=1e-13)
        np.testing.assert_allclose(g.variance, s.betas[30], rtol=1e-13)

    def test_requires_t_at_least_one(self):
        with pytest.raises(ConfigError):
            smr_transition_moments(np.float64(0.0), np.float64(0.0), 0, 0.1, TWO_STEP)


class TestPosteriorMoments:
    def test_zero_eta_reduces_to_plain_posterior_all_steps(self):
        s = build_schedule(1000)
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(3)
        x_s = rng.standard_normal(3)
        worst = 0.0
        for t in range(1, 1000):
            x_t = rng.standard_normal(3)
            got = smr_posterior_moments(x_t, x0, x_s, t, 0.0, s)
            ref = ddpm_posterior_moments(x_t, x0, t, s)
            scale = np.maximum(np.abs(ref.mean), 1e-12)
            worst = max(
                worst,
                float(np.max(np.abs(got.mean - ref.mean) / scale)),
                abs(got.variance - ref.variance) / ref.variance,
            )
        assert worst <= 1e-9

    def test_denominator_identity_symbolically(self):
        alpha, ab_prev, eta = sympy.symbols("alpha abar_prev eta", positive=True)
        ab = alpha * ab_prev
        s1 = (1 + alpha - 2 * ab) * eta + 1 - alpha
        s2 = (1 + eta) * (1 - ab_prev)
        closed = 1 - ab + (1 + 2 * alpha - 3 * ab) * eta
        assert sympy.simplify(alpha * s2 + s1 - closed) == 0

    def test_denominator_identity_numerically(self):
        s = build_schedule(1000)
        for t in range(1, 1000, 50):
            alpha, ab = s.alphas[t], s.alpha_bars[t]
            for eta in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
                s1 = smr_transition_moments(np.zeros(1), np.zeros(1), t, eta, s).variance
                s2 = smr_marginal_moments(np.zeros(1), np.zeros(1), t - 1, eta, s).variance
                denom = alpha * s2 + s1
                closed = 1 - ab + (1 + 2 * alpha - 3 * ab) * eta
                assert abs(denom - closed) / closed <= 1e-12

    def test_state_coefficient_matches_published_form(self):
        # coefficient of x_t in the posterior mean: sqrt(a)*(1-ab_prev)*(1+eta)/denominator
        s = build_schedule(500)
        zeros = np.zeros(1)
        for t in (1, 100, 250, 499):
            alpha, ab, ab_prev = s.alphas[t], s.alpha_bars[t], s.alpha_bars[t - 1]
            for eta in (0.0, 0.15, 0.5):
                base = smr_posterior_moments(zeros, zeros, zeros, t, eta, s).mean
                lifted = smr_posterior_moments(np.ones(1), zeros, zeros, t, eta, s).mean
                coeff = float(lifted[0] - base[0])
                want = (
                    math.sqrt(alpha) * (1 - ab_prev) * (1 + eta)
                    / (1 - ab + (1 + 2 * alpha - 3 * ab) * eta)
                )
                np.testing.assert_allclose(coeff, want, rtol=1e-12)

    def test_variance_is_positive_and_below_transition(self):
        s = build_schedule(300)
        zeros = np.zeros(1)
        for t in range(1, 300, 13):
            for eta in (0.0, 0.2, 0.5):
                post = smr_posterior_moments(zeros, zeros, zeros, t, eta, s).variance
                trans = smr_transition_moments(zeros, zeros, t, eta, s).variance
                assert 0 < post < trans


class TestTauAndRecovery:
    def test_worked_example_is_golden_ratio(self):
        got = tau_target(np.float64(1.0), np.float64(1.0), 0.25)
        np.testing.assert_allclose(got, math.sqrt(1.25) + 0.5, rtol=1e-12)
        np.testing.assert_allclose(got, (1 + math.sqrt(5)) / 2, rtol=1e-12)

    def test_round_trip_is_exact(self):
        s = build_schedule(1000)
        rng = np.random.default_rng(9)
        for _ in range(100):
            t = int(rng.integers(0, 1000))
            eta = float(rng.uniform(0, 0.5))
            x0 = rng.standard_normal(8)
            d = smr_forward_sample(x0, rng.standard_normal(8), t, eta, s, rng=rng)
            rec = recover_x0(d.x_t, d.tau, t, s)
            assert float(np.max(np.abs(rec - x0))) <= 1e-10

    def test_zero_eta_target_is_the_noise(self):
        eps = np.random.default_rng(10).standard_normal(5)
        assert np.array_equal(tau_target(eps, np.zeros(5), 0.0), eps)


class TestSimplifiedPosteriorMean:
    def test_noise_form_equals_x0_form_everywhere(self):
        s = build_schedule(1000)
        rng = np.random.default_rng(11)
        worst = 0.0
        for t in range(1, 1000):
            x0 = rng.standard_normal(4)
            eps = rng.standard_normal(4)
            ab = s.alpha_bars[t]
            x_t = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps
            simp = ddpm_posterior_mean_simplified(x_t, eps, t, s)
            full = ddpm_posterior_moments(x_t, x0, t, s).mean
            scale = np.maximum(np.maximum(np.abs(simp), np.abs(full)), 1e-12)
            worst = max(worst, float(np.max(np.abs(simp - full) / scale)))
        assert worst <= 1e-9


class TestSnrTrajectory:
    def test_uplift_is_exactly_eta(self):
        s = build_schedule(1000)
        for eta in (0.04, 0.09, 0.25):
            lifted = snr_trajectory(s, eta)
            base = snr_trajectory(s, 0.0)
            np.testing.assert_allclose(lifted - base, eta, rtol=1e-9)
            assert np.all(lifted > base)


class TestEtaSampling:
    def test_uniform_mode_moments_and_support(self):
        rng = np.random.default_rng(12)
        cfg = SmrConfig(upsilon=0.5, eta_mode="eta_uniform")
        draws = make_eta(rng, cfg, size=1_000_000)
        assert np.all(draws >= 0) and np.all(draws < 0.5)
        se = 0.5 / math.sqrt(12) / math.sqrt(draws.size)
        assert abs(float(np.mean(draws)) - 0.25) < 4 * se

    def test_sqrt_mode_moments_and_support(self):
        rng = np.random.default_rng(13)
        cfg = SmrConfig(upsilon=0.5, eta_mode="sqrt_eta_uniform")
        draws = make_eta(rng, cfg, size=1_000_000)
        assert np.all(draws >= 0) and np.all(draws < 0.25)
        # E[U^2] = upsilon^2/3, Var[U^2] = upsilon^4 * (1/5 - 1/9)
        want = 0.5**2 / 3
        se = math.sqrt(0.5**4 * (1 / 5 - 1 / 9)) / math.sqrt(draws.size)
        assert abs(float(np.mean(draws)) - want) < 4 * se

    def test_scalar_draw_is_float(self):
        rng = np.random.default_rng(14)
        val = make_eta(rng, SmrConfig())
        assert isinstance(val, float) and 0 <= val < 0.5

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SmrConfig(eta_mode="gaussian")
        for upsilon in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                SmrConfig(upsilon=upsilon)
        with pytest.raises(ConfigError):
            SmrConfig(prior_mode="spiral")
        with pytest.raises(ConfigError):
            SmrConfig(prior_pairs=0)


class TestDeterministicPriorWeight:
    @pytest.mark.parametrize("kind", ["linear", "cosine", "ellipse"])
    def test_endpoints(self, kind):
        assert deterministic_prior_weight(0, 100, kind, w_max=0.3) == 0.0
        np.testing.assert_allclose(
            deterministic_prior_weight(99, 100, kind, w_max=0.3), 0.3, rtol=1e-12
        )

    def test_cosine_midpoint_is_half_peak(self):
        got = deterministic_prior_weight(50, 101, "cosine", w_max=0.4)
        np.testing.assert_allclose(got, 0.2, atol=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "cosine", "ellipse"])
    def test_nondecreasing_over_steps(self, kind):
        t = np.arange(64)
        w = deterministic_prior_weight(t, 64, kind, w_max=0.5)
        assert np.all(np.diff(w) >= -1e-15)

    def test_ellipse_quarter_circle_value(self):
        # at u = 1/2 the ellipse reads sqrt(3)/2 of the peak
        got = deterministic_prior_weight(50, 101, "ellipse", w_max=1.0)
        np.testing.assert_allclose(got, math.sqrt(3) / 2, rtol=1e-12)

    def test_bounds_checked(self):
        with pytest.raises(ConfigError):
            deterministic_prior_weight(64, 64, "linear", w_max=0.5)
        with pytest.raises(ConfigError):
            deterministic_prior_weight(0, 10, "spiral", w_max=0.5)


# Every step-indexed formula as (lowest step, takes eta, call); ``x`` is a stack
# of three equally shaped input arrays, and each call returns its outputs as a tuple.
STEP_FORMULAS = {
    "smr_marginal_moments": (0, True, lambda x, t, eta, s: _moments(
        smr_marginal_moments(x[0], x[1], t, eta, s))),
    "smr_transition_moments": (1, True, lambda x, t, eta, s: _moments(
        smr_transition_moments(x[0], x[1], t, eta, s))),
    "smr_posterior_moments": (1, True, lambda x, t, eta, s: _moments(
        smr_posterior_moments(x[0], x[1], x[2], t, eta, s))),
    "ddpm_posterior_moments": (1, False, lambda x, t, eta, s: _moments(
        ddpm_posterior_moments(x[0], x[1], t, s))),
    "ddpm_forward_sample": (0, False, lambda x, t, eta, s: (
        ddpm_forward_sample(x[0], t, s, x[1]),)),
    "ddpm_posterior_mean_simplified": (0, False, lambda x, t, eta, s: (
        ddpm_posterior_mean_simplified(x[0], x[1], t, s),)),
    "recover_x0": (0, False, lambda x, t, eta, s: (recover_x0(x[0], x[1], t, s),)),
}
MOMENT_FORMULAS = [name for name in STEP_FORMULAS if name.endswith("_moments")]


def _moments(g):
    return g.mean, g.variance


class TestStepColumns:
    """A (B, 1) column of steps, and of eta, is B one-step calls at once."""

    NUM_STEPS = 1000

    @pytest.mark.parametrize("name", STEP_FORMULAS)
    @pytest.mark.parametrize("batch", [1, 7, 999])
    def test_rows_equal_one_step_calls_bitwise(self, name, batch):
        lowest, has_eta, call = STEP_FORMULAS[name]
        s = build_schedule(self.NUM_STEPS)
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((3, batch, 5))
        t = rng.integers(lowest, self.NUM_STEPS, size=(batch, 1))
        t[0], t[-1] = self.NUM_STEPS - 1, lowest
        eta = rng.uniform(0.0, 0.5, size=(batch, 1)) if has_eta else 0.0
        if has_eta:
            eta[-1] = 0.0
        got = call(x, t, eta, s)
        for b in range(batch):
            one = call(x[:, b], int(t[b, 0]), float(eta[b, 0]) if has_eta else 0.0, s)
            for column, single in zip(got, one):
                assert np.asarray(column)[b].tobytes() == np.asarray(single).tobytes()

    @pytest.mark.parametrize("name", MOMENT_FORMULAS)
    def test_one_step_variance_is_a_python_float(self, name):
        _, _, call = STEP_FORMULAS[name]
        x = np.random.default_rng(0).standard_normal((3, 4))
        _, variance = call(x, 5, 0.3, build_schedule(10))
        assert type(variance) is float
        _, column = call(x[:, None], np.array([[5], [6]]), np.array([[0.3], [0.0]]),
                         build_schedule(10))
        assert column.shape == (2, 1)

    def test_posterior_variance_helper_matches_the_moments(self):
        s = build_schedule(self.NUM_STEPS)
        t = np.arange(1, self.NUM_STEPS)[:, None]
        column = ddpm_posterior_variance(t, s)
        assert column.shape == t.shape
        assert type(ddpm_posterior_variance(7, s)) is float
        zeros = np.zeros(1)
        assert column.tobytes() == ddpm_posterior_moments(zeros, zeros, t, s).variance.tobytes()
        for step in (1, 500, self.NUM_STEPS - 1):
            assert ddpm_posterior_variance(step, s) == column[step - 1, 0]
        with pytest.raises(ConfigError):
            ddpm_posterior_variance(np.array([[1], [0]]), s)

    @pytest.mark.parametrize("name", STEP_FORMULAS)
    def test_bad_entry_in_a_column_is_refused(self, name):
        lowest, has_eta, call = STEP_FORMULAS[name]
        s = build_schedule(10)
        x = np.zeros((3, 3, 2))
        eta = np.full((3, 1), 0.1) if has_eta else 0.0
        good = np.array([[lowest], [5], [9]])
        call(x, good, eta, s)
        bad_columns = [
            np.array([[lowest - 1], [5], [9]]),
            np.array([[lowest], [10], [9]]),
            good.astype(np.float64),
            np.array([[True], [True], [False]]),
        ]
        for bad in bad_columns:
            with pytest.raises(ConfigError):
                call(x, bad, eta, s)
        if has_eta:
            with pytest.raises(ConfigError):
                call(x, good, np.array([[0.1], [-0.1], [0.1]]), s)
