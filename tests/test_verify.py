"""The identity suite passes on healthy formulas and trips on corrupted ones."""

import math
import tracemalloc

import numpy as np
import pytest

from strokecraft.diffusion.process import (
    GaussianMoments,
    ddpm_forward_sample,
    ddpm_posterior_mean_simplified,
    ddpm_posterior_moments,
    ddpm_posterior_variance,
    recover_x0,
    smr_forward_sample,
    smr_marginal_moments,
    smr_posterior_moments,
    smr_transition_moments,
    snr_trajectory,
)
from strokecraft.diffusion.sampler import ancestral_sample
from strokecraft.diffusion.schedule import build_schedule
from strokecraft.diffusion.verify import ETAS, IdentityCheck, all_passed, verify_identities

VERIFY = "strokecraft.diffusion.verify"


def test_suite_passes_on_reference_schedule():
    schedule = build_schedule(200)
    checks = verify_identities(schedule, rng=np.random.default_rng(0), mc_draws=100_000)
    failed = [c for c in checks if not c.passed]
    assert not failed, f"unexpected failures: {[(c.name, c.max_error, c.tolerance) for c in failed]}"
    names = {c.name for c in checks}
    assert {"zero_eta_posterior_reduction", "posterior_denominator", "tau_round_trip"} <= names


def test_corrupted_posterior_variance_is_caught(monkeypatch):
    def corrupted(x_t, x0, x_s, t, eta, schedule):
        g = smr_posterior_moments(x_t, x0, x_s, t, eta, schedule)
        return GaussianMoments(mean=g.mean, variance=g.variance * (1.0 + 1e-6))

    monkeypatch.setattr(f"{VERIFY}.smr_posterior_moments", corrupted)
    schedule = build_schedule(100)
    checks = verify_identities(schedule, rng=np.random.default_rng(1), mc_draws=10_000)
    assert not all_passed(checks)
    failed = {c.name for c in checks if not c.passed}
    assert "zero_eta_posterior_reduction" in failed


def test_corrupted_posterior_mean_is_caught(monkeypatch):
    def corrupted(x_t, x0, x_s, t, eta, schedule):
        g = smr_posterior_moments(x_t, x0, x_s, t, eta, schedule)
        return GaussianMoments(mean=g.mean * (1.0 + 1e-6), variance=g.variance)

    monkeypatch.setattr(f"{VERIFY}.smr_posterior_moments", corrupted)
    schedule = build_schedule(100)
    checks = verify_identities(schedule, rng=np.random.default_rng(2), mc_draws=10_000)
    failed = {c.name for c in checks if not c.passed}
    assert "zero_eta_posterior_reduction" in failed


def test_corrupted_x0_recovery_is_caught(monkeypatch):
    """The sampler's last step recovers x0 through recover_x0; the round trip checks it."""
    def corrupted(x_t, tau, t, schedule):
        return recover_x0(x_t, tau, t, schedule) * (1.0 + 1e-9)

    monkeypatch.setattr(f"{VERIFY}.recover_x0", corrupted)
    for num_steps in (100, 1000, 100_000):
        schedule = build_schedule(num_steps)
        checks = verify_identities(schedule, rng=np.random.default_rng(3), mc_draws=10_000)
        failed = {c.name for c in checks if not c.passed}
        assert failed == {"tau_round_trip"}, num_steps


@pytest.mark.parametrize("num_steps", [1, 2, 1000, 5000, 100_000])
def test_suite_passes_at_every_step_count(num_steps):
    # recovery divides by sqrt(ab), 2.8e-117 at 100,000 steps; check 5 measures its
    # error in units of the rounding that division amplifies, so it holds at any length
    schedule = build_schedule(num_steps)
    for seed in range(5):
        checks = verify_identities(schedule, rng=np.random.default_rng(seed), mc_draws=1000)
        assert all_passed(checks), (seed, [c for c in checks if not c.passed])


def test_monte_carlo_check_holds_no_constant_input_arrays():
    # the check needs mc_draws floats each for eps, eps* and x_t (4.6 MiB at 200,000);
    # one full-size temporary of the draw would add 1.5 MiB more, and full arrays
    # for the constant x0 and x_s 3.1 MiB
    schedule = build_schedule(1000)
    rng = np.random.default_rng(0)  # outside the trace: a first generator imports code
    tracemalloc.start()
    try:
        verify_identities(schedule, rng=rng, mc_draws=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_broadcast_constant_inputs_draw_the_same_bits_as_full_arrays():
    schedule = build_schedule(1000)
    views = smr_forward_sample(np.broadcast_to(1.0, (5000,)), np.broadcast_to(2.0, (5000,)),
                               500, 0.25, schedule, rng=np.random.default_rng(4))
    full = smr_forward_sample(np.full(5000, 1.0), np.full(5000, 2.0),
                              500, 0.25, schedule, rng=np.random.default_rng(4))
    assert views.x_t.tobytes() == full.x_t.tobytes()


def _rel(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale))


def per_step_identities(schedule, *, rng, mc_draws):
    """The suite as one call per step and grid point: the reference for the batched one."""
    checks = []
    num_steps = schedule.num_steps

    err = 0.0
    x0 = rng.standard_normal(4)
    x_s = rng.standard_normal(4)
    for t in range(1, num_steps):
        x_t = rng.standard_normal(4)
        got = smr_posterior_moments(x_t, x0, x_s, t, 0.0, schedule)
        ref = ddpm_posterior_moments(x_t, x0, t, schedule)
        err = max(err, _rel(got.mean, ref.mean), _rel(got.variance, ref.variance))
    checks.append(IdentityCheck("zero_eta_posterior_reduction", err, 1e-9))

    err = 0.0
    step_grid = range(1, num_steps, max(1, num_steps // 20))
    for t in step_grid:
        alpha = schedule.alphas[t]
        ab = schedule.alpha_bars[t]
        for eta in ETAS:
            s1 = smr_transition_moments(np.zeros(1), np.zeros(1), t, eta, schedule).variance
            s2 = smr_marginal_moments(np.zeros(1), np.zeros(1), t - 1, eta, schedule).variance
            denom = alpha * s2 + s1
            closed = 1.0 - ab + (1.0 + 2.0 * alpha - 3.0 * ab) * eta
            err = max(err, _rel(denom, closed))
    checks.append(IdentityCheck("posterior_denominator", err, 1e-12))

    t_mid = int(np.argmin(np.abs(schedule.alpha_bars - 0.5)))
    eta = 0.25
    draw = smr_forward_sample(np.full(mc_draws, 1.0), np.full(mc_draws, 2.0), t_mid, eta,
                              schedule, rng=rng)
    ref = smr_marginal_moments(np.float64(1.0), np.float64(2.0), t_mid, eta, schedule)
    sd = math.sqrt(ref.variance)
    mean_err = abs(float(np.mean(draw.x_t)) - float(ref.mean))
    var_err = abs(float(np.var(draw.x_t)) / ref.variance - 1.0)
    checks.append(IdentityCheck("marginal_mc_mean", mean_err, 4.0 * sd / math.sqrt(mc_draws)))
    checks.append(IdentityCheck("marginal_mc_variance", var_err, 4.0 * math.sqrt(2.0 / mc_draws)))

    err = 0.0
    for t in range(1, num_steps):
        x0_t = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        x_t = ddpm_forward_sample(x0_t, t, schedule, eps)
        simp = ddpm_posterior_mean_simplified(x_t, eps, t, schedule)
        full = ddpm_posterior_moments(x_t, x0_t, t, schedule).mean
        err = max(err, _rel(simp, full))
    checks.append(IdentityCheck("posterior_mean_noise_form", err, 1e-9))

    err = 0.0
    for _ in range(100):
        t = int(rng.integers(0, num_steps))
        eta = float(rng.uniform(0.0, 0.5))
        x0_t = rng.standard_normal(6)
        x_s_t = rng.standard_normal(6)
        d = smr_forward_sample(x0_t, x_s_t, t, eta, schedule, rng=rng)
        rec = recover_x0(d.x_t, d.tau, t, schedule)
        # in units of 2^-52 times the magnitudes the draw sums and tau, over sqrt(ab)
        ab = schedule.alpha_bars[t]
        root = np.sqrt(1.0 - ab)
        root_eta = root * np.sqrt(eta)
        terms = (np.sqrt(ab) * np.abs(x0_t) + root * np.abs(d.eps)
                 + root_eta * (np.abs(x_s_t) + np.abs(d.eps_star)) + root * np.abs(d.tau))
        err = max(err, float(np.max(np.abs(rec - x0_t) * np.sqrt(ab) / (terms * 2.0**-52))))
    checks.append(IdentityCheck("tau_round_trip", err, 16.0))

    worst = np.inf
    for t in step_grid:
        for eta in ETAS:
            worst = min(
                worst,
                smr_transition_moments(np.zeros(1), np.zeros(1), t, eta, schedule).variance,
                smr_posterior_moments(
                    np.zeros(1), np.zeros(1), np.zeros(1), t, eta, schedule
                ).variance,
                smr_marginal_moments(np.zeros(1), np.zeros(1), t, eta, schedule).variance,
            )
    checks.append(IdentityCheck("variance_positivity", 0.0 if worst > 0 else 1.0, 0.5))

    err = 0.0
    for eta in ETAS:
        lifted = snr_trajectory(schedule, eta)
        base = snr_trajectory(schedule, 0.0)
        err = max(err, _rel(lifted - base, np.full_like(base, eta)) if eta else 0.0)
    checks.append(IdentityCheck("snr_uplift", err, 1e-9))
    return checks


@pytest.mark.parametrize("mode", ["scaled_linear", "linear"])
@pytest.mark.parametrize("num_steps", [1, 2, 3, 64, 1000])
def test_batched_suite_equals_the_per_step_loop(mode, num_steps):
    schedule = build_schedule(num_steps, mode)
    batched_rng = np.random.default_rng(num_steps)
    loop_rng = np.random.default_rng(num_steps)
    batched = verify_identities(schedule, rng=batched_rng, mc_draws=5000)
    loop = per_step_identities(schedule, rng=loop_rng, mc_draws=5000)
    assert batched == loop
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


def test_all_step_checks_call_each_formula_once(monkeypatch):
    import strokecraft.diffusion.verify as verify

    counts = {}

    def counted(name):
        formula = getattr(verify, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return formula(*args, **kwargs)
        return wrapper

    names = ["smr_posterior_moments", "ddpm_posterior_moments", "smr_transition_moments",
             "smr_marginal_moments", "ddpm_forward_sample", "ddpm_posterior_mean_simplified",
             "smr_forward_sample", "recover_x0"]
    for name in names:
        monkeypatch.setattr(verify, name, counted(name))
    verify_identities(build_schedule(1000), rng=np.random.default_rng(0), mc_draws=1000)
    # check 1: posterior pair; 2: transition, marginal; 3: forward draw, marginal;
    # 4: forward, simplified, posterior; 5: 100 draws and recoveries; 6: three variances
    assert counts == {
        "smr_posterior_moments": 2,
        "ddpm_posterior_moments": 2,
        "smr_transition_moments": 2,
        "smr_marginal_moments": 3,
        "ddpm_forward_sample": 1,
        "ddpm_posterior_mean_simplified": 1,
        "smr_forward_sample": 101,
        "recover_x0": 100,
    }


def test_step_blocks_keep_memory_flat_at_many_steps():
    # checks 1 and 4 walk BLOCK = 4,096 steps at a time; all 99,999 at once took
    # 29 MiB. What remains is check 7's base ratio, one lifted ratio and the
    # temporaries of the formula and of the comparison, 0.8 MB per array.
    schedule = build_schedule(100_000)
    rng = np.random.default_rng(0)  # outside the trace: a first generator imports code
    tracemalloc.start()
    try:
        checks = verify_identities(schedule, rng=rng, mc_draws=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    passed = {c.name for c in checks if c.passed}
    assert {"zero_eta_posterior_reduction", "posterior_mean_noise_form"} <= passed
    assert peak < 5 * 2**20


def test_corrupted_sampler_variance_is_caught_and_moves_samples(monkeypatch):
    """The sampler's noise scale is the checked posterior variance, not a copy of it."""
    schedule = build_schedule(64)

    class Model:
        def predict(self, x, t):
            return 0.5 * x

    def sample():
        return ancestral_sample(Model(), schedule, 2, 4, np.random.default_rng(7))

    healthy = sample()

    def corrupted(t, schedule):
        return ddpm_posterior_variance(t, schedule) * (1.0 + 1e-6)

    monkeypatch.setattr("strokecraft.diffusion.process.ddpm_posterior_variance", corrupted)
    monkeypatch.setattr("strokecraft.diffusion.sampler.ddpm_posterior_variance", corrupted)
    checks = verify_identities(schedule, rng=np.random.default_rng(8), mc_draws=10_000)
    failed = {c.name for c in checks if not c.passed}
    assert "zero_eta_posterior_reduction" in failed
    assert not np.array_equal(sample(), healthy)
