"""The identity suite passes on healthy formulas and trips on corrupted ones."""

import tracemalloc

import numpy as np

from strokecraft.diffusion import (
    build_schedule,
    recover_x0,
    smr_forward_sample,
    smr_posterior_moments,
)
from strokecraft.diffusion.process import GaussianMoments
from strokecraft.diffusion.verify import all_passed, verify_identities

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
    schedule = build_schedule(100)
    checks = verify_identities(schedule, rng=np.random.default_rng(3), mc_draws=10_000)
    failed = {c.name for c in checks if not c.passed}
    assert failed == {"tau_round_trip"}


def test_monte_carlo_check_holds_no_constant_input_arrays():
    # the draw needs mc_draws floats each for eps, eps* and x_t (4.6 MiB at 200,000);
    # full arrays for the constant x0 and x_s would add 3.1 MiB more
    schedule = build_schedule(1000)
    tracemalloc.start()
    try:
        verify_identities(schedule, rng=np.random.default_rng(0), mc_draws=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_broadcast_constant_inputs_draw_the_same_bits_as_full_arrays():
    schedule = build_schedule(1000)
    views = smr_forward_sample(np.broadcast_to(1.0, (5000,)), np.broadcast_to(2.0, (5000,)),
                               500, 0.25, schedule, rng=np.random.default_rng(4))
    full = smr_forward_sample(np.full(5000, 1.0), np.full(5000, 2.0),
                              500, 0.25, schedule, rng=np.random.default_rng(4))
    assert views.x_t.tobytes() == full.x_t.tobytes()
