"""Numeric self-checks of the forward-process algebra.

Each check reports its worst observed error against a pinned tolerance; the
harness turns any failure into a verification error.  The checks call the
package's formulas themselves, never a copy, so a fault in one trips the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import (
    ddpm_forward_sample,
    ddpm_posterior_mean_simplified,
    ddpm_posterior_moments,
    recover_x0,
    smr_forward_sample,
    smr_marginal_moments,
    smr_posterior_moments,
    smr_transition_moments,
    snr_trajectory,
)
from .schedule import NoiseSchedule

# injection strengths of the grid checks
ETAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale))


def verify_identities(
    schedule: NoiseSchedule,
    *,
    rng: np.random.Generator,
    mc_draws: int = 200_000,
) -> list[IdentityCheck]:
    """Run every identity check against ``schedule`` and report the results."""
    checks = []
    num_steps = schedule.num_steps

    # 1. at eta = 0 the posterior collapses to the standard one, at every step
    err = 0.0
    x0 = rng.standard_normal(4)
    x_s = rng.standard_normal(4)
    for t in range(1, num_steps):
        x_t = rng.standard_normal(4)
        got = smr_posterior_moments(x_t, x0, x_s, t, 0.0, schedule)
        ref = ddpm_posterior_moments(x_t, x0, t, schedule)
        err = max(err, _rel(got.mean, ref.mean), _rel(got.variance, ref.variance))
    checks.append(IdentityCheck("zero_eta_posterior_reduction", err, 1e-9))

    # 2. conjugacy denominator a^2*s2 + s1 == 1 - ab_t + (1 + 2*alpha_t - 3*ab_t)*eta
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

    # 3. forward draw matches the stated marginal moments, by Monte Carlo
    t_mid = int(np.argmin(np.abs(schedule.alpha_bars - 0.5)))
    eta = 0.25
    # constant inputs as read-only views: only the noise and x_t take mc_draws floats
    x0_v = np.broadcast_to(1.0, (mc_draws,))
    x_s_v = np.broadcast_to(2.0, (mc_draws,))
    draw = smr_forward_sample(x0_v, x_s_v, t_mid, eta, schedule, rng=rng)
    ref = smr_marginal_moments(np.float64(1.0), np.float64(2.0), t_mid, eta, schedule)
    sd = math.sqrt(ref.variance)
    mean_err = abs(float(np.mean(draw.x_t)) - float(ref.mean))
    mean_tol = 4.0 * sd / math.sqrt(mc_draws)
    var_err = abs(float(np.var(draw.x_t)) / ref.variance - 1.0)
    var_tol = 4.0 * math.sqrt(2.0 / mc_draws)
    checks.append(IdentityCheck("marginal_mc_mean", mean_err, mean_tol))
    checks.append(IdentityCheck("marginal_mc_variance", var_err, var_tol))

    # 4. noise-form posterior mean equals the x0-form whenever the draw ties them
    err = 0.0
    for t in range(1, num_steps):
        x0_t = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        x_t = ddpm_forward_sample(x0_t, t, schedule, eps)
        simp = ddpm_posterior_mean_simplified(x_t, eps, t, schedule)
        full = ddpm_posterior_moments(x_t, x0_t, t, schedule).mean
        err = max(err, _rel(simp, full))
    checks.append(IdentityCheck("posterior_mean_noise_form", err, 1e-9))

    # 5. recovering x0 from the grouped target is exact
    err = 0.0
    for _ in range(100):
        t = int(rng.integers(0, num_steps))
        eta = float(rng.uniform(0.0, 0.5))
        x0_t = rng.standard_normal(6)
        x_s_t = rng.standard_normal(6)
        d = smr_forward_sample(x0_t, x_s_t, t, eta, schedule, rng=rng)
        rec = recover_x0(d.x_t, d.tau, t, schedule)
        err = max(err, float(np.max(np.abs(rec - x0_t))))
    checks.append(IdentityCheck("tau_round_trip", err, 1e-10))

    # 6. every stated variance stays positive on the grid
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

    # 7. counting the prior as signal lifts the ratio by exactly eta_eff
    err = 0.0
    for eta in ETAS:
        lifted = snr_trajectory(schedule, eta)
        base = snr_trajectory(schedule, 0.0)
        err = max(err, _rel(lifted - base, np.full_like(base, eta)) if eta else 0.0)
    checks.append(IdentityCheck("snr_uplift", err, 1e-9))

    return checks


def all_passed(checks: list[IdentityCheck]) -> bool:
    return all(c.passed for c in checks)
