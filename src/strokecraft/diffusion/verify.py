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
    SmrDraw,
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
# rows per formula call: steps in checks 1 and 4, draws in check 3, so memory
# stays flat however many steps or draws a run asks for
BLOCK = 4096


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
    return float(np.max(np.abs(a - b) / scale, initial=0.0))


def _worst(errors: list[float]) -> float:
    # np.max, unlike the builtin, lets a NaN error through to fail its check
    return float(np.max(errors, initial=0.0))


def _recovery_units(draw: SmrDraw, x0: np.ndarray, rec: np.ndarray,
                    schedule: NoiseSchedule) -> float:
    """Worst |rec - x0| in units of the rounding that recovering x0 may carry.

    x_t's own terms cancel in recovery, so the unit is not x_t's rounding but
    2^-52 times the magnitudes the draw sums, √ᾱ|x0|, √(1-ᾱ)|ε|, √(1-ᾱ)√η|x_s|
    and √(1-ᾱ)√η|ε*|, plus √(1-ᾱ)|τ|, scaled by recovery's 1/√ᾱ.
    """
    ab = schedule.alpha_bars[draw.t]
    root = np.sqrt(1.0 - ab)
    root_eta = root * np.sqrt(draw.eta)
    terms = (np.sqrt(ab) * np.abs(x0) + root * np.abs(draw.eps)
             + root_eta * (np.abs(draw.x_s) + np.abs(draw.eps_star)) + root * np.abs(draw.tau))
    return float(np.max(np.abs(rec - x0) * np.sqrt(ab) / (terms * 2.0**-52)))


def _step_blocks(num_steps: int):
    """(B, 1) columns of the steps 1 .. num_steps-1, at most BLOCK at a time."""
    for start in range(1, num_steps, BLOCK):
        yield np.arange(start, min(start + BLOCK, num_steps))[:, None]


def verify_identities(
    schedule: NoiseSchedule,
    *,
    rng: np.random.Generator,
    mc_draws: int = 200_000,
) -> list[IdentityCheck]:
    """Run every identity check against ``schedule`` and report the results.

    Checks 1 and 4 pass all steps to each formula as (B, 1) step columns, in
    blocks of BLOCK steps, and draw each block's noise as one array, the same
    stream as one draw per step.  Checks 2 and 6 pass the whole step × ETAS
    grid as one column pair.  Check 3 draws its noise whole and the forward
    draw BLOCK values at a time.  Check 5 stays a loop: each round draws an
    integer, a uniform and normals in turn, so one batch of each kind would
    read the stream in another order.
    """
    checks = []
    num_steps = schedule.num_steps

    # 1. at eta = 0 the posterior collapses to the standard one, at every step
    errors = []
    x0 = rng.standard_normal(4)
    x_s = rng.standard_normal(4)
    for t in _step_blocks(num_steps):
        x_t = rng.standard_normal((t.shape[0], 4))
        x0_b = np.broadcast_to(x0, x_t.shape)
        got = smr_posterior_moments(x_t, x0_b, np.broadcast_to(x_s, x_t.shape), t, 0.0, schedule)
        ref = ddpm_posterior_moments(x_t, x0_b, t, schedule)
        errors += [_rel(got.mean, ref.mean), _rel(got.variance, ref.variance)]
    checks.append(IdentityCheck("zero_eta_posterior_reduction", _worst(errors), 1e-9))

    # 2. conjugacy denominator a^2*s2 + s1 == 1 - ab_t + (1 + 2*alpha_t - 3*ab_t)*eta
    grid_steps = np.arange(1, num_steps, max(1, num_steps // 20))
    grid_t = np.repeat(grid_steps, len(ETAS))[:, None]
    grid_eta = np.tile(ETAS, len(grid_steps))[:, None]
    zero = np.zeros(1)
    alpha = schedule.alphas[grid_t]
    ab = schedule.alpha_bars[grid_t]
    s1 = smr_transition_moments(zero, zero, grid_t, grid_eta, schedule).variance
    s2 = smr_marginal_moments(zero, zero, grid_t - 1, grid_eta, schedule).variance
    denom = alpha * s2 + s1
    closed = 1.0 - ab + (1.0 + 2.0 * alpha - 3.0 * ab) * grid_eta
    checks.append(IdentityCheck("posterior_denominator", _rel(denom, closed), 1e-12))

    # 3. forward draw matches the stated marginal moments, by Monte Carlo
    t_mid = int(np.argmin(np.abs(schedule.alpha_bars - 0.5)))
    eta = 0.25
    # ε, then ε*, as the draw itself would take them from rng; the draw runs a
    # block at a time on read-only views of the constant inputs, so only the
    # noise and x_t take mc_draws floats, and the noise goes before the moments
    eps = rng.standard_normal(mc_draws)
    eps_star = rng.standard_normal(mc_draws)
    x0_v = np.broadcast_to(1.0, (BLOCK,))
    x_s_v = np.broadcast_to(2.0, (BLOCK,))
    x_t = np.empty(mc_draws)
    for start in range(0, mc_draws, BLOCK):
        rows = slice(start, min(start + BLOCK, mc_draws))
        n = rows.stop - start
        x_t[rows] = smr_forward_sample(x0_v[:n], x_s_v[:n], t_mid, eta, schedule,
                                       eps=eps[rows], eps_star=eps_star[rows]).x_t
    del eps, eps_star
    ref = smr_marginal_moments(np.float64(1.0), np.float64(2.0), t_mid, eta, schedule)
    sd = math.sqrt(ref.variance)
    mean_err = abs(float(np.mean(x_t)) - float(ref.mean))
    mean_tol = 4.0 * sd / math.sqrt(mc_draws)
    var_err = abs(float(np.var(x_t)) / ref.variance - 1.0)
    var_tol = 4.0 * math.sqrt(2.0 / mc_draws)
    checks.append(IdentityCheck("marginal_mc_mean", mean_err, mean_tol))
    checks.append(IdentityCheck("marginal_mc_variance", var_err, var_tol))

    # 4. noise-form posterior mean equals the x0-form whenever the draw ties them
    errors = []
    for t in _step_blocks(num_steps):
        noise = rng.standard_normal((t.shape[0], 2, 4))
        x0_t, eps = noise[:, 0], noise[:, 1]
        x_t = ddpm_forward_sample(x0_t, t, schedule, eps)
        simp = ddpm_posterior_mean_simplified(x_t, eps, t, schedule)
        full = ddpm_posterior_moments(x_t, x0_t, t, schedule).mean
        errors.append(_rel(simp, full))
    checks.append(IdentityCheck("posterior_mean_noise_form", _worst(errors), 1e-9))

    # 5. recovering x0 from the grouped target is exact up to rounding, which
    # 1/√ᾱ_t amplifies; a loop, so the integer, uniform and normal draws of
    # each round keep their order
    errors = []
    for _ in range(100):
        t = int(rng.integers(0, num_steps))
        eta = float(rng.uniform(0.0, 0.5))
        x0_t = rng.standard_normal(6)
        x_s_t = rng.standard_normal(6)
        d = smr_forward_sample(x0_t, x_s_t, t, eta, schedule, rng=rng)
        errors.append(_recovery_units(d, x0_t, recover_x0(d.x_t, d.tau, t, schedule), schedule))
    checks.append(IdentityCheck("tau_round_trip", _worst(errors), 16.0))

    # 6. every stated variance stays positive on the grid
    positive = all(
        np.all(variances > 0.0)
        for variances in (
            smr_transition_moments(zero, zero, grid_t, grid_eta, schedule).variance,
            smr_posterior_moments(zero, zero, zero, grid_t, grid_eta, schedule).variance,
            smr_marginal_moments(zero, zero, grid_t, grid_eta, schedule).variance,
        )
    )
    checks.append(IdentityCheck("variance_positivity", 0.0 if positive else 1.0, 0.5))

    # 7. counting the prior as signal lifts the ratio by exactly eta_eff; ETAS
    # starts at 0, whose lift is 0 by definition
    base = snr_trajectory(schedule, 0.0)
    errors = []
    for eta in ETAS[1:]:
        lift = snr_trajectory(schedule, eta)
        lift -= base
        errors.append(_rel(lift, eta))
    checks.append(IdentityCheck("snr_uplift", _worst(errors), 1e-9))

    return checks


def all_passed(checks: list[IdentityCheck]) -> bool:
    return all(c.passed for c in checks)
