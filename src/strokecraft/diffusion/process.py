"""Forward diffusion with additive prior injection, and its Gaussian moments.

The modified forward draw blends a prior image x_s and fresh prior noise into
the usual noisy state:

    x_t' = √ᾱ_t·x0 + √(1-ᾱ_t)·ε + √(1-ᾱ_t)·√η·x_s - √(1-ᾱ_t)·√η·ε*

with ε, ε* independent standard normals and η ≥ 0 the injection strength.
Grouping the stochastic terms gives x_t' = √ᾱ_t·x0 + √(1-ᾱ_t)·τ with

    τ = √(1+η)·ε̃ + √η·x_s,     ε̃ = (ε - √η·ε*) / √(1+η) ~ N(0, I),

which is the regression target used for training and makes x0 recovery from a
predicted τ exact.  At η = 0 everything reduces to the standard process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .schedule import NoiseSchedule

ETA_MODES = ("eta_uniform", "sqrt_eta_uniform")
PRIOR_MODES = ("stochastic", "linear", "cosine", "ellipse", "x0")
PRIOR_WEIGHT_KINDS = ("linear", "cosine", "ellipse")


@dataclass(frozen=True)
class SmrConfig:
    """Knobs of the prior-injected forward process.

    upsilon bounds the stochastic injection strength (and doubles as the peak
    weight of the deterministic ramps), eta_mode picks the distribution the
    per-instance strength is drawn from, prior_mode selects stochastic draws,
    a deterministic ramp, or the degenerate x_s := x0 pairing, and prior_pairs
    is how many priors each training image is paired with.
    """

    upsilon: float = 0.5
    eta_mode: str = "eta_uniform"
    prior_mode: str = "stochastic"
    prior_pairs: int = 32

    def __post_init__(self) -> None:
        if not 0 <= self.upsilon < math.inf:
            raise ConfigError(f"upsilon must be finite and non-negative, got {self.upsilon}")
        if self.eta_mode not in ETA_MODES:
            raise ConfigError(f"unknown eta_mode {self.eta_mode!r}, expected one of {ETA_MODES}")
        if self.prior_mode not in PRIOR_MODES:
            raise ConfigError(
                f"unknown prior_mode {self.prior_mode!r}, expected one of {PRIOR_MODES}"
            )
        if self.prior_pairs < 1:
            raise ConfigError(f"prior_pairs must be positive, got {self.prior_pairs}")


@dataclass(frozen=True)
class GaussianMoments:
    """Mean array and isotropic variance of a Gaussian, or of a batch of them.

    For one step the variance is a Python float; for a (B, 1) column of steps
    it is a (B, 1) column, one variance per row of the mean.
    """

    mean: np.ndarray
    variance: float | np.ndarray


@dataclass(frozen=True)
class SmrDraw:
    """One forward draw, or a batch of them, with the randomness that produced it."""

    x_t: np.ndarray
    eps: np.ndarray
    eps_star: np.ndarray
    x_s: np.ndarray
    eta: float | np.ndarray
    t: int | np.ndarray

    @property
    def merged_eps(self) -> np.ndarray:
        """The standard normal ε̃ driving the grouped form of the draw."""
        return (self.eps - np.sqrt(self.eta) * self.eps_star) / np.sqrt(1.0 + self.eta)

    @property
    def tau(self) -> np.ndarray:
        """Regression target of this draw; x_t = √ᾱ_t·x0 + √(1-ᾱ_t)·tau holds exactly."""
        return tau_target(self.merged_eps, self.x_s, self.eta)


def _check_eta(eta: float | np.ndarray) -> float | np.ndarray:
    values = np.asarray(eta, dtype=np.float64)
    if not np.all(values >= 0.0):
        raise ConfigError(f"eta must be non-negative, got {eta}")
    # a scalar stays a Python float, so GaussianMoments variances keep their type
    return float(values) if values.ndim == 0 else values


def _as_variance(variance: float | np.ndarray) -> float | np.ndarray:
    # one step keeps a Python float, a column of steps keeps its column
    return float(variance) if np.ndim(variance) == 0 else variance


def _check_same_shape(x0: np.ndarray, x_s: np.ndarray) -> None:
    if np.shape(x0) != np.shape(x_s):
        raise ConfigError(f"x0 shape {np.shape(x0)} != x_s shape {np.shape(x_s)}")


def ddpm_forward_sample(
    x0: np.ndarray, t: int | np.ndarray, schedule: NoiseSchedule, eps: np.ndarray
) -> np.ndarray:
    """Standard forward draw x_t = √ᾱ_t·x0 + √(1-ᾱ_t)·ε; ``t`` may be a (B, 1) column."""
    schedule.check_step(t)
    ab = schedule.alpha_bars[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def smr_forward_sample(
    x0: np.ndarray,
    x_s: np.ndarray,
    t: int | np.ndarray,
    eta: float | np.ndarray,
    schedule: NoiseSchedule,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
    eps_star: np.ndarray | None = None,
) -> SmrDraw:
    """Draw x_t' from the prior-injected forward process.

    ε and ε* are drawn from ``rng`` unless injected explicitly (tests inject
    zeros to hit the deterministic part).  η = 0 reproduces the standard draw
    bit for bit given the same ε.  For a batch, x0 and x_s are (B, D) rows and
    ``t`` and ``eta`` are (B, 1) columns; each row equals the single draw with
    that row's step, strength and noise, to the bit.
    """
    schedule.check_step(t)
    eta = _check_eta(eta)
    x0 = np.asarray(x0, dtype=np.float64)
    x_s = np.asarray(x_s, dtype=np.float64)
    _check_same_shape(x0, x_s)
    if eps is None or eps_star is None:
        if rng is None:
            raise ConfigError("smr_forward_sample needs rng when eps/eps_star are not given")
        if eps is None:
            eps = rng.standard_normal(x0.shape)
        if eps_star is None:
            eps_star = rng.standard_normal(x0.shape)
    eps = np.asarray(eps, dtype=np.float64)
    eps_star = np.asarray(eps_star, dtype=np.float64)
    ab = schedule.alpha_bars[t]
    root = np.sqrt(1.0 - ab)
    root_eta = np.sqrt(eta)
    x_t = (
        np.sqrt(ab) * x0
        + root * eps
        + root * root_eta * x_s
        - root * root_eta * eps_star
    )
    return SmrDraw(x_t=x_t, eps=eps, eps_star=eps_star, x_s=x_s, eta=eta, t=t)


def smr_marginal_moments(
    x0: np.ndarray,
    x_s: np.ndarray,
    t: int | np.ndarray,
    eta: float | np.ndarray,
    schedule: NoiseSchedule,
) -> GaussianMoments:
    """Moments of x_t' given x0 and x_s: mean √ᾱ_t·x0 + √(1-ᾱ_t)√η·x_s, var (1+η)(1-ᾱ_t).

    Like every step-indexed formula here, ``t`` and ``eta`` may be (B, 1)
    columns against (B, D) rows; each row then equals the one-step call with
    that row's step and strength, to the bit.
    """
    schedule.check_step(t)
    eta = _check_eta(eta)
    _check_same_shape(x0, x_s)
    ab = schedule.alpha_bars[t]
    mean = np.sqrt(ab) * np.asarray(x0, dtype=np.float64) + np.sqrt(1.0 - ab) * np.sqrt(
        eta
    ) * np.asarray(x_s, dtype=np.float64)
    return GaussianMoments(mean=mean, variance=_as_variance((1.0 + eta) * (1.0 - ab)))


def smr_transition_moments(
    x_prev: np.ndarray,
    x_s: np.ndarray,
    t: int | np.ndarray,
    eta: float | np.ndarray,
    schedule: NoiseSchedule,
) -> GaussianMoments:
    """Moments of x_t' given x_{t-1}' and x_s, t ≥ 1.

    Mean is √α_t·x_{t-1}' + (√(1-ᾱ_t) - √α_t·√(1-ᾱ_{t-1}))·√η·x_s; the
    variance (1+α_t-2ᾱ_t)·η + 1-α_t counts the fresh diffusion innovation once
    and the per-step prior noise of both endpoints.
    """
    schedule.check_step(t, lowest=1)
    eta = _check_eta(eta)
    alpha = schedule.alphas[t]
    ab = schedule.alpha_bars[t]
    ab_prev = schedule.alpha_bars[t - 1]
    drift = (np.sqrt(1.0 - ab) - np.sqrt(alpha) * np.sqrt(1.0 - ab_prev)) * np.sqrt(eta)
    mean = np.sqrt(alpha) * np.asarray(x_prev, dtype=np.float64) + drift * np.asarray(
        x_s, dtype=np.float64
    )
    variance = (1.0 + alpha - 2.0 * ab) * eta + (1.0 - alpha)
    return GaussianMoments(mean=mean, variance=_as_variance(variance))


def smr_posterior_moments(
    x_t: np.ndarray,
    x0: np.ndarray,
    x_s: np.ndarray,
    t: int | np.ndarray,
    eta: float | np.ndarray,
    schedule: NoiseSchedule,
) -> GaussianMoments:
    """Moments of x_{t-1}' given x_t', x0 and x_s, by Gaussian conjugacy.

    The transition likelihood (coefficient a = √α_t, offset b, variance s1) is
    combined with the t-1 marginal prior (mean m, variance s2):

        var  = s1·s2 / (a²·s2 + s1)
        mean = (a·(x_t' - b)·s2 + m·s1) / (a²·s2 + s1)

    The shared denominator equals 1-ᾱ_t + (1+2α_t-3ᾱ_t)·η, and at η = 0 both
    moments collapse to the standard posterior.
    """
    schedule.check_step(t, lowest=1)
    eta = _check_eta(eta)
    x_t = np.asarray(x_t, dtype=np.float64)
    _check_same_shape(x0, x_s)
    _check_same_shape(x_t, np.asarray(x0))

    a = np.sqrt(schedule.alphas[t])
    zero = np.zeros_like(x_t)
    likelihood = smr_transition_moments(zero, x_s, t, eta, schedule)
    b, s1 = likelihood.mean, likelihood.variance
    prior = smr_marginal_moments(x0, x_s, t - 1, eta, schedule)
    m, s2 = prior.mean, prior.variance

    denom = a * a * s2 + s1
    mean = (a * (x_t - b) * s2 + m * s1) / denom
    variance = s1 * s2 / denom
    return GaussianMoments(mean=mean, variance=_as_variance(variance))


def ddpm_posterior_variance(t: int | np.ndarray, schedule: NoiseSchedule) -> float | np.ndarray:
    """Standard posterior variance (1-α_t)(1-ᾱ_{t-1})/(1-ᾱ_t), t ≥ 1.

    The sampler scales its innovation noise by the square root of this value,
    so the identity checks of ``ddpm_posterior_moments`` cover it too.
    """
    schedule.check_step(t, lowest=1)
    alpha = schedule.alphas[t]
    ab = schedule.alpha_bars[t]
    ab_prev = schedule.alpha_bars[t - 1]
    return _as_variance((1.0 - alpha) * (1.0 - ab_prev) / (1.0 - ab))


def ddpm_posterior_moments(
    x_t: np.ndarray, x0: np.ndarray, t: int | np.ndarray, schedule: NoiseSchedule
) -> GaussianMoments:
    """Standard posterior moments of x_{t-1} given x_t and x0, t ≥ 1."""
    variance = ddpm_posterior_variance(t, schedule)
    alpha = schedule.alphas[t]
    ab = schedule.alpha_bars[t]
    ab_prev = schedule.alpha_bars[t - 1]
    mean = (
        np.sqrt(alpha) * (1.0 - ab_prev) * np.asarray(x_t, dtype=np.float64)
        + np.sqrt(ab_prev) * (1.0 - alpha) * np.asarray(x0, dtype=np.float64)
    ) / (1.0 - ab)
    return GaussianMoments(mean=mean, variance=variance)


def ddpm_posterior_mean_simplified(
    x_t: np.ndarray, eps: np.ndarray, t: int | np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """Posterior mean written against the noise: (x_t - (1-α_t)/√(1-ᾱ_t)·ε)/√α_t.

    Equal to the x0-form of ``ddpm_posterior_moments`` whenever
    x_t = √ᾱ_t·x0 + √(1-ᾱ_t)·ε ties the three arguments together.
    """
    schedule.check_step(t)
    alpha = schedule.alphas[t]
    ab = schedule.alpha_bars[t]
    x_t = np.asarray(x_t, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    return (x_t - (1.0 - alpha) / np.sqrt(1.0 - ab) * eps) / np.sqrt(alpha)


def tau_target(eps: np.ndarray, x_s: np.ndarray, eta: float | np.ndarray) -> np.ndarray:
    """Regression target τ = √(1+η)·ε + √η·x_s for a merged standard normal ε."""
    eta = _check_eta(eta)
    return np.sqrt(1.0 + eta) * np.asarray(eps, dtype=np.float64) + np.sqrt(
        eta
    ) * np.asarray(x_s, dtype=np.float64)


def recover_x0(
    x_t: np.ndarray, tau: np.ndarray, t: int | np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """Invert the grouped forward form: x0 = (x_t' - √(1-ᾱ_t)·τ) / √ᾱ_t."""
    schedule.check_step(t)
    ab = schedule.alpha_bars[t]
    x_t = np.asarray(x_t, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    return (x_t - np.sqrt(1.0 - ab) * tau) / np.sqrt(ab)


def snr_trajectory(schedule: NoiseSchedule, eta_eff: float = 0.0) -> np.ndarray:
    """Signal-to-noise ratio over all steps when the prior carries signal.

    Treating the injected prior as part of the signal, the signal power at
    step t is ᾱ_t + η_eff·(1-ᾱ_t).  The noise power stays the plain 1-ᾱ_t,
    so the ratio exceeds the standard ᾱ_t/(1-ᾱ_t) by exactly η_eff at every
    step.
    """
    eta_eff = _check_eta(eta_eff)
    ab = schedule.alpha_bars
    signal = ab + eta_eff * (1.0 - ab)
    return signal / (1.0 - ab)


def make_eta(
    rng: np.random.Generator, config: SmrConfig, size: int | None = None
) -> float | np.ndarray:
    """Draw the injection strength for one training instance.

    ``eta_uniform`` draws η ~ Uni[0, Υ); ``sqrt_eta_uniform`` draws
    √η ~ Uni[0, Υ) and squares it.  One value per instance, reused at every
    timestep of that instance.
    """
    u = rng.uniform(0.0, config.upsilon, size)
    if config.eta_mode == "sqrt_eta_uniform":
        u = u**2
    return float(u) if size is None else u


def deterministic_prior_weight(
    t: int | np.ndarray, num_steps: int, kind: str, w_max: float
) -> float | np.ndarray:
    """Deterministic √η ramp over steps, 0 at t=0 and w_max at t=num_steps-1.

    linear:  w_max · t/(T-1)
    cosine:  w_max · (1 - cos(π·t/(T-1))) / 2
    ellipse: w_max · √(1 - (1 - t/(T-1))²)
    """
    if kind not in PRIOR_WEIGHT_KINDS:
        raise ConfigError(f"unknown ramp kind {kind!r}, expected one of {PRIOR_WEIGHT_KINDS}")
    if num_steps < 1:
        raise ConfigError(f"num_steps must be positive, got {num_steps}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0) or np.any(t_arr > num_steps - 1):
        raise ConfigError(f"t={t} outside [0, {num_steps - 1}]")
    if num_steps == 1:
        u = np.zeros_like(t_arr)
    else:
        u = t_arr / (num_steps - 1)
    if kind == "linear":
        w = w_max * u
    elif kind == "cosine":
        w = w_max * (1.0 - np.cos(np.pi * u)) / 2.0
    else:
        w = w_max * np.sqrt(np.clip(1.0 - (1.0 - u) ** 2, 0.0, None))
    return float(w) if np.isscalar(t) or np.ndim(t) == 0 else w
