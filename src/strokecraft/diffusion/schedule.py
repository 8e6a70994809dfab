"""Beta schedules and their cumulative alpha products."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

SCHEDULE_MODES = ("linear", "scaled_linear")
# betas at the first and the last step
BETA_ENDPOINTS = (0.00085, 0.012)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise levels of a finite forward process.

    ``betas[t]`` is the variance injected at step ``t`` (0-based),
    ``alphas = 1 - betas`` and ``alpha_bars[t]`` is the running product
    ``alphas[0] * ... * alphas[t]``.  ``alpha_bars`` is strictly decreasing
    because every beta is positive.
    """

    mode: str
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.betas.shape[0]

    def check_step(self, t: int | np.ndarray, lowest: int = 0) -> None:
        """Refuse a non-integer step or one outside [lowest, num_steps); t may be an array."""
        steps = np.asarray(t)
        # bool is kind "b", so True is not step 1; an int past int64 is kind "O"
        if steps.dtype.kind not in "iu" or not (
            np.all(lowest <= steps) and np.all(steps < self.num_steps)
        ):
            raise ConfigError(
                f"timestep must be an integer in [{lowest}, {self.num_steps - 1}], got {t!r}"
            )


def build_schedule(num_steps: int, mode: str = "scaled_linear") -> NoiseSchedule:
    """Build a noise schedule from BETA_ENDPOINTS.

    ``linear`` interpolates the betas directly; ``scaled_linear`` interpolates
    their square roots, so squaring the interpolant reproduces the stated
    endpoints at t=0 and t=num_steps-1.
    """
    if mode not in SCHEDULE_MODES:
        raise ConfigError(f"unknown schedule mode {mode!r}, expected one of {SCHEDULE_MODES}")
    if not isinstance(num_steps, (int, np.integer)) or num_steps < 1:
        raise ConfigError(f"num_steps must be a positive integer, got {num_steps!r}")
    lo, hi = BETA_ENDPOINTS

    if mode == "linear":
        betas = np.linspace(lo, hi, num_steps, dtype=np.float64)
    else:
        betas = np.linspace(np.sqrt(lo), np.sqrt(hi), num_steps, dtype=np.float64) ** 2
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    return NoiseSchedule(mode=mode, betas=betas, alphas=alphas, alpha_bars=alpha_bars)
