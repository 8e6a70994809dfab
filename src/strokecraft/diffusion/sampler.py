"""Ancestral sampling against a τ-prediction model.

Inference runs the standard reverse chain: the predicted τ plays the role of
the noise estimate, the state moves to the simplified posterior mean plus the
posterior-scaled innovation, and the very last step swaps the mean update for
an exact x0 recovery (at t = 0 the two coincide).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError
from .process import ddpm_posterior_mean_simplified, ddpm_posterior_variance, recover_x0
from .schedule import NoiseSchedule


def ancestral_sample(
    model,
    schedule: NoiseSchedule,
    count: int,
    data_dim: int,
    rng: np.random.Generator,
    inject_noise: bool = True,
) -> np.ndarray:
    """Draw ``count`` samples of dimension ``data_dim``, shape (count, data_dim).

    ``model`` needs a ``predict(x, t) -> (B, D)`` method.  Raises
    on the first non-finite state, naming the offending step.
    """
    x = rng.standard_normal((count, data_dim))
    for t in range(schedule.num_steps - 1, 0, -1):
        tau_hat = model.predict(x, t)
        x = ddpm_posterior_mean_simplified(x, tau_hat, t, schedule)
        if inject_noise:
            sigma = math.sqrt(ddpm_posterior_variance(t, schedule))
            x = x + sigma * rng.standard_normal(x.shape)
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite sampler state after step {t}")
    tau_hat = model.predict(x, 0)
    x = recover_x0(x, tau_hat, 0, schedule)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite sampler output at step 0")
    return x
