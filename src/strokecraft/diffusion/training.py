"""Training loop for the τ-prediction objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NumericalError
from ..nn import Adam
from .denoiser import DEFAULT_HIDDEN, Denoiser
from .process import SmrConfig, deterministic_prior_weight, make_eta, smr_forward_sample
from .schedule import NoiseSchedule


@dataclass
class DiffusionTrainResult:
    denoiser: Denoiser
    loss_history: list[float]


def train_diffusion(
    dataset: np.ndarray,
    schedule: NoiseSchedule,
    config: SmrConfig,
    *,
    epochs: int,
    rng: np.random.Generator,
    batch_size: int = 32,
    lr: float = 1e-3,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
) -> DiffusionTrainResult:
    """Fit a τ-prediction net on a dataset of flattenable arrays.

    Every image is paired with ``config.prior_pairs`` priors drawn from the
    dataset itself (or with itself in the degenerate ``x0`` mode).  Stochastic
    mode draws one η per pairing up front and reuses it at every timestep of
    that instance; the ramp modes derive η from the timestep instead.
    Divergence aborts with a diagnostic rather than returning garbage.
    """
    if epochs < 1:
        raise ConfigError(f"need at least one epoch, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"need a batch of at least one instance, got {batch_size}")
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim < 2 or data.shape[0] == 0:
        raise ConfigError(f"dataset must be (N, ...) with N >= 1, got shape {data.shape}")
    n = data.shape[0]
    flat = data.reshape(n, -1)
    dim = flat.shape[1]
    denoiser = Denoiser.create(dim, hidden=hidden, rng=rng)

    # (image index, prior index, per-instance eta or None for ramp modes)
    instances: list[tuple[int, int, float | None]] = []
    for i in range(n):
        for _ in range(config.prior_pairs):
            j = i if config.prior_mode == "x0" else int(rng.integers(0, n))
            eta = None
            if config.prior_mode in ("stochastic", "x0"):
                eta = float(make_eta(rng, config))
            instances.append((i, j, eta))

    num_steps = schedule.num_steps
    opt = Adam(denoiser.params.size, lr=lr)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(instances))
        total, seen = 0.0, 0
        for start in range(0, len(order), batch_size):
            chunk = [instances[k] for k in order[start : start + batch_size]]
            steps = np.empty(len(chunk), dtype=np.int64)
            etas = np.empty(len(chunk))
            noise = np.empty((len(chunk), 2, dim))
            # each instance draws its step, then ε and ε* straight into its
            # (2, dim) row, which is the stream of two dim-sized draws
            for row, (_, _, eta) in enumerate(chunk):
                t = int(rng.integers(0, num_steps))
                if eta is None:
                    w = deterministic_prior_weight(
                        t, num_steps, config.prior_mode, w_max=config.upsilon
                    )
                    eta = float(w) ** 2
                steps[row], etas[row] = t, eta
                rng.standard_normal(out=noise[row])
            draw = smr_forward_sample(
                flat[[i for i, _, _ in chunk]], flat[[j for _, j, _ in chunk]],
                steps[:, None], etas[:, None], schedule, eps=noise[:, 0], eps_star=noise[:, 1],
            )
            loss, grad = denoiser.loss_and_grad(draw.x_t, steps, draw.tau)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged at epoch {epoch}, batch {start // batch_size}"
                )
            opt.update(denoiser.params, grad)
            # the next backward pass allocates its own gradient
            del grad
            total += loss * len(chunk)
            seen += len(chunk)
        history.append(total / seen)
    return DiffusionTrainResult(denoiser=denoiser, loss_history=history)
