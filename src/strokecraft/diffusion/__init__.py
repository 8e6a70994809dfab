"""Prior-injected diffusion: schedules, forward moments, training, sampling."""

from .denoiser import Denoiser, time_embedding
from .process import (
    ETA_MODES,
    PRIOR_MODES,
    PRIOR_WEIGHT_KINDS,
    GaussianMoments,
    SmrConfig,
    SmrDraw,
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
from .sampler import ancestral_sample
from .schedule import SCHEDULE_MODES, NoiseSchedule, build_schedule
from .training import DiffusionTrainResult, train_diffusion
from .verify import IdentityCheck, all_passed, verify_identities

__all__ = [
    "ETA_MODES",
    "PRIOR_MODES",
    "PRIOR_WEIGHT_KINDS",
    "SCHEDULE_MODES",
    "Denoiser",
    "DiffusionTrainResult",
    "GaussianMoments",
    "IdentityCheck",
    "NoiseSchedule",
    "SmrConfig",
    "SmrDraw",
    "all_passed",
    "ancestral_sample",
    "build_schedule",
    "ddpm_forward_sample",
    "ddpm_posterior_mean_simplified",
    "ddpm_posterior_moments",
    "ddpm_posterior_variance",
    "deterministic_prior_weight",
    "make_eta",
    "recover_x0",
    "smr_forward_sample",
    "smr_marginal_moments",
    "smr_posterior_moments",
    "smr_transition_moments",
    "snr_trajectory",
    "tau_target",
    "time_embedding",
    "train_diffusion",
    "verify_identities",
]
