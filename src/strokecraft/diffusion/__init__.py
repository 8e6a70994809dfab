"""Prior-injected diffusion: schedules, forward moments, training, sampling."""

from .process import SmrConfig, smr_forward_sample, smr_posterior_moments
from .sampler import ancestral_sample
from .schedule import build_schedule
from .training import train_diffusion
from .verify import verify_identities

__all__ = [
    "SmrConfig",
    "ancestral_sample",
    "build_schedule",
    "smr_forward_sample",
    "smr_posterior_moments",
    "train_diffusion",
    "verify_identities",
]
