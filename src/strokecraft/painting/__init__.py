"""Stroke set prediction: matching and ranking losses, compositing, layered painting."""

from .compose import layered_paint
from .losses import MatchConfig
from .training import make_scene, train_predictor

__all__ = ["MatchConfig", "layered_paint", "make_scene", "train_predictor"]
