"""Cubic brushstrokes: parameter model, rasterization, generation, fitting."""

from .fitting import fit_stroke
from .generate import generate_visible_stroke

__all__ = ["fit_stroke", "generate_visible_stroke"]
