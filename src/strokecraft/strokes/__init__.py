"""Cubic brushstrokes: parameter model, rasterization, generation, fitting."""

from .canvas import Canvas
from .fitting import FIT_SAMPLES, FitResult, fit_stroke
from .generate import generate_visible_stroke
from .model import (
    PARAM_COUNT,
    REFERENCE_SIDE,
    SPATIAL_DIMS,
    BezierStroke,
    ParamRanges,
    generate_random_stroke,
    load_strokes,
    max_opacity_equivalent,
    save_strokes,
)
from .raster import (
    DEFAULT_SAMPLES,
    DEFAULT_SOFTNESS,
    compose_over,
    coverage_batch,
    rasterize_stroke,
)

__all__ = [
    "BezierStroke",
    "Canvas",
    "DEFAULT_SAMPLES",
    "DEFAULT_SOFTNESS",
    "FIT_SAMPLES",
    "FitResult",
    "PARAM_COUNT",
    "ParamRanges",
    "REFERENCE_SIDE",
    "SPATIAL_DIMS",
    "compose_over",
    "coverage_batch",
    "fit_stroke",
    "generate_random_stroke",
    "generate_visible_stroke",
    "load_strokes",
    "max_opacity_equivalent",
    "rasterize_stroke",
    "save_strokes",
]
