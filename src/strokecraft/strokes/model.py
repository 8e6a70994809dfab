"""Cubic curve strokes: the 13-number parameter vector and its ranges.

A stroke is (p0x, p0y, p1x, p1y, p2x, p2y, p3x, p3y, R, G, B, opacity, width):
four control points in pixel units, color channels in 0..255, opacity in 0..1,
width in pixels.  Ranges were measured at a 295-pixel reference canvas; the
spatial entries (points and width) rescale linearly with canvas side, colors
and opacity do not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .. import files
from ..errors import ConfigError, DataIOError

PARAM_COUNT = 13
REFERENCE_SIDE = 295.0
_REFERENCE_LO = np.array(
    [12.0, 22.0, -100.0, -195.0, -84.0, -140.0, -9.0, 22.0, 0.0, 0.0, 0.0, 0.0, 6.0]
)
_REFERENCE_HI = np.array(
    [268.0, 273.0, 450.0, 399.0, 465.0, 448.0, 267.0, 305.0, 255.0, 255.0, 255.0, 1.0, 106.0]
)
# control point coordinates and width scale with the canvas; colors and opacity do not
SPATIAL_DIMS = np.array([True] * 8 + [False] * 4 + [True])


@dataclass(frozen=True)
class ParamRanges:
    """Per-dimension closed bounds of the stroke vector."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def for_canvas(cls, side: float) -> "ParamRanges":
        if side <= 0:
            raise ConfigError(f"canvas side must be positive, got {side}")
        scale = np.where(SPATIAL_DIMS, side / REFERENCE_SIDE, 1.0)
        return cls(lo=_REFERENCE_LO * scale, hi=_REFERENCE_HI * scale)

    @property
    def span(self) -> np.ndarray:
        return self.hi - self.lo

    def clamp(self, vector: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(vector, dtype=np.float64), self.lo, self.hi)

    def normalize(self, vector: np.ndarray) -> np.ndarray:
        return (np.asarray(vector, dtype=np.float64) - self.lo) / self.span

    def denormalize(self, unit: np.ndarray) -> np.ndarray:
        return self.lo + np.asarray(unit, dtype=np.float64) * self.span


def _check_vector(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (PARAM_COUNT,):
        raise ConfigError(f"stroke vector must have shape ({PARAM_COUNT},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError("stroke vector contains non-finite entries")
    return v


@dataclass(frozen=True)
class BezierStroke:
    """One stroke, stored as its flat parameter vector."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", _check_vector(self.vector))

    @property
    def color(self) -> np.ndarray:
        """Channel values in 0..255."""
        return self.vector[8:11]

    @property
    def opacity(self) -> float:
        return float(self.vector[11])


def generate_random_stroke(rng: np.random.Generator, ranges: ParamRanges) -> BezierStroke:
    """Each dimension uniform over its range."""
    return BezierStroke(rng.uniform(ranges.lo, ranges.hi))


def max_opacity_equivalent(stroke: BezierStroke) -> BezierStroke:
    """The opacity-1 stroke that renders to the same image over white.

    Compositing over white only constrains opacity*(255 - channel), so
    raising opacity to 1 while lightening the color accordingly leaves
    every pixel unchanged; only the coverage alpha differs.
    """
    v = stroke.vector.copy()
    v[8:11] = 255.0 - v[11] * (255.0 - v[8:11])
    v[11] = 1.0
    return BezierStroke(v)


def save_strokes(path, strokes: list[BezierStroke]) -> None:
    """JSON array of 13-number arrays, one per stroke."""
    payload = [[float(v) for v in s.vector] for s in strokes]
    files.write_bytes(path, (json.dumps(payload) + "\n").encode("utf-8"))


def load_strokes(path) -> list[BezierStroke]:
    try:
        payload = json.loads(files.read_text(path))
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise DataIOError(f"malformed stroke file {path}: {exc}") from exc
    if not isinstance(payload, list):
        raise DataIOError(f"stroke file {path} must hold a JSON array")
    strokes = []
    for i, row in enumerate(payload):
        if not isinstance(row, list) or len(row) != PARAM_COUNT:
            raise DataIOError(f"stroke {i} in {path} is not a {PARAM_COUNT}-number array")
        try:
            strokes.append(BezierStroke(np.array(row, dtype=np.float64)))
        except (ConfigError, ValueError) as exc:
            raise DataIOError(f"stroke {i} in {path} is invalid: {exc}") from exc
    return strokes
