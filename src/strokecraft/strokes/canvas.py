"""Float pixel canvas shared by rasterization, compositing, and file IO."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class Canvas:
    """Pixels of shape (H, W, C) with C in {1, 3}, values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim != 3 or p.shape[2] not in (1, 3):
            raise ConfigError(f"canvas pixels must be (H, W, 1|3), got {np.shape(self.pixels)}")
        self.pixels = p

    @classmethod
    def white(cls, shape, channels: int = 3) -> "Canvas":
        if np.isscalar(shape):
            shape = (int(shape), int(shape))
        h, w = shape
        if h < 1 or w < 1:
            raise ConfigError(f"canvas shape must be positive, got {(h, w)}")
        return cls(np.ones((h, w, channels)))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def copy(self) -> "Canvas":
        return Canvas(self.pixels.copy())

    def clipped(self) -> "Canvas":
        return Canvas(np.clip(self.pixels, 0.0, 1.0))
