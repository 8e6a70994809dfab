"""Output checks computed apart from strokecraft.

Nothing here imports the package. The pixmap reader, the foreground rule,
the region labeller and the stroke rasterizer are written again from the
documented formats and formulas, so a fault in the program's own version
cannot also hide in the check:

- pixmaps are binary PGM (P5) or PPM (P6) with maxval 255;
- foreground is luminance (0.299, 0.587, 0.114 weights) farther than a
  threshold from the median border pixel, regions are 8-connected;
- a stroke (4 control points, RGB 0..255, opacity, width) is sampled at
  ``samples`` evenly spaced curve parameters, every pixel centre takes its
  distance to that polyline, and coverage is
  ``clip(opacity) * sigmoid((width / 2 - distance) / softness)``;
- a stroke composites as ``alpha * colour + (1 - alpha) * below``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

LUMA = (0.299, 0.587, 0.114)
SAMPLES = 64
SOFTNESS = 0.8


def read_pixmap(path) -> np.ndarray:
    """Bytes of a binary PGM/PPM as a (H, W, C) uint8 array."""
    blob = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            pos = blob.index(b"\n", pos)
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    channels = {b"P5": 1, b"P6": 3}.get(fields[0])
    width, height, maxval = (int(f) for f in fields[1:])
    if channels is None or maxval != 255:
        raise ValueError(f"{path}: not a binary 8-bit pixmap")
    raster = blob[pos + 1:]
    if len(raster) != width * height * channels:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, "
                         f"header promises {width * height * channels}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)


def foreground(pixels: np.ndarray, threshold: float = 0.1) -> np.ndarray:
    """Foreground mask of 8-bit pixels by the border-median rule."""
    values = pixels.astype(np.float64) / 255.0
    gray = values[:, :, 0] if values.shape[2] == 1 else values @ np.array(LUMA)
    border = np.concatenate([gray[0, :], gray[-1, :], gray[1:-1, 0], gray[1:-1, -1]])
    return np.abs(gray - np.median(border)) > threshold


def count_regions(mask: np.ndarray) -> int:
    """Number of 8-connected regions, by spreading the least pixel index.

    Every foreground pixel starts with its own index and repeatedly takes
    the least index in its 3x3 neighbourhood; at the fixpoint each region
    carries one index, that of its first pixel in raster order.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    none = h * w
    labels = np.where(mask, np.arange(none).reshape(h, w), none)
    while True:
        padded = np.pad(labels, 1, constant_values=none)
        least = labels.copy()
        for dy in range(3):
            for dx in range(3):
                np.minimum(least, padded[dy:dy + h, dx:dx + w], out=least)
        least = np.where(mask, least, none)
        if np.array_equal(least, labels):
            return len(np.unique(labels[mask]))
        labels = least


def polyline(vector) -> list[tuple[float, float]]:
    """The stroke's cubic sampled at SAMPLES evenly spaced parameters."""
    x0, y0, x1, y1, x2, y2, x3, y3 = (float(v) for v in vector[:8])
    points = []
    for k in range(SAMPLES):
        u = k / (SAMPLES - 1)
        a = 1.0 - u
        b0, b1, b2, b3 = a * a * a, 3.0 * a * a * u, 3.0 * a * u * u, u * u * u
        points.append((b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3,
                       b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3))
    return points


def coverage(vector, px, py):
    """Coverage of one stroke at pixel centres (px, py), scalars or arrays."""
    points = polyline(vector)
    nearest = None
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        sx, sy = bx - ax, by - ay
        length2 = sx * sx + sy * sy
        dx, dy = px - ax, py - ay
        if length2 > 0.0:
            t = np.clip((dx * sx + dy * sy) / length2, 0.0, 1.0)
        else:
            t = 0.0
        cx, cy = dx - t * sx, dy - t * sy
        d2 = cx * cx + cy * cy
        nearest = d2 if nearest is None else np.minimum(nearest, d2)
    z = (float(vector[12]) / 2.0 - np.sqrt(nearest)) / SOFTNESS
    opacity = min(max(float(vector[11]), 0.0), 1.0)
    # exp(-z) overflows far from the stroke, where coverage is 0 anyway
    return opacity / (1.0 + np.exp(np.minimum(-z, 700.0)))


def coverage_map(vector, height: int, width: int) -> np.ndarray:
    """Coverage of one stroke over a whole (height, width) canvas."""
    py, px = np.mgrid[0:height, 0:width] + 0.5
    return coverage(vector, px, py)


def stroke_colour(vector, channels: int) -> list[float]:
    rgb = [min(max(float(c) / 255.0, 0.0), 1.0) for c in vector[8:11]]
    if channels == 3:
        return rgb
    return [sum(w * c for w, c in zip(LUMA, rgb))]


def composite_pixel(vectors, x: int, y: int, channels: int) -> list[float]:
    """Pixel (x, y) after compositing the strokes in order over white."""
    value = [1.0] * channels
    for vector in vectors:
        alpha = float(coverage(vector, x + 0.5, y + 0.5))
        colour = stroke_colour(vector, channels)
        value = [alpha * c + (1.0 - alpha) * v for c, v in zip(colour, value)]
    return value


def within_quantization(byte: int, value: float) -> bool:
    """Whether an 8-bit sample can be the rounding of ``value`` in [0, 1]."""
    return abs(byte - 255.0 * min(max(value, 0.0), 1.0)) <= 0.5 + 1e-6


def iou(a: np.ndarray, b: np.ndarray, cut: float = 0.5) -> float:
    """Intersection over union of two coverage maps cut at ``cut``."""
    ma, mb = a >= cut, b >= cut
    union = np.count_nonzero(ma | mb)
    return 1.0 if union == 0 else np.count_nonzero(ma & mb) / union


def padded_side(height: int, width: int, layers: int, input_side: int) -> int:
    """Working canvas side of layered painting, as its documentation states.

    The smaller of the next power of two and the next multiple of
    ``input_side * 2 ** (layers - 1)`` that covers the target.
    """
    need = max(height, width, 2 ** (layers - 1))
    grid = input_side * 2 ** (layers - 1)
    return min(2 ** math.ceil(math.log2(need)), grid * math.ceil(need / grid))


def placed_vector(entry: dict, side: int) -> list[float]:
    """Canvas-coordinate stroke of one ``strokes.json`` entry from ``paint``."""
    patch = side / 2 ** entry["layer"]
    row, col = entry["patch"]
    x_shift, y_shift = entry["shift"]
    vector = [float(v) for v in entry["c_p"]]
    for i in range(0, 8, 2):
        vector[i] += (x_shift - 0.5) * patch + col * patch
        vector[i + 1] += (y_shift - 0.5) * patch + row * patch
    return vector
