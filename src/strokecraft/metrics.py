"""Structure metrics: connected regions, pixel error, and mask overlap.

Region counting separates foreground from background by comparing luminance
against the median border pixel, then labels the foreground with 8-neighbor
connectivity. Labelling works on whole arrays: every neighbour pair hooks the
larger of its two roots onto the smaller, pointer jumping flattens the trees,
and rounds repeat until no pair spans two trees. Each region's root is then
its first pixel in raster order, and regions are numbered in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])
DEFAULT_FOREGROUND_THRESHOLD = 0.1


def luminance(pixels: np.ndarray) -> np.ndarray:
    """Collapse (H, W) or (H, W, C) pixel data to a single brightness channel."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim == 2:
        return pixels
    if pixels.ndim == 3 and pixels.shape[2] == 1:
        return pixels[:, :, 0]
    if pixels.ndim == 3 and pixels.shape[2] == 3:
        return pixels @ LUMA_WEIGHTS
    raise ConfigError(f"expected (H, W) or (H, W, 1|3) pixels, got shape {pixels.shape}")


def background_value(gray: np.ndarray) -> float:
    """Median brightness along the image border; nan when any value is nan.

    The median is taken from a sort as np.median takes it (the middle value,
    or the two middle values added and halved), because np.median imports
    numpy.ma.
    """
    if gray.shape[0] < 2 or gray.shape[1] < 2:
        values = np.sort(gray, axis=None)
    else:
        values = np.sort(np.concatenate([gray[0, :], gray[-1, :], gray[1:-1, 0], gray[1:-1, -1]]))
    # the sort puts nan last; an empty image has no median either
    if values.size == 0 or np.isnan(values[-1]):
        return float("nan")
    half = values.size // 2
    if values.size % 2:
        return float(values[half])
    return float((values[half - 1] + values[half]) / 2)


def foreground_mask(
    pixels: np.ndarray, threshold: float = DEFAULT_FOREGROUND_THRESHOLD
) -> tuple[np.ndarray, float]:
    """Boolean foreground mask and the background value it was cut against."""
    gray = luminance(pixels)
    bg = background_value(gray)
    return np.abs(gray - bg) > threshold, bg


@dataclass(frozen=True)
class CrdResult:
    """Connected-region description of one image."""

    region_count: int
    area_ratio: float


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected regions labelled 1..count in order of their first raster pixel.

    Hook-and-compress over flat pixel indices (Shiloach and Vishkin 1982).
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    flat = np.arange(h * w)
    index = flat.reshape(h, w)
    u_parts, v_parts = [], []
    # each 8-neighbour pair once: right, down, down-right and down-left
    for a, b in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :]),
                 (np.s_[:-1, :-1], np.s_[1:, 1:]), (np.s_[:-1, 1:], np.s_[1:, :-1])):
        both = mask[a] & mask[b]
        u_parts.append(index[a][both])
        v_parts.append(index[b][both])
    u, v = np.concatenate(u_parts), np.concatenate(v_parts)
    parent = flat.copy()
    while True:
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        if not apart.any():
            break
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
    is_root = mask.ravel() & (parent == flat)
    number = np.cumsum(is_root)
    labels = np.where(mask.ravel(), number[parent], 0).reshape(h, w)
    return labels, int(is_root.sum())


def connected_regions(
    pixels: np.ndarray, threshold: float = DEFAULT_FOREGROUND_THRESHOLD
) -> CrdResult:
    """Count 8-connected foreground regions and the foreground area fraction."""
    mask, _ = foreground_mask(pixels, threshold)
    _, count = label_components(mask)
    ratio = float(np.count_nonzero(mask)) / mask.size
    return CrdResult(region_count=count, area_ratio=ratio)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError(f"mse shapes differ: {a.shape} vs {b.shape}")
    diff = a - b
    diff *= diff
    return float(np.mean(diff))


def alpha_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two coverage maps binarized at 0.5.

    Two empty masks overlap perfectly by convention.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigError(f"alpha_iou shapes differ: {a.shape} vs {b.shape}")
    ma = a >= 0.5
    mb = b >= 0.5
    union = np.count_nonzero(ma | mb)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(ma & mb)) / union
