"""Region counting against a flood-fill oracle, plus MSE and mask IoU."""

import math

import numpy as np
import pytest

from strokecraft import metrics
from strokecraft.errors import ConfigError
from strokecraft.metrics import (
    LUMA_WEIGHTS,
    alpha_iou,
    background_value,
    connected_regions,
    foreground_mask,
    label_components,
    luminance,
    mse,
)
from strokecraft.strokes.model import ParamRanges, generate_random_stroke
from strokecraft.strokes.raster import rasterize_stroke


def flood_fill_labels(mask):
    """Explicit-stack DFS labeling, 8-connectivity. Independent oracle."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    count = 0
    for si in range(h):
        for sj in range(w):
            if not mask[si, sj] or labels[si, sj]:
                continue
            count += 1
            stack = [(si, sj)]
            labels[si, sj] = count
            while stack:
                i, j = stack.pop()
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ni, nj = i + di, j + dj
                        if (
                            0 <= ni < h
                            and 0 <= nj < w
                            and mask[ni, nj]
                            and not labels[ni, nj]
                        ):
                            labels[ni, nj] = count
                            stack.append((ni, nj))
    return labels, count


def spiral(n):
    """A one-pixel square spiral wound inward, turns one pixel apart: one long path."""
    mask = np.zeros((n, n), dtype=bool)
    i, j, di, dj = 0, 0, 0, 1
    mask[0, 0] = True
    while True:
        for _ in range(2):
            ni, nj = i + di, j + dj
            ahead = (i + 2 * di, j + 2 * dj)
            if (0 <= ni < n and 0 <= nj < n and not mask[ni, nj]
                    and not (0 <= ahead[0] < n and 0 <= ahead[1] < n and mask[ahead])):
                i, j = ni, nj
                mask[i, j] = True
                break
            di, dj = dj, -di
        else:
            return mask


def serpentine(n):
    """One-pixel rows joined at alternating ends: one path of about n²/2 pixels."""
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    for i in range(1, n, 2):
        mask[i, -1 if i % 4 == 1 else 0] = True
    return mask


def reversed_comb(n):
    """Teeth rising from a spine along the bottom row; the first pixel is a tooth tip."""
    mask = np.zeros((n, n), dtype=bool)
    mask[:, ::2] = True
    mask[-1] = True
    return mask


def maze(n, seed=0):
    """A spanning-tree maze carved by depth-first search on odd cells."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((n, n), dtype=bool)
    mask[1, 1] = True
    stack = [(1, 1)]
    while stack:
        i, j = stack[-1]
        steps = [(di, dj) for di, dj in ((-2, 0), (2, 0), (0, -2), (0, 2))
                 if 0 < i + di < n - 1 and 0 < j + dj < n - 1 and not mask[i + di, j + dj]]
        if not steps:
            stack.pop()
            continue
        di, dj = steps[rng.integers(len(steps))]
        mask[i + di // 2, j + dj // 2] = mask[i + di, j + dj] = True
        stack.append((i + di, j + dj))
    return mask


def diagonals(n):
    """Parallel one-pixel diagonals three columns apart: many chains, no contact."""
    i, j = np.indices((n, n))
    return (j - i) % 3 == 0


def antidiagonals(n):
    """Down-left chains, joined only through the down-left neighbour."""
    i, j = np.indices((n, n))
    return (i + j) % 3 == 0


ADVERSARIAL_MASKS = {
    "spiral-128": lambda: spiral(128),
    "serpentine-256": lambda: serpentine(256),
    "reversed-comb-128": lambda: reversed_comb(128),
    "maze-255": lambda: maze(255),
    "diagonals-64": lambda: diagonals(64),
    "antidiagonals-64": lambda: antidiagonals(64),
    "row-1x256": lambda: np.ones((1, 256), dtype=bool),
    "column-256x1": lambda: np.ones((256, 1), dtype=bool),
    "full-256": lambda: np.ones((256, 256), dtype=bool),
    "empty-256": lambda: np.zeros((256, 256), dtype=bool),
}


class CountingMinimum:
    """``np.minimum`` that counts its ``at`` calls, the labeller's hook rounds."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, *args, **kwargs):
        return np.minimum(*args, **kwargs)

    def at(self, *args):
        self.rounds += 1
        return np.minimum.at(*args)


class NumpyWith:
    """numpy with some attributes replaced, to stand in for ``metrics.np``."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(np, name)


def assert_labels_match_flood_fill(mask):
    labels, count = label_components(mask)
    oracle_labels, oracle_count = flood_fill_labels(mask)
    assert labels.dtype == np.int64
    assert count == oracle_count
    np.testing.assert_array_equal(labels, oracle_labels)


def test_luminance_channel_weights():
    px = np.zeros((1, 3, 3))
    px[0, 0] = [1.0, 0.0, 0.0]
    px[0, 1] = [0.0, 1.0, 0.0]
    px[0, 2] = [0.0, 0.0, 1.0]
    assert np.allclose(luminance(px)[0], LUMA_WEIGHTS)


def test_luminance_passthrough_and_bad_shape():
    gray = np.random.default_rng(0).random((4, 5))
    assert np.array_equal(luminance(gray), gray)
    assert np.array_equal(luminance(gray[..., None]), gray)
    with pytest.raises(ConfigError):
        luminance(np.zeros((2, 2, 4)))


def test_background_is_border_median():
    img = np.full((5, 5), 0.25)
    img[2, 2] = 0.9
    assert background_value(img) == 0.25
    ramp = np.arange(16, dtype=float).reshape(4, 4)
    border = np.concatenate([ramp[0], ramp[-1], ramp[1:-1, 0], ramp[1:-1, -1]])
    assert background_value(ramp) == np.median(border)


def test_background_value_is_np_median_bit_for_bit():
    rng = np.random.default_rng(27)
    # a 1 x n or n x 1 image takes the median of all n values, odd or even in number;
    # a larger image's border always holds an even number
    shapes = [(1, n) for n in range(1, 12)] + [(n, 1) for n in range(1, 12)]
    shapes += [(2, 2), (2, 5), (3, 3), (4, 7), (9, 6), (32, 32)]
    for h, w in shapes:
        for trial in range(40):
            if trial % 2:
                gray = rng.random((h, w))
            else:  # repeated values
                gray = rng.choice([0.0, 0.125, 0.3, 0.5, 1.0], (h, w))
            if h < 2 or w < 2:
                expected = np.median(gray)
            else:
                expected = np.median(np.concatenate(
                    [gray[0], gray[-1], gray[1:-1, 0], gray[1:-1, -1]]))
            assert np.float64(background_value(gray)).tobytes() == expected.tobytes()


def test_background_value_is_nan_when_a_border_value_is():
    rng = np.random.default_rng(28)
    for h, w in [(1, 1), (1, 4), (5, 1), (2, 2), (6, 9)]:
        for y, x in [(0, 0), (h - 1, w - 1), (h // 2, 0), (0, w // 2)]:
            gray = rng.random((h, w))
            gray[y, x] = np.nan
            assert math.isnan(background_value(gray))
    # the interior is not part of the border
    gray = np.full((5, 5), 0.25)
    gray[2, 2] = np.nan
    assert background_value(gray) == 0.25


def test_blank_image_has_no_regions():
    result = connected_regions(np.ones((16, 16)))
    assert result.region_count == 0
    assert result.area_ratio == 0.0


def test_single_square_region_and_ratio():
    img = np.ones((16, 16))
    img[5:9, 5:9] = 0.0
    result = connected_regions(img)
    assert result.region_count == 1
    assert result.area_ratio == 16 / 256


def test_two_separated_squares():
    img = np.ones((16, 16))
    img[1:4, 1:4] = 0.0
    img[10:13, 10:13] = 0.2
    result = connected_regions(img)
    assert result.region_count == 2
    assert result.area_ratio == 18 / 256
    mask, _ = foreground_mask(img)
    oracle_labels, oracle_count = flood_fill_labels(mask)
    assert oracle_count == 2
    np.testing.assert_array_equal(label_components(mask)[0], oracle_labels)


def test_diagonal_pixels_connect():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = True
    _, count = label_components(mask)
    assert count == 1


def test_region_count_zero_iff_area_zero():
    rng = np.random.default_rng(3)
    for _ in range(50):
        img = np.ones((12, 12))
        if rng.random() < 0.5:
            img[rng.integers(0, 12), rng.integers(0, 12)] = 0.0
        result = connected_regions(img)
        assert (result.region_count == 0) == (result.area_ratio == 0.0)


def test_labeling_matches_flood_fill_on_random_masks():
    rng = np.random.default_rng(7)
    for _ in range(300):
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        assert_labels_match_flood_fill(rng.random((h, w)) < rng.uniform(0.05, 0.95))


@pytest.mark.parametrize("make", ADVERSARIAL_MASKS.values(), ids=ADVERSARIAL_MASKS.keys())
def test_labeling_matches_flood_fill_on_adversarial_masks(make, monkeypatch):
    mask = make()
    minimum = CountingMinimum()
    monkeypatch.setattr(metrics, "np", NumpyWith(minimum=minimum))
    assert_labels_match_flood_fill(mask)
    assert minimum.rounds <= math.ceil(math.log2(max(mask.size, 2)))


def test_labeling_matches_flood_fill_on_stroke_images():
    rng = np.random.default_rng(11)
    ranges = ParamRanges.for_canvas(48)
    for _ in range(60):
        stroke = generate_random_stroke(rng, ranges)
        canvas, _ = rasterize_stroke(stroke, (48, 48))
        result = connected_regions(canvas.pixels)
        mask, _ = foreground_mask(canvas.pixels)
        oracle_labels, oracle_count = flood_fill_labels(mask)
        assert result.region_count == oracle_count
        np.testing.assert_array_equal(label_components(mask)[0], oracle_labels)


def test_mse_basics():
    assert mse(np.full((3, 3), 0.4), np.full((3, 3), 0.4)) == 0.0
    assert mse(np.zeros((5, 5, 3)), np.ones((5, 5, 3))) == 1.0
    with pytest.raises(ConfigError):
        mse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_mse_matches_double_loop():
    rng = np.random.default_rng(21)
    a = rng.random((6, 7, 3))
    b = rng.random((6, 7, 3))
    total = 0.0
    for i in range(6):
        for j in range(7):
            for c in range(3):
                total += (a[i, j, c] - b[i, j, c]) ** 2
    assert np.isclose(mse(a, b), total / (6 * 7 * 3), rtol=1e-12)
    assert mse(a, b) == np.mean((a - b) * (a - b))


def test_alpha_iou_identical_and_disjoint():
    rng = np.random.default_rng(5)
    a = rng.random((8, 8))
    assert alpha_iou(a, a) == 1.0
    left = np.zeros((4, 8))
    right = np.zeros((4, 8))
    left[:, :3] = 1.0
    right[:, 5:] = 1.0
    assert alpha_iou(left, right) == 0.0


def test_alpha_iou_half_overlapping_squares():
    a = np.zeros((8, 8))
    b = np.zeros((8, 8))
    a[2:6, 0:4] = 1.0
    b[2:6, 2:6] = 1.0
    assert alpha_iou(a, b) == pytest.approx(1 / 3)


def test_alpha_iou_both_empty_is_one():
    assert alpha_iou(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0


def test_alpha_iou_threshold_and_shape_check():
    a = np.full((2, 2), 0.4)
    b = np.full((2, 2), 0.6)
    assert alpha_iou(a, b) == 0.0
    assert alpha_iou(b, np.full((2, 2), 0.5)) == 1.0
    with pytest.raises(ConfigError):
        alpha_iou(np.zeros((2, 2)), np.zeros((2, 3)))
