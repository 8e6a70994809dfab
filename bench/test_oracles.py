"""Self-tests of the benchmark's own checks.

    python3 -m pytest bench/test_oracles.py     or     python3 bench/test_oracles.py
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def flood_fill_count(mask: np.ndarray) -> int:
    """Region count by a literal stack-based 8-connected flood fill."""
    mask = mask.copy()
    h, w = mask.shape
    count = 0
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            count += 1
            mask[r, c] = False
            stack = [(r, c)]
            while stack:
                y, x = stack.pop()
                for yy in range(y - 1, y + 2):
                    for xx in range(x - 1, x + 2):
                        if 0 <= yy < h and 0 <= xx < w and mask[yy, xx]:
                            mask[yy, xx] = False
                            stack.append((yy, xx))
    return count


def test_labeller_matches_flood_fill():
    rng = np.random.default_rng(7)
    for _ in range(400):
        shape = tuple(int(n) for n in rng.integers(1, 13, size=2))
        mask = rng.uniform(size=shape) < rng.uniform(0.05, 0.8)
        assert oracles.count_regions(mask) == flood_fill_count(mask)


def test_labeller_joins_diagonals_and_spirals():
    assert oracles.count_regions(np.eye(6, dtype=bool)) == 1
    assert oracles.count_regions(np.eye(6, dtype=bool)[::-1]) == 1
    spiral = np.zeros((9, 9), dtype=bool)
    spiral[0, :] = spiral[:, 8] = spiral[8, :] = spiral[2:, 0] = True
    spiral[2, 0:7] = spiral[2:7, 6] = spiral[6, 2:7] = spiral[4:7, 2] = True
    assert oracles.count_regions(spiral) == flood_fill_count(spiral) == 1
    assert oracles.count_regions(np.zeros((4, 4), dtype=bool)) == 0


# A straight stroke along y = 5 from x = 2 to x = 32, width 4, opacity 0.8
LINE = [2, 5, 12, 5, 22, 5, 32, 5, 255, 0, 51, 0.8, 4]


def test_composite_matches_a_hand_computed_pixel():
    # pixel (10, 6) has its centre (10.5, 6.5) 1.5 from the line
    alpha = 0.8 / (1.0 + math.exp(-(2.0 - 1.5) / 0.8))
    expected = [alpha * 1.0 + (1 - alpha), alpha * 0.0 + (1 - alpha), alpha * 0.2 + (1 - alpha)]
    assert np.allclose(oracles.composite_pixel([LINE], 10, 6, 3), expected, rtol=0, atol=1e-12)
    gray = 0.299 * 1.0 + 0.587 * 0.0 + 0.114 * 0.2
    assert math.isclose(oracles.composite_pixel([LINE], 10, 6, 1)[0],
                        alpha * gray + (1 - alpha), abs_tol=1e-12)


def test_composite_folds_strokes_in_order_and_uses_endpoint_distance():
    # pixel (35, 5): centre (35.5, 5.5), nearest point the end (32, 5)
    d = math.hypot(3.5, 0.5)
    a1 = 0.8 / (1.0 + math.exp(-(2.0 - d) / 0.8))
    cover = [0, 0, 10, 0, 20, 0, 40, 10, 0, 255, 0, 1.0, 40]  # wide green stroke
    a2 = float(oracles.coverage(cover, 35.5, 5.5))
    under = [a1 * 1.0 + (1 - a1), 1 - a1, a1 * 0.2 + (1 - a1)]
    expected = [(1 - a2) * under[0], a2 + (1 - a2) * under[1], (1 - a2) * under[2]]
    assert np.allclose(oracles.composite_pixel([LINE, cover], 35, 5, 3), expected,
                       rtol=0, atol=1e-12)


def test_coverage_map_agrees_with_pointwise_coverage():
    cmap = oracles.coverage_map(LINE, 12, 40)
    assert cmap.shape == (12, 40)
    assert math.isclose(cmap[6, 10], float(oracles.coverage(LINE, 10.5, 6.5)), abs_tol=1e-15)
    assert cmap[11, 0] < 1e-2 < 0.5 < cmap[5, 20]


def test_quantization_window():
    assert oracles.within_quantization(128, 128.4 / 255)
    assert not oracles.within_quantization(128, 128.6 / 255)
    assert oracles.within_quantization(255, 1.3)
    assert oracles.within_quantization(0, -0.2)


def test_padded_side_follows_its_documentation():
    assert oracles.padded_side(256, 256, 3, 32) == 256
    assert oracles.padded_side(200, 180, 3, 32) == 256
    assert oracles.padded_side(100, 60, 2, 32) == 128
    assert oracles.padded_side(32, 32, 2, 32) == 32
    assert oracles.padded_side(3, 3, 1, 32) == 4


def test_pixmap_reader():
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "reader-test.pgm"
        path.write_bytes(b"P5\n# comment\n3 2\n255\n" + bytes([0, 1, 2, 3, 4, 255]))
        pixels = oracles.read_pixmap(path)
    assert pixels.shape == (2, 3, 1)
    assert pixels[1, 2, 0] == 255 and pixels[0, 1, 0] == 1


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
