"""One probe grid for every fit target.

``fit_stroke`` probes on the half grid at every size: an odd side first gains
one white row or column, then the target pools 2×2. Acceptance renders stay at
the full size. Even sizes keep the bits they had before odd sizes joined the
half grid; odd sizes must still fit at gate 09's rate.
"""

import numpy as np
import pytest

from strokecraft.errors import ConfigError
from strokecraft.metrics import alpha_iou
from strokecraft.strokes import fitting
from strokecraft.strokes.canvas import Canvas
from strokecraft.strokes.fitting import fit_stroke
from strokecraft.strokes.generate import generate_visible_stroke
from strokecraft.strokes.raster import coverage_batch, rasterize_stroke


def test_odd_target_probes_on_the_half_grid_and_accepts_at_full_size(monkeypatch):
    stroke, _, _ = generate_visible_stroke(np.random.default_rng(33), 33)
    canvas, _ = rasterize_stroke(stroke, (33, 31))
    calls = []

    def spy(vectors, height, width, *args, **kwargs):
        calls.append((len(vectors), height, width))
        return coverage_batch(vectors, height, width, *args, **kwargs)

    monkeypatch.setattr(fitting, "coverage_batch", spy)
    iterations = 40
    fit_stroke(canvas, iterations=iterations)
    renders = [shape for shape in calls if shape[0] == 1]
    probes = [shape for shape in calls if shape[0] > 1]
    assert renders and set(renders) == {(1, 33, 31)}
    # the ladder's probe batches, one per iteration of one or two starts, then the
    # full-size polish when the ladder stalls above its tolerance
    rows = 2 * len(fitting._FREE_DIMS)  # a plus and a minus probe per free coordinate
    ladder = [shape for shape in probes if shape[1:] == (17, 16)]
    assert len(ladder) in (iterations, 2 * iterations)
    assert set(ladder) == {(rows, 17, 16)}
    polish = probes[len(ladder):]
    assert probes[:len(ladder)] == ladder
    assert len(polish) in (0, fitting._POLISH_ITERATIONS)
    assert set(polish) <= {(rows, 33, 31)}


def test_odd_sides_pool_with_a_white_pad(monkeypatch):
    stroke, _, _ = generate_visible_stroke(np.random.default_rng(34), 33)
    canvas, _ = rasterize_stroke(stroke, (33, 31))
    grad_targets = []
    descend = fitting._descend

    def spy(z, grad_ranges, grad_target, *args, **kwargs):
        grad_targets.append(grad_target)
        return descend(z, grad_ranges, grad_target, *args, **kwargs)

    monkeypatch.setattr(fitting, "_descend", spy)
    fit_stroke(canvas, iterations=fitting.MIN_ITERATIONS)
    padded = np.ones((34, 32, 3))
    padded[:33, :31] = canvas.pixels
    pooled = padded.reshape(17, 2, 16, 2, 3).mean(axis=(1, 3))
    ladder = [t for t in grad_targets if t.shape[:2] == (17, 16)]
    assert ladder
    for grad_target in ladder:
        np.testing.assert_array_equal(grad_target, pooled)


@pytest.mark.parametrize("side", [33, 65])
def test_odd_sides_fit_at_gate_09_rate(side):
    passes = 0
    for seed in range(1000, 1005):
        _, canvas, alpha = generate_visible_stroke(np.random.default_rng(seed), side)
        result = fit_stroke(canvas)
        passes += alpha_iou(alpha, rasterize_stroke(result.stroke, side)[1]) >= 0.85
        if seed == 1000:
            again = fit_stroke(canvas)
            assert np.array_equal(result.stroke.vector, again.stroke.vector)
            assert result.loss == again.loss
            np.testing.assert_array_equal(result.history, again.history)
    assert passes >= 4


def test_fit_of_a_gray_target_is_unchanged(cpu_features):
    # captured before odd sides joined the half grid; even sides keep every bit
    _, canvas, _ = generate_visible_stroke(np.random.default_rng(902), 32, channels=1)
    result = fit_stroke(canvas)
    expected = [
        "0x1.39da3e90b374ep+4", "0x1.883a4f49540b6p+4", "0x1.6ef46f8c42e92p+3",
        "0x1.e6a22207ddce4p+4", "0x1.5fbf58bac7f19p+3", "0x1.5ce700c58d056p+4",
        "0x1.705c263d34fd9p+4", "0x1.a62d75cbf3358p+2", "0x1.e26660a12e0aap+5",
        "0x1.e26660a12e0aap+5", "0x1.5b142fc98f32dp+7", "0x1.0000000000000p+0",
        "0x1.1842fe9759aa0p+3",
    ]
    assert [float(v).hex() for v in result.stroke.vector] == expected
    # the coverage sigmoid's np.exp rounds its last bits apart in numpy's AVX-512 loop
    loss = ("0x1.a9ba7ed08e99cp-14"
            if cpu_features.get("AVX512_SKX") else "0x1.a9ba7ed08e997p-14")
    assert float(result.loss).hex() == loss


@pytest.mark.parametrize("shape", [(1, 9), (9, 1)])
@pytest.mark.parametrize("channels", [1, 3])
def test_one_pixel_thin_targets(shape, channels):
    def target(row):
        return Canvas(np.repeat(np.reshape(row, shape)[..., None], channels, axis=2))

    with pytest.raises(ConfigError, match="no foreground"):
        fit_stroke(target(np.ones(9)))
    for row in ([1, 1, 1, 0.2, 0.1, 0.2, 1, 1, 1], [0.1, 0.3] + [1.0] * 7):
        result = fit_stroke(target(row), iterations=40)
        assert np.isfinite(result.loss) and result.loss == result.history[-1]
        assert np.all(np.diff(result.history) <= 0)
        assert rasterize_stroke(result.stroke, shape)[1].shape == shape
