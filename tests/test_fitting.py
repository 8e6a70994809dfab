"""Stroke fitting: initialization placement, descent invariants, recovery."""

import numpy as np
import pytest

from strokecraft.errors import ConfigError
from strokecraft.metrics import alpha_iou, foreground_mask
from strokecraft.strokes import (
    Canvas,
    ParamRanges,
    fit_stroke,
    fitting,
    generate_visible_stroke,
    rasterize_stroke,
)
from strokecraft.strokes.fitting import _initial_guess, _spine_guess


_INTERIOR_RNG = np.random.default_rng(2024)


def interior_target(index, side=32, _cache={}):
    """The ``index``-th visible stroke whose foreground clears the border."""
    while index not in _cache:
        next_slot = len(_cache)
        stroke, canvas, alpha = generate_visible_stroke(_INTERIOR_RNG, side)
        mask, _ = foreground_mask(canvas.pixels)
        ys, xs = np.nonzero(mask)
        if ys.min() >= 2 and xs.min() >= 2 and ys.max() < side - 2 and xs.max() < side - 2:
            _cache[next_slot] = (stroke, canvas, alpha)
    return _cache[index]


def test_initializations_inside_foreground_bounding_box():
    for index in range(25):
        _, canvas, _ = interior_target(index)
        mask, _ = foreground_mask(canvas.pixels)
        ys, xs = np.nonzero(mask)
        lo = np.array([xs.min() + 0.5, ys.min() + 0.5])
        hi = np.array([xs.max() + 0.5, ys.max() + 0.5])
        ranges = ParamRanges.for_canvas(32)
        for guess in (_initial_guess(canvas.pixels, ranges),
                      _spine_guess(canvas.pixels, ranges)):
            points = ranges.denormalize(guess)[:8].reshape(4, 2)
            assert np.all(points >= lo - 1e-9) and np.all(points <= hi + 1e-9)


def test_blank_target_raises():
    with pytest.raises(ConfigError):
        fit_stroke(Canvas.white((16, 16), channels=3))


def test_iterations_must_cover_ladder():
    _, canvas, _ = interior_target(0)
    with pytest.raises(ConfigError):
        fit_stroke(canvas, iterations=2)


def test_history_is_nonincreasing_and_matches_loss():
    _, canvas, _ = interior_target(1)
    result = fit_stroke(canvas, iterations=60)
    assert np.all(np.diff(result.history) <= 0)
    assert result.loss == result.history[-1]


def test_fit_is_deterministic():
    _, canvas, _ = interior_target(2)
    a = fit_stroke(canvas, iterations=60)
    b = fit_stroke(canvas, iterations=60)
    assert np.array_equal(a.stroke.vector, b.stroke.vector)
    assert a.loss == b.loss


def test_fit_recovers_rendered_strokes():
    passes = 0
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        _, canvas, alpha = generate_visible_stroke(rng, 32)
        result = fit_stroke(canvas)
        iou = alpha_iou(alpha, rasterize_stroke(result.stroke, 32)[1])
        passes += iou >= 0.85
    assert passes >= 5


def test_fit_through_the_retry_and_the_polish_is_unchanged():
    # the spine start stalls above _RETRY_LOSS, the chord start runs too, and the
    # better of the two stays above _POLISH_LOSS, so the 50-step polish runs
    _, canvas, _ = generate_visible_stroke(np.random.default_rng(901), 32)
    result = fit_stroke(canvas)
    assert len(result.history) == 2 * 300 + 50
    expected = [
        "0x1.51a3f80360c0fp+4", "0x1.6a0abdfa4628cp+4", "0x1.079fda6420dc2p+3",
        "0x1.ff8f3a5d981b4p+4", "0x1.cf9b662ba4b74p+1", "0x1.ccbaf32f2d9a7p+3",
        "0x1.7560f8f1e1a82p+2", "0x1.87952b7adb225p+3", "0x1.c206ece797a97p+6",
        "0x1.e778863478372p+6", "0x1.5417ea8837154p+7", "0x1.0000000000000p+0",
        "0x1.6ff21d814d3bep+3",
    ]
    assert [float(v).hex() for v in result.stroke.vector] == expected
    assert float(result.loss).hex() == "0x1.417d6f3aad05bp-10"


@pytest.mark.parametrize("iterations", range(4, 12))
def test_every_requested_iteration_runs(iterations, monkeypatch):
    _, canvas, _ = generate_visible_stroke(np.random.default_rng(901), 32)
    ladder = []
    descend = fitting._descend

    def spy(*args, **kwargs):
        if "step_max" not in kwargs:  # a ladder rung, not the polish
            ladder.append(args[6])
        return descend(*args, **kwargs)

    monkeypatch.setattr(fitting, "_descend", spy)
    result = fit_stroke(canvas, iterations=iterations)
    per_start = len(fitting._SOFTNESS_LADDER)
    starts = len(ladder) // per_start
    assert starts in (1, 2) and len(ladder) == starts * per_start
    base, extra = divmod(iterations, per_start)
    assert ladder[:per_start] == [base + (rung < extra) for rung in range(per_start)]
    assert ladder == ladder[:per_start] * starts
    polish = len(result.history) - starts * iterations
    assert polish in (0, fitting._POLISH_ITERATIONS)
