"""The fit's start inside the painted region, against starts that miss it.

The paper initialises its stroke inside the detected stroke region because a
randomly placed curve that misses the stroke gets no gradient and fades away.
Here the softness ladder runs through ``fitting._descend`` as ``fit_stroke``
runs it, with no retry and no polish, on ten gate-09 targets at 32²: once
from the geodesic spine start, and from three seeded uniform starts per
target whose render has alpha IoU 0 with the target.

What was measured: the spine start reaches IoU 0.85 on 10 of 10 targets with
no rung-1 probe pair of equal losses. The blurred first rungs rescue most
missing starts (26 of 30 reach 0.85), so missing the stroke is not fatal at
this size; but the third missing start on seed 903 collapses to IoU 0 with
585 of its 900 rung-1 probe pairs exactly equal, the vanishing gradient the
paper describes.
"""

import numpy as np
import pytest

from strokecraft.metrics import alpha_iou
from strokecraft.strokes import fitting, generate_visible_stroke, rasterize_stroke
from strokecraft.strokes.model import PARAM_COUNT, BezierStroke, ParamRanges
from strokecraft.strokes.raster import DEFAULT_SOFTNESS

SIDE = 32
SEEDS = range(900, 910)
MISSING_STARTS = 3
GATE_09_IOU = 0.85
FIRST_RUNG = fitting._SOFTNESS_LADDER[0] * DEFAULT_SOFTNESS * 0.5


class ZeroPairs:
    """``fitting._batch_loss``, counting the rung-1 probe pairs whose losses are equal."""

    def __init__(self, batch_loss):
        self.batch_loss = batch_loss
        self.count = 0

    def __call__(self, zs, ranges, planes, softness):
        losses = self.batch_loss(zs, ranges, planes, softness)
        if softness == FIRST_RUNG and len(zs) > 1:
            half = len(zs) // 2
            self.count += int(np.count_nonzero(losses[:half] == losses[half:]))
        return losses


def ladder(pixels, z0):
    """``fit_stroke``'s run from ``z0`` with no retry and no polish: the best stroke."""
    ranges = ParamRanges.for_canvas(SIDE)
    grad_ranges = ParamRanges.for_canvas(SIDE / 2)
    grad_target = pixels.reshape(SIDE // 2, 2, SIDE // 2, 2, -1).mean(axis=(1, 3))
    per_rung = fitting.FIT_ITERATIONS // len(fitting._SOFTNESS_LADDER)
    z = z0.copy()
    z[fitting._OPACITY_DIM] = 1.0
    best = float(fitting._batch_loss(z[None], ranges, fitting._planes(pixels),
                                     DEFAULT_SOFTNESS)[0])
    best_z, history = z.copy(), []
    for rung in fitting._SOFTNESS_LADDER:
        z, best, best_z = fitting._descend(
            z, grad_ranges, grad_target, ranges, pixels, rung * DEFAULT_SOFTNESS * 0.5,
            per_rung, best, best_z, history)
    return BezierStroke(ranges.denormalize(best_z))


def missing_starts(seed, alpha, ranges):
    """Uniform opacity-1 starts whose render does not overlap the target's alpha."""
    rng = np.random.default_rng(seed + 10_000)
    while True:
        z = rng.uniform(size=PARAM_COUNT)
        z[fitting._OPACITY_DIM] = 1.0
        render = rasterize_stroke(BezierStroke(ranges.denormalize(z)), SIDE)[1]
        if alpha_iou(alpha, render) == 0.0:
            yield z


@pytest.fixture(scope="module")
def outcomes():
    """Per seed: the spine start's (IoU, zero pairs), then each missing start's."""
    ranges = ParamRanges.for_canvas(SIDE)
    found = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        zero_pairs = ZeroPairs(fitting._batch_loss)
        monkeypatch.setattr(fitting, "_batch_loss", zero_pairs)
        for seed in SEEDS:
            _, canvas, alpha = generate_visible_stroke(np.random.default_rng(seed), SIDE)
            draws = missing_starts(seed, alpha, ranges)
            starts = [fitting._spine_guess(canvas.pixels, ranges)]
            starts += [next(draws) for _ in range(MISSING_STARTS)]
            found[seed] = []
            for z0 in starts:
                zero_pairs.count = 0
                stroke = ladder(canvas.pixels, z0)
                iou = alpha_iou(alpha, rasterize_stroke(stroke, SIDE)[1])
                found[seed].append((iou, zero_pairs.count))
    return found


def test_the_spine_start_always_reaches_gate_09_with_a_gradient(outcomes):
    for seed, runs in outcomes.items():
        iou, zero_pairs = runs[0]
        assert iou >= GATE_09_IOU, seed
        assert zero_pairs == 0, seed


def test_missing_starts_pass_no_more_often_than_the_spine(outcomes):
    spine = np.mean([runs[0][0] >= GATE_09_IOU for runs in outcomes.values()])
    missing = np.mean([iou >= GATE_09_IOU for runs in outcomes.values() for iou, _ in runs[1:]])
    assert missing <= spine


def test_a_missing_start_collapses_where_its_gradient_vanishes(outcomes):
    iou, zero_pairs = outcomes[903][3]
    rung_one_pairs = (fitting.FIT_ITERATIONS // len(fitting._SOFTNESS_LADDER)
                      * len(fitting._FREE_DIMS))
    assert iou == 0.0
    # most of the first rung's probe pairs see no difference at all
    assert zero_pairs > rung_one_pairs // 2
