"""Synthetic painting scenes and the stroke-predictor training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..errors import ConfigError, NumericalError
from ..strokes.canvas import Canvas
from ..strokes.generate import generate_visible_stroke
from ..strokes.model import PARAM_COUNT
from ..strokes.raster import DEFAULT_SAMPLES, compose_over, polyline_points
from .losses import GroundTruthStroke, MatchConfig
from .predictor import StrokePredictor, forward_assignment, loss_and_grad

DEFAULT_SCENE_SIDE = 32


def stroke_centroid(vector: np.ndarray) -> np.ndarray:
    """Mean (x, y) of the stroke's sampled spine."""
    return polyline_points(np.asarray(vector, dtype=np.float64)[None],
                           DEFAULT_SAMPLES)[0].mean(axis=0)


def ground_truth_from_stroke(vector: np.ndarray, side: float, order_index: int,
                             ) -> GroundTruthStroke:
    """Split a canvas-coordinate stroke into centered parameters plus shifts.

    The shifts are the spine centroid in canvas units (clipped to the
    canvas); the stored parameters are translated so that realizing the
    ground truth with these shifts reproduces the original exactly.
    """
    vector = np.asarray(vector, dtype=np.float64)
    centroid = stroke_centroid(vector)
    x_shift = float(np.clip(centroid[0] / side, 0.0, 1.0))
    y_shift = float(np.clip(centroid[1] / side, 0.0, 1.0))
    centered = vector.copy()
    centered[0:8:2] -= (x_shift - 0.5) * side
    centered[1:8:2] -= (y_shift - 0.5) * side
    return GroundTruthStroke(params=centered, x_shift=x_shift, y_shift=y_shift,
                             order_index=order_index)


def make_scene(rng: np.random.Generator, side: int = DEFAULT_SCENE_SIDE, *,
               min_strokes: int = 1, max_strokes: int = 8, channels: int = 3,
               ) -> tuple[Canvas, Canvas, list[GroundTruthStroke]]:
    """One training scene: white current canvas, painted target, ordered truth.

    Strokes are drawn top-left to bottom-right by spine centroid, so the
    drawing order is a deterministic function of the picture.
    """
    if not 1 <= min_strokes <= max_strokes:
        raise ConfigError(f"bad stroke count bounds [{min_strokes}, {max_strokes}]")
    count = int(rng.integers(min_strokes, max_strokes + 1))
    drawn = [
        generate_visible_stroke(rng, side, channels=channels, identifiable_iou=None)
        for _ in range(count)
    ]
    drawn.sort(key=lambda d: float(sum(stroke_centroid(d[0].vector))))
    target = Canvas.white((side, side), channels)
    gts = []
    for index, (stroke, _, alpha) in enumerate(drawn, start=1):
        # the draw's full-canvas alpha, so the stroke is not rasterized again
        compose_over(target, stroke, alpha)
        gts.append(ground_truth_from_stroke(stroke.vector, side, index))
    return Canvas.white((side, side), channels), target, gts


def pairwise_rank_error(scr: np.ndarray, order: np.ndarray) -> float:
    """Fraction of earlier/later pairs whose scores disagree; ties count half."""
    scr = np.asarray(scr, dtype=np.float64)
    order = np.asarray(order, dtype=np.float64)
    if scr.shape != order.shape or scr.ndim != 1:
        raise ConfigError(f"scores {scr.shape} and orders {order.shape} must be equal 1-D")
    if len(scr) < 2:
        raise ConfigError("rank error needs at least two strokes")
    i, j = np.triu_indices(len(scr), 1)
    # the earlier of each pair is i when its order is smaller, else j
    swap = ~(order[i] < order[j])
    earlier = np.where(swap, scr[j], scr[i])
    later = np.where(swap, scr[i], scr[j])
    bad = np.count_nonzero(earlier > later) + 0.5 * np.count_nonzero(earlier == later)
    return bad / len(i)


@dataclass
class PredictorTraining:
    """Trained predictor plus per-epoch mean loss and holdout rank error."""

    predictor: StrokePredictor
    loss_history: list[float] = field(default_factory=list)
    rank_error_history: list[float] = field(default_factory=list)


def _holdout_rank_error(predictor: StrokePredictor, scenes: list, cfg: MatchConfig) -> float:
    """Mean pairwise rank error of the matched slots, one forward pass and matching per scene.

    Scenes with fewer than two strokes have no pair to rank; with no other
    scene the error is undefined, so it is nan.
    """
    errors = []
    for current, target, gts in scenes:
        if len(gts) < 2:
            continue
        u, assignment = forward_assignment(predictor, current, target, gts, cfg)
        scr = u[:, PARAM_COUNT + 2]
        order = np.array([g.order_index for g in gts])
        errors.append(pairwise_rank_error(scr[assignment], order))
    return float(np.mean(errors)) if errors else float("nan")


def train_predictor(generator, cfg: MatchConfig, epochs: int, rng: np.random.Generator, *,
                    predictor: StrokePredictor | None = None,
                    scenes_per_epoch: int = 8, holdout_scenes: int = 4,
                    holdout: list | None = None, lr: float = 1e-3) -> PredictorTraining:
    """Adam on the total matching-plus-ranking loss over generated scenes.

    The generator is called with the rng and must yield (current canvas,
    target canvas, ground-truth strokes). A fixed holdout set tracks the
    mean pairwise rank error of the matched predictions after every
    epoch (nan when no holdout scene has two strokes); it is drawn from the generator up front unless an explicit
    scene list is supplied, which callers training from a replayed pool
    should do to keep the holdout unseen. Non-finite losses abort.
    """
    if epochs < 1:
        raise ConfigError(f"need at least one epoch, got {epochs}")
    if scenes_per_epoch < 1:
        raise ConfigError(f"need at least one scene per epoch, got {scenes_per_epoch}")
    if predictor is None:
        probe = generator(rng)
        predictor = StrokePredictor.create(
            rng,
            input_side=probe[1].height,
            canvas_channels=probe[1].channels,
            max_strokes=cfg.max_strokes,
        )
    if holdout is None:
        holdout = [generator(rng) for _ in range(holdout_scenes)]
    adam = nn.Adam(predictor.params.size, lr=lr)
    result = PredictorTraining(predictor=predictor)
    for epoch in range(epochs):
        losses = []
        for _ in range(scenes_per_epoch):
            current, target, gts = generator(rng)
            loss, grad, _ = loss_and_grad(predictor, current, target, gts, cfg)
            if not np.isfinite(loss):
                raise NumericalError(f"training diverged at epoch {epoch}: loss {loss}")
            adam.update(predictor.params, grad)
            losses.append(loss)
        result.loss_history.append(float(np.mean(losses)))
        result.rank_error_history.append(_holdout_rank_error(predictor, holdout, cfg))
    return result
