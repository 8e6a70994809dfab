"""Rank-ordered compositing and coarse-to-fine grid painting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..metrics import mse
from ..strokes.canvas import Canvas
from ..strokes.model import BezierStroke
from ..strokes.raster import compose_over
from .losses import StrokePrediction
from .predictor import StrokePredictor, predict_strokes


@dataclass(frozen=True)
class PlacedStroke:
    """A prediction realized at its position on the full canvas."""

    stroke: BezierStroke
    prediction: StrokePrediction
    layer: int = 0
    patch_row: int = 0
    patch_col: int = 0


def realize_stroke(prediction: StrokePrediction, patch_side: float,
                   origin: tuple[float, float] = (0.0, 0.0)) -> BezierStroke:
    """Move a patch-centered prediction to canvas coordinates.

    The shifts displace the stroke from the patch center in units of the
    patch side; origin is the patch's top-left corner (x, y) on the canvas.
    """
    if patch_side <= 0:
        raise ConfigError(f"patch side must be positive, got {patch_side}")
    vec = prediction.params.copy()
    vec[0:8:2] += (prediction.x_shift - 0.5) * patch_side + origin[0]
    vec[1:8:2] += (prediction.y_shift - 0.5) * patch_side + origin[1]
    return BezierStroke(vec)


def order_strokes(placed: list[PlacedStroke], threshold: float = 0.5) -> list[PlacedStroke]:
    """Drawing order: presence at or above threshold, ascending rank score.

    The sort is stable, so equal scores keep the incoming order; callers
    list strokes in patch raster order and slot order to fix ties.
    """
    kept = [p for p in placed if p.prediction.d >= threshold]
    return sorted(kept, key=lambda p: p.prediction.scr_r)


def composite(canvas: Canvas, placed: list[PlacedStroke], *,
              threshold: float = 0.5) -> list[PlacedStroke]:
    """Alpha-over fold of the kept strokes into ``canvas``, in place.

    Returns the kept strokes in the drawing order they were painted in.
    """
    kept = order_strokes(placed, threshold)
    for item in kept:
        compose_over(canvas, item.stroke)
    return kept


def place_predictions(predictions: list[StrokePrediction], patch_side: float,
                      origin: tuple[float, float] = (0.0, 0.0), layer: int = 0,
                      patch: tuple[int, int] = (0, 0)) -> list[PlacedStroke]:
    """Realize one patch's prediction slots against the full canvas."""
    return [
        PlacedStroke(
            stroke=realize_stroke(pred, patch_side, origin),
            prediction=pred,
            layer=layer,
            patch_row=patch[0],
            patch_col=patch[1],
        )
        for pred in predictions
    ]


def resize_canvas(canvas: Canvas, side: int) -> Canvas:
    """Square resize by an integer factor: block means down, repeats up."""
    if canvas.height != canvas.width:
        raise ConfigError(f"resize expects a square canvas, got {canvas.height}x{canvas.width}")
    src = canvas.height
    if src == side:
        return canvas.copy()
    if src % side == 0:
        factor = src // side
        blocks = canvas.pixels.reshape(side, factor, side, factor, canvas.channels)
        return Canvas(blocks.mean(axis=(1, 3)))
    if side % src == 0:
        factor = side // src
        return Canvas(np.repeat(np.repeat(canvas.pixels, factor, axis=0), factor, axis=1))
    raise ConfigError(f"no integer ratio between canvas side {src} and {side}")


def padded_side(height: int, width: int, layers: int, input_side: int) -> int:
    """Smallest working canvas side covering the target.

    Every layer-k patch (side S / 2^k) must relate to the predictor input
    by an integer factor, so the side is either a power of two or a
    multiple of input_side * 2^(layers-1), whichever padding is smaller.
    """
    need = max(height, width, 2 ** (layers - 1))
    power = 1
    while power < need:
        power *= 2
    grid = input_side * 2 ** (layers - 1)
    multiple = grid * ((need + grid - 1) // grid)
    return min(power, multiple)


@dataclass
class PaintResult:
    """Output of layered painting: final canvas, per-layer states, draw log."""

    final: Canvas
    intermediates: list[Canvas] = field(default_factory=list)
    strokes: list[PlacedStroke] = field(default_factory=list)
    layer_mse: list[float] = field(default_factory=list)


def layered_paint(target: Canvas, predictor: StrokePredictor, layers: int, *,
                  threshold: float = 0.5) -> PaintResult:
    """Coarse-to-fine painting over a 2^k x 2^k patch grid per layer.

    The working canvas starts white, padded so every patch resizes to the
    predictor input by an integer factor; the target sits at its top-left
    corner. Each layer predicts strokes per patch, composites the kept
    ones in rank order (ties in patch raster order, then slot), and logs
    the cropped canvas plus its squared error against the target.
    """
    if layers < 1:
        raise ConfigError(f"need at least one layer, got {layers}")
    if layers > max(target.height, target.width).bit_length():  # 2^(layers-1) > the longer side
        raise ConfigError(f"{layers} layers would split a {target.height}x{target.width} "
                          f"target into more patches per side than it has pixels")
    if target.channels != predictor.arch["canvas_channels"]:
        raise ConfigError(
            f"target has {target.channels} channels, predictor wants "
            f"{predictor.arch['canvas_channels']}"
        )
    input_side = predictor.arch["input_side"]
    side = padded_side(target.height, target.width, layers, input_side)
    padded = Canvas.white((side, side), target.channels)
    padded.pixels[: target.height, : target.width] = target.pixels
    current = Canvas.white((side, side), target.channels)

    result = PaintResult(final=target)
    for layer in range(layers):
        grid = 2**layer
        patch = side // grid
        placed: list[PlacedStroke] = []
        for row in range(grid):
            for col in range(grid):
                ys = slice(row * patch, (row + 1) * patch)
                xs = slice(col * patch, (col + 1) * patch)
                cur = resize_canvas(Canvas(current.pixels[ys, xs]), input_side)
                tgt = resize_canvas(Canvas(padded.pixels[ys, xs]), input_side)
                preds = predict_strokes(predictor, cur, tgt, patch_side=patch)
                placed.extend(place_predictions(
                    preds, patch, origin=(col * patch, row * patch),
                    layer=layer, patch=(row, col),
                ))
        result.strokes.extend(composite(current, placed, threshold=threshold))
        cropped = Canvas(current.pixels[: target.height, : target.width].copy())
        result.intermediates.append(cropped)
        result.layer_mse.append(mse(cropped.pixels, target.pixels))
    result.final = result.intermediates[-1]
    return result
