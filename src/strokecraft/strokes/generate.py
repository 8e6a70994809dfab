"""Sample strokes whose renderings are clean fitting and training targets."""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError
from ..metrics import alpha_iou, connected_regions, label_components
from .canvas import Canvas
from .model import BezierStroke, ParamRanges, generate_random_stroke, max_opacity_equivalent
from .raster import coverage_batch, rasterize_stroke

MIN_CORE_PIXELS = 25
MAX_TRIES = 1000


def generate_visible_stroke(rng: np.random.Generator, side: int, *,
                            channels: int = 3,
                            identifiable_iou: float | None = 0.9,
                            ) -> tuple[BezierStroke, Canvas, np.ndarray]:
    """Rejection-sample a stroke that renders as one solid, recoverable mark.

    Accepts a draw only when the canvas shows a single connected
    foreground region, the alpha core (coverage >= 0.5) is one component
    of at least MIN_CORE_PIXELS, and, unless ``identifiable_iou`` is
    None, the alpha mask survives the opacity-maximizing
    reparameterization that leaves the rendered image unchanged. Targets
    failing that last check cannot be recovered from pixels alone.
    """
    ranges = ParamRanges.for_canvas(side)
    for _ in range(MAX_TRIES):
        stroke = generate_random_stroke(rng, ranges)
        # Coverage never exceeds opacity, so a fainter draw has an empty core.
        if not stroke.opacity >= 0.5:
            continue
        # The twin shares the control polygon, so both rows share one distance field.
        rows = [stroke.vector]
        if identifiable_iou is not None:
            rows.append(max_opacity_equivalent(stroke).vector)
        alphas = coverage_batch(np.stack(rows), side, side)
        alpha = alphas[0]
        core = alpha >= 0.5
        if int(core.sum()) < MIN_CORE_PIXELS:
            continue
        _, core_count = label_components(core)
        if core_count != 1:
            continue
        canvas, _ = rasterize_stroke(stroke, side, channels, alpha=alpha)
        if connected_regions(canvas.pixels).region_count != 1:
            continue
        if identifiable_iou is not None and alpha_iou(alpha, alphas[1]) < identifiable_iou:
            continue
        return stroke, canvas, alpha
    raise NumericalError(f"no acceptable stroke after {MAX_TRIES} draws")
