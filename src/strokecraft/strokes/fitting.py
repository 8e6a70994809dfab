"""Fit a single brushstroke to a target canvas by pixel-loss descent."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..metrics import DEFAULT_FOREGROUND_THRESHOLD, LUMA_WEIGHTS, foreground_mask, luminance
from .canvas import Canvas
from .model import PARAM_COUNT, BezierStroke, ParamRanges
from .raster import DEFAULT_SOFTNESS, coverage_batch

FIT_SAMPLES = 24
FIT_ITERATIONS = 300

# Coarse-to-fine softness ladder, as multiples of the render softness.
# Early stages blur the loss so the geometry can travel; the last stage
# matches the render.
_SOFTNESS_LADDER = (4.0, 2.25, 1.5, 1.0)
# every rung takes at least one iteration
MIN_ITERATIONS = len(_SOFTNESS_LADDER)

# Per-coordinate sign steps in normalized parameter space: grow while the
# gradient sign holds, halve and hold on a flip.
_STEP_INIT = 0.02
_STEP_GROW = 1.2
_STEP_SHRINK = 0.5
_STEP_MAX = 0.15
_STEP_MIN = 1e-4
_FD_STEP = 0.02

# Composited over white, a pixel constrains only opacity*(1-color) per
# channel, so the opacity/color split is a flat direction of the pixel
# loss. The fit pins opacity at 1 and lets color carry the product; any
# renderable target stays reachable.
_OPACITY_DIM = 11
_FREE_DIMS = np.array([d for d in range(PARAM_COUNT) if d != _OPACITY_DIM])

_RETRY_LOSS = 3e-4
_POLISH_LOSS = 2e-4
_POLISH_ITERATIONS = 50

# A stroke's RGB colour in a target's channels: itself, or its luma as one channel.
_CHANNEL_MIX = {3: np.eye(3), 1: LUMA_WEIGHTS[:, None]}

_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class FitResult:
    """Best stroke found, its pixel loss, and the best-so-far loss trace."""

    stroke: BezierStroke
    loss: float
    history: np.ndarray


def _planes(target):
    """An (H, W, C) target as contiguous (C, H, W) channel planes."""
    return np.ascontiguousarray(target.transpose(2, 0, 1))


def _batch_loss(zs, ranges, planes, softness):
    """MSE against (C, H, W) target ``planes`` for a batch of normalized parameter rows."""
    vectors = ranges.denormalize(zs)
    channels, height, width = planes.shape
    cov = coverage_batch(vectors, height, width, FIT_SAMPLES, softness)
    color = vectors[:, 8:11] @ _CHANNEL_MIX[channels] / 255.0
    # one buffer updated in place: freeing several of this size per call let glibc
    # trim the heap and fault the pages in again, 7x the faults on some heap layouts
    diff = cov[:, None] * (color[:, :, None, None] - 1.0)
    diff += 1.0
    diff -= planes
    diff *= diff
    # the sum and the division np.mean makes, without its wrappers
    return np.add.reduce(diff, axis=(1, 2, 3)) / planes.size


def _foreground(pixels):
    mask, bg = foreground_mask(pixels, DEFAULT_FOREGROUND_THRESHOLD)
    if not mask.any():
        raise ConfigError("fit target has no foreground above the threshold")
    return mask, bg


def _color_at_deepest(pixels, bg, ys, xs):
    deep = np.argmax(np.abs(luminance(pixels)[ys, xs] - bg))
    return np.broadcast_to(pixels[ys[deep], xs[deep]] * 255.0, 3)


def _finish_guess(ranges, p0, p1, p2, p3, color, width):
    vec = np.concatenate([p0, p1, p2, p3, color, [1.0, width]])
    return np.clip(ranges.normalize(ranges.clamp(vec)), 0.0, 1.0)


def _initial_guess(pixels, ranges):
    """Straight-chord start: endpoints at the principal-axis extremes."""
    mask, bg = _foreground(pixels)
    ys, xs = np.nonzero(mask)
    pts = np.stack([xs + 0.5, ys + 0.5], axis=1).astype(float)
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    proj = centered @ vt[0]
    e0 = pts[np.argmin(proj)]
    e1 = pts[np.argmax(proj)]
    p1 = e0 + (e1 - e0) / 3.0
    p2 = e0 + 2.0 * (e1 - e0) / 3.0
    chord = float(np.hypot(*(e1 - e0)))
    width = max(1.0, mask.sum() / max(chord, 1.0))
    color = _color_at_deepest(pixels, bg, ys, xs)
    return _finish_guess(ranges, e0, p1, p2, e1, color, width)


def _farthest_from(mask, start):
    """BFS over a pixel mask; returns the farthest pixel and parent links."""
    h, w = mask.shape
    dist = {start: 0}
    parent = {start: None}
    queue = deque([start])
    far = start
    while queue:
        cur = queue.popleft()
        for dy, dx in _NEIGHBORS:
            ny, nx = cur[0] + dy, cur[1] + dx
            if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and (ny, nx) not in dist:
                dist[(ny, nx)] = dist[cur] + 1
                parent[(ny, nx)] = cur
                queue.append((ny, nx))
                if dist[(ny, nx)] > dist[far]:
                    far = (ny, nx)
    return far, parent


def _spine_guess(pixels, ranges):
    """Start from the foreground's geodesic diameter path.

    Two BFS passes find the two tips of the painted region even when the
    stroke folds back on itself; the cubic through the path's third points
    gives the control polygon. Interpolated handles are clipped into the
    foreground bounding box.
    """
    mask, bg = _foreground(pixels)
    ys, xs = np.nonzero(mask)
    tip_a, _ = _farthest_from(mask, (int(ys[0]), int(xs[0])))
    tip_b, parent = _farthest_from(mask, tip_a)
    path = []
    cur = tip_b
    while cur is not None:
        path.append(cur)
        cur = parent[cur]
    pts = np.array([(x + 0.5, y + 0.5) for y, x in reversed(path)], dtype=float)
    n = len(pts)
    q0, q3 = pts[0], pts[-1]
    q1, q2 = pts[n // 3], pts[(2 * n) // 3]
    p1 = (-5.0 * q0 + 18.0 * q1 - 9.0 * q2 + 2.0 * q3) / 6.0
    p2 = (2.0 * q0 - 9.0 * q1 + 18.0 * q2 - 5.0 * q3) / 6.0
    lo = np.array([xs.min() + 0.5, ys.min() + 0.5])
    hi = np.array([xs.max() + 0.5, ys.max() + 0.5])
    p1 = np.clip(p1, lo, hi)
    p2 = np.clip(p2, lo, hi)
    width = max(1.0, mask.sum() / max(n, 1.0))
    color = _color_at_deepest(pixels, bg, ys, xs)
    return _finish_guess(ranges, q0, p1, p2, q3, color, width)


def _descend(z, grad_ranges, grad_target, ranges, target, grad_softness,
             iterations, best, best_z, history,
             step_init=_STEP_INIT, step_max=_STEP_MAX):
    """Sign-step descent with per-coordinate step adaptation on the free dims.

    ``z`` lies in the unit box. Each iteration scores a plus and a minus probe
    per free coordinate, both clipped to the box, in one (2F, 13) batch.
    """
    n_free = len(_FREE_DIMS)
    grad_planes, planes = _planes(grad_target), _planes(target)
    probes = np.empty((2 * n_free, PARAM_COUNT))
    # the probed entry of each row: row i moves free coordinate i % n_free
    moved = (np.arange(2 * n_free), np.tile(_FREE_DIMS, 2))
    steps = np.full(n_free, step_init)
    prev_sign = np.zeros(n_free)
    for _ in range(iterations):
        free = z[_FREE_DIMS]
        # z + 0.02 > 0 and z - 0.02 < 1, so each side clips at one end only
        plus = np.minimum(free + _FD_STEP, 1.0)
        minus = np.maximum(free - _FD_STEP, 0.0)
        probes[:] = z
        probes[moved] = np.concatenate([plus, minus])
        losses = _batch_loss(probes, grad_ranges, grad_planes, grad_softness)
        grad = (losses[:n_free] - losses[n_free:]) / (plus - minus)
        sign = np.sign(grad)
        trend = prev_sign * sign
        flipped = trend < 0
        steps[flipped] = np.maximum(steps[flipped] * _STEP_SHRINK, _STEP_MIN)
        held = trend > 0
        steps[held] = np.minimum(steps[held] * _STEP_GROW, step_max)
        sign[flipped] = 0.0  # a flipped coordinate holds still for one iteration
        z[_FREE_DIMS] = np.minimum(np.maximum(free - sign * steps, 0.0), 1.0)
        prev_sign = sign
        cur = float(_batch_loss(z[None], ranges, planes, DEFAULT_SOFTNESS)[0])
        if cur < best:
            best = cur
            best_z = z.copy()
        history.append(best)
    return z, best, best_z


def fit_stroke(target: Canvas, *, iterations: int = FIT_ITERATIONS) -> FitResult:
    """Recover stroke parameters whose rendering matches ``target``.

    Coordinate-wise finite differences drive the descent; the loss is
    blurred through a softness ladder and probed on a half-resolution grid
    at every size (an odd side first gains one white row or column, the
    background the loss renders over), while acceptance always scores the
    full-resolution render at DEFAULT_SOFTNESS. A geodesic spine start is
    tried first and a straight-chord start serves as fallback when the
    first stall is above tolerance. The optimizer is deterministic.
    """
    if iterations < MIN_ITERATIONS:
        raise ConfigError("iterations must cover the softness ladder")
    pixels = target.pixels
    height, width = pixels.shape[:2]
    side = max(height, width)
    ranges = ParamRanges.for_canvas(side)
    padded = np.pad(pixels, ((0, height % 2), (0, width % 2), (0, 0)), constant_values=1.0)
    grad_target = padded.reshape(padded.shape[0] // 2, 2, padded.shape[1] // 2, 2,
                                 -1).mean(axis=(1, 3))
    grad_ranges = ParamRanges.for_canvas(side / 2)
    # the first iterations % 4 rungs take one iteration more, so all of them run
    per_stage, extra = divmod(iterations, len(_SOFTNESS_LADDER))
    history: list[float] = []

    def run(z0):
        z = z0.copy()
        z[_OPACITY_DIM] = 1.0
        best = float(_batch_loss(z[None], ranges, _planes(pixels), DEFAULT_SOFTNESS)[0])
        best_z = z.copy()
        for i, rung in enumerate(_SOFTNESS_LADDER):
            z, best, best_z = _descend(
                z, grad_ranges, grad_target, ranges, pixels,
                rung * DEFAULT_SOFTNESS * 0.5, per_stage + (i < extra), best, best_z,
                history)
        return best, best_z

    best, best_z = run(_spine_guess(pixels, ranges))
    if best > _RETRY_LOSS:
        retry_best, retry_z = run(_initial_guess(pixels, ranges))
        if retry_best < best:
            best, best_z = retry_best, retry_z
    if best > _POLISH_LOSS:
        _, best, best_z = _descend(
            best_z.copy(), ranges, pixels, ranges, pixels, DEFAULT_SOFTNESS,
            _POLISH_ITERATIONS, best, best_z, history, step_init=0.01, step_max=0.05)
    running = np.minimum.accumulate(np.asarray(history))
    return FitResult(BezierStroke(ranges.denormalize(best_z)), best, running)
