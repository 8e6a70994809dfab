"""Soft stroke rasterization.

The cubic is sampled into a polyline, every pixel center gets its distance to
that polyline, and coverage falls off with a sigmoid of (width/2 - distance)
over a softness scale.  Color is composited over the base with the coverage as
alpha.  Everything is vectorized over a batch of strokes because fitting
evaluates many perturbed candidates per step.  Strokes render with
DEFAULT_SAMPLES polyline points at DEFAULT_SOFTNESS; only ``coverage_batch``
takes other values, for fitting's cheaper, blurred loss.

The distance field is written into one (B, H, W) array, a block of polylines
at a time, each block taking a running minimum over chunks of segments.  A
block times a chunk holds at most CHUNK_ELEMENTS segment-pixel distances, so a
whole fitting probe batch is one block.  Its two full-size temporaries live in
scratch buffers the module keeps across calls, allocated on first use and grown
on demand up to CHUNK_ELEMENTS values each; only a block larger than that (one
segment of one polyline covering more pixels than the budget) takes fresh
arrays.  Min is exact, so the field is the same to the bit as a single pass
over all segments.  ``coverage_batch`` computes one field per distinct control
polygon (rows numbered by first occurrence) and applies each row's width,
opacity and softness to it: fitting's finite-difference probes that move only
colour or width share the geometry of the point they probe around.

The distance kernel's ops that take one scalar per segment run inside
``_unbuffered_rows``, with a small ufunc buffer (``_ROW_BUFFER`` says why).

Two per-grid constants are cached, read-only and bounded: the four Bernstein
weight vectors of each polyline sample count (``_bernstein_weights``, eight
counts at most) and the pixel-center views of each window (``_pixel_centers``,
sixteen windows at most, least recently used dropped first, since every
``compose_over`` window has its own). Both are what the plain expressions
rebuilt on every call, so the bits do not change.

``compose_over`` paints into the canvas it is given, and returns it, only
inside the stroke's footprint window: the bounding box of the
DEFAULT_SAMPLES-point polyline that coverage is measured from (each of its
segments lies in that box), grown by width/2 + DEFAULT_SOFTNESS * ln(1/TAIL)
and clipped to the canvas.  That box can be much smaller than the control
points' box, which the curve need not reach.  Since sigmoid(z) < exp(z),
every pixel outside the window would get coverage below opacity * TAIL, so
leaving it untouched moves it by at most TAIL.  Pixels inside the window are
bit-identical to a full-canvas rasterization; no canvas is copied.

Both public renderers paint through one in-place blend, ``_blend``, one colour
plane at a time with the products and sums of the broadcast over all planes:
``compose_over`` into the window, ``rasterize_stroke`` into a fresh white
canvas.  Either takes the stroke's full-canvas coverage when the caller already
has it. Stroke generation renders a draw and its opacity-maximised twin in one
``coverage_batch`` call (they share a control polygon, so one field), and
``rasterize_stroke`` blends the draw's coverage; a training scene passes each
draw's coverage to ``compose_over``, which slices it to the footprint window.
Either way the result is the same to the bit.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from ..errors import ConfigError
from ..metrics import LUMA_WEIGHTS
from .canvas import Canvas
from .model import BezierStroke

DEFAULT_SAMPLES = 64
DEFAULT_SOFTNESS = 0.8

# Largest coverage a skipped pixel could have had, as a fraction of opacity.
TAIL = 1e-12
# Segment-pixel distances the distance field holds at once, rows * chunk * H * W,
# and the size cap of each kept scratch buffer (1 MiB of float64).  It fits a
# fitting probe batch, 17 geometries x 23 segments at 16 x 16, in one block.
# Since the buffers are reused, a call maps no fresh pages for them: fresh
# temporaries this size made page faults a third of stroke-fitting time.
CHUNK_ELEMENTS = 2**17

# numpy runs a ufunc through its buffer (8192 values by default) whenever an
# operand's contiguous run is at most half of it: an op with one scalar per
# segment, whose runs are one window of pixels (256 values at 16 x 16), paid
# about three times the unbuffered loop for the copies. ``_unbuffered_rows``
# sets the buffer to 16 values (numpy takes only multiples of 16).
_ROW_BUFFER = 16

# The distance field's two full-size temporaries, kept across calls.
_scratch: list[np.ndarray] = []


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def _pixel_centers(height: int, width: int, origin: tuple[int, int]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center x and y coordinates as (1, 1, 1, W) and (1, 1, H, 1) views."""
    y0, x0 = origin
    xs = np.arange(x0, x0 + width, dtype=np.float64) + 0.5
    ys = np.arange(y0, y0 + height, dtype=np.float64) + 0.5
    return _read_only(xs[None, None, None, :], ys[None, None, :, None])


@functools.lru_cache(maxsize=8)
def _bernstein_weights(samples: int) -> tuple[np.ndarray, ...]:
    """The four cubic Bernstein weights at ``samples`` parameters, (S,) each."""
    u = np.linspace(0.0, 1.0, samples)
    v = 1.0 - u
    return _read_only(v**3, 3.0 * v**2 * u, 3.0 * v * u**2, u**3)


def polyline_points(vectors: np.ndarray, samples: int) -> np.ndarray:
    """Sample the cubics of a (B, 13) batch at ``samples`` parameters, (B, S, 2).

    The sum runs over (B, 2, S) rows, whose samples are contiguous, and the
    result is a C-ordered copy of its (B, S, 2) transpose, the layout
    reductions over the samples see.
    """
    pts = vectors[:, :8].reshape(-1, 4, 2, 1)
    w0, w1, w2, w3 = _bernstein_weights(samples)
    points = w0 * pts[:, 0]
    points += w1 * pts[:, 1]
    points += w2 * pts[:, 2]
    points += w3 * pts[:, 3]
    return np.ascontiguousarray(points.transpose(0, 2, 1))


def _scratch_pair(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of ``shape``: views of the kept scratch buffers, or fresh
    arrays when they would hold more than CHUNK_ELEMENTS values."""
    size = math.prod(shape)
    if size > CHUNK_ELEMENTS:
        return np.empty(shape), np.empty(shape)
    if not _scratch or not size <= _scratch[0].size <= CHUNK_ELEMENTS:
        _scratch[:] = [np.empty(size), np.empty(size)]
    return tuple(buffer[:size].reshape(shape) for buffer in _scratch)


@contextlib.contextmanager
def _unbuffered_rows():
    """Run the elementwise ufuncs of the block with a _ROW_BUFFER-sized buffer.

    Elementwise results do not depend on the buffer; a reduction's summation
    order can, so no reduction runs inside. Leaving the block, by an exception
    too, restores the size it found.
    """
    old = np.setbufsize(_ROW_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def _squared_distances(a, seg, len2, px, py) -> np.ndarray:
    """Squared distance from every pixel center to every segment, (B, S, H, W).

    Two full-size buffers carry every step in place: t, the clamped
    projection parameter (later the y offset), and cx. Every value takes
    the operations of the plain expression, so the bits are the same, with
    two exact rewrites: the projection adds its products as y + x (IEEE
    addition commutes), and each offset comes out negated, t * s - d0
    rather than d0 - t * s (IEEE subtraction is antisymmetric), which its
    square drops. The result may be a view of a kept scratch buffer, which
    the next call overwrites.
    """
    dx0 = px - a[:, :, 0, None, None]
    dy0 = py - a[:, :, 1, None, None]
    sx = seg[:, :, 0, None, None]
    sy = seg[:, :, 1, None, None]
    t, cx = _scratch_pair((a.shape[0], a.shape[1], py.shape[2], px.shape[3]))
    # one one-sided broadcast at a time: a copy then an in-place add is
    # faster than one add that broadcasts both operands. These repeat one
    # pixel row or column, which numpy's buffered loop handles faster.
    np.copyto(t, dy0 * sy)
    t += dx0 * sx
    positive = len2 > 0.0  # False for NaN too, so that t is 0
    degenerate = not positive.all()
    with _unbuffered_rows():  # one scalar per segment
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(t, len2[:, :, None, None], out=t)
        if degenerate:
            np.copyto(t, 0.0, where=~positive[:, :, None, None])
        np.clip(t, 0.0, 1.0, out=t)
        # the full operand first: numpy's faster loops
        np.multiply(t, sx, out=cx)
        t *= sy
    t -= dy0
    cx -= dx0
    t *= t
    cx *= cx
    cx += t
    return cx


def distance_field_batch(poly: np.ndarray, height: int, width: int, *,
                         origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Min distance from every pixel center to each polyline, (B, H, W).

    The pixels are rows origin[0] .. origin[0]+height-1 and columns
    origin[1] .. origin[1]+width-1 of the canvas. Zero-length segments
    degrade to point distances.
    """
    a = poly[:, :-1]  # (B, S-1, 2)
    seg = poly[:, 1:] - a
    len2 = np.sum(seg * seg, axis=-1)  # (B, S-1)
    px, py = _pixel_centers(height, width, tuple(origin))
    # Blocks of `rows` polylines times `chunk` segments keep every temporary
    # within max(CHUNK_ELEMENTS, H * W) values.
    pixels = max(1, height * width)
    chunk = max(1, min(a.shape[1], CHUNK_ELEMENTS // pixels))
    rows = max(1, CHUNK_ELEMENTS // (chunk * pixels))
    field = np.empty((len(poly), height, width))
    for top in range(0, len(poly), rows):
        block = slice(top, top + rows)
        d2 = field[block]
        for lo in range(0, a.shape[1], chunk):
            part = slice(lo, lo + chunk)
            squared = _squared_distances(a[block, part], seg[block, part], len2[block, part], px, py)
            if lo == 0:
                np.minimum.reduce(squared, axis=1, out=d2)
            else:
                np.minimum(d2, np.minimum.reduce(squared, axis=1), out=d2)
    return np.sqrt(field, out=field)


def coverage_batch(
    vectors: np.ndarray,
    height: int,
    width: int,
    samples: int = DEFAULT_SAMPLES,
    softness: float = DEFAULT_SOFTNESS,
    *,
    origin: tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Per-pixel coverage in [0, 1] for a (B, 13) batch of stroke vectors.

    ``origin`` (row, column) places the height x width window on the canvas.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != 13:
        raise ConfigError(f"expected (B, 13) stroke vectors, got {vectors.shape}")
    if samples < 2:
        raise ConfigError(f"need at least 2 polyline samples, got {samples}")
    if softness <= 0:
        raise ConfigError(f"softness must be positive, got {softness}")
    geometry, shared = vectors[:, :8], slice(None)
    if len(vectors) > 1:
        # Distinct control polygons by their bytes, numbered by first occurrence.
        first: dict[bytes, int] = {}
        shared = [first.setdefault(row.tobytes(), len(first)) for row in geometry]
        geometry = np.frombuffer(b"".join(first), dtype=np.float64).reshape(-1, 8)
    # a fresh array: the field itself, or the rows gathered from it
    cov = distance_field_batch(polyline_points(geometry, samples), height, width,
                               origin=origin)[shared]
    half_width = vectors[:, 12, None, None] / 2.0
    opacity = np.clip(vectors[:, 11, None, None], 0.0, 1.0)
    # opacity / (1 + exp(-z)) with z = (half_width - dist) / softness, in place;
    # dist - half_width is exactly -(half_width - dist), so -z keeps its bits
    np.subtract(cov, half_width, out=cov)
    cov /= softness
    np.exp(cov, out=cov)
    cov += 1.0
    return np.divide(opacity, cov, out=cov)


def _stroke_channels(stroke: BezierStroke, channels: int) -> np.ndarray:
    rgb = np.clip(stroke.color / 255.0, 0.0, 1.0)
    if channels == 3:
        return rgb
    return np.array([float(rgb @ LUMA_WEIGHTS)])


def footprint_window(vector: np.ndarray, height: int, width: int) -> tuple[slice, slice]:
    """Canvas rows and columns outside which coverage stays below opacity * TAIL.

    The window is the bounding box of the DEFAULT_SAMPLES-point polyline that
    ``coverage_batch`` measures distances to, grown by width/2 +
    DEFAULT_SOFTNESS * ln(1/TAIL). Every segment of that polyline lies inside
    its points' box, so a pixel center outside the window is farther than the
    margin from each segment, and its sigmoid argument is below ln(TAIL). The
    slices may be empty.
    """
    vector = np.asarray(vector, dtype=np.float64)
    points = polyline_points(vector[None, :], DEFAULT_SAMPLES)[0]
    margin = vector[12] / 2.0 + DEFAULT_SOFTNESS * np.log(1.0 / TAIL)
    lo = np.floor(points.min(axis=0) - margin)
    hi = np.ceil(points.max(axis=0) + margin)
    cols = slice(int(max(lo[0], 0)), int(min(hi[0], width)))
    rows = slice(int(max(lo[1], 0)), int(min(hi[1], height)))
    return rows, cols


def _blend(pixels: np.ndarray, stroke: BezierStroke, alpha: np.ndarray) -> None:
    """Paint ``stroke`` at coverage ``alpha`` (H, W) into the view ``pixels`` (H, W, C).

    One colour plane at a time, in place, pixel * (1 - alpha) plus alpha * c:
    the products and the sum of the (H, W, 1) x (C,) broadcast (IEEE addition
    commutes), without its short runs.
    """
    keep = 1.0 - alpha
    for c, value in enumerate(_stroke_channels(stroke, pixels.shape[2])):
        plane = pixels[:, :, c]
        plane *= keep
        plane += alpha * value


def compose_over(canvas: Canvas, stroke: BezierStroke, alpha: np.ndarray | None = None
                 ) -> Canvas:
    """Alpha-composite one stroke into ``canvas`` in place; returns ``canvas``.

    Only the footprint window is painted; every other pixel would move by at
    most TAIL and is left as it is. Given the stroke's full-canvas coverage
    ``alpha``, the window is sliced from it instead of rasterized.
    """
    rows, cols = footprint_window(stroke.vector, canvas.height, canvas.width)
    if rows.start < rows.stop and cols.start < cols.stop:
        if alpha is None:
            window = coverage_batch(stroke.vector[None, :], rows.stop - rows.start,
                                    cols.stop - cols.start, origin=(rows.start, cols.start))[0]
        else:
            window = alpha[rows, cols]
        _blend(canvas.pixels[rows, cols], stroke, window)
    return canvas


def rasterize_stroke(stroke: BezierStroke, shape, channels: int = 3,
                     alpha: np.ndarray | None = None) -> tuple[Canvas, np.ndarray]:
    """Render one stroke over white; returns the canvas and its coverage map.

    Given the stroke's coverage ``alpha``, that is blended, not rasterized again.
    """
    canvas = Canvas.white(shape, channels)
    if alpha is None:
        alpha = coverage_batch(stroke.vector[None, :], canvas.height, canvas.width)[0]
    _blend(canvas.pixels, stroke, alpha)
    return canvas, alpha
