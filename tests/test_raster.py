"""Rasterizer fast paths against the slow paths they replace.

The tiled distance field must equal a single pass over all segments to the
bit, also when calls of different shapes take turns with the kept scratch
buffers, coverage of a batch whose rows share geometry must equal one call per
row to the bit, and the windowed compositing must equal full-canvas
compositing to the bit inside the footprint window and within TAIL outside,
painting into the canvas it is given with no whole-canvas copy.
The window is the drawn polyline's grown box, so it sits inside the grown
control-point box of a stroke whose control points overshoot its curve, and
the colour planes blended one at a time carry the bits of the broadcast blend.
The visible-stroke sampler's shortcuts rest on two facts checked here: a draw
whose opacity is below 0.5 has no pixel at coverage 0.5, and a stroke and its
opacity-maximised twin rendered in one call are bit-equal to two renders.
The per-grid constants the rasterizer caches (Bernstein weights per sample
count, pixel centers per window) must give the bits of the plain expression,
never leak into a returned array, and stay bounded however many windows
compositing asks for.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from strokecraft.errors import ConfigError
from strokecraft.strokes import fit_stroke, generate_visible_stroke
from strokecraft.strokes import fitting, raster
from strokecraft.strokes.canvas import Canvas
from strokecraft.strokes.model import (
    BezierStroke,
    ParamRanges,
    generate_random_stroke,
    max_opacity_equivalent,
)
from strokecraft.strokes.raster import (
    TAIL,
    compose_over,
    coverage_batch,
    distance_field_batch,
    footprint_window,
    polyline_points,
    rasterize_stroke,
)


def single_pass_field(poly, height, width, origin=(0, 0)):
    """The distance field as one (B, S-1, H, W) array, reduced once."""
    a = poly[:, :-1]
    seg = poly[:, 1:] - a
    len2 = np.sum(seg * seg, axis=-1)
    xs = np.arange(width, dtype=np.float64) + origin[1] + 0.5
    ys = np.arange(height, dtype=np.float64) + origin[0] + 0.5
    px = xs[None, None, None, :]
    py = ys[None, None, :, None]
    dx0 = px - a[:, :, 0, None, None]
    dy0 = py - a[:, :, 1, None, None]
    dot = dx0 * seg[:, :, 0, None, None] + dy0 * seg[:, :, 1, None, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(len2[:, :, None, None] > 0.0, dot / len2[:, :, None, None], 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx = dx0 - t * seg[:, :, 0, None, None]
    cy = dy0 - t * seg[:, :, 1, None, None]
    d2 = cx * cx + cy * cy
    return np.sqrt(d2.min(axis=1))


def single_pass_coverage(vectors, height, width, samples, softness, origin=(0, 0)):
    """Coverage over single_pass_field, one row at a time, with no kept buffer."""
    dist = np.concatenate([single_pass_field(polyline_points(v[None], samples), height, width,
                                             origin) for v in vectors])
    half_width = vectors[:, 12, None, None] / 2.0
    opacity = np.clip(vectors[:, 11, None, None], 0.0, 1.0)
    z = (half_width - dist) / softness
    return opacity / (1.0 + np.exp(-z))


def full_canvas_compose(base, stroke):
    """Composite over every pixel of the canvas, as before the window."""
    alpha = rasterize_stroke(stroke, (base.height, base.width))[1][:, :, None]
    color = raster._stroke_channels(stroke, base.channels)
    return alpha * color + (1.0 - alpha) * base.pixels


def random_vectors(seed, count, side):
    rng = np.random.default_rng(seed)
    ranges = ParamRanges.for_canvas(side)
    return np.stack([generate_random_stroke(rng, ranges).vector for _ in range(count)])


def per_row_coverage(vectors, height, width, samples, softness):
    """Coverage rendered one stroke at a time, so no row shares a field."""
    return np.concatenate([coverage_batch(v[None], height, width, samples, softness)
                           for v in vectors])


def probe_batches(z, side, iterations=3):
    """The (24, 13) batches one _descend run scores, recorded as they are rendered."""
    _, target, _ = generate_visible_stroke(np.random.default_rng(31), side)
    ranges = ParamRanges.for_canvas(side)
    batches = []

    def recording(vectors, *args, **kwargs):
        batches.append(np.array(vectors))
        return coverage_batch(vectors, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "coverage_batch", recording)
        fitting._descend(z.copy(), ranges, target.pixels, ranges, target.pixels, 1.6,
                         iterations, np.inf, z.copy(), [])
    return [b for b in batches if len(b) > 1]


class TestChunkedDistanceField:
    @pytest.mark.parametrize("budget", [1, 250, 700, 5_000, 2**13, 2**18, 2**30])
    def test_bit_equal_to_a_single_pass(self, budget, monkeypatch):
        monkeypatch.setattr(raster, "CHUNK_ELEMENTS", budget)
        for count, side in [(3, 20), (17, 16), (24, 32)]:
            poly = polyline_points(random_vectors(1, count, side), 17)
            np.testing.assert_array_equal(distance_field_batch(poly, side, side),
                                          single_pass_field(poly, side, side))

    @pytest.mark.parametrize("count, height, width", [(1, 32, 32), (24, 16, 16), (24, 32, 32),
                                                      (5, 7, 130), (2, 120, 120)])
    @pytest.mark.parametrize("budget", [1, 250, 2**13])
    def test_temporaries_stay_within_the_budget(self, count, height, width, budget,
                                                monkeypatch):
        monkeypatch.setattr(raster, "CHUNK_ELEMENTS", budget)
        sizes = []
        kernel = raster._squared_distances

        def spy(*args):
            squared = kernel(*args)
            sizes.append(squared.size)
            return squared

        monkeypatch.setattr(raster, "_squared_distances", spy)
        poly = polyline_points(random_vectors(2, count, max(height, width)), 24)
        distance_field_batch(poly, height, width)
        assert sum(sizes) == count * 23 * height * width
        assert max(sizes) <= max(budget, height * width)

    def test_zero_length_segments_are_point_distances(self, monkeypatch):
        monkeypatch.setattr(raster, "CHUNK_ELEMENTS", 3 * 12 * 12)
        vectors = random_vectors(2, 2, 12)
        vectors[0, :8] = np.tile([5.25, 7.5], 4)  # a single point
        vectors[1, 2:6] = vectors[1, 0:2].tolist() * 2  # repeated start point
        poly = polyline_points(vectors, 9)
        got = distance_field_batch(poly, 12, 12)
        np.testing.assert_array_equal(got, single_pass_field(poly, 12, 12))
        ys, xs = np.mgrid[0:12, 0:12] + 0.5
        np.testing.assert_allclose(got[0], np.hypot(xs - 5.25, ys - 7.5), atol=1e-12)

    @pytest.mark.parametrize("budget", [50, 2**18])
    def test_origin_shifts_the_pixel_grid(self, budget, monkeypatch):
        monkeypatch.setattr(raster, "CHUNK_ELEMENTS", budget)
        poly = polyline_points(random_vectors(3, 2, 40), 12)
        window = distance_field_batch(poly, 9, 14, origin=(17, 5))
        np.testing.assert_array_equal(window, single_pass_field(poly, 9, 14, (17, 5)))
        np.testing.assert_array_equal(window, distance_field_batch(poly, 40, 40)[:, 17:26, 5:19])

    def test_coverage_passes_the_origin_through(self):
        vectors = random_vectors(4, 2, 30)
        window = coverage_batch(vectors, 6, 11, 16, 0.8, origin=(20, 3))
        np.testing.assert_array_equal(window, coverage_batch(vectors, 30, 30, 16, 0.8)[:, 20:26, 3:14])


def scratch_call_shapes():
    """Fitting's probe, acceptance and polish calls and a compose window on a 256² canvas."""
    probe = np.concatenate([random_vectors(11, 17, 16), random_vectors(12, 7, 16)])
    probe[17:, :8] = probe[:7, :8]  # 17 geometries in 24 rows, as _descend makes
    polish = probe.copy()
    polish[:, :8] *= 2.0
    paint = random_vectors(13, 1, 256)
    rows, cols = footprint_window(paint[0], 256, 256)
    window = (rows.stop - rows.start, cols.stop - cols.start)
    return {
        "probe": (probe, 16, 16, 24, 1.6, (0, 0)),
        "acceptance": (random_vectors(14, 1, 32), 32, 32, 24, 0.8, (0, 0)),
        "window": (paint, *window, raster.DEFAULT_SAMPLES, raster.DEFAULT_SOFTNESS,
                   (rows.start, cols.start)),
        "polish": (polish, 32, 32, 24, 1.6, (0, 0)),
    }


class TestScratchBuffers:
    def test_interleaved_shapes_match_a_fresh_single_pass(self):
        calls = scratch_call_shapes()
        window_pixels = np.prod(calls["window"][1:3])
        # the window needs more than one segment chunk
        assert window_pixels * (raster.DEFAULT_SAMPLES - 1) > raster.CHUNK_ELEMENTS
        expected = {name: single_pass_coverage(*call) for name, call in calls.items()}
        for name in ["probe", "acceptance", "window", "probe", "polish", "acceptance",
                     "probe"]:
            vectors, height, width, samples, softness, origin = calls[name]
            got = coverage_batch(vectors, height, width, samples, softness, origin=origin)
            np.testing.assert_array_equal(got, expected[name], err_msg=name)

    def test_buffers_are_kept_and_stay_within_the_budget(self):
        calls = scratch_call_shapes()
        with pytest.MonkeyPatch.context() as patch:  # leave buffers above the budget
            patch.setattr(raster, "CHUNK_ELEMENTS", 2**22)
            coverage_batch(*calls["polish"][:5])
        assert raster._scratch[0].size > raster.CHUNK_ELEMENTS
        kept = None
        for repeat in range(3):
            for vectors, height, width, samples, softness, origin in calls.values():
                coverage_batch(vectors, height, width, samples, softness, origin=origin)
                assert len(raster._scratch) == 2
                assert all(buffer.size <= max(raster.CHUNK_ELEMENTS, height * width)
                           for buffer in raster._scratch)
            if repeat == 0:  # grown to the largest request by now
                kept = list(raster._scratch)
            assert all(now is then for now, then in zip(raster._scratch, kept))

    def test_blocks_above_the_budget_take_fresh_arrays(self, monkeypatch):
        calls = scratch_call_shapes()
        vectors, height, width, samples, softness, origin = calls["acceptance"]
        coverage_batch(*calls["probe"][:5])
        kept = list(raster._scratch)
        monkeypatch.setattr(raster, "CHUNK_ELEMENTS", height * width - 1)
        got = coverage_batch(vectors, height, width, samples, softness)
        assert all(now is then for now, then in zip(raster._scratch, kept))
        np.testing.assert_array_equal(got, single_pass_coverage(vectors, height, width,
                                                                samples, softness))


class TestSharedGeometry:
    @pytest.mark.parametrize("fill", [0.5, 0.0, 1.0])
    def test_descend_probe_batches_match_one_call_per_row(self, fill, monkeypatch):
        z = np.random.default_rng(8).uniform(0.2, 0.8, size=13)
        if fill != 0.5:  # clip the probes of half the coordinates, so some coincide
            z[::2] = fill
        batches = probe_batches(z, 16)
        assert len(batches) == 3
        fields = []
        field = raster.distance_field_batch

        def counting(poly, *args, **kwargs):
            fields.append(len(poly))
            return field(poly, *args, **kwargs)

        monkeypatch.setattr(raster, "distance_field_batch", counting)
        for vectors in batches:
            fields.clear()
            shared = coverage_batch(vectors, 16, 16, 24, 1.6)
            assert fields == [len(np.unique(vectors[:, :8], axis=0))]
            assert fields[0] == 17 if fill == 0.5 else fields[0] < 17
            np.testing.assert_array_equal(shared, per_row_coverage(vectors, 16, 16, 24, 1.6))

    def test_repeated_rows_with_zero_length_segments(self):
        vectors = random_vectors(9, 6, 20)
        vectors[0, :8] = np.tile([5.25, 7.5], 4)  # a single point
        vectors[1, 2:6] = vectors[1, 0:2].tolist() * 2  # repeated start point
        batch = vectors[[0, 1, 2, 0, 1, 3, 0, 4, 1, 5]].copy()
        batch[:, 8:] = random_vectors(10, 10, 20)[:, 8:]  # own colour, opacity and width
        shared = coverage_batch(batch, 20, 20, 9, 0.8)
        assert np.isfinite(shared).all()
        np.testing.assert_array_equal(shared, per_row_coverage(batch, 20, 20, 9, 0.8))

    def test_repeats_and_signed_zeros_match_one_call_per_row(self, monkeypatch):
        vectors = random_vectors(15, 4, 20)
        vectors[0, [0, 3]] = 0.0
        vectors[1] = vectors[0]
        vectors[1, [0, 3]] = -0.0  # equal to row 0, but not in its bytes
        batch = vectors[[0, 1, 2, 0, 3, 1, 2, 0]].copy()
        batch[:, 8:] = random_vectors(16, 8, 20)[:, 8:]
        fields = []
        field = raster.distance_field_batch

        def counting(poly, *args, **kwargs):
            fields.append(len(poly))
            return field(poly, *args, **kwargs)

        monkeypatch.setattr(raster, "distance_field_batch", counting)
        shared = coverage_batch(batch, 20, 20, 9, 0.8)
        assert fields[0] == 4
        np.testing.assert_array_equal(shared, per_row_coverage(batch, 20, 20, 9, 0.8))


class TestFootprintWindow:
    def make(self, points, width=4.0, color=(200, 40, 90), opacity=0.9):
        return BezierStroke(np.array([*points, *color, opacity, width], dtype=float))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_random_strokes_match_the_full_canvas(self, channels, seed):
        rng = np.random.default_rng(seed)
        side = 96
        base = Canvas(rng.uniform(size=(side, side, channels)))
        for vector in random_vectors(seed, 4, side):
            vector[:8] *= 0.3  # smaller strokes, so the window is a true sub-box
            stroke = BezierStroke(vector)
            reference = full_canvas_compose(base, stroke)
            got = compose_over(base, stroke).pixels
            rows, cols = footprint_window(stroke.vector, side, side)
            np.testing.assert_array_equal(got[rows, cols], reference[rows, cols])
            assert np.abs(got - reference).max() <= TAIL
            base = Canvas(got)

    def test_window_is_the_grown_control_box(self):
        stroke = self.make([60.0, 70.0, 64.0, 72.0, 68.0, 71.0, 72.0, 75.0], width=4.0)
        margin = 2.0 + 0.8 * np.log(1.0 / TAIL)
        rows, cols = footprint_window(stroke.vector, 200, 300)
        assert (cols.start, cols.stop) == (int(np.floor(60 - margin)), int(np.ceil(72 + margin)))
        assert (rows.start, rows.stop) == (int(np.floor(70 - margin)), int(np.ceil(75 + margin)))
        got = compose_over(Canvas(np.full((200, 300, 3), 0.25)), stroke).pixels
        assert (got[:, :cols.start] == 0.25).all() and (got[:, cols.stop:] == 0.25).all()
        assert (got[:rows.start] == 0.25).all() and (got[rows.stop:] == 0.25).all()
        assert not (got[rows, cols] == 0.25).all()

    @pytest.mark.parametrize("channels", [1, 3])
    def test_strokes_touching_the_edges(self, channels):
        base = Canvas(np.linspace(0, 1, 64 * 64 * channels).reshape(64, 64, channels))
        for points in ([-3.0, 2.0, 10.0, -4.0, 30.0, 1.0, 66.0, 3.0],
                       [62.0, -2.0, 63.0, 20.0, 60.0, 40.0, 65.0, 66.0],
                       [0.0, 63.5, 20.0, 64.0, 40.0, 65.0, 63.9, 64.0]):
            stroke = self.make(points, width=3.0)
            reference = full_canvas_compose(base, stroke)
            got = compose_over(base, stroke).pixels
            rows, cols = footprint_window(stroke.vector, 64, 64)
            np.testing.assert_array_equal(got[rows, cols], reference[rows, cols])
            assert np.abs(got - reference).max() <= TAIL

    def test_off_canvas_stroke_leaves_the_canvas_unchanged(self):
        base = Canvas(np.full((40, 40, 3), 0.5))
        stroke = self.make([150.0, 150.0, 160.0, 155.0, 170.0, 150.0, 180.0, 160.0])
        rows, cols = footprint_window(stroke.vector, 40, 40)
        assert rows.start >= rows.stop and cols.start >= cols.stop
        before = base.pixels.copy()
        reference = full_canvas_compose(base, stroke)
        got = compose_over(base, stroke)
        assert got is base
        np.testing.assert_array_equal(got.pixels, before)
        assert np.abs(reference - got.pixels).max() <= TAIL

    def test_paints_into_the_given_canvas_without_copying_it(self):
        side = 512
        base = Canvas(np.random.default_rng(512).uniform(size=(side, side, 3)))
        stroke = self.make([250.0, 250.0, 254.0, 252.0, 258.0, 251.0, 262.0, 255.0], width=3.0)
        rows, cols = footprint_window(stroke.vector, side, side)
        outside = np.ones((side, side), dtype=bool)
        outside[rows, cols] = False
        assert outside.mean() > 0.95
        compose_over(base, stroke)  # warms the scratch buffers and the caches
        before = base.pixels.copy()
        reference = full_canvas_compose(base, stroke)
        tracemalloc.start()
        try:
            got = compose_over(base, stroke)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is base
        np.testing.assert_array_equal(got.pixels[outside], before[outside])
        np.testing.assert_array_equal(got.pixels[rows, cols], reference[rows, cols])
        assert peak < base.pixels.nbytes / 10


def control_box_window(vector, height, width):
    """The footprint window as the grown box of the four control points."""
    points = vector[:8].reshape(4, 2)
    margin = vector[12] / 2.0 + raster.DEFAULT_SOFTNESS * np.log(1.0 / TAIL)
    lo = np.floor(points.min(axis=0) - margin)
    hi = np.ceil(points.max(axis=0) + margin)
    return (slice(int(max(lo[1], 0)), int(min(hi[1], height))),
            slice(int(max(lo[0], 0)), int(min(hi[0], width))))


class TestDrawnPolylineWindow:
    SIDE = 160
    # control points that overshoot the curve: the S-curve's above and below
    # it, the hook's to the right of it and below it
    CURVES = {
        "s-curve": [40.0, 80.0, 120.0, 20.0, 40.0, 140.0, 120.0, 80.0],
        "hook": [30.0, 30.0, 130.0, 30.0, 130.0, 110.0, 60.0, 100.0],
    }

    # sub-pixel shifts, so that on each side some shift puts the window's last
    # pixel center closer to the curve than the margin
    @pytest.mark.parametrize("shift", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("name", sorted(CURVES))
    @pytest.mark.parametrize("channels", [1, 3])
    def test_window_inside_the_control_box_keeps_the_tail_bound(self, name, shift, channels):
        side = self.SIDE
        vector = np.array([*self.CURVES[name], 200.0, 40.0, 90.0, 0.9, 4.0])
        vector[:8] += shift
        stroke = BezierStroke(vector)
        rows, cols = footprint_window(vector, side, side)
        box_rows, box_cols = control_box_window(vector, side, side)
        assert box_rows.start <= rows.start < rows.stop <= box_rows.stop
        assert box_cols.start <= cols.start < cols.stop <= box_cols.stop
        assert (rows.stop - rows.start) * (cols.stop - cols.start) < (
            (box_rows.stop - box_rows.start) * (box_cols.stop - box_cols.start))
        if name == "s-curve":
            assert box_rows.start < rows.start and rows.stop < box_rows.stop
        else:
            assert cols.stop < box_cols.stop and rows.stop < box_rows.stop

        outside = np.ones((side, side), dtype=bool)
        outside[rows, cols] = False
        coverage = coverage_batch(vector[None], side, side)[0]
        assert coverage[outside].max() < stroke.opacity * TAIL

        base = Canvas(np.random.default_rng(channels).uniform(size=(side, side, channels)))
        reference, before = full_canvas_compose(base, stroke), base.pixels.copy()
        got = compose_over(base, stroke).pixels
        np.testing.assert_array_equal(got[rows, cols], reference[rows, cols])
        np.testing.assert_array_equal(got[outside], before[outside])


class TestPlaneBlend:
    @staticmethod
    def broadcast_blend(pixels, stroke, alpha):
        """The blend as one (H, W, 1) x (C,) broadcast."""
        alpha = alpha[:, :, None]
        return alpha * raster._stroke_channels(stroke, pixels.shape[2]) + (1.0 - alpha) * pixels

    @pytest.mark.parametrize("channels", [1, 3])
    def test_bit_equal_to_the_broadcast_blend(self, channels):
        rng = np.random.default_rng(70 + channels)
        canvas = rng.uniform(size=(80, 96, channels))
        coverage = rng.uniform(size=(80, 96))
        coverage[::9] = 0.0
        coverage[:, ::13] = 1.0
        views = [(slice(None), slice(None)), (slice(1, None, 2), slice(None, None, 3))]
        for _ in range(12):
            top, left = rng.integers(0, 60), rng.integers(0, 70)
            views.append((slice(top, top + rng.integers(1, 21)),
                          slice(left, left + rng.integers(1, 27))))
        for rows, cols in views:
            stroke = BezierStroke(np.array([*rng.uniform(0, 30, 8), *rng.uniform(0, 255, 3),
                                            rng.uniform(), 3.0]))
            for pixels, alpha in [(canvas[rows, cols], coverage[rows, cols]),
                                  (canvas[rows, cols].transpose(1, 0, 2), coverage[rows, cols].T),
                                  (canvas[rows, cols, ::-1], coverage[rows, cols])]:
                expected = self.broadcast_blend(pixels, stroke, alpha)
                assert raster._blend(pixels, stroke, alpha) is None
                np.testing.assert_array_equal(pixels.view(np.int64), expected.view(np.int64))


class TestRenderedCoverage:
    """Coverage handed to a renderer gives the bits of rendering it there."""

    @pytest.mark.parametrize("channels", [1, 3])
    def test_compose_over_slices_the_given_coverage(self, channels):
        side = 48
        rng = np.random.default_rng(channels)
        base = Canvas(rng.uniform(size=(side, side, channels)))
        vectors = random_vectors(channels + 20, 12, side)
        vectors[:4, :8] *= 0.3  # windows that are true sub-boxes
        vectors[4:6, :8] += 3.0 * side  # windows that are empty
        for vector in vectors:
            stroke = BezierStroke(vector)
            alpha = coverage_batch(vector[None], side, side)[0]
            canvas = base.copy()
            got = compose_over(canvas, stroke, alpha)
            assert got is canvas
            np.testing.assert_array_equal(got.pixels, compose_over(base.copy(), stroke).pixels)
            base = got

    @pytest.mark.parametrize("channels", [1, 3])
    def test_rasterize_stroke_blends_the_given_coverage(self, channels):
        for vector in random_vectors(channels + 30, 6, 24):
            stroke = BezierStroke(vector)
            canvas, alpha = rasterize_stroke(stroke, 24, channels)
            given_canvas, given_alpha = rasterize_stroke(stroke, 24, channels, alpha=alpha)
            assert given_alpha is alpha
            np.testing.assert_array_equal(given_canvas.pixels, canvas.pixels)


class TestVisibleStrokeShortcuts:
    @pytest.mark.parametrize("side", [16, 32])
    def test_opacity_below_one_half_never_reaches_the_core(self, side):
        rng = np.random.default_rng(side)
        vectors = random_vectors(side + 1, 400, side)
        # widths up to four canvases, so the sigmoid saturates to exactly 1
        vectors[:, 12] = np.exp(rng.uniform(np.log(0.05), np.log(4.0 * side), 400))
        vectors[:200, 11] = np.nextafter(0.5, 0.0)
        vectors[200:, 11] = rng.uniform(0.0, 0.5, 200)
        coverage = coverage_batch(vectors, side, side)
        assert coverage.max() < 0.5
        assert coverage[:200].max() == np.nextafter(0.5, 0.0)

    def test_opacity_one_half_can_reach_the_core(self):
        # why the sampler skips only opacity < 0.5: a wide stroke at exactly
        # 0.5 has core pixels, so it must still be rasterized and judged
        stroke = BezierStroke(np.array([2.0, 8.0, 6.0, 8.0, 10.0, 8.0, 14.0, 8.0,
                                        0.0, 0.0, 0.0, 0.5, 200.0]))
        alpha = rasterize_stroke(stroke, (16, 16))[1]
        assert alpha.max() == 0.5
        assert (alpha >= 0.5).sum() > 0

    def test_stroke_and_twin_in_one_call_equal_two_renders(self):
        rng = np.random.default_rng(41)
        for side in (16, 24, 32):
            ranges = ParamRanges.for_canvas(side)
            for _ in range(167):
                stroke = generate_random_stroke(rng, ranges)
                twin = max_opacity_equivalent(stroke)
                pair = coverage_batch(np.stack([stroke.vector, twin.vector]), side, side)
                np.testing.assert_array_equal(pair[0], rasterize_stroke(stroke, side)[1])
                np.testing.assert_array_equal(pair[1], rasterize_stroke(twin, side)[1])


def plain_polyline_points(vectors, samples):
    """The Bernstein sum as one expression, its weights rebuilt on every call."""
    pts = vectors[:, :8].reshape(-1, 4, 2)
    u = np.linspace(0.0, 1.0, samples)[None, :, None]
    v = 1.0 - u
    return (
        v**3 * pts[:, None, 0]
        + 3.0 * v**2 * u * pts[:, None, 1]
        + 3.0 * v * u**2 * pts[:, None, 2]
        + u**3 * pts[:, None, 3]
    )


class TestCachedConstants:
    @pytest.mark.parametrize("samples", [2, 9, 24, 64])
    def test_polyline_points_equal_the_plain_expression(self, samples):
        vectors = random_vectors(samples, 17, 40)
        vectors[0, :8] = [-0.0, 0.0, 1e-300, -1e300, 5.5, -0.0, 3.25, 7.0]
        expected = plain_polyline_points(vectors, samples)
        for _ in range(2):  # a cold cache, then a warm one
            got = polyline_points(vectors, samples)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
            assert not any(np.shares_memory(got, weight)
                           for weight in raster._bernstein_weights(samples))
            got[:] = np.nan  # the caller owns the array; the cache is untouched
        np.testing.assert_array_equal(polyline_points(vectors, samples), expected)

    def test_cached_constants_are_read_only(self):
        arrays = [*raster._bernstein_weights(24), *raster._pixel_centers(16, 16, (0, 0))]
        assert not any(array.flags.writeable for array in arrays)

    def test_caches_stay_bounded_over_many_windows(self):
        rng = np.random.default_rng(23)
        side = 96
        canvas = Canvas.white((side, side), channels=3)
        windows = set()
        for _ in range(200):
            vector = random_vectors(int(rng.integers(2**31)), 1, side)[0]
            vector[:8] = vector[:8] * rng.uniform(0.05, 0.4) + rng.uniform(0, side * 0.6)
            stroke = BezierStroke(vector)
            rows, cols = footprint_window(stroke.vector, side, side)
            windows.add((rows.stop - rows.start, cols.stop - cols.start, rows.start, cols.start))
            reference = full_canvas_compose(canvas, stroke)
            got = compose_over(canvas, stroke).pixels
            np.testing.assert_array_equal(got[rows, cols], reference[rows, cols])
        assert len(windows) > 150
        for cache in (raster._pixel_centers, raster._bernstein_weights):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize <= 16


def test_unbuffered_rows_restore_the_buffer_size(monkeypatch):
    # numpy 1.x's errstate leaves the buffer size as it finds it on exit
    monkeypatch.setattr(np, "errstate", lambda **kwargs: contextlib.nullcontext())
    before = np.getbufsize()
    with raster._unbuffered_rows():
        assert np.getbufsize() == raster._ROW_BUFFER
    assert np.getbufsize() == before
    with pytest.raises(ZeroDivisionError), raster._unbuffered_rows():
        1 / 0
    assert np.getbufsize() == before
    coverage_batch(random_vectors(12, 3, 8), 8, 8)
    assert np.getbufsize() == before


def test_coverage_rejects_bad_samples_and_softness():
    vectors = random_vectors(12, 2, 8)
    for samples, softness in [(1, 0.8), (24, 0.0), (24, -0.5)]:
        with pytest.raises(ConfigError):
            coverage_batch(vectors, 8, 8, samples, softness)


def test_fit_of_a_gate_09_target_is_unchanged(cpu_features):
    _, canvas, _ = generate_visible_stroke(np.random.default_rng(900), 32)
    result = fit_stroke(canvas)
    expected = [
        "0x1.40affbf53ed84p+4", "0x1.bac73e497f530p+4", "0x1.a4473e61e8a80p+1",
        "0x1.0c21fe826d09cp+4", "0x1.2770c476cad19p+3", "0x1.1d38ee46e9d70p+4",
        "0x1.a822928b71a76p+4", "0x1.1d3d67710afccp+3", "0x1.61c69b390b2d6p+7",
        "0x1.7b49446c96813p+4", "0x1.64f6570c161cap+5", "0x1.0000000000000p+0",
        "0x1.7b8b237d2f9a0p+2",
    ]
    assert [float(v).hex() for v in result.stroke.vector] == expected
    # the coverage sigmoid's np.exp rounds its last bits apart in numpy's AVX-512 loop
    loss = ("0x1.1a562379669f2p-15"
            if cpu_features.get("AVX512_SKX") else "0x1.1a562379669e9p-15")
    assert float(result.loss).hex() == loss

