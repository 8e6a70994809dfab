"""Stroke model, curve evaluation, rasterization, and stroke generation."""

import numpy as np
import pytest

from strokecraft.errors import ConfigError, DataIOError, NumericalError
from strokecraft.metrics import alpha_iou, connected_regions, label_components
from strokecraft.strokes import generate
from strokecraft.strokes.generate import generate_visible_stroke
from strokecraft.strokes.model import (
    PARAM_COUNT,
    REFERENCE_SIDE,
    BezierStroke,
    ParamRanges,
    generate_random_stroke,
    load_strokes,
    max_opacity_equivalent,
    save_strokes,
)
from strokecraft.strokes.raster import coverage_batch, polyline_points, rasterize_stroke


def de_casteljau(pts, u):
    """Repeated linear interpolation; independent of the Bernstein form."""
    pts = [np.asarray(p, dtype=float) for p in pts]
    while len(pts) > 1:
        pts = [(1 - u) * a + u * b for a, b in zip(pts[:-1], pts[1:])]
    return pts[0]


def make_stroke(points, color=(30.0, 60.0, 90.0), opacity=0.8, width=3.0):
    return BezierStroke(np.concatenate([np.ravel(points), color, [opacity, width]]))


# --- curve evaluation ---

def spine(points, samples):
    """The rasterizer's samples of a cubic at evenly spaced u in [0, 1], (samples, 2)."""
    vector = np.concatenate([np.asarray(points, dtype=float).ravel(), np.zeros(5)])
    return polyline_points(vector[None], samples)[0]


def test_bezier_endpoints():
    start, end = spine([(1.0, 2.0), (5.0, -1.0), (9.0, 4.0), (12.0, 7.0)], 2)
    assert np.allclose(start, [1.0, 2.0])
    assert np.allclose(end, [12.0, 7.0])


def test_bezier_collinear_equally_spaced_midpoint():
    p0 = np.array([2.0, 3.0])
    p3 = np.array([14.0, 9.0])
    pts = [p0, p0 + (p3 - p0) / 3, p0 + 2 * (p3 - p0) / 3, p3]
    assert np.allclose(spine(pts, 3)[1], (p0 + p3) / 2)


def test_bezier_matches_de_casteljau():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = rng.uniform(-10, 40, size=(4, 2))
        for u, point in zip(np.linspace(0, 1, 17), spine(pts, 17)):
            assert np.allclose(point, de_casteljau(pts, u), atol=1e-12)


# --- parameter vector and ranges ---

def test_vector_has_thirteen_scalars_and_roundtrips(tmp_path):
    rng = np.random.default_rng(9)
    ranges = ParamRanges.for_canvas(64)
    strokes = [generate_random_stroke(rng, ranges) for _ in range(7)]
    assert all(s.vector.shape == (PARAM_COUNT,) for s in strokes)
    path = tmp_path / "strokes.json"
    save_strokes(path, strokes)
    loaded = load_strokes(path)
    assert len(loaded) == len(strokes)
    for a, b in zip(strokes, loaded):
        assert np.array_equal(a.vector, b.vector)


def test_load_strokes_rejects_malformed_files(tmp_path):
    bad_row = tmp_path / "short.json"
    bad_row.write_text("[[1, 2, 3]]")
    with pytest.raises(DataIOError):
        load_strokes(bad_row)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(DataIOError):
        load_strokes(garbage)
    long_int = tmp_path / "long.json"
    long_int.write_text("[[1" + "0" * 5000 + "]]")
    with pytest.raises(DataIOError):
        load_strokes(long_int)
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(DataIOError):
        load_strokes(scalar)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"[[\xff]]")
    with pytest.raises(DataIOError):
        load_strokes(latin)
    with pytest.raises(DataIOError):
        load_strokes(tmp_path / "missing.json")


def test_stroke_vector_validation():
    with pytest.raises(ConfigError):
        BezierStroke(np.zeros(12))
    bad = np.zeros(13)
    bad[3] = np.nan
    with pytest.raises(ConfigError):
        BezierStroke(bad)


def test_width_range_scales_to_small_canvas():
    ranges = ParamRanges.for_canvas(32)
    assert ranges.lo[12] == pytest.approx(6.0 * 32 / REFERENCE_SIDE)
    assert ranges.hi[12] == pytest.approx(106.0 * 32 / REFERENCE_SIDE)
    assert ranges.lo[12] == pytest.approx(0.65, abs=0.01)
    assert ranges.hi[12] == pytest.approx(11.5, abs=0.01)
    # colors and opacity keep their absolute ranges
    assert np.array_equal(ranges.lo[8:12], [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(ranges.hi[8:12], [255.0, 255.0, 255.0, 1.0])


def test_clamp_examples():
    ranges = ParamRanges.for_canvas(REFERENCE_SIDE)
    rng = np.random.default_rng(2)
    inside = rng.uniform(ranges.lo, ranges.hi)
    assert np.array_equal(ranges.clamp(inside), inside)
    vec = inside.copy()
    vec[11] = 1.5
    assert ranges.clamp(vec)[11] == 1.0
    vec[12] = -3.0
    assert ranges.clamp(vec)[12] == 6.0


def test_normalize_denormalize_roundtrip():
    ranges = ParamRanges.for_canvas(100)
    rng = np.random.default_rng(8)
    vec = rng.uniform(ranges.lo, ranges.hi)
    z = ranges.normalize(vec)
    assert np.all(z >= 0) and np.all(z <= 1)
    assert np.allclose(ranges.denormalize(z), vec, atol=1e-10)


def test_random_strokes_stay_in_range():
    rng = np.random.default_rng(6)
    ranges = ParamRanges.for_canvas(32)
    for _ in range(10_000):
        vector = generate_random_stroke(rng, ranges).vector
        assert np.all(vector >= ranges.lo) and np.all(vector <= ranges.hi)


def test_random_stroke_seed_determinism():
    ranges = ParamRanges.for_canvas(32)
    a = generate_random_stroke(np.random.default_rng(123), ranges)
    b = generate_random_stroke(np.random.default_rng(123), ranges)
    assert np.array_equal(a.vector, b.vector)


def test_canvas_side_must_be_positive():
    with pytest.raises(ConfigError):
        ParamRanges.for_canvas(0)


# --- opacity/color reparameterization ---

def test_max_opacity_equivalent_preserves_image():
    rng = np.random.default_rng(14)
    ranges = ParamRanges.for_canvas(32)
    for _ in range(10):
        stroke = generate_random_stroke(rng, ranges)
        twin = max_opacity_equivalent(stroke)
        assert twin.opacity == 1.0
        canvas_a, alpha_a = rasterize_stroke(stroke, (32, 32))
        canvas_b, alpha_b = rasterize_stroke(twin, (32, 32))
        assert np.allclose(canvas_a.pixels, canvas_b.pixels, atol=1e-12)
        # the coverage map itself scales with opacity
        assert np.allclose(alpha_b * stroke.opacity, alpha_a, atol=1e-12)


# --- rasterization ---

def test_rasterize_bounds_and_zero_opacity():
    stroke = make_stroke([(4, 4), (10, 6), (18, 8), (26, 24)], opacity=0.0)
    canvas, alpha = rasterize_stroke(stroke, (32, 32))
    assert np.array_equal(canvas.pixels, np.ones_like(canvas.pixels))
    assert np.array_equal(alpha, np.zeros_like(alpha))
    stroke = make_stroke([(4, 4), (10, 6), (18, 8), (26, 24)], opacity=0.9)
    canvas, alpha = rasterize_stroke(stroke, (32, 32))
    assert alpha.min() >= 0.0 and alpha.max() <= 1.0
    assert canvas.pixels.min() >= 0.0 and canvas.pixels.max() <= 1.0


def test_coverage_nonincreasing_with_distance():
    stroke = make_stroke([(2, 16), (12, 16), (20, 16), (30, 16)], width=4.0)
    alpha = rasterize_stroke(stroke, (32, 32))[1]
    column = alpha[16:, 16]  # walking straight away from the axis
    assert np.all(np.diff(column) <= 1e-12)


def test_degenerate_stroke_renders_a_disc():
    width, softness = 6.0, 0.8
    stroke = make_stroke([(16, 16)] * 4, opacity=1.0, width=width)
    alpha = coverage_batch(stroke.vector[None], 32, 32, softness=softness)[0]
    ys, xs = np.mgrid[0:32, 0:32]
    d = np.hypot(xs + 0.5 - 16.0, ys + 0.5 - 16.0)
    expected = 1.0 / (1.0 + np.exp(-(width / 2 - d) / softness))
    assert np.allclose(alpha, expected, atol=1e-9)


def test_straight_stroke_covered_area():
    # off the pixel-center grid so no pixel sits exactly on the threshold contour
    length, width, y = 45.0, 3.0, 32.25
    x0 = 9.2
    stroke = make_stroke(
        [(x0, y), (x0 + length / 3, y), (x0 + 2 * length / 3, y), (x0 + length, y)],
        opacity=1.0, width=width)
    alpha = coverage_batch(stroke.vector[None], 64, 64, softness=0.05)[0]
    count = int(np.count_nonzero(alpha >= 0.5))
    assert abs(count - length * width) / (length * width) <= 0.10
    # exact oracle: pixel centers within width/2 of the segment
    ys, xs = np.mgrid[0:64, 0:64]
    px = np.stack([xs + 0.5, ys + 0.5], axis=-1).astype(float)
    a = np.array([x0, y])
    b = np.array([x0 + length, y])
    t = np.clip(((px - a) @ (b - a)) / ((b - a) @ (b - a)), 0.0, 1.0)
    d = np.linalg.norm(px - (a + t[..., None] * (b - a)), axis=-1)
    assert count == int(np.count_nonzero(d <= width / 2))


def test_translation_equivariance_for_integer_shifts():
    base = np.array([(6.0, 8.0), (10.0, 14.0), (15.0, 9.0), (20.0, 18.0)])
    stroke = make_stroke(base, width=3.0)
    shifted = make_stroke(base + np.array([3.0, 2.0]), width=3.0)
    a = rasterize_stroke(stroke, (40, 40))[1]
    b = rasterize_stroke(shifted, (40, 40))[1]
    assert np.allclose(a[4:30, 4:30], b[6:32, 7:33], atol=1e-10)


def test_horizontal_flip_equivariance():
    side = 40
    base = np.array([(6.0, 8.0), (10.0, 14.0), (15.0, 9.0), (20.0, 18.0)])
    flipped = base.copy()
    flipped[:, 0] = side - flipped[:, 0]
    a = rasterize_stroke(make_stroke(base, width=3.0), (side, side))[1]
    b = rasterize_stroke(make_stroke(flipped, width=3.0), (side, side))[1]
    assert np.allclose(a, b[:, ::-1], atol=1e-10)


# --- visible stroke generation ---

def test_visible_stroke_meets_all_filters():
    rng = np.random.default_rng(31)
    for _ in range(5):
        stroke, canvas, alpha = generate_visible_stroke(rng, 32)
        crd = connected_regions(canvas.pixels)
        assert crd.region_count == 1
        core = alpha >= 0.5
        assert core.sum() >= 25
        _, core_count = label_components(core)
        assert core_count == 1
        _, twin_alpha = rasterize_stroke(max_opacity_equivalent(stroke), (32, 32))
        assert alpha_iou(alpha, twin_alpha) >= 0.9


def test_visible_stroke_determinism():
    a = generate_visible_stroke(np.random.default_rng(77), 32)
    b = generate_visible_stroke(np.random.default_rng(77), 32)
    assert np.array_equal(a[0].vector, b[0].vector)
    assert np.array_equal(a[2], b[2])


def test_visible_stroke_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(generate, "MIN_CORE_PIXELS", 10_000)
    monkeypatch.setattr(generate, "MAX_TRIES", 5)
    rng = np.random.default_rng(1)
    with pytest.raises(NumericalError):
        generate_visible_stroke(rng, 32)


def rasterizing_visible_stroke(rng, side, *, channels=3, identifiable_iou=0.9):
    """The sampler as it was before the opacity skip and the shared twin field:
    every draw is rasterized in full, and the twin is rendered on its own."""
    ranges = ParamRanges.for_canvas(side)
    shape = (side, side)
    for _ in range(generate.MAX_TRIES):
        stroke = generate_random_stroke(rng, ranges)
        canvas, alpha = rasterize_stroke(stroke, shape, channels=channels)
        core = alpha >= 0.5
        if int(core.sum()) < generate.MIN_CORE_PIXELS:
            continue
        _, core_count = label_components(core)
        if core_count != 1:
            continue
        if connected_regions(canvas.pixels).region_count != 1:
            continue
        if identifiable_iou is not None:
            _, twin_alpha = rasterize_stroke(max_opacity_equivalent(stroke), shape,
                                             channels=channels)
            if alpha_iou(alpha, twin_alpha) < identifiable_iou:
                continue
        return stroke, canvas, alpha
    raise NumericalError(f"no acceptable stroke after {generate.MAX_TRIES} draws")


@pytest.mark.parametrize("side", [16, 24, 32])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("identifiable_iou", [0.9, None])
def test_visible_stroke_equals_rasterizing_every_draw(side, channels, identifiable_iou):
    for seed in range(17):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stroke, canvas, alpha = generate_visible_stroke(
            rng, side, channels=channels, identifiable_iou=identifiable_iou)
        ref_stroke, ref_canvas, ref_alpha = rasterizing_visible_stroke(
            reference_rng, side, channels=channels, identifiable_iou=identifiable_iou)
        np.testing.assert_array_equal(stroke.vector, ref_stroke.vector)
        np.testing.assert_array_equal(canvas.pixels, ref_canvas.pixels)
        np.testing.assert_array_equal(alpha, ref_alpha)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_exhaustion_counts_skipped_draws(monkeypatch):
    monkeypatch.setattr(generate, "MIN_CORE_PIXELS", 10_000)
    monkeypatch.setattr(generate, "MAX_TRIES", 40)
    opacities = []

    def recording(rng, ranges):
        stroke = generate_random_stroke(rng, ranges)
        opacities.append(stroke.opacity)
        return stroke

    monkeypatch.setattr(generate, "generate_random_stroke", recording)
    rng, reference_rng = np.random.default_rng(1), np.random.default_rng(1)
    with pytest.raises(NumericalError):
        generate_visible_stroke(rng, 32)
    assert len(opacities) == 40
    assert any(o < 0.5 for o in opacities) and any(o >= 0.5 for o in opacities)
    with pytest.raises(NumericalError):
        rasterizing_visible_stroke(reference_rng, 32)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
