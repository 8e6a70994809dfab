"""Command line harness: every subcommand, exit codes, and replay fidelity."""

import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from strokecraft import cli, nn
from strokecraft.cli import (
    BYTE_REGION_DRAWS,
    build_parser,
    flip_stroke_x,
    flip_stroke_y,
    main,
    rotate_stroke_ccw,
)
from strokecraft.diffusion import GaussianMoments, smr_posterior_moments
from strokecraft.errors import NumericalError
from strokecraft.manifest import RunManifest
from strokecraft.metrics import connected_regions, mse
from strokecraft.painting import StrokePredictor, layered_paint
from strokecraft.pixmap import quantize, read_pixmap, write_pixmap
from strokecraft.strokes.canvas import Canvas
from strokecraft.strokes.generate import generate_visible_stroke
from strokecraft.strokes.model import PARAM_COUNT, load_strokes
from strokecraft.strokes.raster import rasterize_stroke


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def file_bytes(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


README = Path(__file__).resolve().parents[1] / "README.md"


def src_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def drop_header_key(source, dest, key):
    """Copy a checkpoint with one architecture key removed from its header."""
    header, params = nn.load_checkpoint(source)
    del header[key]
    nn.save_checkpoint(dest, header, params)


def set_header_key(source, dest, key, value):
    """Copy a checkpoint with one header value replaced."""
    header, params = nn.load_checkpoint(source)
    header[key] = value
    nn.save_checkpoint(dest, header, params)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset and small trained checkpoints, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--count", "3", "--canvas-size", "32",
                 "--seed", "5", "--out", str(root / "data")]) == 0
    assert main(["gen-data", "--count", "4", "--canvas-size", "16", "--gray",
                 "--seed", "9", "--out", str(root / "data16")]) == 0
    assert main(["train-diffusion", "--data", str(root / "data16"), "--steps", "16",
                 "--epochs", "3", "--prior-pairs", "2", "--seed", "2",
                 "--out", str(root / "dtrain")]) == 0
    assert main(["train-predictor", "--canvas-size", "32", "--min-strokes", "1",
                 "--max-strokes", "2", "--slots", "3", "--epochs", "3",
                 "--scenes-per-epoch", "2", "--holdout-scenes", "2",
                 "--seed", "6", "--out", str(root / "ptrain")]) == 0
    return root


class TestAugmentations:
    def render(self, vector, side):
        from strokecraft.strokes.model import BezierStroke

        return rasterize_stroke(BezierStroke(vector), side)[0].pixels

    # reflected coordinates reorder the distance arithmetic, so the
    # renders agree to rounding rather than bit for bit
    def test_horizontal_flip_matches_flipped_pixels(self):
        stroke, canvas, _ = generate_visible_stroke(np.random.default_rng(3), 24)
        got = self.render(flip_stroke_x(stroke.vector, 24), 24)
        np.testing.assert_allclose(got, np.flip(canvas.pixels, axis=1), atol=1e-12)

    def test_vertical_flip_matches_flipped_pixels(self):
        stroke, canvas, _ = generate_visible_stroke(np.random.default_rng(4), 24)
        got = self.render(flip_stroke_y(stroke.vector, 24), 24)
        np.testing.assert_allclose(got, np.flip(canvas.pixels, axis=0), atol=1e-12)

    def test_quarter_turn_matches_rotated_pixels(self):
        stroke, canvas, _ = generate_visible_stroke(np.random.default_rng(5), 24)
        got = self.render(rotate_stroke_ccw(stroke.vector, 24), 24)
        np.testing.assert_allclose(got, np.rot90(canvas.pixels, axes=(0, 1)), atol=1e-12)

    def test_four_turns_is_identity(self):
        stroke, _, _ = generate_visible_stroke(np.random.default_rng(6), 24)
        vec = stroke.vector
        for _ in range(4):
            vec = rotate_stroke_ccw(vec, 24)
        np.testing.assert_allclose(vec, stroke.vector, atol=1e-12)

    @staticmethod
    def rendering_every_draw(rng, side, channels, config):
        """gen-data's draw as it was: every draw rendered again when either flag is set."""
        from strokecraft.strokes.model import BezierStroke

        for _ in range(BYTE_REGION_DRAWS):
            stroke, canvas, _ = generate_visible_stroke(rng, side, channels=channels)
            vec = stroke.vector
            if config["flips"]:
                if rng.integers(2):
                    vec = flip_stroke_x(vec, side)
                if rng.integers(2):
                    vec = flip_stroke_y(vec, side)
            if config["rotations"]:
                for _ in range(int(rng.integers(4))):
                    vec = rotate_stroke_ccw(vec, side)
            stroke = BezierStroke(vec)
            canvas, _ = rasterize_stroke(stroke, side, channels=channels)
            image = quantize(canvas.pixels)
            if connected_regions(image / 255.0).region_count == 1:
                return stroke, image
        raise NumericalError("no stroke stayed one region")

    @pytest.mark.parametrize("flips, rotations", [(True, True), (True, False), (False, True)])
    def test_only_moved_strokes_are_rendered_again(self, flips, rotations, monkeypatch):
        config = {"flips": flips, "rotations": rotations}
        draws, renders = [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        for seed in range(16):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "generate_visible_stroke",
                              counted(draws, generate_visible_stroke))
                patch.setattr(cli, "rasterize_stroke", counted(renders, rasterize_stroke))
                stroke, image = cli._draw_augmented(rng, 16, 1, config)
            ref_stroke, ref_image = self.rendering_every_draw(reference_rng, 16, 1, config)
            np.testing.assert_array_equal(stroke.vector, ref_stroke.vector)
            np.testing.assert_array_equal(image, ref_image)
            assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert 0 < len(renders) < len(draws)


class TestGenData:
    def test_images_match_their_parameters(self, workspace):
        strokes = load_strokes(workspace / "data" / "params.json")
        assert len(strokes) == 3
        for i, stroke in enumerate(strokes):
            written = read_pixmap(workspace / "data" / f"stroke_{i:03d}.ppm")
            rendered, _ = rasterize_stroke(stroke, 32)
            np.testing.assert_array_equal(quantize(written.pixels),
                                          quantize(rendered.pixels))

    def test_augmented_run_still_matches_parameters(self, tmp_path):
        out = tmp_path / "aug"
        assert main(["gen-data", "--count", "2", "--canvas-size", "24", "--flips",
                     "--rotations", "--seed", "8", "--out", str(out)]) == 0
        for i, stroke in enumerate(load_strokes(out / "params.json")):
            written = read_pixmap(out / f"stroke_{i:03d}.ppm")
            rendered, _ = rasterize_stroke(stroke, 24)
            np.testing.assert_array_equal(quantize(written.pixels),
                                          quantize(rendered.pixels))

    def test_same_seed_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "again"
        assert main(["gen-data", "--count", "3", "--canvas-size", "32",
                     "--seed", "5", "--out", str(out)]) == 0
        names = [f"stroke_{i:03d}.ppm" for i in range(3)] + ["params.json"]
        assert file_bytes(out, names) == file_bytes(workspace / "data", names)

    def test_manifest_lists_the_outputs(self, workspace):
        manifest = RunManifest.load(workspace / "data" / "manifest.json")
        assert manifest.command == "gen-data"
        assert manifest.seed == 5
        assert manifest.outputs["parameters"] == "params.json"
        assert manifest.config["count"] == 3


    def test_count_below_one_is_a_config_error(self, tmp_path):
        for count in ("0", "-3"):
            out = tmp_path / f"count{count}"
            assert main(["gen-data", "--count", count, "--canvas-size", "16",
                         "--seed", "1", "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--count", "64", "--canvas-size", "32", "--seed", "8"],
        ["--count", "64", "--canvas-size", "16", "--gray", "--flips", "--rotations",
         "--seed", "11"],
    ], ids=["rgb-32", "gray-16-augmented"])
    def test_every_written_file_holds_one_region(self, tmp_path, argv):
        # these seeds once drew strokes that 8-bit rounding split or erased
        out = tmp_path / "data"
        assert main(["gen-data", *argv, "--out", str(out)]) == 0
        for path in sorted(out.glob("stroke_*")):
            assert connected_regions(read_pixmap(path).pixels).region_count == 1, path.name

    def test_redraws_are_bounded_and_exit_four(self, tmp_path, monkeypatch):
        checks = []

        def never_one_region(pixels):
            checks.append(1)
            return SimpleNamespace(region_count=2)

        monkeypatch.setattr("strokecraft.cli.connected_regions", never_one_region)
        assert main(["gen-data", "--count", "1", "--canvas-size", "16", "--gray",
                     "--seed", "1", "--out", str(tmp_path / "never")]) == 4
        assert len(checks) == BYTE_REGION_DRAWS

    def test_failed_draw_writes_no_image(self, tmp_path, monkeypatch):
        draws = []

        def third_fails(*args, **kwargs):
            draws.append(1)
            if len(draws) == 3:
                raise NumericalError("no acceptable stroke")
            return generate_visible_stroke(*args, **kwargs)

        monkeypatch.setattr("strokecraft.cli.generate_visible_stroke", third_fails)
        out = tmp_path / "partial"
        assert main(["gen-data", "--count", "4", "--canvas-size", "16", "--seed", "1",
                     "--out", str(out)]) == 4
        assert len(draws) == 3
        assert list(out.glob("stroke_*")) == []

    def test_canvas_too_small_for_a_core_is_refused_before_drawing(self, tmp_path, monkeypatch):
        draws = []
        monkeypatch.setattr("strokecraft.strokes.generate.generate_random_stroke",
                            lambda *args: draws.append(1))
        assert main(["gen-data", "--count", "2", "--canvas-size", "4",
                     "--seed", "1", "--out", str(tmp_path / "tiny")]) == 2
        assert draws == []
        assert not (tmp_path / "tiny").exists()


class TestVerifyMath:
    def test_all_identities_pass(self, tmp_path, capsys):
        out = tmp_path / "vm"
        assert main(["verify-math", "--steps", "200", "--seed", "1",
                     "--mc-draws", "50000", "--out", str(out)]) == 0
        rows = read_csv(out / "identities.csv")
        assert rows[0] == ["identity", "max_error", "tolerance", "pass"]
        assert len(rows) > 5
        assert all(row[3] == "true" for row in rows[1:])
        for row in rows[1:]:
            assert float(row[1]) <= float(row[2])
        assert "ok" in capsys.readouterr().out

    def test_corrupted_variance_fails_with_named_identity(self, tmp_path, capsys, monkeypatch):
        def corrupted(x_t, x0, x_s, t, eta, schedule):
            moments = smr_posterior_moments(x_t, x0, x_s, t, eta, schedule)
            return GaussianMoments(moments.mean, moments.variance * 1.01)

        monkeypatch.setattr("strokecraft.diffusion.verify.smr_posterior_moments", corrupted)
        out = tmp_path / "vmbad"
        assert main(["verify-math", "--steps", "200", "--seed", "1",
                     "--mc-draws", "50000", "--out", str(out)]) == 5
        by_name = {row[0]: row[3] for row in read_csv(out / "identities.csv")[1:]}
        assert by_name["zero_eta_posterior_reduction"] == "false"
        assert "zero_eta_posterior_reduction" in capsys.readouterr().err


class TestTrainDiffusionAndSample:
    def test_training_artifacts(self, workspace):
        rows = read_csv(workspace / "dtrain" / "loss_history.csv")
        assert rows[0] == ["epoch", "mean_loss"]
        assert len(rows) == 4
        assert all(np.isfinite(float(row[1])) for row in rows[1:])
        manifest = RunManifest.load(workspace / "dtrain" / "manifest.json")
        assert manifest.config["upsilon"] == 0.5
        assert manifest.config["prior_pairs"] == 2

    def test_sampling_is_deterministic_per_seed(self, workspace, tmp_path):
        args = ["sample", "--checkpoint", str(workspace / "dtrain" / "denoiser.ckpt"),
                "--count", "2", "--canvas-size", "16", "--steps", "16", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        names = ["sample_000.pgm", "sample_001.pgm"]
        assert file_bytes(tmp_path / "a", names) == file_bytes(tmp_path / "b", names)
        for name in names:
            canvas = read_pixmap(tmp_path / "a" / name)
            assert canvas.pixels.min() >= 0.0 and canvas.pixels.max() <= 1.0

    def test_mismatched_canvas_size_is_a_config_error(self, workspace, tmp_path):
        assert main(["sample", "--checkpoint", str(workspace / "dtrain" / "denoiser.ckpt"),
                     "--canvas-size", "7", "--steps", "16", "--seed", "3",
                     "--out", str(tmp_path / "bad")]) == 2

    def test_checkpoint_missing_an_architecture_key_is_an_io_error(self, workspace, tmp_path,
                                                                   capsys):
        drop_header_key(workspace / "dtrain" / "denoiser.ckpt", tmp_path / "d.ckpt", "time_dim")
        assert main(["sample", "--checkpoint", str(tmp_path / "d.ckpt"),
                     "--canvas-size", "16", "--steps", "16", "--seed", "3",
                     "--out", str(tmp_path / "bad")]) == 3
        assert "time_dim" in capsys.readouterr().err


class TestFitStroke:
    def test_outputs_and_quality(self, workspace, tmp_path):
        out = tmp_path / "fit"
        target = workspace / "data" / "stroke_000.ppm"
        assert main(["fit-stroke", "--target", str(target), "--iterations", "80",
                     "--seed", "4", "--out", str(out)]) == 0
        fitted = load_strokes(out / "fitted.json")
        assert len(fitted) == 1
        render = read_pixmap(out / "render.ppm")
        original = read_pixmap(target)
        assert mse(render.pixels, original.pixels) < 0.02


class TestTrainPredictorAndPaint:
    def test_training_artifacts(self, workspace):
        loss_rows = read_csv(workspace / "ptrain" / "loss_history.csv")
        rank_rows = read_csv(workspace / "ptrain" / "rank_error.csv")
        assert loss_rows[0] == ["epoch", "mean_loss"]
        assert rank_rows[0] == ["epoch", "rank_error"]
        assert len(loss_rows) == len(rank_rows) == 4
        assert all(0.0 <= float(row[1]) <= 1.0 for row in rank_rows[1:])
        StrokePredictor.load(workspace / "ptrain" / "predictor.ckpt")

    def test_paint_writes_the_library_result(self, workspace, tmp_path):
        out = tmp_path / "painted"
        target_path = workspace / "data" / "stroke_000.ppm"
        assert main(["paint", "--target", str(target_path),
                     "--predictor", str(workspace / "ptrain" / "predictor.ckpt"),
                     "--layers", "2", "--out", str(out)]) == 0
        predictor = StrokePredictor.load(workspace / "ptrain" / "predictor.ckpt")
        expected = layered_paint(read_pixmap(target_path), predictor, 2)
        final = read_pixmap(out / "final.ppm")
        np.testing.assert_array_equal(quantize(final.pixels),
                                      quantize(expected.final.clipped().pixels))
        listing = json.loads((out / "strokes.json").read_text())
        assert len(listing) == len(expected.strokes)
        for entry, placed in zip(listing, expected.strokes):
            assert entry["c_p"] == [float(v) for v in placed.prediction.params]
            assert entry["shift"] == [placed.prediction.x_shift, placed.prediction.y_shift]
            assert entry["scr_r"] == placed.prediction.scr_r
            assert entry["d"] == placed.prediction.d
            assert entry["layer"] == placed.layer
            assert entry["patch"] == [placed.patch_row, placed.patch_col]
        intermediates = sorted(out.glob("layer_*.ppm"))
        assert len(intermediates) == 2

    @pytest.mark.parametrize("rank_logit", [40.0, -800.0])
    def test_saturated_rank_score_still_paints(self, workspace, tmp_path, rank_logit):
        # slot 0 gets a rank logit the sigmoid rounds to exactly 1 or 0,
        # and a presence logit that keeps it in every patch
        predictor = StrokePredictor.load(workspace / "ptrain" / "predictor.ckpt")
        w4, b4 = predictor._views()[6:]
        for column, logit in ((PARAM_COUNT + 2, rank_logit), (PARAM_COUNT + 3, 40.0)):
            w4[:, column] = 0.0
            b4[column] = logit
        predictor.save(tmp_path / "saturated.ckpt")
        out = tmp_path / "painted"
        assert main(["paint", "--target", str(workspace / "data" / "stroke_000.ppm"),
                     "--predictor", str(tmp_path / "saturated.ckpt"),
                     "--layers", "2", "--out", str(out)]) == 0
        listing = json.loads((out / "strokes.json").read_text())
        clamped = np.nextafter(1.0, 0.0) if rank_logit > 0 else np.nextafter(0.0, 1.0)
        assert clamped in [entry["scr_r"] for entry in listing]
        for layer in (0, 1):
            scores = [entry["scr_r"] for entry in listing if entry["layer"] == layer]
            assert scores == sorted(scores)

    def test_nan_weight_is_a_numerical_error(self, workspace, tmp_path, capsys):
        predictor = StrokePredictor.load(workspace / "ptrain" / "predictor.ckpt")
        predictor.params[len(predictor.params) // 2] = np.nan
        predictor.save(tmp_path / "nan.ckpt")
        assert main(["paint", "--target", str(workspace / "data" / "stroke_000.ppm"),
                     "--predictor", str(tmp_path / "nan.ckpt"),
                     "--out", str(tmp_path / "bad")]) == 4
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err

    def test_checkpoint_missing_an_architecture_key_is_an_io_error(self, workspace, tmp_path,
                                                                   capsys):
        drop_header_key(workspace / "ptrain" / "predictor.ckpt", tmp_path / "p.ckpt",
                        "fc_hidden")
        assert main(["paint", "--target", str(workspace / "data" / "stroke_000.ppm"),
                     "--predictor", str(tmp_path / "p.ckpt"),
                     "--out", str(tmp_path / "bad")]) == 3
        assert "fc_hidden" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("fc_hidden", "x"),
        ("fc_hidden", 128.0),
        ("max_strokes", 8.0),
        ("conv_channels", [8]),
        ("conv_channels", "ab"),
    ])
    def test_mistyped_architecture_key_is_an_io_error(self, workspace, tmp_path, capsys,
                                                      key, value):
        set_header_key(workspace / "ptrain" / "predictor.ckpt", tmp_path / "p.ckpt", key, value)
        assert main(["paint", "--target", str(workspace / "data" / "stroke_000.ppm"),
                     "--predictor", str(tmp_path / "p.ckpt"),
                     "--out", str(tmp_path / "bad")]) == 3
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("via", ["direct", "replay"])
    @pytest.mark.parametrize("flags", [
        {"canvas_size": 4},
        {"canvas_size": 10},
        {"slots": 2, "max_strokes": 5},
    ], ids=["core-does-not-fit", "not-a-multiple-of-4", "more-strokes-than-slots"])
    def test_impossible_flags_are_refused_before_drawing(self, workspace, tmp_path, capsys,
                                                         monkeypatch, flags, via):
        draws = []
        monkeypatch.setattr("strokecraft.strokes.generate.generate_random_stroke",
                            lambda *args: draws.append(1))
        out = tmp_path / "out"
        if via == "direct":
            argv = ["train-predictor", "--epochs", "1", "--seed", "1"]
            for key, value in flags.items():
                argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            config = RunManifest.load(workspace / "ptrain" / "manifest.json").config
            RunManifest(command="train-predictor", config=dict(config, **flags)).save(
                tmp_path / "m.json")
            argv = ["replay", "--manifest", str(tmp_path / "m.json")]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    def test_more_layers_than_the_target_has_pixels_are_refused(self, workspace, tmp_path):
        # the finest of k layers splits each side into 2^(k-1) patches
        pixels = np.random.default_rng(0).uniform(size=(16, 16, 3))
        write_pixmap(tmp_path / "t.ppm", Canvas(pixels))
        argv = ["paint", "--target", str(tmp_path / "t.ppm"),
                "--predictor", str(workspace / "ptrain" / "predictor.ckpt")]
        assert main(argv + ["--layers", "6", "--out", str(tmp_path / "six")]) == 2
        assert not (tmp_path / "six").exists()
        assert main(argv + ["--layers", "5", "--out", str(tmp_path / "five")]) == 0
        assert (tmp_path / "five" / "layer_04.ppm").exists()

    def test_empty_holdout_reports_nan(self, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train-predictor", "--epochs", "1", "--scenes-per-epoch", "1",
                     "--holdout-scenes", "0", "--seed", "1", "--out", str(out)]) == 0
        assert read_csv(out / "rank_error.csv")[1] == ["0", "nan"]
        assert "holdout rank error nan" in capsys.readouterr().out


class TestMetrics:
    def test_rows_match_direct_computation(self, workspace, tmp_path):
        out = tmp_path / "met"
        assert main(["metrics", "--images", str(workspace / "data"),
                     "--ref", str(workspace / "data"), "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["image_id", "region_count", "area_ratio", "mse_if_paired"]
        assert len(rows) == 4
        for row in rows[1:]:
            canvas = read_pixmap(workspace / "data" / f"{row[0]}.ppm")
            crd = connected_regions(canvas.pixels, 0.1)
            assert int(row[1]) == crd.region_count
            assert float(row[2]) == crd.area_ratio
            assert float(row[3]) == 0.0

    def test_unpaired_cell_is_empty(self, workspace, tmp_path):
        out = tmp_path / "met"
        assert main(["metrics", "--images", str(workspace / "data"),
                     "--out", str(out)]) == 0
        assert all(row[3] == "" for row in read_csv(out / "metrics.csv")[1:])

    def test_missing_directory_is_an_io_error(self, tmp_path):
        assert main(["metrics", "--images", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "met")]) == 3

    @pytest.mark.parametrize("ref", ["absent", "data/stroke_000.ppm"])
    def test_ref_that_is_not_a_directory_is_an_io_error(self, workspace, tmp_path, ref):
        ref_path = tmp_path / "absent" if ref == "absent" else workspace / ref
        assert main(["metrics", "--images", str(workspace / "data"), "--ref", str(ref_path),
                     "--out", str(tmp_path / "met")]) == 3
        assert not (tmp_path / "met").exists()

    def test_same_named_reference_of_another_size_is_an_io_error(self, workspace, tmp_path,
                                                                  capsys):
        ref = tmp_path / "ref"
        ref.mkdir()
        image = workspace / "data" / "stroke_000.ppm"
        write_pixmap(ref / image.name, Canvas.white(24))
        assert main(["metrics", "--images", str(workspace / "data"), "--ref", str(ref),
                     "--out", str(tmp_path / "met")]) == 3
        err = capsys.readouterr().err
        assert str(image) in err and str(ref / image.name) in err
        assert "Traceback" not in err
        assert not (tmp_path / "met").exists()

    def test_header_field_of_5000_digits_is_an_io_error(self, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        (images / "long.pgm").write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n\0")
        assert main(["metrics", "--images", str(images), "--out", str(tmp_path / "met")]) == 3
        err = capsys.readouterr().err
        assert "5000-digit header field" in err and "Traceback" not in err

    def test_file_name_that_is_not_utf8_is_an_io_error(self, workspace, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        name = os.fsdecode(b"\xff.ppm")
        (images / name).write_bytes((workspace / "data" / "stroke_000.ppm").read_bytes())
        capsys.readouterr()
        assert main(["metrics", "--images", str(images), "--out", str(tmp_path / "met")]) == 3
        err = capsys.readouterr().err
        assert repr(name) in err and "Traceback" not in err
        assert not (tmp_path / "met").exists()


class TestReplay:
    def test_gen_data_replay_is_byte_identical(self, workspace, tmp_path):
        replayed = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(workspace / "data" / "manifest.json"),
                     "--out", str(replayed)]) == 0
        names = [f"stroke_{i:03d}.ppm" for i in range(3)] + ["params.json"]
        assert file_bytes(replayed, names) == file_bytes(workspace / "data", names)
        manifest = RunManifest.load(replayed / "manifest.json")
        assert manifest.config["out"] == str(replayed)

    def test_replay_builds_the_parser_once(self, workspace, tmp_path, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(True)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        assert main(["replay", "--manifest", str(workspace / "data" / "manifest.json"),
                     "--out", str(tmp_path / "replayed")]) == 0
        assert len(built) == 1

    def test_metrics_replay_is_byte_identical(self, workspace, tmp_path):
        first = tmp_path / "m1"
        second = tmp_path / "m2"
        assert main(["metrics", "--images", str(workspace / "data"),
                     "--out", str(first)]) == 0
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("argv, names", [
        (["sample", "--checkpoint", "{ws}/dtrain/denoiser.ckpt", "--count", "2",
          "--canvas-size", "16", "--steps", "16", "--seed", "3"],
         ["sample_000.pgm", "sample_001.pgm"]),
        (["fit-stroke", "--target", "{ws}/data/stroke_000.ppm", "--iterations", "40",
          "--seed", "4"], ["fitted.json", "render.ppm"]),
        (["paint", "--target", "{ws}/data/stroke_000.ppm",
          "--predictor", "{ws}/ptrain/predictor.ckpt", "--layers", "2"],
         ["final.ppm", "layer_00.ppm", "layer_01.ppm", "strokes.json"]),
        (["verify-math", "--steps", "50", "--mc-draws", "2000", "--seed", "7"],
         ["identities.csv"]),
        (["train-diffusion", "--data", "{ws}/data16", "--steps", "16", "--epochs", "2",
          "--prior-pairs", "2", "--seed", "8"], ["denoiser.ckpt", "loss_history.csv"]),
    ], ids=["sample", "fit-stroke", "paint", "verify-math", "train-diffusion"])
    def test_replay_is_byte_identical(self, workspace, tmp_path, argv, names):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = [a.format(ws=workspace) for a in argv]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert file_bytes(second, names) == file_bytes(first, names)

    def test_train_predictor_replay_is_byte_identical(self, workspace, tmp_path):
        assert main(["replay", "--manifest", str(workspace / "ptrain" / "manifest.json"),
                     "--out", str(tmp_path / "again")]) == 0
        names = ["predictor.ckpt", "loss_history.csv", "rank_error.csv"]
        assert file_bytes(tmp_path / "again", names) == file_bytes(workspace / "ptrain", names)

    def test_sample_manifest_with_removed_flags_replays(self, workspace, tmp_path):
        first = tmp_path / "first"
        assert main(["sample", "--checkpoint", str(workspace / "dtrain" / "denoiser.ckpt"),
                     "--count", "2", "--canvas-size", "16", "--steps", "16", "--seed", "5",
                     "--out", str(first)]) == 0
        manifest = RunManifest.load(first / "manifest.json")
        legacy = dict(manifest.config, eta_mode="eta_uniform", prior_mode="stochastic")
        RunManifest(command="sample", config=legacy, seed=manifest.seed,
                    inputs=manifest.inputs, outputs=manifest.outputs).save(tmp_path / "m.json")
        assert main(["replay", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "again")]) == 0
        names = ["sample_000.pgm", "sample_001.pgm"]
        assert file_bytes(tmp_path / "again", names) == file_bytes(first, names)
        replayed = RunManifest.load(tmp_path / "again" / "manifest.json")
        assert replayed.config == dict(manifest.config, out=str(tmp_path / "again"))

    def test_verify_math_manifest_with_corrupt_variance_replays(self, tmp_path):
        first = tmp_path / "first"
        assert main(["verify-math", "--steps", "50", "--seed", "2", "--mc-draws", "2000",
                     "--out", str(first)]) == 0
        manifest = RunManifest.load(first / "manifest.json")
        assert "corrupt_variance" not in manifest.config
        legacy = dict(manifest.config, corrupt_variance=False)
        RunManifest(command="verify-math", config=legacy, seed=manifest.seed,
                    outputs=manifest.outputs).save(tmp_path / "m.json")
        assert main(["replay", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "again")]) == 0
        names = ["identities.csv"]
        assert file_bytes(tmp_path / "again", names) == file_bytes(first, names)

    def test_out_of_range_count_is_a_config_error(self, workspace, tmp_path):
        manifest = RunManifest.load(workspace / "ptrain" / "manifest.json")
        RunManifest(command="train-predictor", config=dict(manifest.config, holdout_scenes=-1),
                    seed=manifest.seed).save(tmp_path / "m.json")
        assert main(["replay", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "again")]) == 2
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train-predictor", "lambda_m", [1, 2]),
        ("gen-data", "seed", "a"),
        ("paint", "threshold", "a"),
        ("gen-data", "flips", "no"),
    ], ids=["lambda-pair", "text-seed", "text-threshold", "text-flag"])
    def test_mistyped_value_is_an_io_error(self, workspace, tmp_path, capsys,
                                           command, key, value):
        if command == "paint":
            config = {"target": str(workspace / "data" / "stroke_000.ppm"),
                      "predictor": str(workspace / "ptrain" / "predictor.ckpt"),
                      "layers": 1, "threshold": 0.5, "out": str(tmp_path / "painted")}
        else:
            source = {"gen-data": "data", "train-predictor": "ptrain"}[command]
            config = RunManifest.load(workspace / source / "manifest.json").config
        RunManifest(command=command, config=dict(config, **{key: value})).save(
            tmp_path / "m.json")
        capsys.readouterr()
        assert main(["replay", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "again")]) == 3
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "again").exists()

    def test_malformed_manifest_is_an_io_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["replay", "--manifest", str(path), "--out", str(tmp_path)]) == 3

    def test_config_missing_a_key_is_an_io_error(self, workspace, tmp_path, capsys):
        painted = tmp_path / "painted"
        assert main(["paint", "--target", str(workspace / "data" / "stroke_000.ppm"),
                     "--predictor", str(workspace / "ptrain" / "predictor.ckpt"),
                     "--layers", "1", "--out", str(painted)]) == 0
        manifest = RunManifest.load(painted / "manifest.json")
        config = dict(manifest.config)
        del config["threshold"]
        RunManifest(command="paint", config=config, seed=manifest.seed,
                    inputs=manifest.inputs, outputs=manifest.outputs).save(tmp_path / "m.json")
        capsys.readouterr()
        assert main(["replay", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "again")]) == 3
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    def test_manifest_that_is_not_utf8_is_an_io_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff" + RunManifest(command="gen-data", config={}).to_json().encode())
        capsys.readouterr()
        assert main(["replay", "--manifest", str(path), "--out", str(tmp_path / "again")]) == 3
        err = capsys.readouterr().err
        assert "UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("argv, reads", [
        (["gen-data", "--count", "1", "--canvas-size", "16", "--seed", "1"], []),
        (["verify-math", "--steps", "50", "--mc-draws", "2000", "--seed", "7"], []),
        (["train-diffusion", "--data", "{ws}/data16", "--steps", "4", "--epochs", "1",
          "--prior-pairs", "1", "--seed", "1"], ["data"]),
        (["sample", "--checkpoint", "{ws}/dtrain/denoiser.ckpt", "--count", "1",
          "--canvas-size", "16", "--steps", "4", "--seed", "1"], ["checkpoint"]),
        (["fit-stroke", "--target", "{ws}/data16/stroke_000.pgm", "--iterations", "8",
          "--seed", "1"], ["target"]),
        (["train-predictor", "--canvas-size", "16", "--max-strokes", "2", "--slots", "2",
          "--epochs", "1", "--scenes-per-epoch", "1", "--holdout-scenes", "1", "--seed", "1"],
         []),
        (["paint", "--target", "{ws}/data/stroke_000.ppm",
          "--predictor", "{ws}/ptrain/predictor.ckpt", "--layers", "1"], ["target", "predictor"]),
        (["metrics", "--images", "{ws}/data16"], ["images"]),
        (["metrics", "--images", "{ws}/data16", "--ref", "{ws}/data"], ["images", "ref"]),
    ], ids=["gen-data", "verify-math", "train-diffusion", "sample", "fit-stroke",
            "train-predictor", "paint", "metrics", "metrics-with-ref"])
    def test_manifest_inputs_are_the_flags_that_name_files_read(self, workspace, tmp_path,
                                                                argv, reads):
        argv = [a.format(ws=workspace) for a in argv]
        expected = {key: argv[argv.index("--" + key) + 1] for key in reads}
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(argv + ["--out", str(first)]) == 0
        assert RunManifest.load(first / "manifest.json").inputs == expected
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert RunManifest.load(second / "manifest.json").inputs == expected

    @pytest.mark.parametrize("command", ["no-such", "replay"])
    def test_unknown_command_is_rejected(self, tmp_path, command):
        # a replay manifest that names itself would otherwise repeat forever
        path = tmp_path / "m.json"
        RunManifest(command=command, config={"manifest": str(path), "out": None}).save(path)
        assert main(["replay", "--manifest", str(path), "--out", str(tmp_path)]) == 3


class TestFileBoundary:
    @pytest.mark.parametrize("argv, code", [
        (["gen-data", "--count", "2", "--canvas-size", "4", "--seed", "1"], 2),
        (["verify-math", "--steps", "0", "--seed", "1"], 2),
        (["train-diffusion", "--data", "absent", "--epochs", "1", "--seed", "1"], 3),
        (["sample", "--checkpoint", "absent.ckpt", "--canvas-size", "16", "--seed", "1"], 3),
        (["fit-stroke", "--target", "absent.ppm", "--seed", "1"], 3),
        (["train-predictor", "--min-strokes", "3", "--max-strokes", "2", "--epochs", "1",
          "--seed", "1"], 2),
        (["paint", "--target", "{ws}/data/stroke_000.ppm", "--predictor", "absent.ckpt"], 3),
        (["metrics", "--images", "absent"], 3),
        (["replay", "--manifest", "absent.json"], 3),
    ], ids=["gen-data", "verify-math", "train-diffusion", "sample", "fit-stroke",
            "train-predictor", "paint", "metrics", "replay"])
    def test_failure_before_the_first_write_leaves_no_out(self, workspace, tmp_path,
                                                          monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)
        assert main([a.format(ws=workspace) for a in argv] + ["--out", "out"]) == code
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, name", [
        (["train-diffusion", "--data", "{ws}/data16", "--steps", "4", "--epochs", "1",
          "--prior-pairs", "1", "--batch-size", "2", "--seed", "1"], "denoiser.ckpt"),
        (["train-predictor", "--canvas-size", "16", "--max-strokes", "2", "--slots", "2",
          "--epochs", "1", "--scenes-per-epoch", "1", "--holdout-scenes", "1", "--seed", "1"],
         "predictor.ckpt"),
        (["fit-stroke", "--target", "{ws}/data16/stroke_000.pgm", "--iterations", "8",
          "--seed", "1"], "fitted.json"),
        (["sample", "--checkpoint", "{ws}/dtrain/denoiser.ckpt", "--count", "1",
          "--canvas-size", "16", "--steps", "4", "--seed", "1"], "sample_000.pgm"),
        (["paint", "--target", "{ws}/data/stroke_000.ppm",
          "--predictor", "{ws}/ptrain/predictor.ckpt", "--layers", "1"], "strokes.json"),
        (["metrics", "--images", "{ws}/data16"], "metrics.csv"),
        (["gen-data", "--count", "1", "--canvas-size", "16", "--seed", "1"], "manifest.json"),
    ], ids=["denoiser", "predictor", "fitted", "pixmap", "strokes", "csv", "manifest"])
    def test_directory_on_an_output_name_is_an_io_error(self, workspace, tmp_path, capsys,
                                                        argv, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        capsys.readouterr()
        assert main([a.format(ws=workspace) for a in argv] + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    """Neither the import nor a train-predictor run, which matches strokes, loads scipy."""
    probe = ("import sys, strokecraft.cli\n"
             "print('scipy.optimize' in sys.modules)\n"
             "code = strokecraft.cli.main(sys.argv[1:])\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    argv = ["train-predictor", "--epochs", "1", "--scenes-per-epoch", "2",
            "--holdout-scenes", "2", "--seed", "1", "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=src_env(),
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 []"


@pytest.mark.parametrize("argv", [
    ["train-diffusion", "--data", "d", "--epochs", "0", "--seed", "1"],
    ["train-diffusion", "--data", "d", "--epochs", "1", "--batch-size", "0", "--seed", "1"],
    ["sample", "--checkpoint", "c", "--count", "-2", "--canvas-size", "16", "--seed", "1"],
    ["sample", "--checkpoint", "c", "--count", "0", "--canvas-size", "16", "--seed", "1"],
    ["sample", "--checkpoint", "c", "--canvas-size", "0", "--seed", "1"],
    ["verify-math", "--mc-draws", "0", "--seed", "1"],
    ["train-predictor", "--epochs", "1", "--holdout-scenes", "-1", "--seed", "1"],
    ["paint", "--target", "t", "--predictor", "p", "--layers", "0"],
    ["gen-data", "--count", "1", "--seed", "-1"],
    ["fit-stroke", "--target", "t", "--iterations", "2", "--seed", "1"],
    ["fit-stroke", "--target", "t", "--seed", "-1"],
], ids=["epochs", "batch-size", "negative-count", "zero-count", "canvas-size", "mc-draws",
        "holdout-scenes", "layers", "negative-seed", "iterations", "fit-stroke-negative-seed"])
def test_out_of_range_flag_exits_two_before_writing(tmp_path, argv):
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "strokecraft.cli", *argv, "--out", str(out)],
                          env=src_env(), capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "must be an integer of at least" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("via", ["direct", "replay"])
@pytest.mark.parametrize("lr", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["train-diffusion", "--data", "{ws}/data16", "--steps", "4", "--epochs", "1",
     "--prior-pairs", "1", "--seed", "1"],
    ["train-predictor", "--canvas-size", "16", "--epochs", "1", "--scenes-per-epoch", "1",
     "--holdout-scenes", "1", "--seed", "1"],
], ids=["train-diffusion", "train-predictor"])
def test_learning_rate_that_is_not_positive_exits_two_before_writing(workspace, tmp_path,
                                                                     capsys, argv, lr, via):
    out = tmp_path / "out"
    argv = [a.format(ws=workspace) for a in argv] + ["--lr", lr, "--out", str(out)]
    if via == "replay":
        config = vars(build_parser().parse_args(argv))
        RunManifest(command=config.pop("command"), config=config).save(tmp_path / "m.json")
        argv = ["replay", "--manifest", str(tmp_path / "m.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "learning rate must be positive" in err and "Traceback" not in err
    assert not out.exists()


def test_readme_cli_lines_parse_and_pass_the_range_checks():
    block = README.read_text(encoding="utf-8").split("## CLI")[1].split("```sh\n")[1]
    lines = block.split("```")[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("strokecraft ")]
    assert len(commands) == 10
    for argv in commands:
        config = vars(build_parser().parse_args(argv))
        cli._check_ranges(config.pop("command"), config)


def float_flags():
    """Every float-valued flag of every command, as the command table declares them."""
    return [pytest.param(name, flag, id=f"{name} {flag.option}")
            for name, command in cli.COMMANDS.items() for flag in command.flags
            if flag.type in (float, cli._lambda_triple)]


def required_argv(command):
    """The command's required flags other than --out, with values that pass the range checks."""
    argv = [command]
    for flag in cli.COMMANDS[command].flags:
        if flag.required and flag.name != "out":
            argv += [flag.option, "1" if flag.type is int else "missing"]
    return argv


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", float_flags())
def test_non_finite_float_flag_exits_two_before_writing(tmp_path, capsys, command, flag, bad):
    option = flag.option
    values = ([",".join(bad if i == part else "1" for i in range(3)) for part in range(3)]
              if flag.type is cli._lambda_triple else [bad])
    for value in values:
        argv = required_argv(command) + [f"{option}={value}"]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"{option} must be finite" in capsys.readouterr().err
        assert not out.exists()
        # the same value recorded in a manifest is refused on replay
        config = {k: v for k, v in vars(build_parser().parse_args(argv + ["--out", "x"])).items()
                  if k != "command"}
        RunManifest(command=command, config=config).save(tmp_path / "manifest.json")
        assert main(["replay", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(out)]) == 2
        assert f"{option} must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, flag", float_flags())
def test_replayed_int_past_float_range_exits_two_before_writing(tmp_path, capsys, command,
                                                                 flag):
    option = flag.option
    argv = required_argv(command) + ["--out", str(tmp_path / "out")]
    config = {k: v for k, v in vars(build_parser().parse_args(argv)).items() if k != "command"}
    huge = 10**400
    values = ([[huge if i == part else 1 for i in range(3)] for part in range(3)]
              if flag.type is cli._lambda_triple else [huge])
    for value in values:
        config[flag.name] = value
        RunManifest(command=command, config=config).save(tmp_path / "manifest.json")
        assert main(["replay", "--manifest", str(tmp_path / "manifest.json")]) == 2
        err = capsys.readouterr().err
        assert f"{option} must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["direct", "replay"])
@pytest.mark.parametrize("target, argv", [
    ("verify_identities", ["verify-math", "--mc-draws", "100000000000", "--seed", "1"]),
    ("ancestral_sample", ["sample", "--checkpoint", "{ws}/dtrain/denoiser.ckpt",
                          "--count", "100000000000", "--canvas-size", "16", "--steps", "16",
                          "--seed", "1"]),
], ids=["verify-math", "sample"])
def test_impossible_allocation_exits_two_before_writing(workspace, tmp_path, capsys,
                                                        monkeypatch, target, argv, via):
    # numpy's _ArrayMemoryError is a MemoryError; raise one rather than allocate for real
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(f"strokecraft.cli.{target}", out_of_memory)
    out = tmp_path / "out"
    argv = [a.format(ws=workspace) for a in argv] + ["--out", str(out)]
    if via == "replay":
        config = vars(build_parser().parse_args(argv))
        RunManifest(command=config.pop("command"), config=config).save(tmp_path / "m.json")
        argv = ["replay", "--manifest", str(tmp_path / "m.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 745. GiB for an array "
                   "with shape (100000000000,)\n")
    assert not out.exists()


def test_memory_error_without_a_message_still_names_the_failure(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("strokecraft.cli.verify_identities", out_of_memory)
    capsys.readouterr()
    assert main(["verify-math", "--seed", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: out of memory: allocation failed\n"


class TestParser:
    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-data", "--count", "1"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["paint-the-town"])
        assert excinfo.value.code == 2

    def test_bad_lambda_triple_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train-predictor", "--lambda-m", "1,2", "--epochs", "1",
                  "--seed", "0", "--out", "x"])
        assert excinfo.value.code == 2
