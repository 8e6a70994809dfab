"""Command line harness: data generation, verification, training, painting.

Every command resolves its flags into a plain config mapping, runs the
library operation, and writes a RunManifest beside its outputs so the
run can be repeated byte for byte with the replay command. Seeds are
explicit everywhere randomness is involved; nothing reads the clock.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, files
from .diffusion import (
    ETA_MODES,
    PRIOR_MODES,
    SCHEDULE_MODES,
    Denoiser,
    SmrConfig,
    ancestral_sample,
    build_schedule,
    train_diffusion,
)
from .diffusion.verify import all_passed, verify_identities
from .errors import ConfigError, DataIOError, NumericalError, StrokecraftError, VerificationError
from .manifest import RunManifest
from .metrics import DEFAULT_FOREGROUND_THRESHOLD, connected_regions, mse
from .painting import MatchConfig, StrokePredictor, layered_paint, scene_source, train_predictor
from .pixmap import quantize, read_pixmap, write_pixmap
from .strokes.canvas import Canvas
from .strokes.fitting import FIT_ITERATIONS, MIN_ITERATIONS, fit_stroke
from .strokes.generate import MIN_CORE_PIXELS, generate_visible_stroke
from .strokes.model import BezierStroke, save_strokes
from .strokes.raster import rasterize_stroke

BYTE_REGION_DRAWS = 100


def flip_stroke_x(vector: np.ndarray, side: float) -> np.ndarray:
    """Mirror a stroke vector across the vertical canvas axis."""
    v = np.asarray(vector, dtype=np.float64).copy()
    v[0:8:2] = side - v[0:8:2]
    return v


def flip_stroke_y(vector: np.ndarray, side: float) -> np.ndarray:
    """Mirror a stroke vector across the horizontal canvas axis."""
    v = np.asarray(vector, dtype=np.float64).copy()
    v[1:8:2] = side - v[1:8:2]
    return v


def rotate_stroke_ccw(vector: np.ndarray, side: float) -> np.ndarray:
    """Rotate a stroke vector a quarter turn counterclockwise on a square canvas.

    Matches np.rot90 on the rendered pixels: a control point (x, y) maps
    to (y, side - x).
    """
    v = np.asarray(vector, dtype=np.float64).copy()
    xs = v[0:8:2].copy()
    v[0:8:2] = v[1:8:2]
    v[1:8:2] = side - xs
    return v


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    files.write_bytes(path, text.getvalue().encode("utf-8"))


def _float_cell(value: float) -> str:
    return repr(float(value))


def _save_manifest(command: str, config: dict, out: Path, outputs: dict,
                   inputs: dict | None = None) -> RunManifest:
    manifest = RunManifest(command=command, config=config, seed=config.get("seed"),
                           inputs=inputs or {}, outputs=outputs)
    manifest.save(out / "manifest.json")
    return manifest


def _list_pixmaps(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise DataIOError(f"{directory} is not a directory")
    pixmaps = sorted(p for p in directory.iterdir() if p.suffix in (".pgm", ".ppm"))
    if not pixmaps:
        raise DataIOError(f"no pixmaps found in {directory}")
    return pixmaps


def _draw_augmented(rng, side: int, channels: int, config: dict
                    ) -> tuple[BezierStroke, np.ndarray]:
    """A visible stroke, flipped and turned as the config asks, and its 8-bit pixels.

    The stroke is redrawn until those pixels hold one region.
    """
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
        if vec is not stroke.vector:  # flipped or turned: render where it moved to
            stroke = BezierStroke(vec)
            canvas, _ = rasterize_stroke(stroke, side, channels=channels)
        # acceptance judged float pixels; rounding to bytes can split or erase a faint region
        image = quantize(canvas.pixels)
        if connected_regions(image / 255.0).region_count == 1:
            return stroke, image
    raise NumericalError(f"no stroke stayed one region at 8 bits in {BYTE_REGION_DRAWS} draws")


def run_gen_data(config: dict) -> RunManifest:
    side = config["canvas_size"]
    rng = np.random.default_rng(config["seed"])
    channels = 1 if config["gray"] else 3
    suffix = ".pgm" if channels == 1 else ".ppm"
    # every draw comes before the first write, so a failed draw leaves no partial dataset
    drawn = [_draw_augmented(rng, side, channels, config) for _ in range(config["count"])]
    out = _out_dir(config)
    outputs = {}
    for i, (_, image) in enumerate(drawn):
        name = f"stroke_{i:03d}{suffix}"
        write_pixmap(out / name, Canvas(image / 255.0))
        outputs[f"image_{i:03d}"] = name
    save_strokes(out / "params.json", [stroke for stroke, _ in drawn])
    outputs["parameters"] = "params.json"
    return _save_manifest("gen-data", config, out, outputs)


def run_verify_math(config: dict) -> RunManifest:
    schedule = build_schedule(config["steps"], mode=config["schedule"])
    checks = verify_identities(schedule, rng=np.random.default_rng(config["seed"]),
                               mc_draws=config["mc_draws"])
    rows = [[c.name, _float_cell(c.max_error), _float_cell(c.tolerance),
             "true" if c.passed else "false"] for c in checks]
    out = _out_dir(config)
    _write_csv(out / "identities.csv", ["identity", "max_error", "tolerance", "pass"], rows)
    manifest = _save_manifest("verify-math", config, out, {"report": "identities.csv"})
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        print(f"{status:4s} {c.name}  max_error={c.max_error:.3e}  tol={c.tolerance:.1e}")
    if not all_passed(checks):
        failed = ", ".join(c.name for c in checks if not c.passed)
        raise VerificationError(f"identity checks failed: {failed}")
    return manifest


def _load_dataset(directory: Path) -> np.ndarray:
    """All pixmaps in a directory as one array, mapped from [0,1] to [-1,1]."""
    canvases = [read_pixmap(p) for p in _list_pixmaps(directory)]
    shape = canvases[0].pixels.shape
    for path_canvas in canvases:
        if path_canvas.pixels.shape != shape:
            raise DataIOError(f"pixmaps in {directory} differ in shape")
    return np.stack([c.pixels for c in canvases]) * 2.0 - 1.0


def run_train_diffusion(config: dict) -> RunManifest:
    data = _load_dataset(Path(config["data"]))
    schedule = build_schedule(config["steps"], mode=config["schedule"])
    smr = SmrConfig(upsilon=config["upsilon"], eta_mode=config["eta_mode"],
                    prior_mode=config["prior_mode"], prior_pairs=config["prior_pairs"])
    result = train_diffusion(data, schedule, smr, epochs=config["epochs"],
                             rng=np.random.default_rng(config["seed"]),
                             batch_size=config["batch_size"], lr=config["lr"])
    out = _out_dir(config)
    result.denoiser.save(out / "denoiser.ckpt")
    _write_csv(out / "loss_history.csv", ["epoch", "mean_loss"],
               [[e, _float_cell(v)] for e, v in enumerate(result.loss_history)])
    print(f"trained {config['epochs']} epochs: "
          f"loss {result.loss_history[0]:.4f} -> {result.loss_history[-1]:.4f}")
    return _save_manifest("train-diffusion", config, out,
                          {"checkpoint": "denoiser.ckpt", "loss_history": "loss_history.csv"},
                          inputs={"data": config["data"]})


def run_sample(config: dict) -> RunManifest:
    denoiser = Denoiser.load(config["checkpoint"])
    side = config["canvas_size"]
    dim = denoiser.arch["data_dim"]
    channels = dim // (side * side)
    if channels not in (1, 3) or channels * side * side != dim:
        raise ConfigError(
            f"checkpoint dimension {dim} does not factor as {side}x{side}x(1|3)"
        )
    schedule = build_schedule(config["steps"], mode=config["schedule"])
    rng = np.random.default_rng(config["seed"])
    flat = ancestral_sample(denoiser, schedule, config["count"], dim, rng,
                            inject_noise=not config["no_noise"])
    suffix = ".pgm" if channels == 1 else ".ppm"
    out = _out_dir(config)
    outputs = {}
    for i, row in enumerate(flat):
        pixels = np.clip((row.reshape(side, side, channels) + 1.0) / 2.0, 0.0, 1.0)
        name = f"sample_{i:03d}{suffix}"
        write_pixmap(out / name, Canvas(pixels))
        outputs[f"sample_{i:03d}"] = name
    return _save_manifest("sample", config, out, outputs,
                          inputs={"checkpoint": config["checkpoint"]})


def run_fit_stroke(config: dict) -> RunManifest:
    target = read_pixmap(config["target"])
    result = fit_stroke(target, iterations=config["iterations"])
    out = _out_dir(config)
    save_strokes(out / "fitted.json", [result.stroke])
    render, _ = rasterize_stroke(result.stroke, (target.height, target.width),
                                 channels=target.channels)
    render_name = "render" + (".pgm" if target.channels == 1 else ".ppm")
    write_pixmap(out / render_name, render)
    print(f"fit loss {result.loss:.6f} after {config['iterations']} iterations")
    return _save_manifest("fit-stroke", config, out,
                          {"parameters": "fitted.json", "render": render_name},
                          inputs={"target": config["target"]})


def run_train_predictor(config: dict) -> RunManifest:
    side = config["canvas_size"]
    if side % 4:  # the predictor halves its input twice
        raise ConfigError(f"--canvas-size must be a multiple of 4 for the predictor, got {side}")
    if config["max_strokes"] > config["slots"]:
        raise ConfigError(f"--max-strokes {config['max_strokes']} exceeds "
                          f"--slots {config['slots']}")
    lam = config["lambda_m"]
    cfg = MatchConfig(lambda_l1=lam[0], lambda_cos=lam[1], lambda_presence=lam[2],
                      lambda_rank=config["lambda_r"], margin=config["margin"],
                      max_strokes=config["slots"])
    source = scene_source(side, min_strokes=config["min_strokes"],
                          max_strokes=config["max_strokes"])
    result = train_predictor(source, cfg, config["epochs"],
                             np.random.default_rng(config["seed"]),
                             scenes_per_epoch=config["scenes_per_epoch"],
                             holdout_scenes=config["holdout_scenes"], lr=config["lr"])
    out = _out_dir(config)
    result.predictor.save(out / "predictor.ckpt")
    _write_csv(out / "loss_history.csv", ["epoch", "mean_loss"],
               [[e, _float_cell(v)] for e, v in enumerate(result.loss_history)])
    _write_csv(out / "rank_error.csv", ["epoch", "rank_error"],
               [[e, _float_cell(v)] for e, v in enumerate(result.rank_error_history)])
    print(f"trained {config['epochs']} epochs: "
          f"loss {result.loss_history[0]:.3f} -> {result.loss_history[-1]:.3f}, "
          f"holdout rank error {result.rank_error_history[-1]:.3f}")
    return _save_manifest("train-predictor", config, out,
                          {"checkpoint": "predictor.ckpt",
                           "loss_history": "loss_history.csv",
                           "rank_error": "rank_error.csv"})


def run_paint(config: dict) -> RunManifest:
    target = read_pixmap(config["target"])
    predictor = StrokePredictor.load(config["predictor"])
    result = layered_paint(target, predictor, config["layers"],
                           threshold=config["threshold"])
    suffix = ".pgm" if target.channels == 1 else ".ppm"
    outputs = {"final": f"final{suffix}", "strokes": "strokes.json"}
    out = _out_dir(config)
    write_pixmap(out / f"final{suffix}", result.final.clipped())
    for k, canvas in enumerate(result.intermediates):
        name = f"layer_{k:02d}{suffix}"
        write_pixmap(out / name, canvas.clipped())
        outputs[f"layer_{k:02d}"] = name
    listing = [
        {
            "c_p": [float(v) for v in placed.prediction.params],
            "shift": [placed.prediction.x_shift, placed.prediction.y_shift],
            "scr_r": placed.scr_r,
            "d": placed.d,
            "layer": placed.layer,
            "patch": [placed.patch_row, placed.patch_col],
        }
        for placed in result.strokes
    ]
    files.write_bytes(out / "strokes.json",
                      (json.dumps(listing, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    per_layer = ", ".join(f"{v:.5f}" for v in result.layer_mse)
    print(f"painted {len(result.strokes)} strokes over "
          f"{config['layers']} layers; mse per layer: {per_layer}")
    return _save_manifest("paint", config, out, outputs,
                          inputs={"target": config["target"],
                                  "predictor": config["predictor"]})


def run_metrics(config: dict) -> RunManifest:
    images = _list_pixmaps(Path(config["images"]))
    ref_dir = Path(config["ref"]) if config["ref"] else None
    if ref_dir is not None and not ref_dir.is_dir():
        raise DataIOError(f"--ref {ref_dir} is not a directory")
    rows = []
    for path in images:
        try:
            path.stem.encode("utf-8")
        except UnicodeEncodeError:
            raise DataIOError(f"image file name {path.name!r} is not UTF-8, so metrics.csv "
                              f"cannot hold it as an image_id") from None
        canvas = read_pixmap(path)
        crd = connected_regions(canvas.pixels, config["threshold"])
        paired = ""
        if ref_dir is not None:
            ref_path = ref_dir / path.name
            if ref_path.exists():
                paired = _float_cell(mse(canvas.pixels, read_pixmap(ref_path).pixels))
        rows.append([path.stem, crd.region_count, _float_cell(crd.area_ratio), paired])
    out = _out_dir(config)
    _write_csv(out / "metrics.csv",
               ["image_id", "region_count", "area_ratio", "mse_if_paired"], rows)
    inputs = {"images": config["images"]}
    if config["ref"]:
        inputs["ref"] = config["ref"]
    return _save_manifest("metrics", config, out, {"report": "metrics.csv"}, inputs=inputs)


def run_replay(config: dict) -> RunManifest:
    manifest = RunManifest.load(config["manifest"])
    if manifest.command not in RUNNERS:
        raise DataIOError(f"manifest names unknown command {manifest.command!r}")
    actions = _config_keys(manifest.command)
    # Keys of flags since removed (sample's eta_mode and prior_mode, verify-math's
    # corrupt_variance) are dropped.
    replayed = {k: v for k, v in manifest.config.items() if k in actions}
    if config["out"] is not None:
        replayed["out"] = config["out"]
    missing = sorted(actions.keys() - replayed.keys())
    if missing:
        raise DataIOError(f"manifest config for {manifest.command} lacks {', '.join(missing)}")
    for key, action in actions.items():
        if not _parses_as(action, replayed[key]):
            raise DataIOError(f"manifest config for {manifest.command} has a {key} that "
                              f"{action.option_strings[0]} does not take: {replayed[key]!r}")
    _check_ranges(manifest.command, replayed)
    return RUNNERS[manifest.command](replayed)


def _config_keys(command: str) -> dict[str, argparse.Action]:
    """The config keys a command's runner reads: the destinations of its flags."""
    commands = next(a for a in _parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in commands.choices[command]._actions if a.dest != "help"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parses_as(action: argparse.Action, value) -> bool:
    """Whether a recorded config value is one the flag's parser could have produced."""
    if action.type is _lambda_triple:
        return isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))
    if isinstance(action, argparse._StoreTrueAction):
        return isinstance(value, bool)
    if action.type is int:
        typed = isinstance(value, int) and not isinstance(value, bool)
    elif action.type is float:
        typed = _is_number(value)
    else:  # paths and names; argv cannot carry a NUL byte
        typed = (isinstance(value, str) and "\0" not in value
                 or value is None and not action.required and action.default is None)
    return typed and (action.choices is None or value in action.choices)


# Smallest accepted value of each count, size, epoch, step and layer flag, and of
# every seed that seeds a generator. A drawn stroke needs a canvas whose square
# holds its MIN_CORE_PIXELS core.
CORE_SIDE = math.isqrt(MIN_CORE_PIXELS - 1) + 1
MINIMUMS = {
    "gen-data": {"count": 1, "canvas_size": CORE_SIDE, "seed": 0},
    "verify-math": {"steps": 1, "mc_draws": 1, "seed": 0},
    "train-diffusion": {"steps": 1, "prior_pairs": 1, "epochs": 1, "batch_size": 1,
                        "seed": 0},
    "sample": {"count": 1, "canvas_size": 1, "steps": 1, "seed": 0},
    "fit-stroke": {"iterations": MIN_ITERATIONS},
    "train-predictor": {"canvas_size": CORE_SIDE, "min_strokes": 1, "max_strokes": 1, "slots": 1,
                        "epochs": 1, "scenes_per_epoch": 1, "holdout_scenes": 0, "seed": 0},
    "paint": {"layers": 1},
}


def _is_finite(value) -> bool:
    """Whether a number is a finite float; a recorded int past float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_ranges(command: str, config: dict) -> None:
    """Reject out-of-range counts and non-finite float flags before a command writes anything."""
    for key, least in MINIMUMS.get(command, {}).items():
        value = config[key]
        if not isinstance(value, int) or value < least:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{flag} must be an integer of at least {least}, got {value!r}")
    for key, action in _config_keys(command).items():
        if action.type in (float, _lambda_triple):
            value = config[key]
            if not all(map(_is_finite, value if isinstance(value, list) else [value])):
                raise ConfigError(f"{action.option_strings[0]} must be finite, got {value!r}")


RUNNERS = {
    "gen-data": run_gen_data,
    "verify-math": run_verify_math,
    "train-diffusion": run_train_diffusion,
    "sample": run_sample,
    "fit-stroke": run_fit_stroke,
    "train-predictor": run_train_predictor,
    "paint": run_paint,
    "metrics": run_metrics,
}


def _lambda_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated weights, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strokecraft",
        description="Prior-regularized diffusion and brushstroke painting harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate single-stroke images plus parameters")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--canvas-size", type=int, default=32)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--flips", action="store_true", help="random horizontal/vertical flips")
    p.add_argument("--rotations", action="store_true", help="random quarter turns")
    p.add_argument("--gray", action="store_true", help="write grayscale pixmaps")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify-math", help="run the forward-process identity suite")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--schedule", choices=SCHEDULE_MODES, default="scaled_linear")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mc-draws", type=int, default=200_000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-diffusion", help="fit the target-prediction net on pixmaps")
    p.add_argument("--data", required=True, help="directory of equally sized pixmaps")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--schedule", choices=SCHEDULE_MODES, default="scaled_linear")
    p.add_argument("--upsilon", type=float, default=0.5)
    p.add_argument("--eta-mode", choices=ETA_MODES, default="eta_uniform")
    p.add_argument("--prior-mode", choices=PRIOR_MODES, default="stochastic")
    p.add_argument("--prior-pairs", type=int, default=8)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="draw images from a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--canvas-size", type=int, required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--schedule", choices=SCHEDULE_MODES, default="scaled_linear")
    p.add_argument("--no-noise", action="store_true", help="deterministic reverse steps")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-stroke", help="recover stroke parameters from one image")
    p.add_argument("--target", required=True)
    p.add_argument("--iterations", type=int, default=FIT_ITERATIONS)
    p.add_argument("--seed", type=int, required=True,
                   help="recorded for the manifest only; fitting is deterministic")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-predictor", help="train the stroke predictor on synthetic scenes")
    p.add_argument("--canvas-size", type=int, default=32)
    p.add_argument("--min-strokes", type=int, default=1)
    p.add_argument("--max-strokes", type=int, default=5)
    p.add_argument("--slots", type=int, default=8, help="prediction slots per patch")
    p.add_argument("--margin", type=float, default=0.125)
    p.add_argument("--lambda-m", type=_lambda_triple, default=(5.0, 10.0, 10.0),
                   metavar="L1,COS,PRESENCE")
    p.add_argument("--lambda-r", type=float, default=5.0)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--scenes-per-epoch", type=int, default=8)
    p.add_argument("--holdout-scenes", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("paint", help="paint a target image with a trained predictor")
    p.add_argument("--target", required=True)
    p.add_argument("--predictor", required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="structural metrics over a directory of pixmaps")
    p.add_argument("--images", required=True)
    p.add_argument("--ref", default=None, help="directory of same-named reference pixmaps")
    p.add_argument("--threshold", type=float, default=DEFAULT_FOREGROUND_THRESHOLD)
    p.add_argument("--out", required=True)

    p = sub.add_parser("replay", help="repeat a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="override the recorded output directory")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: main parses with it, the config checks read its flags."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = args.command
    config = {k: v for k, v in vars(args).items() if k != "command"}
    if "lambda_m" in config:
        config["lambda_m"] = list(config["lambda_m"])
    runner = run_replay if command == "replay" else RUNNERS[command]
    try:
        _check_ranges(command, config)
        runner(config)
    except StrokecraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
