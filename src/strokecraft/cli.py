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
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, files
from .diffusion.denoiser import Denoiser
from .diffusion.process import ETA_MODES, PRIOR_MODES, SmrConfig
from .diffusion.sampler import ancestral_sample
from .diffusion.schedule import SCHEDULE_MODES, build_schedule
from .diffusion.training import train_diffusion
from .diffusion.verify import all_passed, verify_identities
from .errors import ConfigError, DataIOError, NumericalError, StrokecraftError, VerificationError
from .manifest import RunManifest
from .metrics import DEFAULT_FOREGROUND_THRESHOLD, connected_regions, mse
from .painting.compose import layered_paint
from .painting.losses import MatchConfig
from .painting.predictor import StrokePredictor
from .painting.training import make_scene, train_predictor
from .pixmap import SUFFIX_BY_CHANNELS, quantize, read_pixmap, write_pixmap
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


def _write_epoch_csv(path: Path, column: str, values: list[float]) -> None:
    _write_csv(path, ["epoch", column], [[e, _float_cell(v)] for e, v in enumerate(values)])


def _float_cell(value: float) -> str:
    return repr(float(value))


def _save_manifest(command: str, config: dict, out: Path, outputs: dict) -> RunManifest:
    """Write the run's manifest, listing as inputs each given flag that names a file it read."""
    inputs = {f.name: config[f.name] for f in COMMANDS[command].flags
              if f.reads and (f.required or config[f.name])}
    manifest = RunManifest(command=command, config=config, seed=config.get("seed"),
                           inputs=inputs, outputs=outputs)
    manifest.save(out / "manifest.json")
    return manifest


def _list_pixmaps(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise DataIOError(f"{directory} is not a directory")
    pixmaps = sorted(p for p in directory.iterdir() if p.suffix in SUFFIX_BY_CHANNELS.values())
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
    suffix = SUFFIX_BY_CHANNELS[channels]
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
    _write_epoch_csv(out / "loss_history.csv", "mean_loss", result.loss_history)
    print(f"trained {config['epochs']} epochs: "
          f"loss {result.loss_history[0]:.4f} -> {result.loss_history[-1]:.4f}")
    return _save_manifest("train-diffusion", config, out,
                          {"checkpoint": "denoiser.ckpt", "loss_history": "loss_history.csv"})


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
    suffix = SUFFIX_BY_CHANNELS[channels]
    out = _out_dir(config)
    outputs = {}
    for i, row in enumerate(flat):
        pixels = np.clip((row.reshape(side, side, channels) + 1.0) / 2.0, 0.0, 1.0)
        name = f"sample_{i:03d}{suffix}"
        write_pixmap(out / name, Canvas(pixels))
        outputs[f"sample_{i:03d}"] = name
    return _save_manifest("sample", config, out, outputs)


def run_fit_stroke(config: dict) -> RunManifest:
    target = read_pixmap(config["target"])
    result = fit_stroke(target, iterations=config["iterations"])
    out = _out_dir(config)
    save_strokes(out / "fitted.json", [result.stroke])
    render, _ = rasterize_stroke(result.stroke, (target.height, target.width),
                                 channels=target.channels)
    render_name = "render" + SUFFIX_BY_CHANNELS[target.channels]
    write_pixmap(out / render_name, render)
    print(f"fit loss {result.loss:.6f} after {config['iterations']} iterations")
    return _save_manifest("fit-stroke", config, out,
                          {"parameters": "fitted.json", "render": render_name})


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
    source = functools.partial(make_scene, side=side, min_strokes=config["min_strokes"],
                               max_strokes=config["max_strokes"])
    result = train_predictor(source, cfg, config["epochs"],
                             np.random.default_rng(config["seed"]),
                             scenes_per_epoch=config["scenes_per_epoch"],
                             holdout_scenes=config["holdout_scenes"], lr=config["lr"])
    out = _out_dir(config)
    result.predictor.save(out / "predictor.ckpt")
    _write_epoch_csv(out / "loss_history.csv", "mean_loss", result.loss_history)
    _write_epoch_csv(out / "rank_error.csv", "rank_error", result.rank_error_history)
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
    suffix = SUFFIX_BY_CHANNELS[target.channels]
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
            "scr_r": placed.prediction.scr_r,
            "d": placed.prediction.d,
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
    return _save_manifest("paint", config, out, outputs)


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
                ref = read_pixmap(ref_path)
                if ref.pixels.shape != canvas.pixels.shape:
                    raise DataIOError(f"{path} has shape {canvas.pixels.shape}, its reference "
                                      f"{ref_path} {ref.pixels.shape}")
                paired = _float_cell(mse(canvas.pixels, ref.pixels))
        rows.append([path.stem, crd.region_count, _float_cell(crd.area_ratio), paired])
    out = _out_dir(config)
    _write_csv(out / "metrics.csv",
               ["image_id", "region_count", "area_ratio", "mse_if_paired"], rows)
    return _save_manifest("metrics", config, out, {"report": "metrics.csv"})


def run_replay(config: dict) -> RunManifest:
    manifest = RunManifest.load(config["manifest"])
    # replay records the run it repeats, so a manifest naming replay is not one of its own
    if manifest.command not in COMMANDS or manifest.command == "replay":
        raise DataIOError(f"manifest names unknown command {manifest.command!r}")
    flags = COMMANDS[manifest.command].flags
    # Keys of flags since removed (sample's eta_mode and prior_mode, verify-math's
    # corrupt_variance) are dropped.
    replayed = {f.name: manifest.config[f.name] for f in flags if f.name in manifest.config}
    if config["out"] is not None:
        replayed["out"] = config["out"]
    missing = sorted(f.name for f in flags if f.name not in replayed)
    if missing:
        raise DataIOError(f"manifest config for {manifest.command} lacks {', '.join(missing)}")
    for flag in flags:
        if not flag.accepts(replayed[flag.name]):
            raise DataIOError(f"manifest config for {manifest.command} has a {flag.name} that "
                              f"{flag.option} does not take: {replayed[flag.name]!r}")
    _check_ranges(manifest.command, replayed)
    return COMMANDS[manifest.command].runner(replayed)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether a number is a finite float; a recorded int past float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_ranges(command: str, config: dict) -> None:
    """Reject out-of-range counts and non-finite float flags before a command writes anything."""
    for flag in COMMANDS[command].flags:
        value = config[flag.name]
        if flag.minimum is not None and (not isinstance(value, int) or value < flag.minimum):
            raise ConfigError(f"{flag.option} must be an integer of at least {flag.minimum}, "
                              f"got {value!r}")
        if flag.type in (float, _lambda_triple):
            if not all(map(_is_finite, value if isinstance(value, list) else [value])):
                raise ConfigError(f"{flag.option} must be finite, got {value!r}")


def _lambda_triple(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated weights, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class Flag(NamedTuple):
    """One flag of a command, stored in the run's config under ``name``.

    ``type`` is what the parser calls on the flag's text, and on a default
    given as text; ``bool`` makes an on/off switch. ``minimum`` is the
    smallest accepted integer. ``reads`` marks a path to a file or directory
    the command reads, which its manifest lists under ``inputs``.
    """

    name: str
    type: Callable = str
    default: object = None
    required: bool = False
    minimum: int | None = None
    reads: bool = False
    choices: tuple | None = None
    help: str | None = None
    metavar: str | None = None

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")

    def accepts(self, value) -> bool:
        """Whether a recorded config value is one this flag's parser could have produced."""
        if self.type is bool:
            return isinstance(value, bool)
        if self.type is _lambda_triple:
            return isinstance(value, list) and len(value) == 3 and all(map(_is_number, value))
        if self.type is int:
            typed = isinstance(value, int) and not isinstance(value, bool)
        elif self.type is float:
            typed = _is_number(value)
        else:  # paths and names; argv cannot carry a NUL byte
            typed = (isinstance(value, str) and "\0" not in value
                     or value is None and not self.required and self.default is None)
        return typed and (self.choices is None or value in self.choices)


class Command(NamedTuple):
    """A subcommand: the function that runs it, its help line, and its flags in order."""

    runner: Callable[[dict], RunManifest]
    help: str
    flags: tuple[Flag, ...]


# A drawn stroke needs a canvas whose square holds its MIN_CORE_PIXELS core.
CORE_SIDE = math.isqrt(MIN_CORE_PIXELS - 1) + 1
SEED = Flag("seed", int, required=True, minimum=0)
OUT = Flag("out", required=True)
SCHEDULE = Flag("schedule", default="scaled_linear", choices=SCHEDULE_MODES)

COMMANDS = {
    "gen-data": Command(run_gen_data, "generate single-stroke images plus parameters", (
        Flag("count", int, required=True, minimum=1),
        Flag("canvas_size", int, 32, minimum=CORE_SIDE),
        SEED,
        Flag("flips", bool, False, help="random horizontal/vertical flips"),
        Flag("rotations", bool, False, help="random quarter turns"),
        Flag("gray", bool, False, help="write grayscale pixmaps"),
        OUT,
    )),
    "verify-math": Command(run_verify_math, "run the forward-process identity suite", (
        Flag("steps", int, 1000, minimum=1),
        SCHEDULE,
        SEED,
        Flag("mc_draws", int, 200_000, minimum=1),
        OUT,
    )),
    "train-diffusion": Command(run_train_diffusion, "fit the target-prediction net on pixmaps", (
        Flag("data", required=True, reads=True, help="directory of equally sized pixmaps"),
        Flag("steps", int, 64, minimum=1),
        SCHEDULE,
        Flag("upsilon", float, 0.5),
        Flag("eta_mode", default="eta_uniform", choices=ETA_MODES),
        Flag("prior_mode", default="stochastic", choices=PRIOR_MODES),
        Flag("prior_pairs", int, 8, minimum=1),
        Flag("epochs", int, required=True, minimum=1),
        Flag("batch_size", int, 32, minimum=1),
        Flag("lr", float, 1e-3),
        SEED,
        OUT,
    )),
    "sample": Command(run_sample, "draw images from a trained checkpoint", (
        Flag("checkpoint", required=True, reads=True),
        Flag("count", int, 4, minimum=1),
        Flag("canvas_size", int, required=True, minimum=1),
        Flag("steps", int, 64, minimum=1),
        SCHEDULE,
        Flag("no_noise", bool, False, help="deterministic reverse steps"),
        SEED,
        OUT,
    )),
    "fit-stroke": Command(run_fit_stroke, "recover stroke parameters from one image", (
        Flag("target", required=True, reads=True),
        Flag("iterations", int, FIT_ITERATIONS, minimum=MIN_ITERATIONS),
        SEED._replace(help="recorded for the manifest only; fitting is deterministic"),
        OUT,
    )),
    "train-predictor": Command(
        run_train_predictor, "train the stroke predictor on synthetic scenes", (
            Flag("canvas_size", int, 32, minimum=CORE_SIDE),
            Flag("min_strokes", int, 1, minimum=1),
            Flag("max_strokes", int, 5, minimum=1),
            Flag("slots", int, 8, minimum=1, help="prediction slots per patch"),
            Flag("margin", float, 0.125),
            Flag("lambda_m", _lambda_triple, "5,10,10", metavar="L1,COS,PRESENCE"),
            Flag("lambda_r", float, 5.0),
            Flag("epochs", int, required=True, minimum=1),
            Flag("scenes_per_epoch", int, 8, minimum=1),
            Flag("holdout_scenes", int, 4, minimum=0),
            Flag("lr", float, 1e-3),
            SEED,
            OUT,
        )),
    "paint": Command(run_paint, "paint a target image with a trained predictor", (
        Flag("target", required=True, reads=True),
        Flag("predictor", required=True, reads=True),
        Flag("layers", int, 2, minimum=1),
        Flag("threshold", float, 0.5),
        OUT,
    )),
    "metrics": Command(run_metrics, "structural metrics over a directory of pixmaps", (
        Flag("images", required=True, reads=True),
        Flag("ref", reads=True, help="directory of same-named reference pixmaps"),
        Flag("threshold", float, DEFAULT_FOREGROUND_THRESHOLD),
        OUT,
    )),
    "replay": Command(run_replay, "repeat a run from its manifest", (
        Flag("manifest", required=True),
        Flag("out", help="override the recorded output directory"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strokecraft",
        description="Prior-regularized diffusion and brushstroke painting harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            if flag.type is bool:
                p.add_argument(flag.option, action="store_true", help=flag.help)
            else:
                p.add_argument(flag.option, type=flag.type, default=flag.default,
                               required=flag.required, choices=flag.choices, help=flag.help,
                               metavar=flag.metavar)
    return parser


def main(argv=None) -> int:
    config = vars(build_parser().parse_args(argv))
    command = config.pop("command")
    try:
        _check_ranges(command, config)
        COMMANDS[command].runner(config)
    except StrokecraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # sizes past this machine's memory (say --mc-draws 10**11) are bad arguments
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return ConfigError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
