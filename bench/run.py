"""strokecraft benchmark: CLI workloads timed from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``. Every program command runs as a fresh
``python3 -m strokecraft.cli`` subprocess, so interpreter start and import
count the way users pay them. Set-up runs in this process, before the timed
part, three times; ``setup_s`` is the median. The timed part repeats whole
rounds of the workload's commands until ``--seconds`` of command time has
passed; ``wall_s`` is the median round. Outputs of every round are checked
outside the timed part.

With ``--trace 1`` the set-up runs once under the timing wrappers of
``tracer.py``, and the timed part alternates untraced rounds with traced
ones, whose commands run under the wrappers. The result then holds the
per-layer metrics of BENCHMARK.json and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads are fixed before numpy loads, here and in every command
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS)

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 3
PREDICTOR = BENCH / "predictor.ckpt"
# Fit cost and paint cost depend strongly on the picture (1 s or 3 s per
# fit, 52 to 70 strokes composited), so the fit targets and the paint target
# come from this fixed seed; the workload seed drives everything else.
PANEL_SEED = 0


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def program_main(argv: list[str]) -> None:
    """Run one CLI command in this process; its messages go to stderr."""
    import strokecraft.cli

    with contextlib.redirect_stdout(sys.stderr):
        code = strokecraft.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}")


def gen_data(out: Path, seed: int, count: int, side: int, *flags: str) -> None:
    program_main(["gen-data", "--count", str(count), "--canvas-size", str(side),
                  "--seed", str(seed), *flags, "--out", rel(out)])


def split_images(directories: list[Path]) -> list[str]:
    """gen-data images that are not one 8-connected region, as it promises.

    Rounding to 8 bits can move a faint stroke across the foreground
    threshold, on about one seed in forty at 32x32, so this is reported and
    does not fail the run.
    """
    notes = []
    for path in sorted(p for d in directories for p in d.glob("stroke_*.p?m")):
        regions = oracles.count_regions(oracles.foreground(oracles.read_pixmap(path)))
        if regions != 1:
            notes.append(f"{rel(path)} has {regions} regions, not 1")
    return notes


def finite_column(path: Path, column: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        values = [float(row[column]) for row in csv.DictReader(fh)]
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"{rel(path)}: {column} is empty or not finite")
    return values


class StrokeFit:
    """Fit strokes to 32x32 renders, then score the fits with ``metrics``."""

    name = "stroke-fit"
    fits = 5

    def setup(self, work: Path, seed: int) -> None:
        gen_data(work / "data", seed, 64, 32)
        gen_data(work / "panel", PANEL_SEED, self.fits, 32)

    def generated(self, work: Path) -> list[Path]:
        return [work / "data", work / "panel"]

    def targets(self, work: Path) -> list[Path]:
        return sorted((work / "panel").glob("stroke_*.ppm"))

    def commands(self, work: Path, out: Path, seed: int):
        renders = out / "renders"
        renders.mkdir()
        for i, target in enumerate(self.targets(work)):
            yield ["fit-stroke", "--target", rel(target), "--seed", str(seed),
                   "--out", rel(out / f"fit_{i}")]
            # metrics pairs images by name, so each render takes its target's
            render = out / f"fit_{i}" / "render.ppm"
            if render.exists():
                shutil.copyfile(render, renders / target.name)
        yield ["metrics", "--images", rel(renders), "--ref", rel(work / "panel"),
               "--out", rel(out / "scores")]

    def check(self, work: Path, out: Path, seed: int):
        """Problems as (command index or None, message)."""
        truth = json.loads((work / "panel" / "params.json").read_text())
        recovered = 0
        for i, target in enumerate(self.targets(work)):
            fitted = json.loads((out / f"fit_{i}" / "fitted.json").read_text())
            render = oracles.read_pixmap(out / f"fit_{i}" / "render.ppm")
            fit_alpha = oracles.coverage_map(fitted[0], 32, 32)
            expected = 1.0 + fit_alpha[:, :, None] * (
                np.array(oracles.stroke_colour(fitted[0], 3)) - 1.0)
            bad = np.abs(render - 255.0 * np.clip(expected, 0.0, 1.0)) > 0.5 + 1e-6
            if bad.any():
                yield i, f"fit {i}: {int(bad.sum())} render pixels differ from fitted.json"
            true_alpha = oracles.coverage_map(truth[int(target.stem[-3:])], 32, 32)
            recovered += oracles.iou(true_alpha, fit_alpha) >= 0.85
        if recovered < math.ceil(0.8 * self.fits):
            yield None, f"only {recovered}/{self.fits} fits reach coverage IoU 0.85"
        with open(out / "scores" / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        metrics_index = self.fits
        if [r["image_id"] for r in rows] != [t.stem for t in self.targets(work)]:
            yield metrics_index, "metrics.csv does not list one row per render"
        for row in rows:
            render = oracles.read_pixmap(out / "renders" / f"{row['image_id']}.ppm")
            reference = oracles.read_pixmap(work / "panel" / f"{row['image_id']}.ppm")
            mask = oracles.foreground(render)
            mse = np.mean(((render.astype(float) - reference) / 255.0) ** 2)
            if (int(row["region_count"]) != oracles.count_regions(mask)
                    or abs(float(row["area_ratio"]) - mask.mean()) > 1e-12
                    or abs(float(row["mse_if_paired"]) - mse) > 1e-12):
                yield metrics_index, f"metrics.csv row {row['image_id']} disagrees"


class PredictorPaint:
    """Train the stroke predictor, then paint a 256x256 target in 3 layers."""

    name = "predictor-paint"
    side = 256
    layers = 3
    epochs = 10
    threshold = 0.5

    def setup(self, work: Path, seed: int) -> None:
        from strokecraft.pixmap import write_pixmap
        from strokecraft.strokes.canvas import Canvas
        from strokecraft.strokes.model import BezierStroke, load_strokes
        from strokecraft.strokes.raster import compose_over

        gen_data(work / "strokes", PANEL_SEED, 12, 32)
        scale = self.side / 32
        canvas = Canvas.white(self.side, 3)
        for stroke in load_strokes(work / "strokes" / "params.json"):
            vector = stroke.vector.copy()
            vector[:8] *= scale
            vector[12] *= scale
            canvas = compose_over(canvas, BezierStroke(vector))
        write_pixmap(work / "target.ppm", canvas)

    def generated(self, work: Path) -> list[Path]:
        return [work / "strokes"]

    def commands(self, work: Path, out: Path, seed: int):
        yield ["train-predictor", "--canvas-size", "32", "--epochs", str(self.epochs),
               "--holdout-scenes", "48", "--seed", str(seed), "--out", rel(out / "train")]
        yield ["paint", "--predictor", rel(PREDICTOR), "--target", rel(work / "target.ppm"),
               "--layers", str(self.layers), "--threshold", str(self.threshold),
               "--out", rel(out / "paint")]

    def check(self, work: Path, out: Path, seed: int):
        losses = finite_column(out / "train" / "loss_history.csv", "mean_loss")
        errors = finite_column(out / "train" / "rank_error.csv", "rank_error")
        if len(losses) != self.epochs or not all(0.0 <= e <= 1.0 for e in errors):
            yield 0, "training histories have the wrong length or range"
        listing = json.loads((out / "paint" / "strokes.json").read_text())
        for layer in range(self.layers):
            kept = [s for s in listing if s["layer"] == layer]
            scores = [s["scr_r"] for s in kept]
            if any(s["d"] < self.threshold for s in kept) or scores != sorted(scores):
                yield 1, f"layer {layer} lists a dropped stroke or is out of rank order"
        if [s["layer"] for s in listing] != sorted(s["layer"] for s in listing):
            yield 1, "strokes.json is not in layer order"
        target = oracles.read_pixmap(work / "target.ppm")
        final = oracles.read_pixmap(out / "paint" / "final.ppm")
        height, width, channels = target.shape
        if final.shape != target.shape:
            yield 1, f"final canvas is {final.shape}, target {target.shape}"
            return
        side = oracles.padded_side(height, width, self.layers, 32)
        vectors = [oracles.placed_vector(s, side) for s in listing]
        rng = np.random.default_rng(seed)
        for y, x in zip(rng.integers(height, size=48), rng.integers(width, size=48)):
            value = oracles.composite_pixel(vectors, int(x), int(y), channels)
            if not all(oracles.within_quantization(int(b), v) for b, v in zip(final[y, x], value)):
                yield 1, f"final pixel ({x}, {y}) is {final[y, x].tolist()}, formula gives {value}"
        painted = np.mean((final / 255.0 - target / 255.0) ** 2)
        blank = np.mean((1.0 - target / 255.0) ** 2)
        if not painted < blank:
            yield 1, f"painting MSE {painted:.5f} is not below the blank canvas's {blank:.5f}"


class DiffusionDesk:
    """Check the forward-process algebra, train the denoiser, sample, replay."""

    name = "diffusion-desk"
    samples = 9

    def setup(self, work: Path, seed: int) -> None:
        gen_data(work / "data16", seed, 64, 16, "--gray", "--flips", "--rotations")

    def generated(self, work: Path) -> list[Path]:
        return [work / "data16"]

    def commands(self, work: Path, out: Path, seed: int):
        yield ["verify-math", "--steps", "1000", "--seed", str(seed), "--out", rel(out / "checks")]
        yield ["train-diffusion", "--data", rel(work / "data16"), "--steps", "64",
               "--upsilon", "0.5", "--prior-pairs", "8", "--epochs", "20",
               "--seed", str(seed), "--out", rel(out / "run")]
        yield ["sample", "--checkpoint", rel(out / "run" / "denoiser.ckpt"), "--steps", "64",
               "--count", str(self.samples), "--canvas-size", "16", "--seed", str(seed),
               "--out", rel(out / "samples")]
        yield ["replay", "--manifest", rel(out / "samples" / "manifest.json"),
               "--out", rel(out / "replayed")]

    def check(self, work: Path, out: Path, seed: int):
        with open(out / "checks" / "identities.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            yield 0, "identities.csv is empty"
        for row in rows:
            if row["pass"] != "true" or not float(row["max_error"]) <= float(row["tolerance"]):
                yield 0, f"identity {row['identity']} fails"
        losses = finite_column(out / "run" / "loss_history.csv", "mean_loss")
        if not losses[-1] < losses[0]:
            yield 1, f"denoising loss did not fall: {losses[0]} -> {losses[-1]}"
        names = [f"sample_{i:03d}.pgm" for i in range(self.samples)]
        for name in names:
            if oracles.read_pixmap(out / "samples" / name).shape != (16, 16, 1):
                yield 2, f"{name} is not a 16x16 grayscale image"
        for name in names:
            if (out / "replayed" / name).read_bytes() != (out / "samples" / name).read_bytes():
                yield 3, f"replayed {name} differs from the original"


WORKLOADS = {w.name: w for w in (StrokeFit(), PredictorPaint(), DiffusionDesk())}


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    # commands load the byte code the set-up compiled, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_command(argv: list[str], log: Path, spans: Path | None) -> dict:
    """One CLI command in a fresh interpreter: exit code, wall time, max RSS."""
    if spans is None:
        cmd = [sys.executable, "-m", "strokecraft.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), *argv]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{argv[0]} exited {proc.returncode}; log in {rel(log)}", file=sys.stderr)
    # ru_maxrss is in KiB on Linux
    return {"code": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def traced_totals(logs: Path) -> tuple[dict, list[float]]:
    """Per-layer totals of a traced round's commands, and their import times."""
    parts, imports = [], []
    for path in sorted(logs.glob("*.spans.json")):
        data = json.loads(path.read_text())
        parts.append(tracer.aggregate(data["spans"]))
        imports.append(data["import_s"])
    return tracer.merge(parts), imports


def run_round(workload, work: Path, out: Path, seed: int, traced: bool) -> dict:
    """One round of the workload's commands, then its output checks."""
    shutil.rmtree(out, ignore_errors=True)
    (out / "logs").mkdir(parents=True)
    results, commands = [], []
    for i, argv in enumerate(workload.commands(work, out, seed)):
        commands.append(argv)
        spans = out / "logs" / f"{i:02d}.spans.json" if traced else None
        results.append(run_command(argv, out / "logs" / f"{i:02d}-{argv[0]}.log", spans))
    failed = {i for i, r in enumerate(results) if r["code"] != 0}
    problems = []
    try:
        problems = list(workload.check(work, out, seed))
    except Exception:  # a missing or malformed output fails the round, with its traceback
        traceback.print_exc(file=sys.stderr)
        problems = [(None, "outputs could not be checked")]
    for _, message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    failed |= {i for i, _ in problems if i is not None}
    if any(i is None for i, _ in problems):
        failed = set(range(len(results)))
    return {"wall": sum(r["wall"] for r in results),
            "walls": [f"{argv[0]} {r['wall']:.2f}" for argv, r in zip(commands, results)],
            "rss_mb": max(r["rss_mb"] for r in results),
            "attempted": len(results), "failed": len(failed), "correct": not problems,
            "traced": traced, "spans": traced_totals(out / "logs") if traced else None}


def per_layer_metrics(setup_totals: dict, rounds: list[dict], untraced: list[float],
                      spec: list[dict]) -> dict:
    """Per-layer values: the traced set-up plus the median traced round."""
    per_round, imports = [], []
    for r in rounds:
        totals, import_s = r["spans"]
        per_round.append(totals)
        imports.extend(import_s)
    values = {}
    for key in set(setup_totals).union(*per_round):
        values[key] = setup_totals.get(key, 0.0) + statistics.median(
            t.get(key, 0.0) for t in per_round)
    accepted = values.get("strokes.generate.generate_visible_stroke.calls", 0.0)
    values["strokes.generate.draws_per_accept"] = (
        values.get("strokes.generate.rasterizations", 0.0) / accepted if accepted else 0.0)
    values["cli.import_s"] = statistics.median(imports)
    values["trace.wall_s"] = statistics.median(r["wall"] for r in rounds)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(untraced)
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strokecraft" / "cli.py").is_file():
        print(f"error: no strokecraft sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    import strokecraft.cli

    if Path(strokecraft.__file__).resolve().parent != SRC / "strokecraft":
        print(f"error: strokecraft imported from {strokecraft.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    base = ROOT / ".bench_work" / workload.name
    shutil.rmtree(base, ignore_errors=True)

    setup_times, setup_totals = [], {}
    for repeat in range(1 if args.trace else SETUP_REPEATS):
        work = base / f"setup_{repeat}"
        work.mkdir(parents=True)
        if args.trace:
            recorder = tracer.Tracer()
            recorder.install()
            try:
                workload.setup(work, args.seed)
            finally:
                recorder.uninstall()
            setup_totals = tracer.aggregate(recorder.spans)
        else:
            start = time.perf_counter()
            workload.setup(work, args.seed)
            setup_times.append(time.perf_counter() - start)
    work = base / "setup_0"
    for note in split_images(workload.generated(work)):
        print(f"set-up note: {note}")

    rounds = []
    measured = 0.0
    # a traced run alternates untraced and traced rounds, and has one of each
    while measured < args.seconds or (args.trace and len(rounds) < 2):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        result = run_round(workload, work, base / "round", args.seed, traced)
        rounds.append(result)
        measured += result["wall"]
        print(f"round {len(rounds)}{' traced' if traced else ''}: {result['wall']:.3f} s "
              f"({', '.join(result['walls'])}), {result['failed']}/{result['attempted']} failed")
    untraced = [r["wall"] for r in rounds if not r["traced"]]

    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = per_layer_metrics(setup_totals, traced_rounds, untraced, spec["per_layer"])
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
