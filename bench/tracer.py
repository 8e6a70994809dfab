"""Timing wrappers around strokecraft's public functions, for the traced run.

``Tracer.install`` replaces each function in TARGETS, in every loaded
strokecraft module that binds it, with a wrapper that records a span: name,
start, end, the span that was open when it began, and a few counts taken
from the arguments. Spans stay in memory; ``aggregate`` turns them into the
per-layer metrics.

Run as a script, it is a traced stand-in for ``python -m strokecraft.cli``:

    python3 bench/tracer.py SPANS.json COMMAND [ARGS...]

It times the fresh-interpreter import of ``strokecraft.cli``, runs the
command under the wrappers and writes the spans to SPANS.json once, at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

# (defining module, attribute); the span is named after both, less "strokecraft."
TARGETS = (
    ("strokecraft.strokes.raster", "coverage_batch"),
    ("strokecraft.strokes.raster", "compose_over"),
    ("strokecraft.strokes.raster", "rasterize_stroke"),
    ("strokecraft.strokes.fitting", "fit_stroke"),
    ("strokecraft.strokes.generate", "generate_visible_stroke"),
    ("strokecraft.metrics", "label_components"),
    ("strokecraft.metrics", "connected_regions"),
    ("strokecraft.painting.training", "make_scene"),
    ("strokecraft.painting.training", "train_predictor"),
    ("strokecraft.painting.training", "_holdout_rank_error"),
    ("strokecraft.painting.predictor", "loss_and_grad"),
    ("strokecraft.painting.predictor", "predict_strokes"),
    ("strokecraft.painting.losses", "total_predictor_loss"),
    ("strokecraft.painting.losses", "linear_sum_assignment"),
    ("strokecraft.painting.compose", "layered_paint"),
    ("strokecraft.nn", "conv2d_forward"),
    ("strokecraft.nn", "conv2d_backward"),
    ("strokecraft.nn", "Adam.update"),
    ("strokecraft.diffusion.process", "smr_forward_sample"),
    ("strokecraft.diffusion.denoiser", "Denoiser.loss_and_grad"),
    ("strokecraft.diffusion.denoiser", "Denoiser.predict"),
    ("strokecraft.diffusion.sampler", "ancestral_sample"),
    ("strokecraft.diffusion.verify", "verify_identities"),
    ("strokecraft.pixmap", "read_pixmap"),
    ("strokecraft.pixmap", "write_pixmap"),
    ("strokecraft.manifest", "RunManifest.save"),
)

MB = float(2**20)


def _raster_counts(bound) -> dict:
    """Work of one coverage_batch call, computed from its argument sizes."""
    args = bound.arguments
    strokes = len(args["vectors"])
    temp = strokes * (args["samples"] - 1) * args["height"] * args["width"]
    # seg_pixels sums B*(S-1)*H*W; temp_mb is the largest such float64 array
    return {"strokes": strokes, "seg_pixels": temp, "temp_mb": temp * 8 / MB}


def _label_counts(bound) -> dict:
    return {"pixels": int(bound.arguments["mask"].size)}


def _pixmap_bytes(bound) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


COUNTS = {
    "strokes.raster.coverage_batch": _raster_counts,
    "metrics.label_components": _label_counts,
    "pixmap.write_pixmap": _pixmap_bytes,
}


class Tracer:
    """Spans of one process, each ``[name, start, end, parent, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = counts(bound)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every loaded strokecraft module that binds it.

        ``strokecraft.cli.main`` gets a span named after the command it runs.
        """
        cli = importlib.import_module("strokecraft.cli")
        main = cli.main

        @functools.wraps(main)
        def traced_main(argv):
            with self.span(f"cli.{argv[0]}"):
                return main(argv)

        self._patch(cli, "main", traced_main)
        for module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the program no longer has it; its metrics read 0
            name = module_name.removeprefix("strokecraft.") + "." + path
            wrapper = self._wrap(name, original)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for module_key, module in list(sys.modules.items()):
                if module_key.startswith("strokecraft"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# (callee, caller, count): calls of the callee made under the caller
NESTED = (
    ("painting.predictor.loss_and_grad", "painting.training._holdout_rank_error",
     "painting.predictor.loss_and_grad.discarded"),
    ("strokes.raster.compose_over", "painting.compose.layered_paint",
     "painting.compose.strokes_composited"),
    ("strokes.raster.rasterize_stroke", "strokes.generate.generate_visible_stroke",
     "strokes.generate.rasterizations"),
)


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one process's spans.

    ``<name>.calls``, ``<name>.s`` (inclusive) and ``<name>.self_s`` (less the
    time of child spans) for every span name, the summed counts, and the
    NESTED counts.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def under(index: int, name: str) -> bool:
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def contributions():
        for index, (name, start, end, _, counts) in enumerate(spans):
            yield {f"{name}.calls": 1, f"{name}.s": end - start,
                   f"{name}.self_s": end - start - child_time[index],
                   **{f"{name}.{key}": value for key, value in (counts or {}).items()}}
            for callee, caller, key in NESTED:
                if name == callee and under(index, caller):
                    yield {key: 1}

    return merge(contributions())


def merge(parts) -> dict[str, float]:
    """Sum totals; the temporary size is a maximum, not a sum."""
    merged: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key.endswith(".temp_mb"):
                merged[key] = max(merged.get(key, 0.0), value)
            else:
                merged[key] = merged.get(key, 0.0) + value
    return merged


def _main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("strokecraft.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
