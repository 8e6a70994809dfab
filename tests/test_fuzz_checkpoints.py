"""Corrupted predictor and denoiser checkpoints end in an exit code, never a traceback.

Each example copies a valid checkpoint, damages it (truncation, byte flips,
header edits, non-finite weights) and runs ``paint`` or ``sample`` on it
in-process through ``cli.main``.  NaN weights must give exit 4 (numerical).  The example count and the seed are fixed,
so the suite runs the same inputs every time.
"""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strokecraft.cli import main
from strokecraft.diffusion.denoiser import Denoiser
from strokecraft.painting import StrokePredictor
from strokecraft.pixmap import write_pixmap
from strokecraft.strokes import Canvas

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """A small valid predictor, denoiser and paint target, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    StrokePredictor.create(rng, input_side=8, conv_channels=(4, 6), fc_hidden=16,
                           max_strokes=3).save(root / "predictor.ckpt")
    Denoiser.create(16, hidden=(8,), time_dim=4, rng=rng).save(root / "denoiser.ckpt")
    write_pixmap(root / "target.ppm", Canvas(rng.uniform(size=(8, 8, 3))))
    return root


def command(root: Path, kind: str, ckpt: Path, out: Path) -> list[str]:
    if kind == "predictor":
        return ["paint", "--target", str(root / "target.ppm"), "--predictor", str(ckpt),
                "--layers", "1", "--out", str(out)]
    return ["sample", "--checkpoint", str(ckpt), "--count", "1", "--canvas-size", "4",
            "--steps", "4", "--seed", "0", "--out", str(out)]


def split(raw: bytes) -> tuple[dict, bytes]:
    (hlen,) = struct.unpack("<I", raw[:4])
    return json.loads(raw[4:4 + hlen]), raw[4 + hlen:]


def join(header: dict, body: bytes) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob + body


header_values = st.one_of(
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 40), st.floats(-2.0, 40.0), st.text(max_size=2)),
             max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def damage(draw, raw: bytes):
    """One corruption of a checkpoint's bytes, and whether it wrote NaN weights."""
    how = draw(st.sampled_from(["truncate", "flip", "header", "weights"]))
    if how == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))], False
    if how == "flip":
        data = bytearray(raw)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data), False
    header, body = split(raw)
    if how == "header":
        key = draw(st.sampled_from(sorted(header)))
        if draw(st.booleans()):
            header[key] = draw(header_values)
        else:
            del header[key]
        return join(header, body), False
    weights = np.frombuffer(body, dtype="<f8").copy()
    spots = draw(st.lists(st.integers(0, weights.size - 1), min_size=1, max_size=8))
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e300]))
    weights[spots] = value
    return join(header, weights.astype("<f8").tobytes()), bool(np.isnan(value))


@pytest.mark.parametrize("kind", ["predictor", "denoiser"])
@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_exits_cleanly(sources, kind, data):
    raw = (sources / f"{kind}.ckpt").read_bytes()
    damaged, nan_weights = data.draw(damage(raw))
    with tempfile.TemporaryDirectory() as work:
        ckpt = Path(work) / "damaged.ckpt"
        ckpt.write_bytes(damaged)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(command(sources, kind, ckpt, Path(work) / "out"))
    assert code == 4 if nan_weights else code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
