"""Random manifest values, damaged manifests and pixmaps end in an exit code, never a traceback.

One small valid run of every command is recorded first. Each manifest example
replaces one or two of a recorded config's values with random JSON and replays
it; each raw manifest example truncates a recorded manifest's bytes or
overwrites a few of them, invalid UTF-8 included, and replays it; each pixmap
example writes random header tokens and a body of random length, then runs
``metrics`` and ``fit-stroke`` on it. Everything runs
in-process through ``cli.main`` inside a scratch directory, so a relative path
drawn at random resolves there. The example counts and the seed are fixed, so
the suite runs the same inputs every time.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strokecraft.cli import main
from strokecraft.manifest import RunManifest
from strokecraft.pixmap import write_pixmap
from strokecraft.strokes import Canvas

EXIT_CODES = {0, 2, 3, 4, 5}


def fuzz(examples):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def run_cli(argv: list[str], work: Path) -> int:
    """``main`` run in ``work``; asserts the exit code and that no traceback was printed."""
    err = io.StringIO()
    here = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(here)
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """The manifest bytes of one small valid run of every command."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    write_pixmap(root / "target.ppm", Canvas(np.random.default_rng(0).uniform(size=(16, 16, 3))))
    runs = {
        "gen-data": ["--count", "2", "--canvas-size", "16", "--gray", "--seed", "1"],
        "verify-math": ["--steps", "20", "--mc-draws", "2000", "--seed", "1"],
        "train-diffusion": ["--data", str(root / "gen-data"), "--steps", "4", "--epochs", "1",
                            "--prior-pairs", "1", "--batch-size", "2", "--seed", "1"],
        "sample": ["--checkpoint", str(root / "train-diffusion" / "denoiser.ckpt"),
                   "--count", "1", "--canvas-size", "16", "--steps", "4", "--seed", "1"],
        "fit-stroke": ["--target", str(root / "gen-data" / "stroke_000.pgm"),
                       "--iterations", "8", "--seed", "1"],
        "train-predictor": ["--canvas-size", "16", "--max-strokes", "2", "--slots", "2",
                            "--epochs", "1", "--scenes-per-epoch", "1", "--holdout-scenes", "1",
                            "--seed", "1"],
        "paint": ["--target", str(root / "target.ppm"),
                  "--predictor", str(root / "train-predictor" / "predictor.ckpt"),
                  "--layers", "1"],
        "metrics": ["--images", str(root / "gen-data"), "--ref", str(root / "gen-data")],
    }
    recorded = {}
    for command, argv in runs.items():
        assert run_cli([command, *argv, "--out", str(root / command)], root) == 0
        recorded[command] = (root / command / "manifest.json").read_bytes()
    return recorded


@pytest.fixture(scope="module")
def configs(manifests):
    """The recorded config of each run in ``manifests``."""
    return {command: RunManifest.from_json(blob.decode()).config
            for command, blob in manifests.items()}


# integers stay small because cost grows fast in some counts: paint does 4^k
# patch predictions in layer k
json_values = st.one_of(
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 5), st.floats(-2.0, 5.0), st.text(max_size=2)),
             max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@fuzz(150)
@given(data=st.data())
def test_replayed_manifest_with_random_values_exits_cleanly(configs, data):
    command = data.draw(st.sampled_from(sorted(configs)))
    config = dict(configs[command])
    keys = data.draw(st.lists(st.sampled_from(sorted(config)), min_size=1, max_size=2,
                              unique=True))
    for key in keys:
        config[key] = data.draw(json_values)
    with tempfile.TemporaryDirectory() as work:
        RunManifest(command=command, config=config).save(Path(work) / "m.json")
        run_cli(["replay", "--manifest", "m.json", "--out", "out"], Path(work))


@fuzz(200)
@given(data=st.data())
def test_replayed_manifest_with_damaged_bytes_exits_cleanly(manifests, data):
    command = data.draw(st.sampled_from(sorted(manifests)))
    blob = bytearray(manifests[command])
    if data.draw(st.booleans()):
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            spot = data.draw(st.integers(0, len(blob) - 1))
            blob[spot] = data.draw(st.one_of(st.sampled_from(b'\xff\x80\xc3"{9- '),
                                             st.integers(0, 255)))
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "m.json").write_bytes(bytes(blob))
        run_cli(["replay", "--manifest", "m.json", "--out", "out"], Path(work))


JUNK_TOKENS = [b"0", b"-1", b"256", b"0x8", b"1e3", b"#c\n4", b"99999999999999999999", b""]


@st.composite
def pixmaps(draw):
    """Bytes of a small pixmap, whole or with one part damaged, and its suffix.

    The damage is a wrong magic number, a header token replaced by or
    followed by junk, or a body one byte off or of any size up to 600.
    """
    how = draw(st.sampled_from(["whole", "magic", "header", "body"]))
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    if how == "magic":
        magic = draw(st.sampled_from([b"P4", b"P7", b"", b"p6"]))
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    tokens = [b"%d" % width, b"%d" % height, draw(st.sampled_from([b"255", b"7"]))]
    if how == "header":
        spot = draw(st.integers(0, 3))
        tokens[spot:spot + 1] = draw(st.lists(st.sampled_from(JUNK_TOKENS), max_size=2))
    header = magic + b"\n" + b" ".join(tokens) + draw(st.sampled_from([b"\n", b" "]))
    size = width * height * (1 if magic == b"P5" else 3)
    if how == "body":
        size = draw(st.one_of(st.sampled_from([size + 1, size - 1]), st.integers(0, 600)))
    body = draw(st.binary(min_size=size, max_size=size))
    return header + body, draw(st.sampled_from([".pgm", ".ppm"]))


@fuzz(100)
@given(pixmap=pixmaps())
def test_damaged_pixmap_exits_cleanly(pixmap):
    blob, suffix = pixmap
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "images").mkdir()
        (Path(work) / "images" / f"x{suffix}").write_bytes(blob)
        run_cli(["metrics", "--images", "images", "--out", "scores"], Path(work))
        run_cli(["fit-stroke", "--target", f"images/x{suffix}", "--iterations", "8",
                 "--seed", "0", "--out", "fit"], Path(work))
