"""Which outputs keep their bits when numpy or OpenBLAS run a lower CPU level.

One short command list runs in a fresh interpreter per level, the level set
only in that child's environment: numpy's default dispatch, numpy without its
AVX-512 loops, without AVX2 as well, and OpenBLAS on its oldest x86 kernel.
Every image, ``params.json``, ``identities.csv`` and ``fitted.json`` must equal
the default level's bytes. Checkpoints and loss histories are not listed:
``np.exp``, ``np.log`` and ``np.tanh`` round their last bits differently per
level, and training carries that into every weight (see the README).
A level is skipped where numpy does not dispatch to the feature it switches off.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strokecraft

AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"
# name: (the CPU feature the level needs to differ from the default, the child's environment)
LEVELS = {
    "no-avx512": ("X86_V4", {"NPY_DISABLE_CPU_FEATURES": AVX512_TARGETS}),
    "no-avx2": ("X86_V3", {"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + AVX512_TARGETS}),
    "blas-prescott": ("SSE3", {"OPENBLAS_CORETYPE": "Prescott"}),
}
COMMANDS = [
    ["gen-data", "--count", "6", "--canvas-size", "32", "--seed", "5", "--out", "data"],
    ["gen-data", "--count", "6", "--canvas-size", "16", "--gray", "--flips", "--rotations",
     "--seed", "7", "--out", "data16"],
    ["verify-math", "--steps", "200", "--mc-draws", "20000", "--seed", "1", "--out", "checks"],
    ["fit-stroke", "--target", "data/stroke_000.ppm", "--iterations", "40", "--seed", "4",
     "--out", "fit"],
    ["fit-stroke", "--target", "data16/stroke_000.pgm", "--iterations", "40", "--seed", "4",
     "--out", "fit16"],
]
KEPT = ("*.ppm", "*.pgm", "params.json", "identities.csv", "fitted.json")
# runs each argv of COMMANDS through the CLI in one interpreter, stopping at a failure
CHILD = """
import json, sys
from strokecraft.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def run_level(directory: Path, extra_env: dict) -> dict[str, str]:
    """sha256 of every kept output of the command list, by path under ``directory``."""
    directory.mkdir()
    src = str(Path(strokecraft.__file__).parents[1])
    env = {**os.environ, **extra_env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)], cwd=directory,
                   env=env, check=True, capture_output=True)
    return {str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
            for pattern in KEPT for path in sorted(directory.rglob(pattern))}


@pytest.fixture(scope="module")
def default_level(tmp_path_factory):
    return run_level(tmp_path_factory.mktemp("levels") / "default", {})


def test_the_default_level_writes_every_kept_output(default_level):
    assert sum(name.endswith((".ppm", ".pgm")) for name in default_level) == 14
    for name in ("data/params.json", "data16/params.json", "checks/identities.csv",
                 "fit/fitted.json", "fit16/fitted.json"):
        assert name in default_level


@pytest.mark.parametrize("level", LEVELS)
def test_kept_outputs_have_the_default_levels_bytes(level, default_level, cpu_features,
                                                    tmp_path):
    feature, extra_env = LEVELS[level]
    if not cpu_features.get(feature):
        pytest.skip(f"numpy does not dispatch to {feature} here")
    assert run_level(tmp_path / level, extra_env) == default_level
