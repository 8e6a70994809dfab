"""No command imports numpy.ma.

numpy 2 imports ``numpy.ma`` lazily, from ``np.median`` and ``np.unique``
among others. That import adds about 1.9 MB to a command's peak memory and
8–11 ms to its run, so the package takes medians and checks distinct values
on a sort instead. Each command below runs in one fresh interpreter, which
checks ``sys.modules`` after every command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strokecraft

COMMANDS = [
    ["gen-data", "--count", "4", "--canvas-size", "32", "--seed", "5", "--out", "data"],
    ["gen-data", "--count", "4", "--canvas-size", "16", "--gray", "--flips", "--rotations",
     "--seed", "7", "--out", "data16"],
    ["fit-stroke", "--target", "data/stroke_000.ppm", "--iterations", "8", "--seed", "4",
     "--out", "fit"],
    ["metrics", "--images", "data", "--ref", "data", "--out", "scores"],
    ["train-predictor", "--epochs", "1", "--seed", "3", "--out", "train"],
    ["paint", "--predictor", "train/predictor.ckpt", "--target", "data/stroke_001.ppm",
     "--out", "paint"],
]
# runs each argv of COMMANDS through the CLI, stopping at a failure or at numpy.ma
CHILD = """
import json, sys
from strokecraft.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
    if "numpy.ma" in sys.modules:
        sys.exit(f"{argv[0]} imported numpy.ma")
"""


def run_child(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(strokecraft.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy 1.x imports numpy.ma with numpy itself
    bare = run_child(["-c", "import sys, numpy; sys.exit('numpy.ma' in sys.modules)"], tmp_path)
    if bare.returncode:
        pytest.skip("import numpy alone loads numpy.ma")
    result = run_child(["-c", CHILD, json.dumps(COMMANDS)], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
