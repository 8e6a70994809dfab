"""Every function the benchmark tracer wraps still exists.

The tracer skips a target it cannot find, so a renamed or deleted function
would silently read 0 in the per-layer metrics. TARGETS is read from the
tracer's source, without importing the harness.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in n.targets))
    return ast.literal_eval(node.value)


@pytest.mark.parametrize("module, attribute",
                         [pytest.param(m, a, id=f"{m}:{a}") for m, a in traced_targets()])
def test_traced_target_resolves(module, attribute):
    target = functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(target)
