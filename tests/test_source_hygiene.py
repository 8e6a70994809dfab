"""Import hygiene of the package source, checked on its syntax trees.

No module imports another module's private (underscore) name, and no module
but a package ``__init__.py`` imports a name it never uses.
"""

import ast
from pathlib import Path

import pytest

import strokecraft

PACKAGE = Path(strokecraft.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(tree: ast.Module) -> list[str]:
    """Underscore names taken from another module, as ``module.name``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [f"{module}.{a.name}" for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if any(_is_private(part) for part in a.name.split("."))]
    return found


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_private_name_is_imported(path):
    assert private_imports(parse(path)) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_imported_name_is_used(path):
    assert unused_imports(parse(path)) == []


def test_the_checks_see_what_they_forbid():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import __version__\n"
        "from .raster import _blend, coverage_batch\n"
        "from ._private import helper\n"
        "def f(x: np.ndarray):\n"
        "    return _blend(x, __version__)\n"
    )
    assert private_imports(tree) == [".raster._blend"]
    assert unused_imports(tree) == ["os (line 2)", "coverage_batch (line 5)", "helper (line 6)"]
