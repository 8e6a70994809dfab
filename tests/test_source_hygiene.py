"""Import hygiene of the package source, checked on its syntax trees.

No module imports another module's private (underscore) name or reads one
off a name it imported, and no module but a package ``__init__.py`` imports a
name it never uses.
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


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in the module, and the line of that import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def private_attributes(tree: ast.Module) -> list[str]:
    """Underscore attributes read off an imported name, as ``name.attribute``."""
    imported = imported_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression of the module reads."""
    bound = imported_names(tree)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_private_name_is_imported(path):
    assert private_imports(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_private_attribute_is_read_off_an_import(path):
    assert private_attributes(parse(path)) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_imported_name_is_used(path):
    assert unused_imports(parse(path)) == []


def test_the_checks_see_what_they_forbid():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import __version__\n"
        "from .raster import _blend, coverage_batch\n"
        "from ._private import helper\n"
        "def f(x: np.ndarray, self):\n"
        "    np.random._mt19937 and isinstance(x, json._default_decoder)\n"
        "    return _blend(x, __version__, self._step, np.__name__)\n"
    )
    assert private_imports(tree) == [".raster._blend"]
    assert private_attributes(tree) == ["np.random._mt19937", "json._default_decoder"]
    assert unused_imports(tree) == ["os (line 3)", "coverage_batch (line 6)", "helper (line 7)"]
