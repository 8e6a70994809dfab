"""Import hygiene of the package source, checked on its syntax trees.

No module imports another module's private (underscore) name or reads one
off a name it imported, and no module but a package ``__init__.py`` imports a
name it never uses. Every name has one import path inside the package, its
defining module: no module takes a name through a subpackage ``__init__.py``
that only re-exports it, and each subpackage re-exports exactly the names
that the README's library sketch imports from it.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import strokecraft

PACKAGE = Path(strokecraft.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
SUBPACKAGES = sorted(p.parent.name for p in PACKAGE.glob("*/__init__.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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


def package_of(path: Path) -> str:
    """The dotted package a module file belongs to, for relative imports."""
    return ".".join(path.parent.relative_to(PACKAGE.parent).parts)


def reexported_imports(tree: ast.Module, package: str) -> list[str]:
    """Names taken from a strokecraft package ``__init__.py`` that only re-exports them.

    A name the ``__init__`` binds by an import is a re-export; a submodule,
    or a name the ``__init__`` defines itself, is not. ``package`` anchors
    the relative imports.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
        init = PACKAGE.parent.joinpath(*source.split("."), "__init__.py")
        if source.split(".")[0] != PACKAGE.name or not init.is_file():
            continue
        reexports = imported_names(parse(init))
        found += [f"{source}.{a.name}" for a in node.names if a.name in reexports]
    return found


def sketch_imports() -> list[ast.stmt]:
    """The import statements of the README's library-sketch code blocks."""
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return [node for block in blocks for node in ast.parse(block).body
            if isinstance(node, (ast.Import, ast.ImportFrom))]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_name_is_imported_through_a_reexport(path):
    assert reexported_imports(parse(path), package_of(path)) == []


def test_the_readme_sketch_imports_run():
    statements = sketch_imports()
    assert statements
    exec(compile(ast.Module(body=statements, type_ignores=[]), str(README), "exec"), {})


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_a_subpackage_reexports_only_the_readme_sketch_names(name):
    dotted = f"{PACKAGE.name}.{name}"
    sketch = {a.name for node in sketch_imports()
              if isinstance(node, ast.ImportFrom) and node.module == dotted for a in node.names}
    bound = set(imported_names(parse(PACKAGE / name / "__init__.py")))
    assert sorted(importlib.import_module(dotted).__all__) == sorted(bound) == sorted(sketch)


def test_the_reexport_check_sees_what_it_forbids():
    tree = ast.parse(
        "from . import __version__, files\n"
        "from .diffusion import verify, SmrConfig\n"
        "from .diffusion.process import ETA_MODES\n"
        "from strokecraft.painting import compose, make_scene\n"
        "from numpy import ndarray\n"
    )
    assert reexported_imports(tree, "strokecraft") == [
        "strokecraft.diffusion.SmrConfig", "strokecraft.painting.make_scene"]
    assert reexported_imports(ast.parse("from ..strokes import fit_stroke, raster\n"),
                              "strokecraft.painting") == ["strokecraft.strokes.fit_stroke"]


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
