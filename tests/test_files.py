"""strokecraft.files is the only module that opens files."""

import ast
from pathlib import Path

import strokecraft

PACKAGE = Path(strokecraft.__file__).parent
FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}


def file_calls(path: Path) -> list[str]:
    """Calls in a module that open a file: builtin open, or a Path or io method.

    A call through the files module itself (``files.read_bytes``) is allowed.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"{path.name}:{node.lineno} open")
        elif (isinstance(func, ast.Attribute) and func.attr in FILE_CALLS
              and not (isinstance(func.value, ast.Name) and func.value.id == "files")):
            found.append(f"{path.name}:{node.lineno} .{func.attr}")
    return found


def test_only_the_files_module_opens_files():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 20
    assert file_calls(PACKAGE / "files.py"), "the walker finds files.py's own opens"
    offenders = [call for path in modules if path.name != "files.py"
                 for call in file_calls(path)]
    assert offenders == []
