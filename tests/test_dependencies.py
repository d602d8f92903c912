"""The package's runtime imports are numpy and the standard library only.

Each module under ``src/linespec`` is parsed, not imported, and every
absolute import must name ``numpy`` or a standard-library module; relative
imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "linespec").glob("*.py"))
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_runtime_imports_are_numpy_or_stdlib():
    assert len(SOURCES) >= 10
    foreign = {}
    for path in SOURCES:
        mods = [name for name in _absolute_imports(path) if name.split(".")[0] not in ALLOWED]
        if mods:
            foreign[path.name] = mods
    assert foreign == {}
