"""The library holds what its own modules use.

Every public top-level function or class of ``src/pointbarrier`` must be
called, referenced or imported somewhere in the package outside its own
definition.  A name that only tests use belongs in the tests (the oracles
in ``conftest.py``), not in the library.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pointbarrier"


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def unused_public_names(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each public top-level function or class that no
    code of the package uses outside its own definition."""
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
            used |= names
    return [f"{mod}.{name}" for mod, name in defined if name not in used]


def test_every_public_library_name_is_used_by_the_library():
    assert unused_public_names() == []
