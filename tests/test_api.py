"""The library holds what its own modules use.

Every public top-level function or class of ``src/pointbarrier`` must be
called, referenced or imported somewhere in the package outside its own
definition, and every dataclass field or property must be read somewhere
in the package.  A name that only tests use belongs in the tests (the
oracles in ``conftest.py``), not in the library.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _is_property(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        getattr(dec, "id", None) in ("property", "cached_property") for dec in node.decorator_list
    )


def unread_fields(package: Path = PACKAGE) -> list[str]:
    """``module.Class.name`` of each dataclass field or property that no
    code of the package reads.  A read is an attribute load of that name on
    any object (``spec.x``); a store (``spec.x = ...``) or a constructor
    keyword is not."""
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_dataclass(node) and isinstance(item, ast.AnnAssign):
                        defined.append((path.stem, node.name, item.target.id))
                    elif _is_property(item):
                        defined.append((path.stem, node.name, item.name))
    return [f"{mod}.{cls}.{name}" for mod, cls, name in defined if name not in read]


def test_every_field_and_property_is_read_by_the_library():
    assert unread_fields() == []


def test_a_field_that_is_only_stored_is_unread(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Rec:\n"
        "    kept: int\n"
        "    stored: int = 0\n"
        "    @property\n"
        "    def shown(self):\n"
        "        return self.kept\n"
        "def fill(rec):\n"
        "    rec.stored = rec.kept\n"
        "    return Rec(kept=1, stored=2)\n"
    )
    assert unread_fields(tmp_path) == ["mod.Rec.stored", "mod.Rec.shown"]
