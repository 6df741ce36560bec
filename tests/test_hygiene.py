"""Source hygiene: no module imports a name it never uses, and no
top-level function, class or assigned name, and no class member, in
``src/ytwo`` is dead.

Stdlib ``ast`` scans.  For imports, every module in ``src/ytwo`` and
``tests``: a name counts as used when it appears as an identifier
anywhere in the module, including as the root of an attribute chain.
Package ``__init__.py`` files (their imports are re-exports) and
``from __future__`` imports are exempt.  For definitions, a top-level
function, class or assigned name, or a method, property or annotated
field in the body of a top-level class (dunder names exempt), counts as
referenced when its name appears, outside its own definition (for a
name, the whole assignment), as an identifier, an attribute, an
imported name or a string constant (the bench tracer names what it
wraps by string) in ``src``, ``tests`` or ``perfbench``.
The imports of a package ``__init__.py`` do not count: a re-export is
not a use.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for d in (ROOT / "src" / "ytwo", ROOT / "tests")
    for p in d.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def referenced_names(trees, skip=None) -> set:
    """Identifiers, attribute names, imported names and string constants
    in ``trees``, not counting anything inside the node ``skip``."""
    names = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """``(node, name)`` for each top-level function, class and assigned
    name of ``tree`` and each method, property and annotated field in
    the body of a top-level class, dunder names left out."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*funcs, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and not is_dunder(leaf.id):
                        yield node, leaf.id
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, funcs):
                name = member.name
            elif isinstance(member, ast.AnnAssign) and isinstance(
                member.target, ast.Name
            ):
                name = member.target.id
            else:
                continue
            if not is_dunder(name):
                yield member, name


def unreferenced_definitions(source: str, elsewhere: set) -> list:
    """The ``definitions`` of ``source`` that neither the rest of
    ``source`` references nor ``elsewhere`` names."""
    tree = ast.parse(source)
    return sorted(
        (node.lineno, name)
        for node, name in definitions(tree)
        if name not in elsewhere
        and name not in referenced_names([tree], skip=node)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_planted_import():
    source = "import os\nfrom math import gcd, lcm\n\nprint(os.sep, gcd(4, 6))\n"
    assert unused_imports(source) == [(2, "lcm")]


PACKAGE = sorted((ROOT / "src" / "ytwo").glob("*.py"))
EVERYWHERE = sorted(
    p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def names_in_init(tree) -> set:
    """``referenced_names`` of a package ``__init__`` module, its imports
    (re-exports) left out."""
    imports = (ast.Import, ast.ImportFrom)
    return referenced_names(n for n in tree.body if not isinstance(n, imports))


@functools.cache
def names_in_file(path) -> set:
    tree = ast.parse(path.read_text())
    if path.name == "__init__.py":
        return names_in_init(tree)
    return referenced_names([tree])


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_no_unreferenced_definitions(path):
    elsewhere = set().union(*(names_in_file(p) for p in EVERYWHERE if p != path))
    assert unreferenced_definitions(path.read_text(), elsewhere) == []


def test_scan_finds_planted_definition():
    source = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Dead:\n    pass\n\n"
        "def named():\n    pass\n\n"
        "def exported():\n    pass\n"
    )
    others = ["from mod import exported\nprint(used())\n", "TARGETS = ['named']\n"]
    elsewhere = referenced_names(ast.parse(other) for other in others)
    found = unreferenced_definitions(source, elsewhere)
    assert found == [(4, "recursive"), (7, "Dead")]


def test_scan_finds_planted_reexport():
    source = "def exported():\n    pass\n\ndef called():\n    return 1\n"
    init = "from .mod import called, exported\n\nVERSION = called()\n"
    found = unreferenced_definitions(source, names_in_init(ast.parse(init)))
    assert found == [(1, "exported")]


def test_scan_finds_planted_member():
    source = (
        "class Box:\n"
        "    size: int\n"
        "    label: str = ''\n\n"
        "    def __len__(self):\n        return self.size\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n\n"
        "    @property\n    def dead(self):\n        return 0\n"
    )
    elsewhere = referenced_names([ast.parse("print(Box().used())\n")])
    found = unreferenced_definitions(source, elsewhere)
    assert found == [(3, "label"), (11, "recursive"), (15, "dead")]


def test_scan_finds_planted_constant():
    source = (
        "__all__ = ['LIMIT']\n"
        "LIMIT = 3\n"
        "DEAD = 4\n"
        "WIDTH: int = LIMIT * 2\n"
        "LOW, HIGH = 0, WIDTH\n"
        "SELF = SELF_BASE = 1\n"
        "NAMED = 5\n\n"
        "def used():\n    return HIGH + SELF_BASE\n"
    )
    elsewhere = referenced_names([ast.parse("print(used(), 'NAMED')\n")])
    found = unreferenced_definitions(source, elsewhere)
    assert found == [(3, "DEAD"), (5, "LOW"), (6, "SELF")]
