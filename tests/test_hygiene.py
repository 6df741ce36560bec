"""Source hygiene: no module imports a name it never uses, and no
top-level function, class or assigned name, and no class member, in
``src/ytwo`` is dead.

Stdlib ``ast`` scans.  For imports, every module in ``src/ytwo`` and
``tests``: a name counts as used when it appears as an identifier
anywhere in the module, including as the root of an attribute chain.
Package ``__init__.py`` files (their imports are re-exports) and
``from __future__`` imports are exempt.  For definitions, a top-level
function, class or assigned name, or a method, property, annotated
field or ``__slots__`` field in the body of a top-level class (dunder
names exempt), counts as referenced when its name appears, outside its
own definition (for a name, the whole assignment; for a slot field, the
class's ``__slots__`` and ``__init__``), as an identifier, an attribute,
an imported name or a string constant (the bench tracer names what it
wraps by string) in ``src``, ``tests`` or ``perfbench``.
The imports of a package ``__init__.py`` do not count: a re-export is
not a use.  A field of a ``rings.Record`` counts as used only where it
is loaded as an attribute (``x.field``): a keyword, parameter or local
of the same name, or a store, is not a read of the field.  Any object's
attribute of that name still counts, so the scan finds some dead
fields, not all of them.
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


def referenced_names(trees, skip=(), attribute_loads=False) -> set:
    """Identifiers, attribute names, imported names and string constants
    in ``trees``, not counting anything inside the nodes ``skip``; with
    ``attribute_loads``, only the names of attributes loaded."""
    names = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if attribute_loads:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        elif isinstance(node, ast.Name):
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


def slot_fields(cls):
    """The string constants of the ``__slots__`` assigned in the body of
    the class node ``cls``, and the nodes that declare or merely store
    its fields: that assignment and ``__init__``."""
    declared = [
        m
        for m in cls.body
        if isinstance(m, ast.Assign)
        and any(getattr(t, "id", None) == "__slots__" for t in m.targets)
    ]
    init = [m for m in cls.body if getattr(m, "name", None) == "__init__"]
    fields = [
        c
        for node in declared
        for c in ast.walk(node.value)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    return fields, declared + init


def is_record(cls) -> bool:
    """The class node ``cls`` names ``Record`` among its bases."""
    names = {getattr(b, "id", None) or getattr(b, "attr", None) for b in cls.bases}
    return "Record" in names


def definitions(tree):
    """``(line, name, skip, attribute_loads)`` for each top-level
    function, class and assigned name of ``tree`` and each method,
    property, annotated field and ``__slots__`` field in the body of a
    top-level class, dunder names left out; ``skip`` holds the nodes
    that do not count as uses, and ``attribute_loads`` is set for the
    fields of a ``Record``, which only attribute loads use."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*funcs, ast.ClassDef)):
            yield node.lineno, node.name, (node,), False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and not is_dunder(leaf.id):
                        yield node.lineno, leaf.id, (node,), False
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
                yield member.lineno, name, (member,), False
        fields, skip = slot_fields(node)
        for field in fields:
            yield field.lineno, field.value, skip, is_record(node)


def unreferenced_definitions(source: str, elsewhere: set, loaded=()) -> list:
    """The ``definitions`` of ``source`` that neither the rest of
    ``source`` references nor ``elsewhere`` names; a ``Record`` field
    must be loaded as an attribute there or in ``loaded``."""
    tree = ast.parse(source)
    return sorted(
        (line, name)
        for line, name, skip, loads in definitions(tree)
        if name not in (loaded if loads else elsewhere)
        and name not in referenced_names([tree], skip, attribute_loads=loads)
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


def names_in_init(tree, attribute_loads=False) -> set:
    """``referenced_names`` of a package ``__init__`` module, its imports
    (re-exports) left out."""
    imports = (ast.Import, ast.ImportFrom)
    nodes = [n for n in tree.body if not isinstance(n, imports)]
    return referenced_names(nodes, attribute_loads=attribute_loads)


@functools.cache
def names_in_file(path, attribute_loads=False) -> set:
    tree = ast.parse(path.read_text())
    if path.name == "__init__.py":
        return names_in_init(tree, attribute_loads)
    return referenced_names([tree], attribute_loads=attribute_loads)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_no_unreferenced_definitions(path):
    others = [p for p in EVERYWHERE if p != path]
    elsewhere = set().union(*(names_in_file(p) for p in others))
    loaded = set().union(*(names_in_file(p, True) for p in others))
    assert unreferenced_definitions(path.read_text(), elsewhere, loaded) == []


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


def test_scan_finds_planted_slot_field():
    # a field used only where it is declared, defaulted or stored is dead
    source = (
        "class Rec(Record):\n"
        '    __slots__ = ("size", "label", "dead")\n'
        "    _defaults = dict(label='', dead=0)\n\n"
        "class Point:\n"
        '    __slots__ = ("x", "y")\n\n'
        "    def __init__(self, x, y):\n"
        "        self.x = x\n"
        "        self.y = y\n\n"
        "    def norm(self):\n        return self.x\n"
    )
    other = ast.parse("print(Rec(1).size, Rec(2).label, Point(1, 2).norm())\n")
    loaded = referenced_names([other], attribute_loads=True)
    found = unreferenced_definitions(source, referenced_names([other]), loaded)
    assert found == [(2, "dead"), (6, "y")]


def test_scan_finds_record_field_set_but_never_loaded():
    # a Record field set by keyword, stored and named by parameters and
    # locals is dead until some module reads it as ``x.field``
    source = (
        "class Sched(Record):\n"
        '    __slots__ = ("m", "flavor", "rels")\n\n'
        "def schedule(m, flavor):\n"
        "    rels = [flavor] * m\n"
        "    sched = Sched(m=m, flavor=flavor, rels=rels)\n"
        "    sched.flavor = flavor\n"
        "    return sched\n"
    )
    other = ast.parse("print(schedule(2, 'y').rels, args.m)\n")
    loaded = referenced_names([other], attribute_loads=True)
    found = unreferenced_definitions(source, referenced_names([other]), loaded)
    assert found == [(2, "flavor")]


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
