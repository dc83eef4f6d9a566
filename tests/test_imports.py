import ast
import re
from collections import Counter
from pathlib import Path

import perron

PACKAGE = Path(perron.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` (``__future__``
    aside) that no other line of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_guard_finds_an_unused_import():
    assert _unused_imports("import os\nfrom math import gcd, prod\nprod([os.sep])\n") == ["gcd"]


def test_library_modules_read_every_import():
    """An import left behind when its last use goes is named here."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert _unused_imports(path.read_text()) == [], path.name


def test_genus_search_imports_no_general_root_route():
    """``search`` decides ring candidates by ring signs (``families._ring_root``),
    so it needs neither the general bracket nor a root count."""
    tree = ast.parse((PACKAGE / "search.py").read_text())
    names = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"largest_real_root", "count_roots_above", "descartes_roots_above"}


def _definitions(source: str) -> list[str]:
    """The top-level functions and classes of ``source`` and the methods of
    its classes, dunders aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, defs)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _orphans(defining: list[str], naming: list[str]) -> list[str]:
    """The names that ``_definitions`` finds in the ``defining`` sources and
    that no text of ``naming`` (the defining ones among them) names anywhere
    but where it is defined."""
    defined = Counter(name for source in defining for name in _definitions(source))
    words = Counter(word for text in naming for word in re.findall(r"\w+", text))
    return sorted(name for name, n in defined.items() if words[name] <= n)


def test_guard_finds_an_orphaned_helper():
    lib = (
        "def used():\n    pass\n\n"
        "def _orphan():\n    pass\n\n"
        "class C:\n    def gone(self): pass\n    def __repr__(self): return ''\n"
    )
    caller = "from lib import used, C\nused()\nC()\n"
    assert _orphans([lib], [lib, caller]) == ["_orphan", "gone"]


def test_every_library_definition_is_named_elsewhere():
    """A helper left behind when its last caller goes is named here: every
    function, class and method of the library must be named again somewhere
    in ``src/``, ``tests/`` or ``perfbench/``."""
    defining = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert defining
    naming = [
        path.read_text()
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert _orphans(defining, naming) == []


def test_every_private_library_definition_is_named_by_the_library():
    """A private helper that only the tests call belongs with the tests: every
    ``_``-prefixed function, class and method of the library must be named
    again somewhere in ``src/`` or ``perfbench/``."""
    defining = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    naming = [
        path.read_text()
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert [name for name in _orphans(defining, naming) if name.startswith("_")] == []
