import ast
from pathlib import Path

import perron

PACKAGE = Path(perron.__file__).parent


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
