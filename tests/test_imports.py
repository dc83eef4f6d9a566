import ast
import os
import re
import subprocess
import sys
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


def _global_statements(source: str) -> list[str]:
    """The names that ``global`` statements of ``source`` rebind, at any depth."""
    tree = ast.parse(source)
    return [name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names]


def test_guard_finds_a_global_statement():
    source = "memo = {}\ndef f():\n    def g():\n        global memo, n\n    return g\n"
    assert _global_statements(source) == ["memo", "n"]
    assert _global_statements("memo = {}\ndef f():\n    return memo\n") == []


def test_library_modules_rebind_no_global():
    """Module state stays as import leaves it: a memo is a ``functools.cache``,
    not a module variable that a function rebinds."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        assert _global_statements(path.read_text()) == [], path.name


def test_genus_search_imports_no_general_root_route():
    """``search`` decides ring candidates by ring signs (``families._ring_root``),
    so it needs neither the general bracket nor a root count."""
    tree = ast.parse((PACKAGE / "search.py").read_text())
    names = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"largest_real_root", "count_roots_above", "descartes_roots_above"}


def test_cli_import_loads_no_process_pool():
    """The CLI runs in one process: importing it starts no pool machinery."""
    probe = (
        "import sys, perron.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


def _definition_nodes(source: str):
    """The top-level functions and classes of ``source`` and the methods of
    its classes, each as ``(node, class)``, the class None for a top-level one."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            yield node, None
        if isinstance(node, ast.ClassDef):
            yield from ((n, node) for n in node.body if isinstance(n, defs))


def _definitions(source: str) -> list[str]:
    """The names of ``_definition_nodes(source)``, dunders aside."""
    names = [node.name for node, _ in _definition_nodes(source)]
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


def _unset_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """``function.parameter`` for each defaulted parameter of a function or
    method defined in ``defining`` that some call in ``calling`` reaches (by
    its plain or attribute name) but that no such call sets, by keyword or by
    position.  A ``*`` or ``**`` argument sets no parameter, and neither does
    a position after it; a method's positions count from the one after
    ``self``, and ``__init__`` is reached by its class's name."""
    calls: dict[str, list[tuple[int, set]]] = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((starred.index(True), keywords))
    unset = []
    for source in defining:
        for node, owner in _definition_nodes(source):
            name = owner.name if node.name == "__init__" else node.name
            if isinstance(node, ast.ClassDef) or name not in calls:
                continue
            args = node.args
            positional = (args.posonlyargs + args.args)[owner is not None :]
            first = len(positional) - len(args.defaults)  # the first defaulted position
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for i, param in defaulted:
                if not any(
                    param in keywords or (i is not None and i < positions)
                    for positions, keywords in calls[name]
                ):
                    unset.append(f"{node.name}.{param}")
    return sorted(unset)


def test_every_default_the_library_calls_is_set_by_some_call():
    """A parameter that no library or benchmark call sets is a knob nobody
    turns: every defaulted parameter of a library function that ``src/`` or
    ``perfbench/`` calls must be set at one of those calls.  Public functions
    the library never calls are not checked, and ``cli.run``'s ``out`` and
    ``err`` are a seam for the tests."""
    lib = (
        "def f(a, b=1, *, c=None, d=2):\n    pass\n\n"
        "def unused(e=0):\n    pass\n\n"
        "class C:\n    def g(self, x=1, y=2):\n        pass\n"
    )
    caller = "f(0, 5, d=3)\nC().g(*xs)\n"
    assert _unset_defaults([lib], [lib, caller]) == ["f.c", "g.x", "g.y"]

    defining = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    calling = [
        path.read_text()
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    seams = {"run.out", "run.err"}
    assert [name for name in _unset_defaults(defining, calling) if name not in seams] == []
