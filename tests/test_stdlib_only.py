import ast
import sys
from pathlib import Path

import perron

PACKAGE = Path(perron.__file__).parent


def test_library_imports_only_the_standard_library():
    """Every absolute import of the package names a standard-library module or
    the package itself."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "perron", (path.name, name)
