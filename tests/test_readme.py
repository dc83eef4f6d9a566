"""The README's Python example runs as written, and its install line names
every test dependency."""

import doctest
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_readme_install_line_names_every_test_dependency():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    wanted = {re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in extra}
    (line,) = [l for l in README.read_text().splitlines() if "# test-only dependencies" in l]
    named = set(line.split("#")[0].lower().split())
    assert wanted <= named, sorted(wanted - named)
