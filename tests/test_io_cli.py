import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import perron.cli
from perron.charpoly import ORACLE_MAX_VERTICES
from perron.cli import run
from perron.digraph import MultiDigraph
from perron.errors import ParameterRangeError, ResourceLimitError
from perron.fixtures import figure1, figure4, fixture_text
from perron.io import (
    digraph_from_json_obj,
    digraph_to_json_obj,
    format_digraph,
    parse_digraph,
)
from perron.polynomial import MAX_DEGREE

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_parse_basic():
    text = """
    # a 2-cycle with a doubled edge
    2
    1 2 2
    2 1
    """
    d = parse_digraph(text)
    assert d.rows == ((0, 2), (1, 0))


def test_parse_errors():
    for bad in ("", "# only comments", "2\n1 3", "2\n1 2 0", "0", "2\n1"):
        with pytest.raises(ParameterRangeError):
            parse_digraph(bad)


def test_format_parse_roundtrip_fixtures():
    for d in (figure1(), figure4()):
        assert parse_digraph(format_digraph(d)) == d


def test_json_roundtrip():
    d = figure4()
    obj = digraph_to_json_obj(d)
    assert obj["vertices"] == 9
    assert [3, 3, 1] in obj["edges"]
    assert digraph_from_json_obj(json.loads(json.dumps(obj))) == d


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.lists(
            st.tuples(
                st.integers(0, m - 1), st.integers(0, m - 1), st.integers(1, 3)
            ),
            max_size=10,
        ).map(lambda edges: MultiDigraph.from_edges(m, edges))
    )
)
def test_text_roundtrip_random(d):
    assert parse_digraph(format_digraph(d)) == d
    assert digraph_from_json_obj(digraph_to_json_obj(d)) == d


def test_fixture_files_in_repo_match_generators():
    assert (FIXTURE_DIR / "figure1.dg").read_text() == fixture_text("figure1")
    assert (FIXTURE_DIR / "figure4.dg").read_text() == fixture_text("figure4")
    assert parse_digraph((FIXTURE_DIR / "figure1.dg").read_text()) == figure1()
    assert parse_digraph((FIXTURE_DIR / "figure4.dg").read_text()) == figure4()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "figure1.dg"
    path.write_text(fixture_text("figure1"))
    return str(path)


def test_cli_charpoly_both(fig1_path):
    code, out, err = invoke("charpoly", fig1_path, "--method", "both")
    assert code == 0 and err == ""
    assert out == "x^14 - x^8 - x^7 - x^6 + 1\n"
    for method in ("ct", "oracle"):
        code, out, _ = invoke("charpoly", fig1_path, "--method", method)
        assert code == 0
        assert out == "x^14 - x^8 - x^7 - x^6 + 1\n"


def test_cli_charpoly_missing_file():
    code, out, err = invoke("charpoly", "/nonexistent/x.dg")
    assert code == 1
    assert err.startswith("error: io:")


def test_cli_root():
    code, out, _ = invoke("root", "x^22 - x^12 - x^11 - x^10 + 1", "--digits", "5")
    assert code == 0
    assert out == "1.09178\n"
    code, out, _ = invoke("root", "[1,-1,-1]", "--digits", "5")
    assert code == 0
    assert out == "1.61803\n"


def test_cli_root_bracket():
    from fractions import Fraction

    code, out, _ = invoke("root", "x^2 - x - 1", "--bracket", "--tol", "1/1000")
    assert code == 0
    lines = out.splitlines()
    lo = Fraction(lines[0].split("= ")[1])
    hi = Fraction(lines[1].split("= ")[1])
    assert lo <= Fraction(16180339887, 10**10) <= hi
    assert hi - lo <= Fraction(1, 1000)


def test_cli_root_no_root():
    code, out, err = invoke("root", "x^2 + 1")
    assert code == 1
    assert err.startswith("error: no-root-at-least-one:")


def test_cli_root_bad_tolerance():
    for tol in ("abc", "nan"):
        code, out, err = invoke("root", "x^2 - x - 1", "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: parameter-range:")
        assert err.count("\n") == 1


def test_cli_lt_and_c4():
    code, out, _ = invoke("lt", "7", "6")
    assert code == 0 and out == "x^14 - x^8 - x^7 - x^6 + 1\n"
    code, out, err = invoke("lt", "0", "1")
    assert code == 1
    assert err.startswith("error: parameter-range:")
    code, out, _ = invoke("c4", "30", "15", "15", "15", "15")
    assert code == 0 and out == "x^60 - 4x^45 + 5x^30 - 4x^15 + 1\n"


def test_cli_shape22_roundtrip():
    code, out, _ = invoke("shape22", "6", "8", "1", "6")
    assert code == 0
    d = parse_digraph(out)
    from perron.families import build_shape_22

    assert d == build_shape_22(6, 8, 1, 6)
    code, out, _ = invoke("shape22", "6", "8", "1", "6", "--emit", "poly")
    assert out == "x^14 - x^8 - x^7 - x^6 + 1\n"


def test_cli_shape22_checks_its_size_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("the shape was built before its size was checked")

    monkeypatch.setattr(perron.cli, "build_shape_22", no_build)
    code, out, err = invoke("shape22", "30000", "30000", "1", "1")
    assert (code, out) == (1, "")
    assert err == "error: parameter-range: char_poly_ct supports at most 64 vertices, got 60000\n"


def test_cli_bound():
    code, out, _ = invoke("bound", "11")
    assert code == 0
    assert out == "(d, a) = (12, 11)\nbound = 1.08377\n"
    code, out, _ = invoke("bound", "6")
    assert out.splitlines()[0] == "(d, a) = (7, 4)"
    code, _, err = invoke("bound", "5")
    assert code == 1 and err.startswith("error: parameter-range:")


def test_cli_verify_text_and_json():
    code, out, _ = invoke("verify", "c2", "--max-m", "6")
    assert code == 0
    assert "survivors" in out
    code, out, _ = invoke("verify", "c2", "--max-m", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["parameters"]["m_max"] == 6
    code, out, _ = invoke("verify", "odd", "--k", "1", "--max-m", "8")
    assert code == 0
    assert "neither_class" in out


def test_cli_count():
    code, out, _ = invoke("count", "x^14 - x^8 - x^7 - x^6 + 1", "--n", "2", "--c", "2")
    assert code == 0
    assert out == "6\n"


def test_cli_search():
    code, out, _ = invoke("search", "--genus", "5", "--max-c", "2", "--max-m", "14")
    assert code == 0
    assert "x^14 - x^8 - x^7 - x^6 + 1" in out


def test_cli_search_rejects_nonpositive_jobs():
    for jobs in ("0", "-2", "two"):
        code, out, _ = invoke("search", "--genus", "5", "--max-c", "2", "--jobs", jobs)
        assert code == 2 and out == ""


def test_cli_fixture():
    code, out, _ = invoke("fixture", "figure1")
    assert code == 0
    assert out == fixture_text("figure1")
    assert parse_digraph(out) == figure1()


@pytest.mark.parametrize("command", ["charpoly", "hamsong"])
@pytest.mark.parametrize("text", ["abc\n", "3\n1 2\n1 2 x\n"])
def test_cli_non_integer_field(tmp_path, command, text):
    path = tmp_path / "bad.dg"
    path.write_text(text)
    code, out, err = invoke(command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: parameter-range: line ")
    assert err.count("\n") == 1


def test_cli_count_rejects_constant_polynomial():
    for poly in ("1", "[0]"):
        code, out, err = invoke("count", poly, "--n", "1", "--c", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: parameter-range:") and err.count("\n") == 1


def test_cli_degree_cap():
    for argv in (("root", f"x^{MAX_DEGREE + 1}"), ("lt", str(MAX_DEGREE // 2 + 1), "1")):
        code, out, err = invoke(*argv)
        assert code == 1 and out == ""
        assert err.startswith("error: resource-limit:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["charpoly", "hamsong"])
def test_cli_vertex_cap(tmp_path, command):
    path = tmp_path / "huge.dg"
    path.write_text("1000000\n")
    code, out, err = invoke(command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: resource-limit:") and err.count("\n") == 1


def test_vertex_cap_is_checked_before_allocating():
    with pytest.raises(ResourceLimitError):
        digraph_from_json_obj({"vertices": 10**12, "edges": []})
    assert parse_digraph(f"{ORACLE_MAX_VERTICES}\n1 1\n").m == ORACLE_MAX_VERTICES
    with pytest.raises(ResourceLimitError):
        parse_digraph(f"{ORACLE_MAX_VERTICES + 1}\n1 1\n")


def test_cli_digits_are_checked_before_output():
    code, out, err = invoke("root", "x^2 - x - 1", "--digits", "100000")
    assert code == 1 and out == ""
    assert err.startswith("error: resource-limit:") and err.count("\n") == 1
    code, out, err = invoke("bound", "6", "--digits", "-3")
    assert code == 1 and out == ""
    assert err.startswith("error: parameter-range:") and err.count("\n") == 1
    code, out, _ = invoke("root", "x^2 - x - 1", "--digits", "1000")
    assert code == 0 and out.startswith("1.61803") and len(out) == len("1.\n") + 1000


def test_cli_tolerance_floor():
    # the first is refused before parsing, the others before bisecting
    for tol in ("1e-10000000", "1e-1000", "1/10" + "0" * 400):
        code, out, err = invoke("root", "x^2 - x - 1", "--tol", tol)
        assert code == 1 and out == ""
        assert err.startswith("error: resource-limit:") and err.count("\n") == 1
    code, out, _ = invoke("root", "x^2 - x - 1", "--tol", "1e-300")
    assert code == 0 and out == "1.61803\n"


def test_cli_runs_alike_through_one_process(capsys):
    """The parser is built once per process: usage errors, help, domain errors
    and valid calls give the same output on every call."""
    calls = [
        ("frobnicate",),
        ("root", "x^2 + 1"),
        ("lt", "7", "6"),
        ("count", "--help"),
        ("root", "x^2 - x - 1", "--bracket", "--tol", "1/1000"),
        ("search", "--genus", "5", "--max-c", "1", "--jobs", "0"),
    ]
    first = {}
    for _ in range(3):
        for argv in calls:
            result = (invoke(*argv), capsys.readouterr())
            assert first.setdefault(argv, result) == result
    assert first[("frobnicate",)][0][0] == 2 and "usage: perron" in first[("frobnicate",)][1].err
    assert first[("root", "x^2 + 1")][0][0] == 1
    assert first[("count", "--help")][0][0] == 0 and "--n N" in first[("count", "--help")][1].out


def test_cli_hamsong(fig1_path):
    code, out, _ = invoke("hamsong", fig1_path)
    assert code == 0
    assert out == "c = 2, m = 14, lambda = 1.14879, c <= lambda^m - 1: true\n"


def test_cli_usage_errors():
    code, _, _ = invoke("charpoly", "x.dg", "--bogus-flag")
    assert code == 2
    code, _, _ = invoke("frobnicate")
    assert code == 2
    code, _, _ = invoke()
    assert code == 2


def test_cli_determinism(fig1_path):
    runs = [invoke("verify", "c2", "--max-m", "7") for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [invoke("charpoly", fig1_path) for _ in range(2)]
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# CLI fuzzing: any text gets an exit code of 0, 1 or 2 and at most one
# line on stderr, never a traceback
# ---------------------------------------------------------------------------

# polynomial-like text reaches the parsers' deeper branches; arbitrary text the rest
FUZZ_TEXT = st.text(alphabet=st.sampled_from("x^+-*/0123456789 .e[],()\t\n"), max_size=30) | st.text(
    max_size=20
)


def invoke_capturing_usage(argv):
    """Exit code and all of stderr: the CLI's error stream and what the
    argument parser writes to the process's stderr."""
    out, err, usage = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(usage):
        code = run(argv, out=out, err=err)
    return code, err.getvalue() + usage.getvalue()


def assert_one_line_outcome(code, stderr):
    assert code in (0, 1, 2)
    assert stderr.count("\n") <= 1
    assert (code == 0) == (stderr == "")
    if stderr:
        assert stderr.startswith("error: ") and stderr.endswith("\n")


@settings(max_examples=150, deadline=None)
@given(
    poly=FUZZ_TEXT,
    tol=st.none() | FUZZ_TEXT,
    digits=st.none() | FUZZ_TEXT | st.integers(-5, 50).map(str),
)
def test_cli_root_fuzz(poly, tol, digits):
    argv = ["root"]
    if tol is not None:
        argv.append(f"--tol={tol}")
    if digits is not None:
        argv.append(f"--digits={digits}")
    assert_one_line_outcome(*invoke_capturing_usage(argv + ["--", poly]))


@settings(max_examples=150, deadline=None)
@given(
    content=st.text(alphabet=st.sampled_from("0123456789 \n#-x\t"), max_size=60) | st.text(max_size=30),
    method=st.sampled_from(["ct", "oracle", "both"]),
)
def test_cli_charpoly_fuzz(tmp_path_factory, content, method):
    path = tmp_path_factory.mktemp("fuzz") / "digraph.dg"
    path.write_text(content, encoding="utf-8")
    assert_one_line_outcome(*invoke_capturing_usage(["charpoly", str(path), "--method", method]))


def test_cli_usage_errors_take_one_line():
    for argv in (["root", "--digits", "five", "x"], ["frobnicate"], [], ["verify", "c2"]):
        code, stderr = invoke_capturing_usage(argv)
        assert code == 2
        assert stderr.startswith("error: usage: perron") and stderr.count("\n") == 1


def test_cli_count_refuses_a_huge_c_before_building():
    # the estimate stops growing once past the cap, so neither the power
    # (m m)^(c - n) nor the c - 2 prefix edges of the one-vertex ring are built
    for poly, n in (("x^4-x-1", "2"), ("x-1", "1")):
        code, stderr = invoke_capturing_usage(["count", poly, "--n", n, "--c", str(10**9)])
        assert code == 1
        assert stderr.startswith("error: resource-limit: ") and stderr.count("\n") == 1


def _poly_text(coeffs, listed):
    if listed:
        return "[" + ",".join(map(str, coeffs)) + "]"
    terms = [f"{c}x^{len(coeffs) - 1 - i}" for i, c in enumerate(coeffs)]
    return " + ".join(terms).replace("+ -", "- ")


# small integers, integers of every size, those above 10^9 included, and
# arbitrary text
COUNT_ARG = (
    st.integers(-2, 9) | st.integers() | st.integers(min_value=10**9)
).map(str) | st.text(max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=7),
    listed=st.booleans(),
    n=COUNT_ARG,
    c=COUNT_ARG,
)
def test_cli_count_fuzz(coeffs, listed, n, c):
    argv = ["count", f"--n={n}", f"--c={c}", "--", _poly_text(coeffs, listed)]
    assert_one_line_outcome(*invoke_capturing_usage(argv))
