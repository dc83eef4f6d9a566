import contextlib
import hashlib
import importlib.util
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
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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


def test_cli_count_of_a_non_monic_polynomial_is_zero():
    # every digraph's polynomial is monic; x^4 - x^3 - x - 1, the first with
    # its leading coefficient set to 1, has (2,3) realizations
    assert invoke("count", "x^4 - x^3 - x - 1", "--n", "2", "--c", "3")[1] != "0\n"
    for poly in ("2x^4 - x^3 - x - 1", "-x^4 + 1"):
        assert invoke("count", poly, "--n", "2", "--c", "3") == (0, "0\n", "")


def test_cli_count_checks_n_and_c_before_the_trace_shortcut():
    # x^2 + x has b_1 > 0, so no digraph realizes it, but --n 0 is refused first
    outcomes = {p: invoke("count", p, "--n", "0", "--c", "0") for p in ("x^2 + x", "x^2 - x")}
    assert outcomes["x^2 + x"] == outcomes["x^2 - x"] == (
        1,
        "",
        "error: parameter-range: shape-restricted enumeration needs 1 <= n <= c\n",
    )


def test_cli_search():
    code, out, _ = invoke("search", "--genus", "5", "--max-c", "2", "--max-m", "14")
    assert code == 0
    assert "x^14 - x^8 - x^7 - x^6 + 1" in out


def test_cli_fixture():
    code, out, _ = invoke("fixture", "figure1")
    assert code == 0
    assert out == fixture_text("figure1")
    assert parse_digraph(out) == figure1()


def test_cli_c4_degree_cap():
    code, out, err = invoke("c4", "50001", "25002", "25002", "25002", "24996")
    assert (code, out) == (1, "")
    assert err == "error: resource-limit: degree 100002 exceeds the cap of 100000\n"


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
        ("search", "--genus", "five", "--max-c", "1"),
    ]
    first = {}
    for _ in range(3):
        for argv in calls:
            result = (invoke(*argv), capsys.readouterr())
            assert first.setdefault(argv, result) == result
    assert first[("frobnicate",)][0][0] == 2 and "usage: perron" in first[("frobnicate",)][0][2]
    assert first[("root", "x^2 + 1")][0][0] == 1
    assert first[("count", "--help")][0][0] == 0 and "--n N" in first[("count", "--help")][0][1]
    assert all(captured == ("", "") for _, captured in first.values())


def test_cli_usage_errors_and_help_go_to_the_given_streams(capsys):
    """``run`` writes a usage error to its ``err`` and ``--help`` to its
    ``out``; the process's own stdout and stderr stay empty."""
    for argv, message in (
        (["root"], "error: usage: perron root: the following arguments are required: polynomial\n"),
        (
            ["search", "--genus", "5", "--max-c", "4", "--format", "xml"],
            "error: usage: perron search: argument --format: invalid choice: 'xml' "
            "(choose from 'text', 'json')\n",
        ),
    ):
        assert invoke(*argv) == (2, "", message)
    code, out, err = invoke("verify", "--help")
    assert code == 0 and out.startswith("usage: perron verify") and err == ""
    assert capsys.readouterr() == ("", "")


def test_cli_main_writes_usage_errors_and_help_to_the_process_streams(capsys, monkeypatch):
    for argv, code, stream in ((["root"], 2, "err"), (["count", "--help"], 0, "out")):
        monkeypatch.setattr(perron.cli.sys, "argv", ["perron", *argv])
        with pytest.raises(SystemExit) as exc:
            perron.cli.main()
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert getattr(captured, stream).startswith(("error: usage: perron root", "usage: perron count"))
        assert getattr(captured, {"err": "out", "out": "err"}[stream]) == ""


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


# SHA-256 of the stdout of `perron search`, text and JSON: the survivors, their
# certified roots and the representative digraph built for each
SEARCH_REPORT_DIGESTS = {
    ("--genus", "6", "--max-c", "4"): "c161f9c7320cdeab6cf3d95c30046d9e2152d433cbbd3e1cc731e0f56b0008d9",
    ("--genus", "6", "--max-c", "4", "--format", "json"): (
        "b5ec20c6f7b593cc6a3ed560fc4f8a0fc7b526807c78523bf0e18015f19f569c"
    ),
    ("--genus", "5", "--max-c", "5"): "d9d7697ec5585d7f07fa9c719725d725f02719060127b3128d50b939d687dc3c",
    ("--genus", "8", "--max-c", "4", "--format", "json"): (
        "5417a31bd518191f1a3763e0696063d690fb020784783b7c50ac676074002c39"
    ),
    ("--genus", "7", "--max-c", "4"): (
        "543b17bb694fadf5139fa6100f11df4acfc7233d3ffd9fbe0f89ca0862baf159"
    ),
    ("--genus", "5", "--max-c", "4"): (
        "be69600e9994406d9c78f6dc6f3e15bbd07bec35bcb295ddad76f3224ecc2053"
    ),
    ("--genus", "8", "--max-c", "4"): (
        "e41697fe2fe1fc3fdb5bc66cf0120178f3c73639448a14fe8ee16ecb3a4c84ba"
    ),
}


@pytest.mark.parametrize("args", list(SEARCH_REPORT_DIGESTS))
def test_cli_search_report_is_pinned(args):
    code, out, err = invoke("search", *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_REPORT_DIGESTS[args]


# SHA-256 of the joined stdout of ``root ... --bracket`` over each set of queries
ROOT_BRACKET_DIGESTS = {
    "root_search seed 1": "b550761f8fd49254cc185a87ffc43ade362e2d3389b7595b70a3dca5ea9e6c7c",
    "repeated roots at 1e-300": "f134b31223beaf04e0b959b084fbbeb769d5ca57d03b433650b37e64582c1c6e",
}


def _root_bracket_queries(name):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    if name == "root_search seed 1":  # the 153 root queries of one benchmark pass
        return [argv for argv, _ in workloads.inputs("root_search", 1) if argv[0] == "root"]
    lt = workloads.lt_coeffs(5, 2)
    c4 = workloads.c4_coeffs([2, 4, 3, 3])
    polys = [
        "x^4 - 2x^3 - x^2 + 2x + 1",  # (x^2 - x - 1)^2
        "x^3 - 6x^2 + 12x - 8",  # (x - 2)^3
        "x^3 - 3x^2 + 4",  # (x - 2)^2 (x + 1)
        workloads.format_poly(workloads.mul_coeffs(lt, lt)),
        workloads.format_poly(workloads.mul_coeffs(workloads.mul_coeffs(c4, c4), [1, 1])),
    ]
    return [["root", text, "--tol", "1e-300", "--bracket"] for text in polys]


@pytest.mark.parametrize("name", list(ROOT_BRACKET_DIGESTS))
def test_cli_root_brackets_are_pinned(name):
    digest = hashlib.sha256()
    for argv in _root_bracket_queries(name):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, ""), argv
        digest.update(out.encode())
    assert digest.hexdigest() == ROOT_BRACKET_DIGESTS[name]


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
