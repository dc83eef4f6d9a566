"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors, 2 on usage errors; either
error is printed as one machine-parsable line ``error: <kind>: <message>`` on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import fixtures
from .charpoly import _check_ct_size, char_poly_ct, char_poly_oracle
from .digraph import complexity
from .errors import CounterexampleError, PerronError
from .families import build_shape_22, c4_polynomial, hironaka_bound, lt_polynomial
from .io import format_digraph, parse_digraph
from .polynomial import format_polynomial, parse_polynomial, to_fraction
from .search import (
    count_realizations,
    genus_candidates,
    verify_case_c_le_2,
    verify_case_odd_diagonal,
)
from .spectral import DEFAULT_TOL, _ham_song, largest_real_root


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one line, in the
    ``error: <kind>: <message>`` form of every other error, with exit code 2."""

    def error(self, message):
        self.exit(2, f"error: usage: {self.prog}: {message}".replace("\n", " ") + "\n")


@functools.cache  # parsing does not change the parser, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perron",
        description="Exact digraph characteristic polynomials, certified root "
        "brackets, and low-complexity shape searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a digraph file")
    p.add_argument("digraph_file")
    p.add_argument("--method", choices=["ct", "oracle", "both"], default="both")

    p = sub.add_parser("root", help="certified largest real root >= 1 of a polynomial")
    p.add_argument("polynomial")
    p.add_argument("--tol", default=None, help="bracket width (default 1e-10)")
    p.add_argument("--digits", type=int, default=5)
    p.add_argument("--bracket", action="store_true", help="print the exact rational bracket")

    p = sub.add_parser("lt", help="two-parameter family polynomial")
    p.add_argument("d", type=int)
    p.add_argument("a", type=int)

    p = sub.add_parser("c4", help="complexity-4 family polynomial")
    p.add_argument("d", type=int)
    p.add_argument("a", type=int, nargs=4)

    p = sub.add_parser("shape22", help="two-cycle shape digraph or its polynomial")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--emit", choices=["digraph", "poly"], default="digraph")

    p = sub.add_parser("bound", help="genus upper-bound parameters and value")
    p.add_argument("g", type=int)
    p.add_argument("--digits", type=int, default=5)

    p = sub.add_parser("verify", help="case-analysis verification sweeps")
    p.add_argument("case", choices=["c2", "odd"])
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="odd case: rings of 2k+1 cycles")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("count", help="realization count of a polynomial in an (n,c) shape")
    p.add_argument("polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)

    p = sub.add_parser("search", help="genus candidate search over shape classes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-c", type=int, required=True)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("fixture", help="emit a stored fixture digraph")
    p.add_argument("name", choices=["figure1", "figure4"])

    p = sub.add_parser("hamsong", help="check complexity <= lambda^m - 1 for a digraph file")
    p.add_argument("digraph_file")
    p.add_argument("--tol", default=None)

    return parser


def _read_digraph(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_digraph(fh.read())


def _tol(arg) -> Fraction:
    return DEFAULT_TOL if arg is None else to_fraction(arg)


def _cmd_charpoly(args, out):
    d = _read_digraph(args.digraph_file)
    if args.method == "ct":
        poly = char_poly_ct(d)
    elif args.method == "oracle":
        poly = char_poly_oracle(d)
    else:
        poly = char_poly_ct(d)
        other = char_poly_oracle(d)
        if poly != other:
            raise CounterexampleError(
                f"methods disagree: ct={format_polynomial(poly)} "
                f"oracle={format_polynomial(other)}"
            )
    print(format_polynomial(poly), file=out)


def _cmd_root(args, out):
    poly = parse_polynomial(args.polynomial)
    result = largest_real_root(poly, _tol(args.tol))
    if args.bracket:
        print(f"lo = {result.lo}", file=out)
        print(f"hi = {result.hi}", file=out)
    else:
        print(result.decimal(args.digits), file=out)


def _cmd_shape22(args, out):
    if args.a1 >= 1 and args.a2 >= 1:  # every output needs char_poly_ct: refuse before building
        _check_ct_size(args.a1 + args.a2)
    d = build_shape_22(args.a1, args.a2, args.p, args.q)
    if args.emit == "poly":
        print(format_polynomial(char_poly_ct(d)), file=out)
    else:
        header = (
            f"shape22 a1={args.a1} a2={args.a2} p={args.p} q={args.q}",
            f"characteristic polynomial {format_polynomial(char_poly_ct(d))}",
        )
        out.write(format_digraph(d, header=header))


def _print_report(report, fmt, out):
    if fmt == "json":
        json.dump(report.to_json_obj(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        print(report.render_text(), file=out)


def _cmd_verify(args, out):
    if args.case == "c2":
        report = verify_case_c_le_2(args.max_m)
    else:
        report = verify_case_odd_diagonal(args.k, args.max_m)
    _print_report(report, args.format, out)


def _cmd_hamsong(args, out):
    d = _read_digraph(args.digraph_file)
    holds, lam = _ham_song(d, _tol(args.tol))
    print(
        f"c = {complexity(d)}, m = {d.m}, lambda = {lam.decimal(5)}, "
        f"c <= lambda^m - 1: {'true' if holds else 'false'}",
        file=out,
    )


def run(argv, out=None, err=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2

    try:
        if args.command == "charpoly":
            _cmd_charpoly(args, out)
        elif args.command == "root":
            _cmd_root(args, out)
        elif args.command == "lt":
            print(format_polynomial(lt_polynomial(args.d, args.a)), file=out)
        elif args.command == "c4":
            print(format_polynomial(c4_polynomial(args.d, tuple(args.a))), file=out)
        elif args.command == "shape22":
            _cmd_shape22(args, out)
        elif args.command == "bound":
            b = hironaka_bound(args.g)
            value = b.bound.decimal(args.digits)  # may refuse the digits: render before printing
            print(f"(d, a) = ({b.d}, {b.a})", file=out)
            print(f"bound = {value}", file=out)
        elif args.command == "verify":
            _cmd_verify(args, out)
        elif args.command == "count":
            poly = parse_polynomial(args.polynomial)
            print(count_realizations(poly, args.n, args.c), file=out)
        elif args.command == "search":
            report = genus_candidates(args.genus, args.max_c, m_max=args.max_m)
            _print_report(report, args.format, out)
        elif args.command == "fixture":
            out.write(fixtures.fixture_text(args.name))
        elif args.command == "hamsong":
            _cmd_hamsong(args, out)
    except PerronError as exc:
        print(f"error: {exc.code}: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=err)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
