import importlib.util
import random
import warnings
from fractions import Fraction
from math import floor, nan
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import perron.spectral
from perron.charpoly import char_poly_ct
from perron.digraph import MultiDigraph, cycle_digraph
from perron.errors import (
    Inconclusive,
    NoRootAtLeastOne,
    ParameterRangeError,
)
from perron.families import build_shape_22, c4_polynomial, lt_polynomial
from perron.fixtures import figure1
from perron.polynomial import IntPolynomial, _sign_at, eval_at_one, parse_polynomial
from perron.search import _partitions_exact
from perron.spectral import (
    RootResult,
    count_roots_above,
    descartes_roots_above,
    fast_bracket_at_least_one,
    ham_song_check,
    largest_real_root,
    monotonicity_witness,
    pf_eigenvalue,
    _cauchy_bound,
    _same_point,
    _sign_bisection,
    _sign_of,
    _squarefree,
    _sturm_bracket,
    _trace_point,
    _view,
)

from conftest import random_primitive_digraph

TOL = Fraction(1, 10**7)
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# frozen from a 40-digit independent high-precision computation
GOLDEN_RATIO = Fraction(16180339887498948482, 10**19)
LAM_DEG22 = Fraction(10917762848757778722, 10**19)  # x^22 - x^12 - x^11 - x^10 + 1
LAM_LT_12_11 = Fraction(10837668482751699869, 10**19)  # x^24 - x^13 - x^12 - x^11 + 1
LAM_LT_30_29 = Fraction(10326167780285302014, 10**19)
LAM_C4_30 = Fraction(10662646683431264500, 10**19)
LAM_FIG1 = Fraction(11487946926878505739, 10**19)


def assert_contains(result, value, tol=TOL):
    assert result.lo - tol <= value <= result.hi + tol
    assert result.hi - result.lo <= tol


def test_golden_ratio():
    r = largest_real_root(parse_polynomial("x^2 - x - 1"), TOL)
    assert_contains(r, GOLDEN_RATIO)
    assert r.decimal(5) == "1.61803"


def test_frozen_root_values():
    cases = [
        ("x^22 - x^12 - x^11 - x^10 + 1", LAM_DEG22, "1.09178"),
        ("x^24 - x^13 - x^12 - x^11 + 1", LAM_LT_12_11, "1.08377"),
        ("x^60 - x^31 - x^30 - x^29 + 1", LAM_LT_30_29, "1.03262"),
        ("x^60 - 4x^45 + 5x^30 - 4x^15 + 1", LAM_C4_30, "1.06626"),
        ("x^14 - x^8 - x^7 - x^6 + 1", LAM_FIG1, "1.14879"),
    ]
    for text, frozen, decimal in cases:
        r = largest_real_root(parse_polynomial(text), TOL)
        assert_contains(r, frozen)
        assert r.decimal(5) == decimal


def test_root_exactly_one():
    r = largest_real_root(parse_polynomial("x^6 - 1"), TOL)
    assert r.lo == r.hi == 1
    assert r.sign_lo == r.sign_hi == 0


def test_exact_integer_root():
    r = largest_real_root(parse_polynomial("x - 2"), TOL)
    assert r.lo == r.hi == 2


def test_no_root_at_least_one():
    for text in ("x^2 + 1", "x^3", "x^2 + 3x + 2", "x + 5"):
        with pytest.raises(NoRootAtLeastOne):
            largest_real_root(parse_polynomial(text), TOL)


def test_rejects_bad_inputs():
    with pytest.raises(ParameterRangeError):
        largest_real_root(IntPolynomial((1,)), TOL)
    with pytest.raises(ParameterRangeError):
        largest_real_root(IntPolynomial((2, 0, -1)), TOL)
    with pytest.raises(ParameterRangeError):
        largest_real_root(parse_polynomial("x^2 - 2"), 0)
    with pytest.raises(ParameterRangeError):
        fast_bracket_at_least_one(parse_polynomial("x^2 - 2"), 0)


def test_bracket_certificates():
    polys = [
        parse_polynomial("x^2 - x - 1"),
        lt_polynomial(7, 6),
        lt_polynomial(12, 11),
        parse_polynomial("x^9 - 2x^8 + x^7 - 4x^5 + 4x^4 - x^2 + 2x - 1"),
    ]
    for p in polys:
        r = largest_real_root(p, TOL)
        assert r.sign_lo <= 0 <= r.sign_hi
        assert count_roots_above(p, r.hi) == 0
        assert count_roots_above(p, r.lo) >= 1 or r.lo == r.hi


def test_repeated_largest_root_is_bracketed():
    # (x - 2)^2 (x + 1): even multiplicity at the top root
    p = parse_polynomial("x^3 - 3x^2 + 4")
    r = largest_real_root(p, TOL)
    assert_contains(r, Fraction(2))
    assert count_roots_above(p, r.hi) == 0


def test_fast_bracket_agrees_with_sturm_route():
    polys = [lt_polynomial(d, a) for d, a in ((7, 6), (12, 11), (30, 29), (13, 7), (30, 1), (64, 9))]
    polys += [
        c4_polynomial(d, parts)
        for d, parts in (
            (6, (2, 4, 3, 3)),
            (15, (5, 10, 2, 13)),
            (30, (15, 15, 15, 15)),
            (31, (7, 24, 12, 19)),
            (48, (2, 46, 30, 18)),
        )
    ]
    polys.append(parse_polynomial("x^2 - x - 2"))  # the bisection hits the root 2 exactly
    for p in polys:
        for tol in (TOL, Fraction(1, 10**10), Fraction(3, 1000)):
            fast = fast_bracket_at_least_one(p, tol)
            assert fast is not None
            assert fast == _sturm_bracket(p, tol)  # lo, hi, sign_lo and sign_hi
            assert largest_real_root(p, tol) == fast


def test_fast_bracket_declines_and_sturm_route_answers():
    cases = [
        "x^3 - 3x^2 + 4",  # (x - 2)^2 (x + 1): p(1) >= 0
        "x^3 - 6x^2 + 12x - 8",  # (x - 2)^3: repeated top root
        "x^3 - 12x^2 + 44x - 48",  # (x - 2)(x - 4)(x - 6): the bisection hits 4 exactly
        # (x - 10)^7 + 2(100(10 - x) - 1)^2: roots near 2.756 and a pair
        # 9.99 -+ 7.1e-10, closer than the tolerance
        "x^7 - 70x^6 + 2100x^5 - 35000x^4 + 350000x^3 - 2080000x^2 + 6600400x - 8003998",
    ]
    for text in cases:
        p = parse_polynomial(text)
        assert fast_bracket_at_least_one(p, TOL) is None
        assert largest_real_root(p, TOL) == _sturm_bracket(p, TOL)
    close_pair = largest_real_root(parse_polynomial(cases[3]), TOL)
    assert count_roots_above(parse_polynomial(cases[3]), close_pair.lo) == 1
    assert close_pair.lo > Fraction(999, 100)


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_sturm_counts_and_brackets_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rational = lambda q: sympy.Rational(q.numerator, q.denominator)
    rng = random.Random(1971)
    for trial in range(80):
        f = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        if trial % 2:  # a squared factor: the squarefree part is a proper divisor
            h = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
            f = _mul(_mul(h, h), f)
        p = IntPolynomial(tuple(f))
        roots = list(dict.fromkeys(sympy.Poly(f, x).real_roots()))  # distinct, ascending
        for t in (Fraction(-3, 2), Fraction(0), Fraction(1), Fraction(7, 5), Fraction(3)):
            assert count_roots_above(p, t) == sum(1 for r in roots if r > rational(t)), (f, t)
        if roots and roots[-1] >= 1:
            b = largest_real_root(p, TOL)
            assert rational(b.lo) <= roots[-1] <= rational(b.hi), f
        else:
            with pytest.raises(NoRootAtLeastOne):
                largest_real_root(p, TOL)


def test_descartes_counts():
    p = parse_polynomial("x^2 - x - 1")
    assert descartes_roots_above(p, Fraction(2)) == 0
    assert descartes_roots_above(p, Fraction(3, 2)) == 1


def test_pf_exact_loop():
    for k in (1, 2, 5):
        r = pf_eigenvalue(MultiDigraph.from_rows([[k]]), TOL)
        assert r.lo == r.hi == k


def test_pf_requires_primitive():
    with pytest.raises(ParameterRangeError):
        pf_eigenvalue(cycle_digraph(4), TOL)


def test_pf_matches_charpoly_root_on_figure1():
    tol = Fraction(1, 10**6)
    r1 = pf_eigenvalue(figure1(), tol)
    r2 = largest_real_root(char_poly_ct(figure1()), tol)
    assert abs(r1.midpoint - r2.midpoint) <= 2 * tol


def test_pf_shape_for_degree22_polynomial():
    d = build_shape_22(10, 12, 1, 10)  # cycle lengths 10, 12, through 11
    assert char_poly_ct(d) == parse_polynomial("x^22 - x^12 - x^11 - x^10 + 1")
    r = pf_eigenvalue(d, Fraction(1, 10**6))
    assert abs(r.midpoint - LAM_DEG22) <= Fraction(2, 10**6)


def test_pf_cross_method_sweep(rng):
    tol = Fraction(1, 10**6)
    for _ in range(20):
        d = random_primitive_digraph(rng, m_max=7)
        r1 = pf_eigenvalue(d, tol)
        r2 = largest_real_root(char_poly_ct(d), tol)
        assert abs(r1.midpoint - r2.midpoint) <= 2 * tol


def test_ham_song_boundary_case():
    # one vertex, two loops: c = 1, lambda = 2, m = 1, and 1 <= 2^1 - 1
    assert ham_song_check(MultiDigraph.from_rows([[2]]), TOL) is True


def test_ham_song_figure1():
    assert ham_song_check(figure1(), TOL) is True


def test_ham_song_requires_primitive():
    with pytest.raises(ParameterRangeError):
        ham_song_check(cycle_digraph(3), TOL)


def test_ham_song_inconclusive_at_loose_tolerance():
    # at width-1 brackets the threshold interval straddles c = 2
    with pytest.raises(Inconclusive):
        ham_song_check(figure1(), 1)
    # the same digraph is decidable at a tight tolerance
    assert ham_song_check(figure1(), TOL) is True


def test_monotonicity_cycle_plus_chord():
    b1, b2 = monotonicity_witness(cycle_digraph(6), (2, 0))
    assert b1.lo == b1.hi == 1
    assert b2.lo >= 1
    assert b2.hi > 1


def test_monotonicity_figure1_duplicate_edge():
    b1, b2 = monotonicity_witness(figure1(), (0, 1))
    assert b1.hi <= b2.lo
    assert b2.lo > b1.lo


def test_monotonicity_random_sweep(rng):
    for _ in range(30):
        d = random_primitive_digraph(rng, m_max=6)
        i = rng.randrange(d.m)
        j = rng.randrange(d.m)
        b1, b2 = monotonicity_witness(d, (i, j))
        assert b1.hi <= b2.lo


def test_monotonicity_requires_strong_connectivity():
    d = MultiDigraph.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ParameterRangeError):
        monotonicity_witness(d, (1, 0))


@pytest.mark.parametrize("edge", [(0.5, 1), (1, 2, 3), (1,), ("0", 1), 1, (3, 0)])
def test_monotonicity_witness_rejects_a_malformed_edge(edge):
    with pytest.raises(ParameterRangeError, match="integer vertices|outside vertex range"):
        monotonicity_witness(cycle_digraph(3), edge)


def test_lt_family_root_monotonicity():
    """Certified bracket comparison of the family roots for d <= 12.

    The root strictly decreases with increasing d.  In the Eq-range
    1 <= a <= d-1 it also strictly *decreases* with increasing a (the often
    quoted 'increases with a' refers to the mirrored parametrization
    a -> 2d - a, since the polynomials for a and 2d - a coincide); verified
    here against certified brackets and a 30-digit independent oracle for
    spot values such as 1.50614 = (3,1) > 1.40127 = (3,2).
    """
    tol = Fraction(1, 10**8)
    roots = {}
    for d in range(2, 14):
        for a in range(1, d):
            roots[(d, a)] = largest_real_root(lt_polynomial(d, a), tol)
    for d in range(2, 13):
        for a in range(1, d):
            assert roots[(d + 1, a)].hi < roots[(d, a)].lo
            if a + 1 <= d - 1:
                assert roots[(d, a + 1)].hi < roots[(d, a)].lo
    assert roots[(3, 1)].decimal(5) == "1.50614"
    assert roots[(3, 2)].decimal(5) == "1.40127"


def test_pn_sequence_roots_decrease_toward_one():
    # x^24 + n(x^20 - x^19) - x^13 - x^12 - x^11 + n(-x^5 + x^4) + 1
    def pn(n):
        terms = {24: 1, 20: n, 19: -n, 13: -1, 12: -1, 11: -1, 5: -n, 4: n, 0: 1}
        return IntPolynomial.from_terms(24, terms)

    tol = Fraction(1, 10**10)
    roots = [largest_real_root(pn(n), tol) for n in (1, 10, 100, 1000)]
    for r in roots:
        assert r.lo > 1
    for earlier, later in zip(roots, roots[1:]):
        assert later.hi < earlier.lo


def test_decimal_rendering():
    r = largest_real_root(parse_polynomial("x - 2"), TOL)
    assert r.decimal(5) == "2.00000"
    assert r.decimal(1) == "2.0"
    with pytest.raises(ParameterRangeError):
        r.decimal(0)


# ---------------------------------------------------------------------------
# palindromic inputs: signs and counts read from the trace polynomial
# ---------------------------------------------------------------------------

BRACKET_TOLS = (Fraction(1, 10**7), Fraction(1, 10**10), Fraction(3, 1000))


def _palindromic_cases():
    polys = [lt_polynomial(d, a) for d, a in ((6, 1), (9, 4), (13, 12), (18, 7))]
    polys += [
        c4_polynomial(d, parts)
        for d, parts in ((6, (2, 4, 3, 3)), (11, (3, 8, 5, 6)), (15, (5, 10, 2, 13)))
    ]
    squared = (lt_polynomial(4, 1), lt_polynomial(9, 5))
    polys += [IntPolynomial(tuple(_mul(f.coeffs, f.coeffs))) for f in squared]
    rng = random.Random(20110101)
    for _ in range(12):
        half = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 7))]
        polys.append(IntPolynomial(tuple(half + half[-2::-1])))
    return polys


def test_palindromic_brackets_are_grid_cells_holding_the_root():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rational = lambda q: sympy.Rational(q.numerator, q.denominator)
    for p in _palindromic_cases():
        assert _view(p)[1] is _trace_point
        f = sympy.Poly(list(p.coeffs), x).sqf_part()
        U = 1 + max(abs(c) for c in p.coeffs[1:])
        if f.count_roots(1, None) == 0:
            with pytest.raises(NoRootAtLeastOne):
                largest_real_root(p, TOL)
            continue
        for tol in BRACKET_TOLS:
            r = largest_real_root(p, tol)
            fast = fast_bracket_at_least_one(p, tol)
            assert fast is None or fast == r
            assert _sturm_bracket(p, tol) == r
            lo, hi = rational(r.lo), rational(r.hi)
            assert f.count_roots(lo, hi) == 1, (p, tol)
            assert f.count_roots(hi, None) == (1 if lo == hi else 0), (p, tol)
            if lo == hi:
                continue
            # the cell of the dyadic grid on [1, U] at the first level no wider than tol
            level = 0
            while Fraction(U - 1, 2**level) > tol:
                level += 1
            width = Fraction(U - 1, 2**level)
            assert r.width == width
            assert ((r.lo - 1) / width).denominator == 1


def test_palindromic_counts_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rational = lambda q: sympy.Rational(q.numerator, q.denominator)
    points = [Fraction(-3), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]
    points += [Fraction(21, 20), Fraction(3, 2), Fraction(5, 2), Fraction(4)]
    for p in _palindromic_cases():
        with_multiplicity = sympy.Poly(list(p.coeffs), x).real_roots()
        roots = list(dict.fromkeys(with_multiplicity))
        for t in points:
            above = sum(1 for r in roots if r > rational(t))
            assert count_roots_above(p, t) == above, (p, t)
            # Descartes bounds the count with multiplicity, with its parity,
            # and is exact at 0 or 1
            exact = sum(1 for r in with_multiplicity if r > rational(t))
            bound = descartes_roots_above(p, t)
            assert bound >= exact and (bound - exact) % 2 == 0, (p, t)
            if bound <= 1:
                assert bound == exact


def test_palindromic_root_exactly_one():
    # (x - 1)^2 (x^2 + 1): the largest real root is 1, where y = x + 1/x is 2
    p = parse_polynomial("x^4 - 2x^3 + 2x^2 - 2x + 1")
    assert p._trace == (1, -2, 0)  # (y - 2) y
    r = largest_real_root(p, TOL)
    assert r.lo == r.hi == 1 and r.sign_lo == r.sign_hi == 0
    assert count_roots_above(p, Fraction(1)) == 0
    assert count_roots_above(p, Fraction(1, 2)) == 1
    assert descartes_roots_above(p, Fraction(1)) == 0


def test_count_roots_above_a_constant():
    for c in (3, -2):
        for x in (Fraction(0), Fraction(-5), Fraction(7, 2)):
            assert count_roots_above(IntPolynomial((c,)), x) == 0
    assert count_roots_above(IntPolynomial((0, 0, 3)), Fraction(0)) == 0
    # every x is a root of the zero polynomial, whatever its length
    for n in (1, 2, 3):
        with pytest.raises(ParameterRangeError):
            count_roots_above(IntPolynomial((0,) * n), Fraction(0))


def test_palindromic_repeated_top_root():
    # (x^2 - 3x + 1)^2: a double root at (3 + sqrt 5)/2 = 2.6180339887...
    p = parse_polynomial("x^4 - 6x^3 + 11x^2 - 6x + 1")
    assert fast_bracket_at_least_one(p, TOL) is None  # p(1) > 0
    r = largest_real_root(p, TOL)
    assert r == _sturm_bracket(p, TOL)
    assert r.lo < Fraction(26180339887, 10**10) < r.hi
    assert r.sign_lo == r.sign_hi == 1
    assert count_roots_above(p, r.lo) == 1 and count_roots_above(p, r.hi) == 0


def test_palindromic_point_at_an_exact_root():
    # (2x - 1)(x - 2)(x^2 - 3x + 1): 2 is a root and its image y = 5/2 a root of q
    p = IntPolynomial(tuple(_mul([2, -5, 2], [1, -3, 1])))
    assert _view(p)[1] is _trace_point
    assert count_roots_above(p, Fraction(2)) == 1
    assert count_roots_above(p, Fraction(1)) == 2
    assert count_roots_above(p, Fraction(3)) == 0
    assert descartes_roots_above(p, Fraction(2)) == 1
    assert descartes_roots_above(p, Fraction(3)) == 0
    # the bisection on [1, 3] stops at its first midpoint, the root 2 = 4/2^1,
    # whether it reads (2x - 1)(x - 2) at x or its trace 2y - 5 at x + 1/x
    f = IntPolynomial((2, -5, 2))
    assert f._trace == (2, -5)
    assert _sign_bisection(_sign_of(f._trace, _trace_point), 1, 3, 0, TOL) == (4, 4, 1)
    assert _sign_bisection(_sign_of(f.coeffs, _same_point), 1, 3, 0, TOL) == (4, 4, 1)


def test_odd_degree_palindrome_keeps_the_p_route():
    # (x + 1)(x^2 - 3x + 1) is palindromic of odd degree: no trace polynomial
    p = parse_polynomial("x^3 - 2x^2 - 2x + 1")
    assert p._trace is None and _view(p)[1] is _same_point
    for tol in BRACKET_TOLS:
        r = largest_real_root(p, tol)
        assert r == _sturm_bracket(p, tol)
        assert r.lo < Fraction(26180339887, 10**10) < r.hi
    assert count_roots_above(p, Fraction(1)) == 1
    assert count_roots_above(p, Fraction(-2)) == 3


def test_decimal_matches_the_fraction_formula():
    def reference(lo, hi, digits):  # the midpoint rounded half-up in Fraction arithmetic
        scaled = (lo + hi) / 2 * 10**digits
        n = scaled.numerator // scaled.denominator
        if 2 * (scaled - n) >= 1:
            n += 1
        sign = "-" if n < 0 else ""
        n = abs(n)
        return f"{sign}{n // 10**digits}.{n % 10**digits:0{digits}d}"

    rng = random.Random(19)
    brackets = []
    for _ in range(2000):
        lo = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
        brackets.append((lo, lo + Fraction(rng.randint(0, 100), rng.randint(1, 10**5))))
    # midpoints exactly half-way between two roundings, of both signs
    for digits in (1, 3, 5):
        for k in (-12346, -1, 0, 1, 12345):
            x = Fraction(2 * k + 1, 2 * 10**digits)
            brackets += [(x, x), (x - Fraction(1, 7), x + Fraction(1, 7))]
    for lo, hi in brackets:
        for digits in (1, 3, 5):
            assert RootResult(lo, hi).decimal(digits) == reference(lo, hi, digits), (lo, hi, digits)
    half = Fraction(1, 20)
    assert [RootResult(x, x).decimal(1) for x in (half, -half, -3 * half)] == ["0.1", "0.0", "-0.1"]


def test_pf_converges_on_a_long_two_cycle_ring():
    d = build_shape_22(15, 16, 1, 14)  # m = 31
    r = pf_eigenvalue(d, Fraction(1, 10**6))
    assert r.width <= Fraction(1, 10**6)
    lam = largest_real_root(char_poly_ct(d), Fraction(1, 10**9))
    assert r.lo <= lam.hi and lam.lo <= r.hi


# ---------------------------------------------------------------------------
# the named cell: a float estimate names the bracket, exact checks certify it
# ---------------------------------------------------------------------------

# 2^-20 makes the level-K cell exactly as wide as the tolerance when U - 1 is
# a power of two
NAMED_TOLS = (Fraction(1, 2**20),) + tuple(
    Fraction(x) for x in ("3e-3", "1e-7", "1e-10", "1e-13", "1e-30", "1e-100", "1e-300")
)
FAST_PATH_DECLINES = (
    "x^3 - 3x^2 + 4",
    "x^3 - 6x^2 + 12x - 8",
    "x^3 - 12x^2 + 44x - 48",
    "x^7 - 70x^6 + 2100x^5 - 35000x^4 + 350000x^3 - 2080000x^2 + 6600400x - 8003998",
)


def _named_cell_cases():
    polys = [lt_polynomial(d, a) for d, a in ((7, 6), (9, 1), (10, 3), (12, 11))]
    polys += [c4_polynomial(d, parts) for d, parts in ((6, (2, 4, 3, 3)), (11, (3, 8, 5, 6)))]
    squared = (lt_polynomial(4, 1), lt_polynomial(7, 3))
    polys += [IntPolynomial(tuple(_mul(f.coeffs, f.coeffs))) for f in squared]
    # seeded random monic polynomials, each last (or middle) coefficient set so
    # that p(1) < 0 and the named cell is tried
    rng = random.Random(14)
    for _ in range(6):
        cs = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 9))]
        cs[-1] -= sum(cs) + rng.randint(1, 3)
        polys.append(IntPolynomial(tuple(cs)))
        half = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 7))]
        half[-1] -= sum(half) + sum(half[:-1]) + rng.randint(1, 3)
        polys.append(IntPolynomial(tuple(half + half[-2::-1])))
    polys.append(parse_polynomial("x^2 - x - 2"))  # the bisection hits the root 2 exactly
    polys += [parse_polynomial(text) for text in FAST_PATH_DECLINES]
    return polys


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to the spectral function ``name``."""
    calls = []
    original = getattr(perron.spectral, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(perron.spectral, name, counted)
    return calls


def test_named_cell_brackets_equal_the_sturm_route(monkeypatch):
    chains = _count_calls(monkeypatch, "_sturm_chain")
    brackets = fallbacks = 0
    for p in _named_cell_cases():
        for tol in NAMED_TOLS:
            try:
                expected = _sturm_bracket(p, tol)
            except NoRootAtLeastOne:
                with pytest.raises(NoRootAtLeastOne):
                    largest_real_root(p, tol)
                continue
            built = len(chains)
            assert largest_real_root(p, tol) == expected, (p, tol)  # lo, hi and both signs
            brackets += 1
            fallbacks += len(chains) > built
    # the named cell settles the families, the random cases with p(1) < 0 and
    # the dyadic root 2 at every tolerance, and on the squarefree part the two
    # squared inputs and the two fast-path-declining ones with a repeated root;
    # the two squarefree fast-path-declining inputs fall to the Sturm route
    assert brackets - fallbacks == 23 * len(NAMED_TOLS)


def test_named_cell_rests_on_no_float_estimate(monkeypatch):
    # whatever the estimate, the named cell is the Sturm route's bracket or None
    guess = []
    monkeypatch.setattr(perron.spectral, "_float_top_root", lambda p, U: guess[-1])
    named = 0
    for p in _named_cell_cases():
        if eval_at_one(p) >= 0:
            continue
        for tol in NAMED_TOLS[:5]:
            expected = _sturm_bracket(p, tol)
            r = float(expected.lo)
            for x in (1.0, 2.0, 4.0, r / 2, r * 0.99, r - 1e-9, r, r + 1e-9, r * 1.01, 2 * r, nan):
                guess.append(x)
                result = fast_bracket_at_least_one(p, tol)
                assert result is None or result == expected, (p, tol, x)
                named += result is not None
    assert named > 0

def test_named_cell_certifies_its_own_cell_when_the_coarse_count_fails():
    # (x - 2)(x - M + 1)(x - M - 1): the top two roots share a level-10 cell, so
    # the count above its lower end is not 1, but the count above the named
    # cell's lower end is
    for M in (100, 1000):
        p = IntPolynomial(tuple(_mul((1, -2), (1, -2 * M, M * M - 1))))
        n = _cauchy_bound(p) - 1
        for tol in NAMED_TOLS:
            expected = _sturm_bracket(p, tol)
            coarse = 1 + Fraction(floor((expected.lo - 1) * 1024 / n) * n, 1024)
            assert descartes_roots_above(p, coarse) > 1
            assert fast_bracket_at_least_one(p, tol) == expected, (M, tol)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7),
    st.sampled_from(NAMED_TOLS[:5]),
)
def test_named_cell_brackets_equal_the_sturm_route_on_random_polynomials(tail, tol):
    p = IntPolynomial((1, *tail))
    try:
        expected = _sturm_bracket(p, tol)
    except NoRootAtLeastOne:
        assert fast_bracket_at_least_one(p, tol) is None
        with pytest.raises(NoRootAtLeastOne):
            largest_real_root(p, tol)
        return
    assert largest_real_root(p, tol) == expected


def test_named_cell_survives_float_overflow():
    # a coefficient above 1e308: U is not a float, so the named cell declines
    huge = IntPolynomial((1, -(10**309), -1))
    # x^25 (x - 10^15) - 1: its float value at U, about 1e390, overflows, but
    # the float estimate reads p(x) / x^26, which does not
    steep = IntPolynomial((1, -(10**15)) + (0,) * 24 + (-1,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fast_bracket_at_least_one(huge, TOL) is None
        assert fast_bracket_at_least_one(steep, TOL) is not None
        for p in (huge, steep):
            assert largest_real_root(p, TOL) == _sturm_bracket(p, TOL)


def test_named_cell_settles_the_genus_candidates(monkeypatch):
    # the LT and c4 candidates of g = 5..8, as genus_candidates builds them
    polys = []
    for g in range(5, 9):
        for m in range(2 * g, 6 * g - 5, 2):
            d = m // 2
            polys += [lt_polynomial(d, a) for a in range(1, d)]
            polys += [c4_polynomial(d, parts) for parts in _partitions_exact(2 * d, 4, 2)]
    assert len(polys) == 4544
    calls = _count_calls(monkeypatch, "_sign_bisection")
    for p in polys:
        largest_real_root(p, TOL)
    assert len(calls) <= len(polys) // 100


def test_named_cell_settles_the_benchmark_root_queries(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # the LT and c4 queries and the squared-LT ones, whose top root is double
    polys = [parse_polynomial(argv[1]) for argv, _ in workloads.inputs("root_search", 1) if argv[0] == "root"]
    assert len(polys) == 153
    tol = Fraction(workloads.ROOT_TOL)
    chains = _count_calls(monkeypatch, "_sturm_chain")
    calls = _count_calls(monkeypatch, "_sign_bisection")
    for p in polys:
        largest_real_root(p, tol)
    assert chains == [] and calls == []


# ---------------------------------------------------------------------------
# the named cell on the squarefree part: a repeated top root is a simple root
# of the squarefree part q of p's view, which names and certifies the cell
# ---------------------------------------------------------------------------


def _repeated_root_cases():
    lt, c4 = lt_polynomial(7, 3).coeffs, c4_polynomial(6, (2, 4, 3, 3)).coeffs
    cases = [
        _mul(lt, lt),
        _mul(c4, c4),
        [1, -6, 12, -8],  # (x - 2)^3
        [1, -3, 0, 4],  # (x - 2)^2 (x + 1)
        _mul(_mul(lt, lt), [1, 1]),  # palindromic of odd degree: read at x
    ]
    # f^2 (x + c) for seeded random monic f with f(1) < 0 and c >= 0: the top
    # root is a double root of f; of odd degree, so read at x
    rng = random.Random(24)
    for _ in range(6):
        f = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        f[-1] -= sum(f) + rng.randint(1, 3)
        cases.append(_mul(_mul(f, f), [1, rng.randint(0, 3)]))
    return [IntPolynomial(tuple(cs)) for cs in cases]


def test_named_cell_on_the_squarefree_part_equals_the_sturm_route(monkeypatch):
    chains = _count_calls(monkeypatch, "_sturm_chain")
    for p in _repeated_root_cases():
        cs, point = _view(p)
        q = _squarefree(cs)
        assert len(q) < len(cs) and _sign_at(q, *point(1, 1)) < 0, p
        for tol in NAMED_TOLS:
            expected = _sturm_bracket(p, tol)
            built = len(chains)
            assert largest_real_root(p, tol) == expected, (p, tol)  # lo, hi and both signs
            assert len(chains) == built, (p, tol)  # no Sturm chain


def test_named_cell_on_the_squarefree_part_rests_on_no_float_estimate(monkeypatch):
    # whatever the estimate, a repeated-root query gets the Sturm route's bracket
    guess = []
    monkeypatch.setattr(perron.spectral, "_float_top_root", lambda cs, U: guess[-1])
    for p in _repeated_root_cases():
        for tol in NAMED_TOLS[:5]:
            expected = _sturm_bracket(p, tol)
            r = float(expected.lo)
            for x in (1.0, 2.0, 4.0, r / 2, r * 0.99, r - 1e-9, r, r + 1e-9, r * 1.01, 2 * r, nan):
                guess.append(x)
                assert largest_real_root(p, tol) == expected, (p, tol, x)
