from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from perron.errors import ParameterRangeError, ResourceLimitError
from perron.polynomial import (
    MAX_DEGREE,
    IntPolynomial,
    PalindromeClass,
    classify_palindrome,
    eval_at_one,
    format_coefficient_list,
    format_polynomial,
    parse_polynomial,
    _pdivmod,
    _trace_coeffs,
    _untrace_coeffs,
)

from oracles import format_polynomial as format_polynomial_reference

FIG1 = IntPolynomial((1, 0, 0, 0, 0, 0, -1, -1, -1, 0, 0, 0, 0, 0, 1))
FIG4 = IntPolynomial((1, -2, 1, 0, -4, 4, 0, -1, 2, -1))


def test_degree_and_coefficients():
    assert FIG1.degree == 14
    assert FIG1.b(0) == 1
    assert FIG1.b(6) == -1
    assert FIG1.b(14) == 1
    assert FIG1.is_monic


def test_trailing_zeros_are_structural():
    p = IntPolynomial((1, 0))
    q = IntPolynomial((1,))
    assert p.degree == 1
    assert q.degree == 0
    assert p != q


def test_exact_evaluation():
    assert FIG1(1) == -1
    assert FIG1(0) == 1
    assert FIG1(Fraction(1, 2)) == Fraction(1, 2) ** 14 - Fraction(1, 2) ** 8 - Fraction(
        1, 2
    ) ** 7 - Fraction(1, 2) ** 6 + 1


def test_classify_examples():
    assert classify_palindrome(FIG1) is PalindromeClass.PALINDROMIC
    assert classify_palindrome(FIG4) is PalindromeClass.ANTIPALINDROMIC
    assert classify_palindrome(parse_polynomial("x^2 - 1")) is PalindromeClass.ANTIPALINDROMIC
    assert classify_palindrome(parse_polynomial("x^3 + x - 1")) is PalindromeClass.NEITHER
    with pytest.raises(ParameterRangeError):
        classify_palindrome(IntPolynomial((2, 1)))


def test_figure4_antipalindromic_coefficientwise():
    m = FIG4.degree
    for i in range(m + 1):
        assert FIG4.b(i) == -FIG4.b(m - i)


def test_eval_at_one():
    assert eval_at_one(FIG1) == -1
    assert eval_at_one(FIG4) == 0
    assert eval_at_one(parse_polynomial("x^7 - 1")) == 0


def test_antipalindromic_implies_zero_at_one():
    # the mirror pairing cancels coefficient sums identically
    cases = [FIG4, parse_polynomial("x^2 - 1"), parse_polynomial("x^5 - 2x^4 + 2x - 1")]
    for p in cases:
        assert classify_palindrome(p) is PalindromeClass.ANTIPALINDROMIC
        assert eval_at_one(p) == 0


def test_format_pretty():
    assert format_polynomial(FIG1) == "x^14 - x^8 - x^7 - x^6 + 1"
    assert format_polynomial(FIG4) == "x^9 - 2x^8 + x^7 - 4x^5 + 4x^4 - x^2 + 2x - 1"
    assert format_polynomial(IntPolynomial((1, -1))) == "x - 1"
    assert format_polynomial(IntPolynomial((0,))) == "0"
    assert format_polynomial(IntPolynomial((-1, 0, 3))) == "-x^2 + 3"


def test_format_pretty_matches_the_reference(rng):
    """The pretty form, which visits only the nonzero coefficients, against
    the reference that visits every one, on seeded dense and sparse
    polynomials and on the zero polynomial, constants, negative leading
    coefficients and coefficients of magnitude above 1."""
    polys = [IntPolynomial(cs) for cs in ((0,), (0, 0, 0), (5,), (-1,), (-3, 0, 1), (0, 2, -1))]
    for _ in range(2000):
        degree = rng.choice((0, rng.randint(1, 40), rng.randint(1, 40)))
        density = rng.choice((0.05, 0.2, 1.0))
        big = rng.choice((1, 3, 10**30))
        polys.append(
            IntPolynomial(
                tuple(
                    rng.randint(-big, big) if rng.random() < density else 0
                    for _ in range(degree + 1)
                )
            )
        )
    seen = Counter()
    for p in polys:
        assert format_polynomial(p) == format_polynomial_reference(p), p
        nonzero = [c for c in p.coeffs if c]
        seen["zero"] += not nonzero
        seen["constant"] += p.degree == 0 and bool(nonzero)
        seen["negative lead"] += p.coeffs[0] < 0
        seen["magnitude above 1"] += any(abs(c) > 1 for c in nonzero)
        seen["sparse"] += 0 < len(nonzero) <= (p.degree + 1) // 4
        seen["dense"] += len(nonzero) == p.degree + 1 > 1
    assert min(seen.values()) > 30, seen


def test_format_coefficient_list():
    assert (
        format_coefficient_list(FIG1) == "[1,0,0,0,0,0,-1,-1,-1,0,0,0,0,0,1]"
    )


def test_parse_both_formats():
    assert parse_polynomial("x^14 - x^8 - x^7 - x^6 + 1") == FIG1
    assert parse_polynomial("[1,0,0,0,0,0,-1,-1,-1,0,0,0,0,0,1]") == FIG1
    assert parse_polynomial("x^9 - 2x^8 + x^7 - 4x^5 + 4x^4 - x^2 + 2x - 1") == FIG4
    assert parse_polynomial("x") == IntPolynomial((1, 0))
    assert parse_polynomial("-x + 2") == IntPolynomial((-1, 2))
    assert parse_polynomial("7") == IntPolynomial((7,))


def test_parse_rejects_garbage():
    for bad in ("", "x^", "x**2", "[1, 2.5]", "[]", "x^2 + + 1"):
        with pytest.raises(ParameterRangeError):
            parse_polynomial(bad)


def test_degree_cap_is_checked_before_allocating():
    with pytest.raises(ResourceLimitError) as exc:
        IntPolynomial.from_terms(MAX_DEGREE + 1, {0: 1})
    assert exc.value.estimate == MAX_DEGREE + 1
    with pytest.raises(ResourceLimitError):
        parse_polynomial(f"x^{MAX_DEGREE + 1} - 1")


coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12)


@given(coeff_lists)
def test_coefficient_list_roundtrip(coeffs):
    p = IntPolynomial(tuple(coeffs))
    assert parse_polynomial(format_coefficient_list(p)) == p


@given(coeff_lists.filter(lambda cs: cs[0] != 0))
def test_pretty_roundtrip_with_nonzero_lead(coeffs):
    p = IntPolynomial(tuple(coeffs))
    assert parse_polynomial(format_polynomial(p)) == p


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6))
def test_constructed_antipalindromes_classify_and_vanish(half):
    coeffs = [1] + half + [-c for c in reversed(half)] + [-1]
    p = IntPolynomial(tuple(coeffs))
    assert classify_palindrome(p) is PalindromeClass.ANTIPALINDROMIC
    assert eval_at_one(p) == 0


@given(coeff_lists, coeff_lists.filter(lambda cs: cs[0] != 0))
def test_pseudo_division_identity(a, b):
    # c*a = q*b + r with c = |lead(b)|^k > 0 and deg r < deg b, checked at
    # more points than the degree of either side
    q, r = _pdivmod(a, b)
    assert len(r) < len(b)
    ev = lambda cs, t: IntPolynomial(tuple(cs or [0]))(t)
    points = range(len(a) + len(b))
    assert any(
        all(abs(b[0]) ** k * ev(a, t) == ev(q, t) * ev(b, t) + ev(r, t) for t in points)
        for k in range(len(a) + 1)
    )


@given(
    half=st.lists(st.integers(-6, 6) | st.just(0), min_size=1, max_size=12),
    lead=st.integers(-3, 3),
)
def test_trace_polynomial_identity(half, lead):
    # p(x) = x^d q(x + 1/x) for a palindromic p of degree 2d, d = 0 included
    half = [lead] + half[1:]
    cs = tuple(half + half[-2::-1])
    p = IntPolynomial(cs)
    d = len(half) - 1
    q = IntPolynomial(p._trace)
    assert q.degree == d
    for x in (Fraction(3, 2), Fraction(-2, 7), Fraction(5), Fraction(1), Fraction(-1)):
        assert p(x) == x**d * q(x + 1 / x)
    # expanding x^d q(x + 1/x) back gives p, and every q is the trace of its expansion
    assert _untrace_coeffs(q.coeffs) == list(cs)
    assert _trace_coeffs(_untrace_coeffs(half)) == tuple(half)


def test_trace_polynomial_examples():
    assert IntPolynomial((1, 0, 0, 0, 1))._trace == (1, 0, -2)  # x^2 + x^-2 = y^2 - 2
    assert _untrace_coeffs((1, 0, -2)) == [1, 0, 0, 0, 1]
    assert IntPolynomial((1, -3, 1))._trace == (1, -3)
    assert IntPolynomial((7,))._trace == (7,)
    # x^7 + x^-7 - (x + 1/x) - 1 = (y^7 - 7y^5 + 14y^3 - 7y) - y - 1
    assert FIG1._trace == (1, 0, -7, 0, 14, 0, -8, -1)
    # only palindromes of even degree have one
    assert IntPolynomial((1, -2, -2, 1))._trace is None
    assert FIG4._trace is None
    assert parse_polynomial("x^2 - x - 1")._trace is None


def test_trace_polynomial_is_computed_once():
    p = parse_polynomial("x^24 - x^13 - x^12 - x^11 + 1")
    assert "_trace" not in vars(p)
    first = p._trace
    assert p._trace is first
    assert p == parse_polynomial("x^24 - x^13 - x^12 - x^11 + 1")  # equality ignores the cache
