import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, nan

import pytest

import perron.families
import perron.spectral
from perron.charpoly import _census_of_core, char_poly_ct, char_poly_oracle
from perron.digraph import complexity, is_primitive
from perron.errors import ParameterRangeError
from perron.families import (
    Shape,
    _ring_polynomial,
    _ring_root,
    _ring_sign_at,
    build_shape_22,
    build_shape_nc,
    c4_polynomial,
    hironaka_bound,
    lt_polynomial,
    ring_shape,
    ring_shape_with_through,
    two_cycle_polynomial,
)
from perron.polynomial import (
    IntPolynomial,
    PalindromeClass,
    _sign_at,
    classify_palindrome,
    eval_at_one,
    parse_polynomial,
)
from perron.spectral import DEFAULT_TOL, count_roots_above, largest_real_root
from perron.search import (
    _chord_shapes,
    _partitions_exact,
    _ring_shapes,
    genus_candidates,
)

from oracles import smooth


def test_lt_examples():
    assert lt_polynomial(7, 6) == parse_polynomial("x^14 - x^8 - x^7 - x^6 + 1")
    assert lt_polynomial(2, 1) == parse_polynomial("x^4 - x^3 - x^2 - x + 1")
    # the degree-2d rule: (12, 11) lives in degree 24
    assert lt_polynomial(12, 11) == parse_polynomial("x^24 - x^13 - x^12 - x^11 + 1")
    assert lt_polynomial(30, 29) == parse_polynomial("x^60 - x^31 - x^30 - x^29 + 1")


def test_lt_range_errors():
    for d, a in ((0, 1), (3, 0), (3, 3), (5, 7), (1, 1)):
        with pytest.raises(ParameterRangeError):
            lt_polynomial(d, a)


def test_lt_always_palindromic_with_minus_one_at_one():
    for d in range(2, 13):
        for a in range(1, d):
            p = lt_polynomial(d, a)
            assert p.degree == 2 * d
            assert classify_palindrome(p) is PalindromeClass.PALINDROMIC
            assert eval_at_one(p) == -1


def test_c4_example_and_parity():
    assert c4_polynomial(30, (15, 15, 15, 15)) == parse_polynomial(
        "x^60 - 4x^45 + 5x^30 - 4x^15 + 1"
    )
    assert eval_at_one(c4_polynomial(4, (2, 2, 2, 2))) == -1


def test_c4_symmetric_in_lengths():
    assert c4_polynomial(6, (2, 3, 3, 4)) == c4_polynomial(6, (4, 3, 2, 3))


def test_c4_range_errors():
    with pytest.raises(ParameterRangeError):
        c4_polynomial(4, (2, 2, 2))
    with pytest.raises(ParameterRangeError):
        c4_polynomial(4, (1, 2, 2, 3))
    with pytest.raises(ParameterRangeError):
        c4_polynomial(5, (2, 2, 2, 2))


def test_c4_refuses_non_integer_arguments():
    for d, a_vec in ((4, (2.7, 2, 2, 2)), (4, ("2", "2", "2", "2")), (4.0, (2, 2, 2, 2))):
        with pytest.raises(ParameterRangeError, match="integer"):
            c4_polynomial(d, a_vec)


def test_family_polynomials_match_their_expanded_terms():
    """The ring product against the paper's expanded formulas, colliding
    exponents included: a1 = a2 and a3 in {0, a1, m}."""

    def expanded(degree, signed_exponents):
        terms = {}
        for e, c in signed_exponents:
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial.from_terms(degree, terms)

    for m in range(2, 21):
        for a1 in range(1, m):
            for a3 in range(m + 1):
                want = expanded(m, ((m, 1), (m - a1, -1), (a1, -1), (m - a3, -1), (0, 1)))
                assert two_cycle_polynomial(a1, m - a1, a3) == want, (a1, m - a1, a3)
            with pytest.raises(ParameterRangeError, match="exponent -1 outside"):
                two_cycle_polynomial(a1, m - a1, m + 1)
    assert str(two_cycle_polynomial(3, 3, 0)) == "-2x^3 + 1"
    assert two_cycle_polynomial(3, 3, 0).degree == 6

    for d in range(4, 21):
        for a in _partitions_exact(2 * d, 4, 2):
            pairs = [(a[k] + a[l], 1) for k in range(4) for l in range(k + 1, 4)]
            singles = [(e, -1) for ai in a for e in (2 * d - ai, ai)]
            want = expanded(2 * d, [(2 * d, 1), (0, 1), (d, -1)] + singles + pairs)
            assert c4_polynomial(d, a) == want, (d, a)


def test_c4_palindromic_sweep():
    def partitions(total, parts, minimum):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total - minimum * (parts - 1) + 1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    for d in range(4, 13):
        for a_vec in partitions(2 * d, 4, 2):
            p = c4_polynomial(d, a_vec)
            assert classify_palindrome(p) is PalindromeClass.PALINDROMIC
            assert eval_at_one(p) == -1


def test_shape22_eq5_identity_small():
    for m in range(2, 13):
        for a1 in range(1, m):
            a2 = m - a1
            for p in range(1, a1 + 1):
                for q in range(1, a2 + 1):
                    d = build_shape_22(a1, a2, p, q)
                    expected = {}
                    for e, c in ((m, 1), (m - a1, -1), (a1, -1), (m - p - q, -1), (0, 1)):
                        expected[e] = expected.get(e, 0) + c
                    assert char_poly_ct(d) == IntPolynomial.from_terms(m, expected)


def test_shape22_figure1_parameters():
    # any split with p + q = 7 on cycles of lengths 6 and 8 realizes the
    # degree-14 family polynomial
    for p in range(1, 7):
        d = build_shape_22(6, 8, p, 7 - p)
        assert char_poly_ct(d) == lt_polynomial(7, 6)


def test_shape22_palindromic_iff_balanced():
    for a1, a2, p, q in ((3, 5, 2, 2), (3, 5, 1, 2), (4, 4, 2, 2), (4, 4, 1, 2)):
        d = build_shape_22(a1, a2, p, q)
        m = a1 + a2
        is_pal = classify_palindrome(char_poly_ct(d)) is PalindromeClass.PALINDROMIC
        assert is_pal == (m % 2 == 0 and p + q == m // 2)


def test_shape22_degenerate_two_vertex():
    d = build_shape_22(1, 1, 1, 1)
    assert char_poly_ct(d) == char_poly_oracle(d) == parse_polynomial("x^2 - 2x")


def test_shape22_range_errors():
    for args in ((0, 3, 1, 1), (3, 3, 0, 1), (3, 3, 4, 1), (3, 3, 1, 4)):
        with pytest.raises(ParameterRangeError):
            build_shape_22(*args)


def test_shape_nc_single_cycle_with_chord():
    # one cycle of length m, one chord creating a sub-cycle of length a1
    for m in (5, 8):
        for a1 in range(1, m + 1):
            shape = Shape((m,), ((0, a1 - 1, 0, 0),))
            p = char_poly_ct(build_shape_nc(shape))
            expected = {}
            for e, c in ((m, 1), (m - a1, -1), (0, -1)):
                expected[e] = expected.get(e, 0) + c
            assert p == IntPolynomial.from_terms(m, expected)
            assert eval_at_one(p) == -1


def test_shape_nc_matches_shape22():
    for a1, a2, p, q in ((3, 4, 2, 3), (2, 6, 1, 4), (5, 5, 3, 2)):
        ring = ring_shape((a1, a2), (p - 1, q - 1))
        assert char_poly_ct(build_shape_nc(ring)) == char_poly_ct(build_shape_22(a1, a2, p, q))


def test_ring4_matches_c4_polynomial():
    def partitions(total, parts, minimum):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total - minimum * (parts - 1) + 1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    for d in range(4, 9):
        for a_vec in partitions(2 * d, 4, 2):
            shape = ring_shape_with_through(a_vec, d)
            assert char_poly_ct(build_shape_nc(shape)) == c4_polynomial(d, a_vec)


def test_family_formulas_are_the_core_sum():
    """Each family formula is the sum over the unions of its shape's smoothed
    core, with the cycle lengths as arc lengths."""

    def core_sum(d, cores):
        return IntPolynomial(tuple(_census_of_core(d.m, smooth(d.rows), cores)[0]))

    cores = {}
    for m in range(2, 17):
        for a1 in range(1, m):
            a2 = m - a1
            for p in range(1, a1 + 1):
                for q in range(1, a2 + 1):
                    d = build_shape_22(a1, a2, p, q)
                    assert core_sum(d, cores) == two_cycle_polynomial(a1, a2, p + q)
    assert len(cores) == 4  # the through-cycle enters and leaves each cycle at one vertex or two

    cores = {}
    for d_half in range(4, 11):
        for a_vec in _partitions_exact(2 * d_half, 4, 2):
            for exits in _exits_through(a_vec, d_half):
                d = build_shape_nc(ring_shape(a_vec, exits))
                assert core_sum(d, cores) == c4_polynomial(d_half, a_vec)
    assert len(cores) == 16


def _exits_through(lengths, through):
    """Every exit-offset tuple whose ring through-cycle has the given length."""
    def rec(k, need):
        if k == len(lengths):
            if need == 0:
                yield ()
            return
        for e in range(min(lengths[k] - 1, need) + 1):
            for rest in rec(k + 1, need - e):
                yield (e,) + rest

    yield from rec(0, through - len(lengths))


def test_ring4_through_placement_does_not_change_polynomial():
    lengths = (3, 3, 2, 4)
    d = 6
    polys = set()
    for e0 in range(3):
        for e1 in range(3):
            for e2 in range(2):
                e3 = (d - 4) - e0 - e1 - e2
                if 0 <= e3 <= 3:
                    shape = ring_shape(lengths, (e0, e1, e2, e3))
                    polys.add(char_poly_ct(build_shape_nc(shape)).coeffs)
    assert len(polys) == 1


def test_shape_built_digraphs_have_b1_minus_loops():
    shapes = [
        build_shape_22(3, 5, 2, 2),
        build_shape_22(1, 4, 1, 2),
        build_shape_nc(ring_shape((2, 3, 4), (1, 0, 2))),
        build_shape_nc(Shape((6,), ((0, 2, 0, 0), (0, 4, 0, 1)))),
    ]
    for d in shapes:
        loops = sum(d.rows[i][i] for i in range(d.m))
        assert char_poly_ct(d).b(1) == -loops
        assert complexity(d) == d.edge_count - d.m


def test_hironaka_bound_cases():
    b6 = hironaka_bound(6)
    assert (b6.d, b6.a) == (7, 4)
    b7 = hironaka_bound(7)
    assert (b7.d, b7.a) == (8, 7)
    b11 = hironaka_bound(11, Fraction(1, 10**7))
    assert (b11.d, b11.a) == (12, 11)
    assert b11.bound.decimal(5) == "1.08377"
    assert 2 * b11.g <= 2 * b11.d


def test_hironaka_bound_rejects_small_genus():
    for g in (-1, 0, 4, 5):
        with pytest.raises(ParameterRangeError):
            hironaka_bound(g)


def test_hironaka_window():
    for g in range(6, 20):
        b = hironaka_bound(g, Fraction(1, 100))
        assert 2 * g <= 2 * b.d <= 6 * g - 6


def test_lt_realizations_primitive_iff_coprime():
    for d in range(2, 8):
        for a in range(1, d):
            dg = build_shape_22(a, 2 * d - a, 1, d - 1)
            assert char_poly_ct(dg) == lt_polynomial(d, a)
            assert is_primitive(dg) == (gcd(a, d) == 1)


def test_shape_arcs_match_the_built_grid(rng):
    """``Shape.arcs`` against the built grid and a direct count of the cycle
    arcs and attachment edges, and ``Shape._arc_text`` against the labels of
    those arcs, on swept rings, genus survivors and random shapes; the chain
    texts start uncached here, so each m's text is built by this test."""
    perron.families._plain_steps.cache_clear()

    def check(shape):
        # reference: count each cycle arc and each attachment edge directly
        lengths = shape.cycle_lengths
        starts = [sum(lengths[:k]) for k in range(len(lengths))]
        counts = Counter()
        for s, l in zip(starts, lengths):
            counts.update((s + o, s + (o + 1) % l) for o in range(l))
        for sc, so, tc, to in shape.attachments:
            counts[starts[sc] + so % lengths[sc], starts[tc] + to % lengths[tc]] += 1
        expected = sorted((i, j, k) for (i, j), k in counts.items())
        arcs = shape.arcs()
        assert arcs == list(build_shape_nc(shape).edges()) == expected
        labels = (f"{i + 1}->{j + 1}" + (f"x{k}" if k > 1 else "") for i, j, k in arcs)
        assert shape._arc_text() == " ".join(labels), shape
        assert len(perron.families._plain_steps(shape.m)[1]) == shape.m + 1

    swept = 0
    for n in range(1, 5):
        for m in range(n, 10):
            for lengths, exits, _ in _ring_shapes(n, m):
                check(ring_shape(lengths, exits))
                swept += 1
    assert swept > 1000
    for g in range(5, 9):
        for s in genus_candidates(g, 4).survivors:
            check(s.shape)
    # a one-cycle ring whose attachment doubles its closing arc
    doubled = ring_shape((3,), (2,))
    check(doubled)
    assert doubled.arcs() == [(0, 1, 1), (1, 2, 1), (2, 0, 2)]
    assert doubled._arc_text() == "1->2 2->3 3->1x2"

    seen = Counter()
    for _ in range(3000):
        n = rng.randint(1, 4)
        lengths = tuple(rng.choice((1, 2, 3, 5, 8, 40)) for _ in range(n))
        attachments = []
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            sc, tc = rng.randrange(n), rng.randrange(n)
            so, to = rng.randrange(-2, lengths[sc] + 3), rng.randrange(-2, lengths[tc] + 3)
            if attachments and roll < 0.2:  # a second attachment from one row
                sc, so = attachments[-1][:2]
            elif roll < 0.35:  # doubles a cycle arc
                tc, to = sc, so + 1
            elif roll < 0.5:  # from the cycle's closing vertex
                so = lengths[sc] - 1
            attachments.append((sc, so, tc, to))
        shape = Shape(lengths, tuple(attachments))
        check(shape)
        sources = Counter((sc, so % lengths[sc]) for sc, so, _, _ in attachments)
        seen["doubled edge"] += any(k > 1 for *_, k in shape.arcs())
        seen["two attachments from one row"] += max(sources.values(), default=0) > 1
        seen["closing vertex attached"] += any(
            so % lengths[sc] == lengths[sc] - 1 for sc, so, _, _ in attachments
        )
        seen["bare cycle"] += len({a[0] for a in attachments} | {a[2] for a in attachments}) < n
    assert min(seen.values()) > 300, seen


def test_shape_core_matches_the_smoothed_grid(rng):
    """The sparse smoother gives what smoothing the built grid gives: the same
    core vertices, arcs, arc lengths and weights, in the same order."""
    seen = Counter()

    def check(shape):
        assert shape._core() == smooth(build_shape_nc(shape).rows), shape
        seen["checked"] += 1

    for n in range(1, 6):
        for m in range(n, 11):
            for *_, shape in _ring_shapes(n, m):
                check(shape)
    for m in range(1, 10):
        for *_, shape in _ring_shapes(1, m):
            check(shape)
        for _, shape in _chord_shapes(m):
            check(shape)
    assert seen["checked"] == 10_342

    for _ in range(5000):
        n = rng.randint(1, 5)
        lengths = tuple(rng.choice((1, 1, 2, 3, 4, 5)) for _ in range(n))
        attachments = []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if attachments and roll < 0.15:
                attachments.append(rng.choice(attachments))
                seen["repeated attachment"] += 1
                continue
            sc, tc = rng.randrange(n), rng.randrange(n)
            so, to = rng.randrange(-2, lengths[sc] + 3), rng.randrange(-2, lengths[tc] + 3)
            if roll < 0.3:
                tc, to = sc, so + 1
                seen["doubled cycle arc"] += 1
            attachments.append((sc, so, tc, to))
        shape = Shape(lengths, tuple(attachments))
        seen["bare cycle"] += len({a[0] for a in attachments} | {a[2] for a in attachments}) < n
        seen["loop"] += 1 in lengths
        check(shape)
    assert min(seen.values()) > 500, seen


def test_ring_sign_matches_the_built_polynomial():
    polys = {}
    for g in range(6, 10):
        bound = hironaka_bound(g).bound
        points = [x.as_integer_ratio() for x in (bound.lo, bound.hi)]
        rings = []
        for m in range(2 * g, 6 * g - 5, 2):
            d = m // 2
            rings.extend(((a, m - a), d) for a in range(1, d))
            rings.extend((parts, d) for parts in _partitions_exact(m, 4, 2))
        for lengths, t in rings:
            if (lengths, t) not in polys:
                polys[lengths, t] = _ring_polynomial(lengths, t).coeffs
            for num, den in points:
                assert _ring_sign_at(lengths, t, num, den) == _sign_at(polys[lengths, t], num, den)
    # an exact zero: x - 2 at 2
    assert _ring_polynomial((1,), 1) == IntPolynomial((1, -2))
    assert _ring_sign_at((1,), 1, 2, 1) == 0
    assert (_ring_sign_at((1,), 1, 3, 2), _ring_sign_at((1,), 1, 5, 2)) == (-1, 1)


def _exact_branch(monkeypatch):
    """Record every call ``_ring_sign_at`` makes to its exact branch."""
    calls = []
    original = perron.families._exact_ring_sign

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(perron.families, "_exact_ring_sign", counted)
    return calls


def test_filtered_ring_sign_matches_the_built_polynomial(monkeypatch):
    """The float-first ``_ring_sign_at`` against the exact sign of the built
    polynomial: floats answer at both ends of the genus bound for every LT and
    c4 candidate of g = 6..14, and at both ends of every ``_ring_root`` cell of
    seeded random rings; exact zeros, points within 2^-60 of a root and
    points below 1 or above 2^1022 go to the exact branch."""
    polys = {}

    def checked_sign(lengths, t, x):
        if (lengths, t) not in polys:
            polys[lengths, t] = _ring_polynomial(lengths, t).coeffs
        sign = _ring_sign_at(lengths, t, *x.as_integer_ratio())
        assert sign == _sign_at(polys[lengths, t], *x.as_integer_ratio()), (lengths, t, x)
        return sign

    exact = _exact_branch(monkeypatch)
    pairs = 0
    for g in range(6, 15):
        bound = hironaka_bound(g, Fraction(1, 10**7)).bound
        for m in range(2 * g, 6 * g - 5, 2):
            d = m // 2
            rings = [((a, m - a), d) for a in range(1, d)]
            rings += [(parts, d) for parts in _partitions_exact(m, 4, 2)]
            for lengths, t in rings:
                checked_sign(lengths, t, bound.lo)
                checked_sign(lengths, t, bound.hi)
                pairs += 2
    assert pairs == 180_810
    assert exact == []

    rng = random.Random(19)
    tol = Fraction(1, 10**7)
    cells = 0
    for _ in range(1500):
        lengths = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 5)))
        t = rng.randint(1, sum(lengths))
        r = _ring_root(lengths, t, _ring_polynomial(lengths, t), tol)
        signs = checked_sign(lengths, t, r.lo), checked_sign(lengths, t, r.hi)
        assert signs == (r.sign_lo, r.sign_hi)
        cells += signs == (-1, 1)
    assert cells > 1400

    del exact[:]
    # exact zeros: x - 2 and x^2 - 2x at 2
    assert checked_sign((1,), 1, Fraction(2)) == checked_sign((1, 1), 2, Fraction(2)) == 0
    assert len(exact) == 2
    # both ends of cells of width 2^-62 around roots
    near = ((1, 11), 6), ((5, 9), 7), ((2, 4, 3, 3), 6), ((3, 8, 5, 6), 11)
    for lengths, t in near:
        r = _ring_root(lengths, t, _ring_polynomial(lengths, t), Fraction(1, 2**62))
        assert r.hi - r.lo <= Fraction(1, 2**62)
        del exact[:]
        assert (checked_sign(lengths, t, r.lo), checked_sign(lengths, t, r.hi)) == (-1, 1)
        assert len(exact) == 2, (lengths, t)
    # below 1, where p / x^m is not the product of factors in [0, 1], and
    # above 2^1022, where den/num is no normal float
    assert checked_sign((5, 9), 7, Fraction(1, 2)) == 1
    assert checked_sign((1,), 1, Fraction(2**1100)) == 1
    assert len(exact) == 4


def _genus_rings(g_max):
    """The distinct (lengths, through) rings of the LT and c4 candidates of
    genus 5..g_max."""
    rings = {}
    for m in range(10, 6 * g_max - 5, 2):
        d = m // 2
        rings.update(dict.fromkeys(((a, m - a), d) for a in range(1, d)))
        rings.update(dict.fromkeys((parts, d) for parts in _partitions_exact(m, 4, 2)))
    return list(rings)


def _fallbacks(monkeypatch):
    """Record every call ``_ring_root`` makes to the general route."""
    calls = []
    original = perron.families.largest_real_root

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(perron.families, "largest_real_root", counted)
    return calls


@pytest.mark.parametrize(
    "tol, g_max",
    [(Fraction(1, 2**20), 8)]
    + [(Fraction(x), 8) for x in ("3e-3", "1e-7", "1e-10", "1e-13")]
    + [(Fraction(1, 10**30), 6)],
)
def test_ring_root_equals_the_general_route_on_the_genus_candidates(monkeypatch, tol, g_max):
    rings = _genus_rings(g_max)
    assert len(rings) == {6: 626, 8: 2414}[g_max]
    polys = [_ring_polynomial(*ring) for ring in rings]
    expected = [largest_real_root(p, tol) for p in polys]
    fallbacks = _fallbacks(monkeypatch)
    # lo, hi and both signs
    assert [_ring_root(*ring, p, tol) for ring, p in zip(rings, polys)] == expected
    assert fallbacks == []


def test_ring_root_on_random_rings(monkeypatch):
    """The one-root lemma on seeded random rings: p(1) = -1, exactly one root
    above 1 by Sturm, a ring-sign count equal to Sturm's, and the bracket of
    the general route."""
    rng = random.Random(19)
    tol = Fraction(1, 10**7)
    fallbacks = _fallbacks(monkeypatch)
    for i in range(1500):
        lengths = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 5)))
        t = rng.randint(1, sum(lengths))
        p = _ring_polynomial(lengths, t)
        assert eval_at_one(p) == -1
        assert count_roots_above(p, Fraction(1)) == 1
        r = _ring_root(lengths, t, p, tol)
        assert r == largest_real_root(p, tol), (lengths, t)
        if i < 200:
            for x in (Fraction(1), r.lo, r.hi, r.hi + 1):
                above = int(_ring_sign_at(lengths, t, *x.as_integer_ratio()) < 0)
                assert above == count_roots_above(p, x), (lengths, t, x)
    assert fallbacks == []


def test_ring_root_needs_no_fallback_at_large_m(monkeypatch):
    """The estimate from the lengths names the cell of the genus bound's
    polynomial far past the search, at m = 2g + 2 up to 2,002, where the
    dense coefficient list has thousands of entries."""
    start = time.perf_counter()
    fallbacks = _fallbacks(monkeypatch)
    for g in (150, 400, 1000):
        bound = hironaka_bound(g)
        p = lt_polynomial(bound.d, bound.a)
        assert p.degree == 2 * g + 2
        assert bound.bound == largest_real_root(p, DEFAULT_TOL)
    assert fallbacks == []
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("estimate", ["nan", "1", "2U", "r * 1.01"])
def test_ring_root_falls_back_when_no_cell_is_named(monkeypatch, estimate):
    """No cell is named from an estimate that is not a number or more than one
    cell off; the general route then gives the same bracket."""
    tol = Fraction(1, 10**7)
    for lengths, t in (((1, 11), 6), ((5, 9), 7), ((2, 4, 3, 3), 6), ((3, 8, 5, 6), 11)):
        p = _ring_polynomial(lengths, t)
        expected = largest_real_root(p, tol)
        r = float(expected.lo)
        guess = {
            "nan": lambda U: nan,
            "1": lambda U: 1.0,
            "2U": lambda U: 2.0 * U,
            "r * 1.01": lambda U: r * 1.01,
        }[estimate]
        with monkeypatch.context() as patch:
            patch.setattr(perron.families, "_ring_top_root", lambda lengths, t, U: guess(U))
            fallbacks = _fallbacks(patch)
            assert _ring_root(lengths, t, p, tol) == expected
            assert len(fallbacks) == 1
