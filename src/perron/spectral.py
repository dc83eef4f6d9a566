"""Certified brackets for the largest real root >= 1, Perron eigenvalue iteration,
the complexity bound check, and spectral monotonicity witnesses.

Every polynomial sign here is an exact integer computation at a rational
point.  Floating point appears only where nothing rests on it: in the estimate
from which ``_cell_bracket`` names a bracket that exact signs and a certificate
then confirm, and when a bracket is rendered as a decimal string.  The
certificate is a Descartes count: of p on the general route
(``fast_bracket_at_least_one``), and of the squarefree part of p when p's top
root is repeated (``largest_real_root``).  A ring polynomial needs none, since
it has exactly one root above 1 (``families._ring_root``); its signs come from
floats where a proven error bound shows them, and from integers elsewhere
(``families._ring_sign_at``).  A bracket that no cell settles comes from Sturm
counts (``_sturm_bracket``).

A palindromic p of even degree 2d is p(x) = x^d q(x + 1/x) with q the integer
trace polynomial of degree d (``IntPolynomial._trace``).  For x > 0 the sign
of p(x) is the sign of q(x + 1/x), and x -> x + 1/x maps [1, oo) increasingly
onto [2, oo), so the roots of p above a point x >= 1 correspond one to one,
multiplicities included, to the roots of q above x + 1/x.  Every sign and root
count of such a p at points >= 1 is therefore read from q, at half the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import floor, frexp, gcd, isfinite

from .charpoly import _edge_placement_coeffs, char_poly_ct
from .digraph import MultiDigraph, _edge_endpoints, complexity, is_primitive, is_strongly_connected
from .errors import (
    Inconclusive,
    NoRootAtLeastOne,
    ParameterRangeError,
    RefinementLimitError,
    ResourceLimitError,
)
from .polynomial import (
    IntPolynomial,
    _derivative,
    _pdivmod,
    _primitive,
    _sign_at,
    _untrace_coeffs,
    eval_at_one,
    to_fraction,
)

DEFAULT_TOL = Fraction(1, 10**10)
_SEPARATION_FLOOR = Fraction(1, 10**15)
# bisecting to 1e-1000 takes about 20 s at degree 36, so finer widths are refused
_TOL_FLOOR = Fraction(1, 10**300)
# the fraction digits are rendered as one int, and CPython refuses to convert
# an int of more than 4,300 digits to text by default
_MAX_DIGITS = 4300
# ``_cell_bracket``: the float sign-bisection levels before Newton steps take
# over and the cap on those steps; the grid level of the Descartes certificate,
# whose small denominators keep its Taylor shift cheap; and the narrowest cell
# a float estimate names, r * 2^-42
_GUESS_LEVELS = 6
_NEWTON_STEPS = 20
_COARSE_LEVEL = 10
_FLOAT_BITS = 42
_PF_MAX_ITER = 500_000


@dataclass(frozen=True)
class RootResult:
    """Certified bracket [lo, hi] around the largest real root >= 1.

    The bracketing procedure guarantees no real root lies in (hi, oo).
    sign_lo/sign_hi record the exact signs of the polynomial at the
    endpoints (None for eigenvalue brackets that carry no polynomial).
    """

    lo: Fraction
    hi: Fraction
    sign_lo: int | None = None
    sign_hi: int | None = None

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def decimal(self, digits: int = 5) -> str:
        """Midpoint rounded half-up to a fixed number of fractional digits."""
        if digits < 1:
            raise ParameterRangeError("digits must be >= 1")
        if digits > _MAX_DIGITS:
            raise ResourceLimitError(
                f"{digits} digits exceed the cap of {_MAX_DIGITS}", estimate=digits
            )
        # the midpoint is num / (2 den), and n = floor(midpoint * 10^digits + 1/2)
        a, b = self.lo.as_integer_ratio()
        c, d = self.hi.as_integer_ratio()
        num, den = a * d + c * b, b * d
        n = (num * 10**digits + den) // (2 * den)
        sign = "-" if n < 0 else ""
        n = abs(n)
        return f"{sign}{n // 10**digits}.{n % 10**digits:0{digits}d}"


def _poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient."""
    a = _primitive(a)
    b = _primitive(b)
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    if a and a[0] < 0:
        a = [-c for c in a]
    return a


def _squarefree(cs):
    """cs / gcd(cs, cs'); same real roots, all simple, positive lead."""
    cs = _primitive(list(cs))
    if len(cs) <= 1:
        return cs
    g = _poly_gcd(cs, _derivative(cs))
    if len(g) == 1:
        return cs if cs[0] > 0 else [-c for c in cs]
    quotient, remainder = _pdivmod(cs, g)
    assert not any(remainder)  # g divides cs exactly
    q = _primitive(quotient)
    return q if q[0] > 0 else [-c for c in q]


def _sturm_chain(cs):
    """Sturm chain of a squarefree integer polynomial.

    Pseudo-remainders are negated and divided by their content, which
    rescales each by a positive constant only and so preserves the
    sign-variation property while keeping integer entries.
    """
    chain = [list(cs), _primitive(_derivative(cs))]
    while len(chain[-1]) > 1:
        r = _primitive(_pdivmod(chain[-2], chain[-1])[1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _same_point(num: int, den: int) -> tuple[int, int]:
    return num, den


def _trace_point(num: int, den: int) -> tuple[int, int]:
    """x + 1/x at x = num/den > 0, as (numerator, positive denominator)."""
    return num * num + den * den, num * den


def _view(p: IntPolynomial, x=1):
    """The coefficient list and point map from which the signs and root counts
    of p at points >= x are read: the trace polynomial at x + 1/x when x >= 1
    and p is palindromic of even degree, else p itself at x."""
    if x >= 1:
        q = p._trace
        if q is not None:
            return q, _trace_point
    return p.coeffs, _same_point


def _variations(chain, num: int, den: int) -> int:
    signs = [s for s in (_sign_at(cs, num, den) for cs in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_roots_above(p: IntPolynomial, x: Fraction) -> int:
    """Sign-variation count of p shifted to (x, oo), or of its trace polynomial
    shifted to (x + 1/x, oo) when that is how ``_view`` reads p; an upper bound
    on the number of real roots of p above x, with the same parity, exact
    whenever it returns 0 or 1."""
    x = to_fraction(x)
    cs, point = _view(p, x)
    return _shifted_variations(cs, *point(x.numerator, x.denominator))


def _shifted_variations(cs, num: int, den: int) -> int:
    """Sign variations of cs shifted to (num/den, oo): Descartes' bound on its
    roots above num/den, counted with multiplicity, with their parity."""
    # scaled Taylor shift: den^d * f((num + y)/den) is an integer polynomial in y
    # whose positive roots correspond to roots of f above num/den
    work = [c * den**i for i, c in enumerate(cs)]
    shifted = []
    for _ in range(len(cs)):
        # one synthetic division by (z - num); the remainder is the next coefficient
        for i in range(1, len(work)):
            work[i] += work[i - 1] * num
        shifted.append(work.pop())
    signs = [s for s in ((c > 0) - (c < 0) for c in shifted) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(p: IntPolynomial) -> int:
    """1 + max |b_i|: all real roots of the monic p lie strictly below it."""
    return 1 + max(map(abs, p.coeffs[1:]), default=0)


def largest_real_root(p: IntPolynomial, tol=DEFAULT_TOL) -> RootResult:
    """Certified bracket of width <= tol around the largest real root in [1, oo).

    Three routes give the same bracket, and each is tried only when the one
    before it declines:

    1. ``fast_bracket_at_least_one`` names the cell on p itself from a float
       estimate of the root and certifies it exactly; it needs p(1) < 0.
    2. The same cell is named on the squarefree part q of p's ``_view``,
       when q is a proper divisor and negative at 1: a repeated top root
       makes p(1) >= 0 or defeats p's Descartes certificate, but it is a
       simple root of q, whose Descartes counts certify the cell.  The
       cell lies on p's grid and the result carries p's signs at its ends.
    3. Bisection on exact Sturm counts of the same q; raises
       NoRootAtLeastOne when those show no real root >= 1.
    """
    if p.degree < 1:
        raise ParameterRangeError("largest_real_root needs degree >= 1")
    if not p.is_monic:
        raise ParameterRangeError("largest_real_root expects a monic polynomial")
    tolf = _positive_tol(tol)
    named = fast_bracket_at_least_one(p, tolf)
    if named is not None:
        return named
    cs, point = _view(p)
    q = _squarefree(cs)
    if len(q) < len(cs) and _sign_at(q, *point(1, 1)) < 0:
        cell = _cell_bracket(
            partial(_float_top_root, q if point is _same_point else _untrace_coeffs(q)),
            _cauchy_bound(p),
            tolf,
            _sign_of(q, point),
            lambda x, count: _shifted_variations(q, *point(x.numerator, x.denominator)) == count,
        )
        if cell is not None:
            sign = _sign_of(cs, point)  # p's signs at the ends, not q's
            lo, hi = cell.lo, cell.hi
            return RootResult(lo, hi, sign(*lo.as_integer_ratio()), sign(*hi.as_integer_ratio()))
    return _sturm_isolate(p, q, tolf)


def fast_bracket_at_least_one(p: IntPolynomial, tol) -> RootResult | None:
    """The bracket of ``_sturm_bracket`` for a monic p of degree >= 1 with
    p(1) < 0, or None for any other p and when a check fails:
    ``_cell_bracket`` over the exact signs that ``_view`` reads, certified by
    Descartes counts, which are exact when they return 0 or 1."""
    if not p.is_monic or p.degree < 1 or eval_at_one(p) >= 0:
        return None
    return _cell_bracket(
        partial(_float_top_root, p.coeffs),
        _cauchy_bound(p),
        _positive_tol(tol),
        _sign_of(*_view(p)),
        lambda x, count: descartes_roots_above(p, x) == count,
    )


def _sign_of(cs, point):
    """The exact sign of cs at point(num, den), as a function of num and den."""
    return lambda num, den: _sign_at(cs, *point(num, den))


def _cell_bracket(estimate, U: int, tolf: Fraction, sign, certified) -> RootResult | None:
    """The bracket of ``_sturm_bracket`` for a polynomial f that is negative
    at 1 and positive from the integer U on, named on the dyadic grid of
    [1, U] from a float estimate of its largest root r; None when no cell can
    be named or the certificate declines.  Its signs at the ends are f's.

    ``estimate(U)`` is the float estimate of r: ``_float_top_root`` over the
    coefficients of a polynomial with f's signs at every x >= 1 on the
    general routes, ``families._ring_top_root`` from a ring's lengths.  It
    may be wrong or not finite, or raise OverflowError or ZeroDivisionError;
    that costs a None, never a wrong bracket.  ``sign(num, den)`` is the exact
    sign of f at num/den >= 1.  ``certified(x, count)`` may hold only when f
    has exactly ``count`` roots above x, counted with multiplicity; it is
    asked with count 0 at a grid point where f is 0, and with count 1 at a
    point x >= 1 at or below a cell whose ends have signs -1 and +1.

    The Sturm route ends on the level-K cell of the dyadic grid of [1, U] that
    holds r, where K is the first level whose cells are no wider than tolf,
    unless a midpoint on its way is r itself; it bisects the squarefree part
    of f, so a cell named on that part is f's cell too.  The float estimate
    names a level-K cell, or one of its two neighbours.  Signs -1 and +1 at
    the cell's ends put a root inside it.  When exactly one root lies above
    the level-10 grid point at or below the cell, or else above the cell's
    lower end, that root is simple, the largest, and not a grid point of
    level <= K, so the Sturm route isolates r by level K and bisects to this
    cell.  A cell end that is a root with no root above it is r and a
    midpoint on that way.  Floats do not resolve cells narrower than about
    r * 2^-42; below that the deepest cell they resolve is named and
    certified the same way, and sign bisection, which follows r inside it,
    finishes.
    """
    n = U - 1  # the cell width at level k is n / 2^k
    tn, td = tolf.as_integer_ratio()
    last = (-(-n * td // tn) - 1).bit_length()  # the first k with n / 2^k <= tolf
    try:
        r = estimate(U)
        if not isfinite(r):
            return None
        # the deepest level whose cells are at least r * 2^-_FLOAT_BITS wide
        k = min(last, frexp(n / r)[1] - 1 + _FLOAT_BITS)
        j = floor((r - 1) / n * (1 << k))
    except (OverflowError, ZeroDivisionError):
        return None

    den = 1 << k
    j = min(max(j, 0), den - 1)

    def grid_sign(i):  # of p at the level-k grid point i
        return sign(den + i * n, den)

    # p < 0 at 1 and > 0 at U, so the neighbour on the side of the sign change exists
    s, t = grid_sign(j), grid_sign(j + 1)
    if s > 0:
        j -= 1
        s, t = grid_sign(j), s
    elif s < 0 and t < 0:
        j += 1
        s, t = t, grid_sign(j + 1)
    if s == 0 or t == 0:  # a grid point is a root: the top one when none lies above
        x = Fraction(den + (j + (s != 0)) * n, den)
        return RootResult(x, x, 0, 0) if certified(x, 0) else None
    if s > 0 or t < 0:
        return None
    a, b = den + j * n, den + (j + 1) * n
    coarse = min(_COARSE_LEVEL, k)
    below = Fraction((1 << coarse) + (j >> (k - coarse)) * n, 1 << coarse)
    lo = Fraction(a, den)
    if not (certified(below, 1) or below != lo and certified(lo, 1)):
        return None

    if k < last:
        a, b, k = _sign_bisection(sign, a, b, k, tolf)
        if a == b:
            x = Fraction(a, 1 << k)
            return RootResult(x, x, 0, 0)
    return RootResult(Fraction(a, 1 << k), Fraction(b, 1 << k), -1, 1)


def _float_top_root(cs, U: int) -> float:
    """Float estimate of a root in [1, U] of the polynomial p with descending
    coefficients cs, which is negative at 1 and positive at U: a few levels of
    float sign bisection, then Newton steps kept inside the bracket.

    Both read f(x) = p(x) / x^degree = sum of b_i x^-i, which has the signs
    and roots of p at x >= 1 and no term larger than its coefficient there,
    so no power overflows at high degree.  They read it at x itself, not
    through the trace polynomial, whose large alternating coefficients cancel
    near x = 1.  Returns nan when floats cannot evaluate f; raises
    OverflowError when a coefficient or U does not fit a float.
    """
    terms = [(float(c), -i) for i, c in enumerate(cs) if c]
    lo, hi = 1.0, float(U)
    for _ in range(_GUESS_LEVELS):
        x = (lo + hi) / 2
        v = 0.0
        for c, e in terms:
            v += c * x**e
        if v != v:
            return v
        if v < 0:
            lo = x
        else:
            hi = x
    x = (lo + hi) / 2
    for _ in range(_NEWTON_STEPS):
        v = dv = 0.0
        for c, e in terms:
            t = c * x ** (e - 1)
            v += t * x
            dv += t * e
        if v != v:
            return v
        if v < 0:
            lo = x
        elif v > 0:
            hi = x
        else:
            break
        step = v / dv
        if abs(step) <= x * 2.0**-46:
            break
        x -= step
        if not lo < x < hi:
            x = (lo + hi) / 2
    return x


def _positive_tol(tol) -> Fraction:
    tolf = to_fraction(tol)
    if tolf <= 0:
        raise ParameterRangeError("tolerance must be positive")
    if tolf < _TOL_FLOOR:
        raise ResourceLimitError("tolerance is below the floor of 1e-300")
    return tolf


def _sturm_bracket(p: IntPolynomial, tolf: Fraction) -> RootResult:
    """Bisection on exact Sturm counts from the Cauchy bound down to an
    isolating interval, then on exact signs; p is monic of degree >= 1.
    The reference that every named cell must equal.

    The endpoints are a/2^k and b/2^k, so only integer signs are computed.
    """
    return _sturm_isolate(p, _squarefree(_view(p)[0]), tolf)


def _sturm_isolate(p: IntPolynomial, q, tolf: Fraction) -> RootResult:
    """``_sturm_bracket`` given q, the squarefree part of p's ``_view``."""
    U = _cauchy_bound(p)
    cs, point = _view(p)
    chain = _sturm_chain(q)

    v_lo, v_hi = _variations(chain, *point(1, 1)), _variations(chain, *point(U, 1))
    if v_lo == v_hi:
        if _sign_at(q, *point(1, 1)) == 0:
            return RootResult(Fraction(1), Fraction(1), 0, 0)
        raise NoRootAtLeastOne(f"no real root >= 1 for {p}")

    # phase 1: shrink until (lo, hi] holds exactly one root and none lie above
    # hi; q(hi) != 0 throughout, since hi is U or a midpoint where q is nonzero
    a, b, k = 1, U, 0
    while v_lo - v_hi > 1:
        mid = a + b
        a, b, k = 2 * a, 2 * b, k + 1
        vm = _variations(chain, *point(mid, 1 << k))  # at a root, the count just right of it
        if vm > v_hi:
            a, v_lo = mid, vm
        elif _sign_at(q, *point(mid, 1 << k)) == 0:
            x = Fraction(mid, 1 << k)
            return RootResult(x, x, 0, 0)
        else:
            b = mid
    # phase 2: plain sign bisection inside the isolating interval
    a, b, k = _sign_bisection(_sign_of(q, point), a, b, k, tolf)
    return RootResult(
        Fraction(a, 1 << k),
        Fraction(b, 1 << k),
        _sign_at(cs, *point(a, 1 << k)),
        _sign_at(cs, *point(b, 1 << k)),
    )


def _sign_bisection(sign, a: int, b: int, k: int, tolf: Fraction) -> tuple[int, int, int]:
    """Halve [a/2^k, b/2^k] around the one sign change inside it, from
    negative to positive, until the width is <= tolf; returns (a, b, k), with
    a == b when a midpoint is the root.  ``sign(num, den)`` is the exact sign
    at num/den.
    """
    tn, td = tolf.as_integer_ratio()
    while (b - a) * td > tn << k:
        mid = a + b
        a, b, k = 2 * a, 2 * b, k + 1
        s = sign(mid, 1 << k)
        if s == 0:
            return mid, mid, k
        if s < 0:
            a = mid
        else:
            b = mid
    return a, b, k


def count_roots_above(p: IntPolynomial, x: Fraction) -> int:
    """Exact number of distinct real roots of p in (x, oo), by Sturm."""
    if not any(p.coeffs):
        raise ParameterRangeError("the zero polynomial vanishes at every x")
    x = to_fraction(x)
    cs, point = _view(p, x)
    chain = _sturm_chain(_squarefree(cs))
    U = max(Fraction(_cauchy_bound(p)), x + 1)
    return _variations(chain, *point(x.numerator, x.denominator)) - _variations(
        chain, *point(U.numerator, U.denominator)
    )


def pf_eigenvalue(d: MultiDigraph, tol=DEFAULT_TOL) -> RootResult:
    """Spectral radius bracket by power iteration with Collatz-Wielandt bounds.

    For primitive T and positive v, min_i (Tv)_i/v_i and max_i (Tv)_i/v_i
    bracket the Perron eigenvalue rho.  Iterating v <- (T + I)v tightens the
    bracket.  T + I has the same Perron vector, and the shift moves the other
    eigenvalues, which lie near the circle of radius rho when T has long
    cycles, well inside the circle of radius rho + 1; v <- Tv converges far
    more slowly there.
    """
    if not is_primitive(d):
        raise ParameterRangeError("pf_eigenvalue requires a primitive digraph")
    tolf = _positive_tol(tol)
    m = d.m
    rows = d.rows
    v = [1] * m
    best_lo = Fraction(0)
    best_hi = None
    for _ in range(_PF_MAX_ITER):
        w = [sum(rows[i][j] * v[j] for j in range(m)) for i in range(m)]
        ratios = [Fraction(w[i], v[i]) for i in range(m)]
        lo, hi = min(ratios), max(ratios)
        if lo > best_lo:
            best_lo = lo
        if best_hi is None or hi < best_hi:
            best_hi = hi
        if best_hi - best_lo <= tolf:
            return RootResult(best_lo, best_hi, None, None)
        w = [x + y for x, y in zip(w, v)]  # (T + I)v
        g = 0
        for x in w:
            g = gcd(g, x)
        v = [x // g for x in w]
    raise RefinementLimitError(
        f"Collatz-Wielandt bounds did not reach width {tolf} in {_PF_MAX_ITER} iterations"
    )


def ham_song_check(d: MultiDigraph, tol=DEFAULT_TOL) -> bool:
    """Rigorous test of complexity(d) <= lambda^m - 1 with outward rounding.

    True and False are both certified by the exact bracket; when the bracket
    straddles the threshold the answer is Inconclusive at this tolerance.
    """
    return _ham_song(d, tol)[0]


def _ham_song(d: MultiDigraph, tol) -> tuple[bool, RootResult]:
    """The verdict of ``ham_song_check`` and the root bracket it rests on."""
    if not is_primitive(d):
        raise ParameterRangeError("ham_song_check requires a primitive digraph")
    c = complexity(d)
    bracket = largest_real_root(char_poly_ct(d), tol)
    m = d.m
    lo_bound = bracket.lo**m - 1
    hi_bound = bracket.hi**m - 1
    if lo_bound < c <= hi_bound:
        raise Inconclusive(
            f"complexity {c} falls inside the bracket [{lo_bound}, {hi_bound}] "
            f"for lambda^m - 1; tighten the tolerance"
        )
    return c <= lo_bound, bracket


def monotonicity_witness(
    d: MultiDigraph, extra_edge: tuple[int, int], tol=DEFAULT_TOL
) -> tuple[RootResult, RootResult]:
    """Certified pair (lambda(d), lambda(d + edge)) with the second >= the first.

    Brackets are refined until disjoint; identical characteristic polynomials
    short-circuit to provably equal roots.  Strong connectivity is required
    (the spectral radius is then at least 1 and strictly increases when an
    edge is added).
    """
    if not is_strongly_connected(d):
        raise ParameterRangeError("monotonicity_witness requires a strongly connected digraph")
    i, j = _edge_endpoints(d.m, extra_edge)
    p1 = char_poly_ct(d)
    p2 = IntPolynomial(_edge_placement_coeffs(d.rows, p1.coeffs)[i][j])
    if p1 == p2:
        b = largest_real_root(p1, tol)
        return b, b
    t = to_fraction(tol)
    while True:
        b1 = largest_real_root(p1, t)
        b2 = largest_real_root(p2, t)
        if b1.hi <= b2.lo:
            return b1, b2
        if t <= _SEPARATION_FLOOR:
            raise RefinementLimitError(
                "root brackets inseparable at width 1e-15 although the polynomials differ"
            )
        t = max(t / 64, _SEPARATION_FLOOR)
