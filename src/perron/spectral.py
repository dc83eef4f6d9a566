"""Certified brackets for the largest real root >= 1, Perron eigenvalue iteration,
the complexity bound check, and spectral monotonicity witnesses.

Everything here evaluates polynomials in exact rational arithmetic; floating
point only appears when a bracket is rendered as a decimal string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .charpoly import char_poly_ct
from .digraph import MultiDigraph, complexity, is_primitive, is_strongly_connected
from .errors import (
    Inconclusive,
    NoRootAtLeastOne,
    ParameterRangeError,
    RefinementLimitError,
)
from .polynomial import IntPolynomial, eval_at_one, to_fraction

DEFAULT_TOL = Fraction(1, 10**10)
_SEPARATION_FLOOR = Fraction(1, 10**15)


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
    def value(self) -> float:
        return float(self.midpoint)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def decimal(self, digits: int = 5) -> str:
        """Midpoint rounded half-up to a fixed number of fractional digits."""
        if digits < 1:
            raise ParameterRangeError("digits must be >= 1")
        scaled = self.midpoint * 10**digits
        n = scaled.numerator // scaled.denominator
        if 2 * (scaled - n) >= 1:
            n += 1
        sign = "-" if n < 0 else ""
        n = abs(n)
        return f"{sign}{n // 10**digits}.{n % 10**digits:0{digits}d}"


# ---------------------------------------------------------------------------
# integer polynomial helpers (descending coefficient lists)
# ---------------------------------------------------------------------------

def _strip(cs):
    i = 0
    while i < len(cs) and cs[i] == 0:
        i += 1
    return cs[i:]


def _primitive(cs):
    """Divide by the coefficient content, keeping the sign."""
    cs = _strip(cs)
    if not cs:
        return []
    g = 0
    for c in cs:
        g = gcd(g, c)
    return [c // g for c in cs]


def _derivative(cs):
    d = len(cs) - 1
    return [c * (d - i) for i, c in enumerate(cs[:-1])]


def _divmod_q(a, b):
    """Quotient and remainder of integer lists over Q (descending order)."""
    r = [Fraction(c) for c in a]
    db = len(b) - 1
    lb = Fraction(b[0])
    quotient = []
    while len(r) - 1 >= db:
        f = r[0] / lb
        quotient.append(f)
        for k in range(1, db + 1):
            r[k] -= f * b[k]
        r.pop(0)
        if not r:
            break
    return quotient, r


def _fractions_to_primitive_int(fr):
    """Scale a rational list by a positive constant into a primitive integer list."""
    fr = [Fraction(c) for c in fr]
    while fr and fr[0] == 0:
        fr.pop(0)
    if not fr:
        return []
    den = 1
    for c in fr:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fr]
    return _primitive(ints)


def _poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient."""
    a = _primitive(a)
    b = _primitive(b)
    while b:
        a, b = b, _fractions_to_primitive_int(_divmod_q(a, b)[1])
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
    quotient, remainder = _divmod_q(cs, g)
    assert not any(remainder)  # g divides cs exactly
    ints = _fractions_to_primitive_int(quotient)
    return ints if ints[0] > 0 else [-c for c in ints]


def _sturm_chain(cs):
    """Sturm chain of a squarefree integer polynomial.

    Remainders are negated and rescaled by positive constants only, which
    preserves the sign-variation property while keeping integer entries.
    """
    chain = [list(cs), _primitive(_derivative(cs))]
    while len(chain[-1]) > 1:
        r = _fractions_to_primitive_int(_divmod_q(chain[-2], chain[-1])[1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_at(cs, num: int, den: int) -> int:
    """Sign of the polynomial at num/den, den > 0."""
    acc = cs[0]
    dp = 1
    for c in cs[1:]:
        dp *= den
        acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


def _variations(chain, num: int, den: int) -> int:
    signs = [s for s in (_sign_at(cs, num, den) for cs in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_roots_above(p: IntPolynomial, x: Fraction) -> int:
    """Sign-variation count of p shifted to (x, oo); an upper bound on the
    number of real roots there, exact whenever it returns 0 or 1."""
    x = to_fraction(x)
    num, den = x.numerator, x.denominator
    d = p.degree
    # scaled Taylor shift: den^d * p((num + y)/den) is an integer polynomial in y
    # whose positive roots correspond to roots of p above x
    work = [c * den**i for i, c in enumerate(p.coeffs)]
    shifted = []
    for _ in range(d + 1):
        # one synthetic division by (z - num); the remainder is the next coefficient
        for i in range(1, len(work)):
            work[i] += work[i - 1] * num
        shifted.append(work.pop())
    signs = [s for s in ((c > 0) - (c < 0) for c in shifted) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(p: IntPolynomial) -> int:
    """1 + max |b_i|: all real roots of the monic p lie strictly below it."""
    return 1 + max(abs(c) for c in p.coeffs[1:])


def largest_real_root(p: IntPolynomial, tol=DEFAULT_TOL) -> RootResult:
    """Certified bracket of width <= tol around the largest real root in [1, oo).

    Tries ``fast_bracket_at_least_one`` first and, when its certificate fails,
    bisects on exact Sturm counts; raises NoRootAtLeastOne when those show no
    real root >= 1.  Both routes give the same bracket.
    """
    if p.degree < 1:
        raise ParameterRangeError("largest_real_root needs degree >= 1")
    if not p.is_monic:
        raise ParameterRangeError("largest_real_root expects a monic polynomial")
    tolf = _positive_tol(tol)
    fast = fast_bracket_at_least_one(p, tolf)
    return fast if fast is not None else _sturm_bracket(p, tolf)


def _positive_tol(tol) -> Fraction:
    tolf = to_fraction(tol)
    if tolf <= 0:
        raise ParameterRangeError("tolerance must be positive")
    return tolf


def _sturm_bracket(p: IntPolynomial, tolf: Fraction) -> RootResult:
    """Bisection on exact Sturm counts from the Cauchy bound down to an
    isolating interval, then on exact signs; p is monic of degree >= 1."""
    U = _cauchy_bound(p)
    q = _squarefree(p.coeffs)
    chain = _sturm_chain(q)

    v_at = lambda x: _variations(chain, x.numerator, x.denominator)
    q_sign = lambda x: _sign_at(q, x.numerator, x.denominator)

    one = Fraction(1)
    v1 = v_at(one)
    vU = v_at(Fraction(U))
    if v1 - vU == 0:
        if q_sign(one) == 0:
            return RootResult(one, one, 0, 0)
        raise NoRootAtLeastOne(f"no real root >= 1 for {p}")

    lo, v_lo = one, v1
    hi, v_hi = Fraction(U), vU
    # phase 1: shrink until (lo, hi] holds exactly one root and none lie above hi
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        if q_sign(mid) == 0:
            vm = v_at(mid)  # equals the count just right of mid
            if vm == v_hi:
                return RootResult(mid, mid, 0, 0)
            lo, v_lo = mid, vm
        else:
            vm = v_at(mid)
            if vm > v_hi:
                lo, v_lo = mid, vm
            else:
                hi, v_hi = mid, vm
    # phase 2: plain sign bisection inside the isolating interval
    if q_sign(hi) == 0:
        lo = max(lo, hi - tolf)
    else:
        while hi - lo > tolf:
            mid = (lo + hi) / 2
            s = q_sign(mid)
            if s == 0:
                lo = hi = mid
                break
            if s < 0:
                lo = mid
            else:
                hi = mid
    plo = p(lo)
    phi = p(hi)
    return RootResult(lo, hi, (plo > 0) - (plo < 0), (phi > 0) - (phi < 0))


def fast_bracket_at_least_one(p: IntPolynomial, tol) -> RootResult | None:
    """Certified bracket for the largest real root of a monic p with p(1) < 0,
    or None when the certificate below fails.

    Sign bisection of [1, U], U the Cauchy bound, on the dyadic grid: lo and
    hi are a/2^k and b/2^k, and only integer signs are computed.  The result
    is certified when the Descartes count above lo is exactly 1: the one root
    above lo is then simple and the largest, and every visited interval holds
    it, so the Sturm route visits the same intervals and returns this bracket.
    """
    if not p.is_monic or p.degree < 1 or eval_at_one(p) >= 0:
        return None
    tn, td = _positive_tol(tol).as_integer_ratio()
    a, b, k = 1, _cauchy_bound(p), 0
    while (b - a) * td > tn << k:
        mid = a + b
        a, b, k = 2 * a, 2 * b, k + 1
        s = _sign_at(p.coeffs, mid, 1 << k)
        if s == 0:
            x = Fraction(mid, 1 << k)
            return RootResult(x, x, 0, 0) if descartes_roots_above(p, x) == 0 else None
        if s < 0:
            a = mid
        else:
            b = mid
    lo = Fraction(a, 1 << k)
    if descartes_roots_above(p, lo) == 1:
        return RootResult(lo, Fraction(b, 1 << k), -1, 1)
    return None


def count_roots_above(p: IntPolynomial, x: Fraction) -> int:
    """Exact number of distinct real roots of p in (x, oo), by Sturm."""
    q = _squarefree(p.coeffs)
    chain = _sturm_chain(q)
    x = to_fraction(x)
    U = max(Fraction(_cauchy_bound(p)), x + 1)
    return _variations(chain, x.numerator, x.denominator) - _variations(
        chain, U.numerator, U.denominator
    )


def pf_eigenvalue(d: MultiDigraph, tol=DEFAULT_TOL, max_iter: int = 500_000) -> RootResult:
    """Spectral radius bracket by power iteration with Collatz-Wielandt bounds.

    For primitive T and positive v, min_i (Tv)_i/v_i and max_i (Tv)_i/v_i
    bracket the Perron eigenvalue; iterating v <- Tv tightens the bracket.
    """
    if not is_primitive(d):
        raise ParameterRangeError("pf_eigenvalue requires a primitive digraph")
    tolf = _positive_tol(tol)
    m = d.m
    rows = d.rows
    v = [1] * m
    best_lo = Fraction(0)
    best_hi = None
    for _ in range(max_iter):
        w = [sum(rows[i][j] * v[j] for j in range(m)) for i in range(m)]
        ratios = [Fraction(w[i], v[i]) for i in range(m)]
        lo, hi = min(ratios), max(ratios)
        if lo > best_lo:
            best_lo = lo
        if best_hi is None or hi < best_hi:
            best_hi = hi
        if best_hi - best_lo <= tolf:
            return RootResult(best_lo, best_hi, None, None)
        g = 0
        for x in w:
            g = gcd(g, x)
        v = [x // g for x in w]
    raise RefinementLimitError(
        f"Collatz-Wielandt bounds did not reach width {tolf} in {max_iter} iterations"
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
    i, j = extra_edge
    d2 = d.with_edge(i, j)
    p1 = char_poly_ct(d)
    p2 = char_poly_ct(d2)
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
