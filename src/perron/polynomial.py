"""Exact integer polynomials, palindrome classification, and the two text formats."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import gcd
from operator import neg

from .errors import ParameterRangeError, ResourceLimitError

# far above every degree the sweeps and searches reach; guards the dense list
MAX_DEGREE = 100_000
# to_fraction refuses longer decimal exponents before parsing: Fraction builds
# 10^|exponent| exactly, so "1e-10000000" alone takes seconds to parse
_MAX_EXPONENT_DIGITS = 4


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of x^(degree - i).

    The length fixes the degree structurally, so trailing zeros are kept and
    equality is bit-exact coefficient equality.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ParameterRangeError("a polynomial needs at least one coefficient")
        if not all(map(isinstance, self.coeffs, repeat(int))):
            raise ParameterRangeError("coefficients must be exact integers")

    @classmethod
    def from_terms(cls, degree: int, terms) -> "IntPolynomial":
        """Build from an {exponent: coefficient} mapping; absent exponents are 0."""
        if degree < 0:
            raise ParameterRangeError("degree must be >= 0")
        if degree > MAX_DEGREE:
            raise ResourceLimitError(
                f"degree {degree} exceeds the cap of {MAX_DEGREE}", estimate=degree
            )
        coeffs = [0] * (degree + 1)
        for e, c in terms.items():
            if not (0 <= e <= degree):
                raise ParameterRangeError(f"exponent {e} outside 0..{degree}")
            coeffs[degree - e] += c
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[0] == 1

    @cached_property
    def _trace(self) -> tuple[int, ...] | None:
        """The trace polynomial q of a palindromic p of even degree 2d, with
        p(x) = x^d q(x + 1/x) (see ``_trace_coeffs``); None for any other p.
        Computed at most once per polynomial."""
        cs = self.coeffs
        if len(cs) % 2 == 0 or cs != cs[::-1]:
            return None
        return _trace_coeffs(cs)

    def b(self, i: int) -> int:
        """Coefficient of x^(degree - i); b(0) is the leading coefficient."""
        return self.coeffs[i]

    def __call__(self, x):
        """Exact Horner evaluation; int stays int, Fraction stays Fraction."""
        acc = self.coeffs[0] * (x ** 0)
        for c in self.coeffs[1:]:
            acc = acc * x + c
        return acc

    def __str__(self):
        return format_polynomial(self)


class PalindromeClass(Enum):
    PALINDROMIC = "palindromic"
    ANTIPALINDROMIC = "antipalindromic"
    NEITHER = "neither"


def classify_palindrome(p: IntPolynomial) -> PalindromeClass:
    """Palindromic iff b_i = b_{m-i} for all i, antipalindromic iff b_i = -b_{m-i}."""
    if not p.is_monic:
        raise ParameterRangeError("palindrome classification is defined for monic polynomials")
    c = p.coeffs
    r = c[::-1]
    palindromic = c == r
    antipalindromic = c == tuple(map(neg, r))
    # both at once would force every coefficient to vanish, impossible for monic p
    assert not (palindromic and antipalindromic)
    if palindromic:
        return PalindromeClass.PALINDROMIC
    if antipalindromic:
        return PalindromeClass.ANTIPALINDROMIC
    return PalindromeClass.NEITHER


def eval_at_one(p: IntPolynomial) -> int:
    """p(1), the exact coefficient sum."""
    return sum(p.coeffs)


def format_polynomial(p: IntPolynomial) -> str:
    """Pretty form in descending powers, e.g. ``x^14 - x^8 - x^7 - x^6 + 1``.
    Only the nonzero coefficients are visited."""
    degree = p.degree
    parts = []
    for i, c in compress(enumerate(p.coeffs), p.coeffs):
        e = degree - i
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "x" if e == 1 else f"x^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(("+ " if c > 0 else "- ") + body)
    if not parts:
        return "0"
    parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
    return " ".join(parts)


def format_coefficient_list(p: IntPolynomial) -> str:
    """Coefficient-list form in descending powers, e.g. ``[1,0,-1]``."""
    return "[" + ",".join(str(c) for c in p.coeffs) + "]"


_CHUNK_RE = re.compile(r"([+-]?)(\d+)?(x(?:\^(\d+))?)?\Z")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse either text format, auto-detected by the leading character.

    The coefficient-list form round-trips any polynomial; the pretty form
    fixes the degree by its highest written exponent.
    """
    s = text.strip()
    if not s:
        raise ParameterRangeError("empty polynomial text")
    if s.startswith("["):
        try:
            data = json.loads(s)
        except ValueError as exc:
            raise ParameterRangeError(f"bad coefficient list: {exc}") from exc
        if not isinstance(data, list) or not data or not all(isinstance(c, int) for c in data):
            raise ParameterRangeError("coefficient list must be a non-empty list of integers")
        return IntPolynomial(tuple(data))
    return _parse_pretty(s)


def _parse_pretty(s: str) -> IntPolynomial:
    compact = s.replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if not chunks or "".join(chunks) != compact:
        raise ParameterRangeError(f"cannot parse polynomial {s!r}")
    terms: dict[int, int] = {}
    for chunk in chunks:
        m = _CHUNK_RE.match(chunk)
        if m is None:
            raise ParameterRangeError(f"cannot parse polynomial term {chunk!r}")
        sign, digits, xpart, exp = m.groups()
        if digits is None and xpart is None:
            raise ParameterRangeError(f"cannot parse polynomial term {chunk!r}")
        coeff = int(digits) if digits is not None else 1
        if sign == "-":
            coeff = -coeff
        if xpart is None:
            e = 0
        elif exp is None:
            e = 1
        else:
            e = int(exp)
        terms[e] = terms.get(e, 0) + coeff
    degree = max(terms)
    return IntPolynomial.from_terms(degree, terms)


def to_fraction(x) -> Fraction:
    """Exact conversion of int/float/str/Fraction tolerances and bounds."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        _, e, exponent = x.strip().lower().rpartition("e")
        digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and len(digits) > _MAX_EXPONENT_DIGITS:
            raise ResourceLimitError(
                f"a decimal exponent of {len(digits)} digits exceeds the cap of "
                f"{_MAX_EXPONENT_DIGITS}",
                estimate=len(digits),
            )
    if isinstance(x, (int, float, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass  # nan, inf and malformed text
    raise ParameterRangeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# integer coefficient-list helpers (descending order)
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


def _trace_coeffs(cs) -> tuple[int, ...]:
    """Descending coefficients of q with p(x) = x^d q(x + 1/x), for the
    palindromic list cs of p, of length 2d + 1.

    p/x^d = sum_j r_j (x^j + x^-j) with r_j the coefficient of x^(d+j); the
    top term r_d (x + 1/x)^d carries every power x^(d-2i) with C(d, i), so
    peeling it off leaves a shorter palindrome.  The binomial recurrence
    divides exactly.
    """
    d = len(cs) // 2
    r = list(cs[d::-1])  # r[j] is the coefficient of x^(d+j), 0 <= j <= d
    q = [0] * (d + 1)  # ascending
    for k in range(d, 0, -1):
        t = q[k] = r[k]
        if t:
            binom = 1
            for i in range(1, k // 2 + 1):
                binom = binom * (k - i + 1) // i
                r[k - 2 * i] -= t * binom
    q[0] = r[0]
    return tuple(q[::-1])


def _untrace_coeffs(qs) -> list[int]:
    """Descending coefficients of x^e q(x + 1/x), for the descending list qs
    of q, of length e + 1; the inverse of ``_trace_coeffs``.

    Horner in y = x + 1/x: with P the product for the top k coefficients of
    q, x^(k+1) (Q y + c) = (x^2 + 1) P + c x^(k+1), since x y = x^2 + 1.
    """
    out = [qs[0]]
    for k, c in enumerate(qs[1:]):
        out = out + [0, 0]
        for i in range(len(out) - 1, 1, -1):
            out[i] += out[i - 2]
        out[k + 1] += c
    return out


def _derivative(cs):
    d = len(cs) - 1
    return [c * (d - i) for i, c in enumerate(cs[:-1])]


def _sign_at(cs, num: int, den: int) -> int:
    """Sign of the polynomial at num/den, den > 0."""
    acc = cs[0]
    dp = 1
    for c in cs[1:]:
        dp *= den
        acc *= num
        if c:  # the family polynomials are sparse
            acc += c * dp
    return (acc > 0) - (acc < 0)


def _pdivmod(a, b):
    """Integer pseudo-division, b[0] != 0: lists q, r with c*a = q*b + r,
    len(r) < len(b) and c = |b[0]|^k > 0.

    Each step scales the running remainder by |b[0]| only when its leading
    term is nonzero, so division by a monic b is exact integer division and
    the remainder and quotient differ from the rational ones by the positive
    factor c alone.
    """
    lb = b[0]
    scale, sign = abs(lb), (lb > 0) - (lb < 0)
    r = list(a)
    q = []
    while len(r) >= len(b):
        f = r.pop(0)
        if f and scale != 1:
            r = [scale * c for c in r]
            q = [scale * c for c in q]
        f *= sign
        q.append(f)
        if f:
            for k in range(1, len(b)):
                r[k - 1] -= f * b[k]
    return q, r
