"""Polynomial families, the digraph shapes realizing them, and genus upper bounds.

The two-cycle shape joins disjoint cycles of lengths a1 and a2 with one edge
each way, creating a third through-cycle; the n-cycle ring generalizes it
with one connecting edge from each cycle to the next around the ring.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, chain

from .digraph import MultiDigraph
from .errors import ParameterRangeError
from .polynomial import IntPolynomial
from .spectral import (
    _NEWTON_STEPS,
    DEFAULT_TOL,
    RootResult,
    _cauchy_bound,
    _cell_bracket,
    _positive_tol,
    largest_real_root,
)

# ``_ring_sign_at`` trusts floats only above the least normal float
_MIN_NORMAL = 2.0**-1022


@dataclass(frozen=True)
class Shape:
    """Abstract skeleton: n disjoint cycles plus c connecting-edge attachments.

    An attachment (sc, so, tc, to) adds one edge from offset ``so`` on cycle
    ``sc`` to offset ``to`` on cycle ``tc``; offsets are reduced modulo the
    cycle lengths.
    """

    cycle_lengths: tuple[int, ...]
    attachments: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if not self.cycle_lengths:
            raise ParameterRangeError("a shape needs at least one cycle")
        if min(self.cycle_lengths) < 1:
            raise ParameterRangeError("cycle lengths must be >= 1")
        n = len(self.cycle_lengths)
        for sc, _, tc, _ in self.attachments:
            if not (0 <= sc < n and 0 <= tc < n):
                raise ParameterRangeError("attachment cycle index out of range")

    @classmethod
    def _unchecked(cls, cycle_lengths, attachments) -> "Shape":
        """Wrap arguments that a sweep of this library made valid itself; they
        are not checked again (see ``MultiDigraph._from_grid``)."""
        shape = object.__new__(cls)
        object.__setattr__(shape, "cycle_lengths", cycle_lengths)
        object.__setattr__(shape, "attachments", attachments)
        return shape

    @property
    def m(self) -> int:
        return sum(self.cycle_lengths)

    def _attachment_edges(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Each cycle's first vertex, then the vertex count, and the (u, v) of
        each attachment edge; the cycles take consecutive vertex blocks in order."""
        lengths = self.cycle_lengths
        starts = list(accumulate(lengths, initial=0))
        extra = [
            (starts[sc] + so % lengths[sc], starts[tc] + to % lengths[tc])
            for sc, so, tc, to in self.attachments
        ]
        return starts, extra

    def _core(self):
        """The smoothed core of ``build_shape_nc(self)``, read with no grid:
        ``(V, arcs, lengths, weights)``, each arc a path through in = out = 1
        vertices, its length the path's edge count, its weight 1 or, for one
        edge, that edge's multiplicity.

        The core vertices are the attachment endpoints, in vertex order, then
        one for each cycle with no endpoint, whose arc is a loop of the
        cycle's length.  One walk takes each cycle's endpoints in turn: an
        endpoint's cycle arc runs to the next endpoint on its cycle, wrapping
        to the first, and takes its place among the endpoint's attachment arcs
        by the vertex it steps to first.  O(c log c) for c attachments.
        """
        starts, extra = self._attachment_edges()
        out: dict[int, list[int]] = {}  # source -> its attachment targets
        for u, v in extra:
            if u in out:
                out[u].append(v)
            else:
                out[u] = [v]
        order = sorted({*out, *chain.from_iterable(out.values())})
        V = len(order)
        arcs = []
        arc_lengths = []
        weights = []
        bare = []  # the lengths of the cycles with no endpoint
        i = 0  # the core index of the next endpoint
        for start, l in zip(starts, self.cycle_lengths):
            first, end = i, start + l
            i = bisect_left(order, end, i)
            if i == first:
                bare.append(l)
            for t in range(first, i):  # the cycle's endpoints are order[first:i]
                u = order[t]
                j = t + 1 if t + 1 < i else first
                gap = (order[j] - u - 1) % l + 1
                targets = out.get(u)
                if targets is None:
                    arcs.append((t, j))
                    arc_lengths.append(gap)
                    weights.append(1)
                    continue
                step = u + 1 if u + 1 < end else start  # the cycle arc's first step
                targets.append(step)
                targets.sort()
                seen = -1
                for v in targets:
                    if v == seen:  # a parallel edge
                        weights[-1] += 1
                        continue
                    seen = v
                    arcs.append((t, j) if v == step else (t, bisect_left(order, v)))
                    arc_lengths.append(gap if v == step else 1)
                    weights.append(1)
        for l in bare:
            arcs.append((V, V))
            arc_lengths.append(l)
            weights.append(1)
            V += 1
        return V, arcs, arc_lengths, weights

    def _runs(self):
        """The rows of ``build_shape_nc(self)`` in order, as (u, w, row): rows
        u..w-1 are plain cycle steps i -> i + 1, and row w, an attachment
        source or a cycle's closing vertex, holds the (v, k) arcs ``row`` by v.
        The one walk behind ``arcs`` and ``_arc_text``, over O(n + c) rows."""
        starts, extra = self._attachment_edges()
        rows = {end - 1: {start: 1} for start, end in zip(starts, starts[1:])}
        for u, v in extra:
            row = rows.setdefault(u, {u + 1: 1})
            row[v] = row.get(v, 0) + 1
        u = 0
        for w in sorted(rows):
            yield u, w, sorted(rows[w].items())
            u = w + 1

    def arcs(self) -> list[tuple[int, int, int]]:
        """The (i, j, k) edges of ``build_shape_nc(self)`` in row-major order,
        with no grid (see ``_runs``)."""
        arcs = []
        for u, w, row in self._runs():
            arcs.extend((i, i + 1, 1) for i in range(u, w))
            arcs.extend((w, v, k) for v, k in row)
        return arcs

    def _arc_text(self) -> str:
        """``arcs()`` as 1-based labels "i->j", or "i->jxk" when k > 1, joined by
        spaces; each run of plain steps is one slice of ``_plain_steps``."""
        text, starts = _plain_steps(self.m)
        parts = []
        for u, w, row in self._runs():
            if u < w:
                parts.append(text[starts[u] : starts[w] - 1])
            parts.extend(f"{w + 1}->{v + 1}" + (f"x{k}" if k > 1 else "") for v, k in row)
        return " ".join(parts)


@cache
def _plain_steps(m: int) -> tuple[str, tuple[int, ...]]:
    """The chain text "1->2 2->3 ... m->m+1 ", one label per row of an
    m-vertex shape, and where each label starts: the labels of rows u..w-1
    are ``text[starts[u] : starts[w] - 1]``.  Built once per m, on first use."""
    labels = [f"{u}->{u + 1} " for u in range(1, m + 1)]
    return "".join(labels), (0, *accumulate(map(len, labels)))


@dataclass(frozen=True)
class GenusBound:
    """Upper-bound data for the minimal stretch factor on a genus-g surface."""

    g: int
    d: int
    a: int
    bound: RootResult


def _ring_polynomial(lengths, through: int) -> IntPolynomial:
    """prod_k (x^{l_k} - 1) - x^{m-through}, m = sum(lengths): the charpoly of
    disjoint cycles of lengths l_k joined in a ring by a through-cycle of that
    length, i.e. the clique polynomial of its cycle graph (McMullen 2015)."""
    terms = {0: 1}
    for l in lengths:
        product: dict[int, int] = {}
        for e, c in terms.items():
            product[e + l] = product.get(e + l, 0) + c
            product[e] = product.get(e, 0) - c
        terms = product
    m = sum(lengths)
    terms[m - through] = terms.get(m - through, 0) - 1
    return IntPolynomial.from_terms(m, terms)


def _ring_sign_at(lengths, through: int, num: int, den: int) -> int:
    """Sign of ``_ring_polynomial(lengths, through)`` at num/den, den > 0, from
    the lengths alone, by a filtered predicate (Shewchuk 1997): floats answer
    when their error bound shows the sign, ``_exact_ring_sign`` otherwise.

    For x = num/den >= 1, p(x) / x^m = F = prod_k (1 - y^{l_k}) - y^t with
    y = den/num in (0, 1], t = through and n = len(lengths).  The float value
    F~ takes the correctly rounded int/int quotient y~ = y(1 + d), |d| <= u =
    2^-53 when y~ is a normal float, n + 1 ``pow`` calls, n multiplications
    and n + 1 subtractions.  Every true value and every rounded one then lies
    in [-1, 1] up to a few u, so errors add in absolute terms:

    - y~^e = y^e (1 + d)^e is off by at most e u / (1 - e u) <= 2 e u for
      each exponent e, while e u <= 1/2: 2(m + t) u over all n + 1;
    - each ``pow`` returns a non-negative value within kappa ulps of y~^e,
      at most kappa u since y~^e <= 1, with kappa = 2^11 - 1 >= 2^10 a safety
      factor over the < 1 ulp that glibc documents: kappa (n + 1) u;
    - 1 - a, the products and the last difference each round once, by at
      most u/2 below 1 and u below 2, and a product of factors in [-1, 1]
      carries their errors over unamplified: at most (n + 1) u.

    So |F~ - F| <= E = (2(m + t) + 2^11 (n + 1)) 2^-53, and a float sign is
    returned only when |F~| > E.  When m + t > 2^52, E exceeds 1 + 2^-41 >=
    |F~|, so only the exact branch answers there.  The exact branch also
    takes num < den and a y~ below the least normal float.
    """
    if num >= den > 0:
        y = den / num
        if y >= _MIN_NORMAL:
            f = 1.0
            for l in lengths:
                f *= 1.0 - y**l
            f -= y**through
            bound = (2 * (sum(lengths) + through) + 2048 * (len(lengths) + 1)) * 2.0**-53
            if f > bound:
                return 1
            if f < -bound:
                return -1
    return _exact_ring_sign(lengths, through, num, den)


def _exact_ring_sign(lengths, through: int, num: int, den: int) -> int:
    """``_ring_sign_at`` by integers: den^m * p(num/den) = prod_k (num^{l_k}
    - den^{l_k}) - num^{m-through} * den^through."""
    acc = 1
    for l in lengths:
        acc *= num**l - den**l
    acc -= num ** (sum(lengths) - through) * den**through
    return (acc > 0) - (acc < 0)


def _ring_root(lengths, through: int, poly: IntPolynomial, tolf) -> RootResult:
    """``largest_real_root(poly, tolf)`` for poly = ``_ring_polynomial(lengths,
    through)`` with 1 <= through <= m, from ring signs alone; tolf is a
    tolerance that ``_positive_tol`` has already accepted.

    For x > 1, poly(x) / x^m = prod_k (1 - x^{-l_k}) - x^{-through}: every
    factor is positive and increasing, and so is -x^{-through}, so it rises
    strictly from -1 at x = 1 towards 1.  Hence poly(1) = -1, and poly has
    exactly one root above 1, a simple one, and exactly one root above any
    x >= 1 where its sign is negative and none where it is not.  That answers
    every count the named cell asks for, so ``_cell_bracket`` reads only the
    signs of ``_ring_sign_at`` and needs no trace polynomial and no Descartes
    count.  Its float estimate is ``_ring_top_root``, O(n) per step, not a
    sum over poly's coefficients.  When no cell can be named, the general
    route gives the bracket.
    """
    cell = _cell_bracket(
        partial(_ring_top_root, lengths, through),
        _cauchy_bound(poly),
        tolf,
        lambda num, den: _ring_sign_at(lengths, through, num, den),
        lambda x, count: True,  # by the lemma, every count it is asked for holds
    )
    return cell if cell is not None else largest_real_root(poly, tolf)


def _ring_top_root(lengths, through: int, U: int) -> float:
    """Float estimate of the one root above 1 of ``_ring_polynomial(lengths,
    through)``, which lies in (1, U): Newton steps on F(x) = prod_k (1 -
    x^{-l_k}) - x^{-through} from x = 1, kept inside the bracket that F's
    signs leave, whose midpoint replaces a step that leaves it.

    F and F' take n + 1 powers of 1/x <= 1, so nothing overflows at any m.
    From 1, where F' = through when n >= 2, the first step lands at the scale
    of the root, 1 + O(1/through).
    """
    lo, hi = 1.0, float(U)
    x = 1.0
    for _ in range(_NEWTON_STEPS):
        y = 1.0 / x
        v, dv = 1.0, 0.0
        for l in lengths:
            w = y**l
            v, dv = v * (1.0 - w), dv * (1.0 - w) + v * l * w * y
        w = y**through
        v -= w
        dv += through * w * y
        if v < 0:
            lo = x
        elif v > 0:
            hi = x
        else:
            break
        step = v / dv if dv else hi - lo  # dv is 0 only where powers underflow: bisect
        if abs(step) <= x * 2.0**-46:
            break
        x -= step
        if not lo < x < hi:
            x = (lo + hi) / 2
    return x


def two_cycle_polynomial(a1: int, a2: int, a3: int) -> IntPolynomial:
    """x^m - x^{m-a1} - x^{a1} - x^{m-a3} + 1 with m = a1 + a2, colliding
    exponents summed: the characteristic polynomial of two cycles of lengths
    a1, a2 joined both ways by a through-cycle of length a3."""
    return _ring_polynomial((a1, a2), a3)


def lt_polynomial(d: int, a: int) -> IntPolynomial:
    """x^{2d} - x^{2d-a} - x^d - x^a + 1 for 1 <= a <= d-1; always palindromic."""
    if not (isinstance(d, int) and isinstance(a, int) and 1 <= a <= d - 1):
        raise ParameterRangeError(f"lt_polynomial needs 1 <= a <= d-1, got d={d}, a={a}")
    return two_cycle_polynomial(a, 2 * d - a, d)


def c4_polynomial(d: int, a_vec) -> IntPolynomial:
    """The complexity-4 family on four lengths a_i >= 2 with sum 2d.

    x^{2d} - sum_i (x^{2d-a_i} + x^{a_i}) + sum_{k<l} x^{a_k+a_l} - x^d + 1,
    where the pair sum runs over all six unordered pairs (the complementary
    pairs supply the mirror terms).  Always palindromic; symmetric in a_vec.
    """
    a = tuple(a_vec)
    if not (isinstance(d, int) and all(isinstance(ai, int) for ai in a)):
        raise ParameterRangeError(f"c4_polynomial needs integer arguments, got d={d!r}, a={a!r}")
    if len(a) != 4:
        raise ParameterRangeError("c4_polynomial needs exactly four lengths")
    if any(ai < 2 for ai in a):
        raise ParameterRangeError(f"each length must be >= 2, got {a}")
    if sum(a) != 2 * d:
        raise ParameterRangeError(f"lengths must sum to 2d = {2 * d}, got sum {sum(a)}")
    return _ring_polynomial(a, d)


def build_shape_22(a1: int, a2: int, p: int, q: int) -> MultiDigraph:
    """Two disjoint cycles of lengths a1, a2 joined both ways.

    The through-cycle runs over p vertices of the first cycle and q of the
    second (so its length is p + q).  The characteristic polynomial is
    ``two_cycle_polynomial(a1, a2, p + q)``.
    """
    if a1 < 1 or a2 < 1:
        raise ParameterRangeError(f"cycle lengths must be >= 1, got ({a1}, {a2})")
    if not (1 <= p <= a1 and 1 <= q <= a2):
        raise ParameterRangeError(
            f"need 1 <= p <= a1 and 1 <= q <= a2, got p={p}, q={q} for ({a1}, {a2})"
        )
    return build_shape_nc(ring_shape((a1, a2), (p - 1, q - 1)))


def build_shape_nc(shape: Shape) -> MultiDigraph:
    """Concrete digraph for a shape: cycle blocks plus attachment edges."""
    starts, extra = shape._attachment_edges()
    m = starts[-1]
    grid = [[0] * m for _ in range(m)]
    for s, e in zip(starts, starts[1:]):
        for u in range(s, e - 1):
            grid[u][u + 1] = 1
        grid[e - 1][s] = 1
    for i, j in extra:
        grid[i][j] += 1
    return MultiDigraph._from_grid(grid)


def _ring_attachments(exits) -> tuple[tuple[int, int, int, int], ...]:
    """The attachments of ``ring_shape``, with no argument checks."""
    n = len(exits)
    return tuple(zip(range(n), exits, [*range(1, n), 0], [0] * n))


def ring_shape(lengths, exits) -> Shape:
    """Ring arrangement: one edge from each cycle k (at offset exits[k]) to
    cycle k+1 mod n (at offset 0)."""
    lengths = tuple(map(int, lengths))
    exits = tuple(map(int, exits))
    if len(exits) != len(lengths):
        raise ParameterRangeError("one exit offset per cycle is required")
    return Shape(lengths, _ring_attachments(exits))


def ring_shape_with_through(lengths, through: int) -> Shape:
    """Ring whose through-cycle visits exactly ``through`` vertices.

    The through-cycle enters each cycle at offset 0 and leaves at its exit
    offset, so it covers exits[k] + 1 vertices of cycle k; exits are chosen
    greedily.
    """
    lengths = tuple(int(l) for l in lengths)
    n = len(lengths)
    if not (n <= through <= sum(lengths)):
        raise ParameterRangeError(
            f"through-cycle length must lie in [{n}, {sum(lengths)}], got {through}"
        )
    return ring_shape(lengths, _through_exits(lengths, through))


def _through_exits(lengths, through: int) -> tuple[int, ...]:
    """The greedy exits of ``ring_shape_with_through``, with no argument checks."""
    need = through - len(lengths)
    exits = []
    for l in lengths:
        take = min(l - 1, need)
        exits.append(take)
        need -= take
    assert need == 0
    return tuple(exits)


def hironaka_bound(g: int, tol=DEFAULT_TOL) -> GenusBound:
    """The genus upper bound: (d, a) = (g+1, g-2) when g is divisible by 3,
    else (g+1, g), with the certified root of the matching family polynomial.

    Defined for g >= 6; the two cases do not cover g = 5, which is handled
    by a known sporadic example rather than this family.
    """
    if not isinstance(g, int) or g < 6:
        raise ParameterRangeError(
            f"genus bound is defined for integers g >= 6, got {g!r} "
            "(g = 5 has no (d, a) case in this family)"
        )
    tolf = _positive_tol(tol)
    d = g + 1
    a = g - 2 if g % 3 == 0 else g
    return GenusBound(g, d, a, _ring_root((a, 2 * d - a), d, lt_polynomial(d, a), tolf))
