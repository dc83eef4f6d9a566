"""Characteristic polynomials of digraphs.

Two independent routes: signed enumeration of vertex-disjoint cycle unions
(linear subdigraphs), and a division-free Berkowitz elimination on the
multiplicity matrix.  They must agree bit-exactly on the shared domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add, mul

from .digraph import ORACLE_MAX_VERTICES, Cycle, MultiDigraph, _grid_arcs, _path_cycle
from .digraph import _smooth, _weighted_cycles
from .errors import ParameterRangeError, ResourceLimitError
from .polynomial import IntPolynomial

CT_MAX_VERTICES = 64
SUBDIGRAPH_CAP_DEFAULT = 10_000_000


@dataclass(frozen=True)
class LinearSubdigraph:
    """A set of pairwise vertex-disjoint elementary cycles.

    ``weight`` is the product of edge multiplicities over all member cycles;
    it is 1 throughout for (0,1)-matrices.
    """

    cycles: tuple[Cycle, ...]
    weight: int

    @property
    def vertex_count(self) -> int:
        return sum(c.length for c in self.cycles)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)


def _linear_subdigraph_census(
    V: int, arcs, weights, cap: int = SUBDIGRAPH_CAP_DEFAULT, tree: bool = False
):
    """One walk over the linear subdigraphs of an arc list (see ``_weighted_cycles``).

    Returns ``(b, cycles, levels)``.  ``b`` is the descending coefficient list
    indexed by arc count: b_i sums (-1)^(number of cycles) times the weight
    product over all disjoint cycle unions of i arcs, so for a grid's arcs
    (``_grid_arcs``) it is the characteristic polynomial.  ``cycles[k]`` is
    cycle k as ``_weighted_cycles`` lists it, ``(mask, anchor, arc ids,
    weight)``.  Unions are built in increasing order of their cycles' anchor
    (minimal) vertices, so each one is seen exactly once, as its parent union
    plus one cycle.  With ``tree``, ``levels[n - 1]`` records the unions of n
    cycles in walk order as two parallel lists: each union's parent (the union
    of its first n - 1 cycles, by position in the level below; the empty union
    is position 0 of level 0) and the index of its last cycle.  Without it,
    ``levels`` is empty and nothing is stored per union.
    """
    by_anchor: list[list[tuple[int, int, int, int]]] = [[] for _ in range(V)]
    cycles = _weighted_cycles(V, arcs, weights, cap)
    for k, (mask, anchor, path, weight) in enumerate(cycles):
        by_anchor[anchor].append((mask, len(path), weight, k))

    b = [0] * (V + 1)
    b[0] = 1
    levels: list[tuple[list[int], list[int]]] = []
    count = 0

    def extend(next_anchor, mask, nvert, signed, depth, position):
        nonlocal count
        for a in range(next_anchor, V):
            if (mask >> a) & 1:
                continue
            for cmask, clen, w, k in by_anchor[a]:
                if cmask & mask:
                    continue
                count += 1
                if count > cap:
                    raise ResourceLimitError(
                        f"linear subdigraph enumeration exceeds cap {cap}", estimate=count
                    )
                v2 = nvert + clen
                s2 = -signed * w  # each further cycle flips the sign
                b[v2] += s2
                child = 0
                if tree:
                    if depth == len(levels):
                        levels.append(([], []))
                    parents, last = levels[depth]
                    child = len(parents)
                    parents.append(position)
                    last.append(k)
                extend(a + 1, mask | cmask, v2, s2, depth + 1, child)

    extend(0, 0, 0, 1, 0, 0)
    return b, cycles, levels


def _core_census(rows, cores: dict):
    """A grid's descending charpoly coefficients, summed over its smoothed core.

    Returns ``(b, most)``: b_i sums (-1)^(cycles) times the weight product
    over the core's unions whose arc lengths total i, and ``most`` is the
    largest cycle count of a spanning union (total length m), None if there
    is none.  ``cores`` maps each labelled core ``(V, arcs)`` to the
    ``(cycles, levels)`` union tree of one unit-weight census walk; a missing
    core is walked once and added, so a caller that keeps one dict over a
    sweep walks each core once.
    """
    m = len(rows)
    V, arcs, lengths, weights = _smooth(rows)
    key = (V, tuple(arcs))
    tree = cores.get(key)
    if tree is None:
        tree = cores[key] = _linear_subdigraph_census(V, arcs, [1] * len(arcs), tree=True)[1:]
    cycles, levels = tree
    cycle_len = [sum(map(lengths.__getitem__, path)) for _, _, path, _ in cycles]
    weighted = weights.count(1) != len(weights)  # most swept digraphs have no multiple edge
    if weighted:
        cycle_w = [prod(map(weights.__getitem__, path)) for _, _, path, _ in cycles]
        union_w = [1]
    b = [0] * (m + 1)
    b[0] = 1
    most = None
    union_len = [0]
    for n, (parents, last) in enumerate(levels, 1):
        union_len = list(
            map(add, map(union_len.__getitem__, parents), map(cycle_len.__getitem__, last))
        )
        sign = -1 if n & 1 else 1
        if weighted:
            union_w = list(
                map(mul, map(union_w.__getitem__, parents), map(cycle_w.__getitem__, last))
            )
            for length, w in zip(union_len, union_w):
                b[length] += sign * w
        else:
            for length in union_len:
                b[length] += sign
        if m in union_len:
            most = n
    return b, most


def _edge_placement_coeffs(rows, b):
    """Descending charpoly coefficients of every single-edge placement on T.

    ``rows`` is the multiplicity grid T and ``b`` the descending coefficients
    of p = det(xI - T).  Adding an edge i -> j is the rank-one update
    T + e_i e_j^T, so det(xI - T - e_i e_j^T) = p(x) - adj(xI - T)[j][i] (the
    matrix determinant lemma), and adj(xI - T) = sum_k x^(m-1-k) B_k with
    B_0 = I and B_k = T·B_{k-1} + b_k I.  No division is needed: m - 1
    sparse integer products per grid, then O(m) work per placement.  Returns
    ``out`` with ``out[i][j]`` the coefficient tuple of placement i -> j.
    """
    m = len(rows)
    nonzero = [[(t, k) for t, k in enumerate(row) if k] for row in rows]
    B = [[int(r == c) for c in range(m)] for r in range(m)]
    powers = [B]
    for k in range(1, m):
        nxt = []
        for r in range(m):
            acc = [0] * m
            for t, mult in nonzero[r]:
                for c, v in enumerate(B[t]):
                    acc[c] += mult * v
            acc[r] += b[k]
            nxt.append(acc)
        B = nxt
        powers.append(B)
    tail = b[1:]
    return [
        [(1, *(bk - P[j][i] for bk, P in zip(tail, powers))) for j in range(m)] for i in range(m)
    ]


def _check_ct_size(m: int, max_m: int = CT_MAX_VERTICES):
    """Refuse a digraph on more vertices than char_poly_ct takes."""
    if m > max_m:
        raise ParameterRangeError(f"char_poly_ct supports at most {max_m} vertices, got {m}")


def char_poly_ct(
    d: MultiDigraph, cap: int = SUBDIGRAPH_CAP_DEFAULT, max_m: int = CT_MAX_VERTICES
) -> IntPolynomial:
    """Characteristic polynomial via the signed linear-subdigraph census."""
    _check_ct_size(d.m, max_m)
    return IntPolynomial(tuple(_linear_subdigraph_census(*_grid_arcs(d.rows), cap)[0]))


def enumerate_linear_subdigraphs(
    d: MultiDigraph, i: int | None = None, cap: int = SUBDIGRAPH_CAP_DEFAULT
) -> list[LinearSubdigraph]:
    """All linear subdigraphs, one entry per distinct set of cycles.

    With ``i`` given, only those covering exactly i vertices are returned.
    They are listed by cycle count, then in the census walk's order; no
    caller should depend on that order.
    """
    if d.m > CT_MAX_VERTICES:
        raise ParameterRangeError(f"supports at most {CT_MAX_VERTICES} vertices, got {d.m}")
    V, arcs, weights = _grid_arcs(d.rows)
    _, walked, levels = _linear_subdigraph_census(V, arcs, weights, cap, tree=True)
    cycles = [(_path_cycle(arcs, path), w) for _, _, path, w in walked]
    found = []
    unions = [LinearSubdigraph((), 1)]
    for parents, last in levels:
        unions = [
            LinearSubdigraph(unions[p].cycles + (cycles[k][0],), unions[p].weight * cycles[k][1])
            for p, k in zip(parents, last)
        ]
        found.extend(unions)
    return found if i is None else [L for L in found if L.vertex_count == i]


def char_poly_oracle(d: MultiDigraph) -> IntPolynomial:
    """det(xI - T) by the Berkowitz algorithm: division-free, exact integers.

    Independent of the cycle machinery on purpose; used as the cross-check
    oracle for char_poly_ct.
    """
    m = d.m
    if m > ORACLE_MAX_VERTICES:
        raise ParameterRangeError(
            f"char_poly_oracle supports at most {ORACLE_MAX_VERTICES} vertices, got {m}"
        )
    rows = d.rows
    coeffs = [1, -rows[0][0]]
    for r in range(2, m + 1):
        corner = rows[r - 1][r - 1]
        R = rows[r - 1][: r - 1]
        vec = [rows[i][r - 1] for i in range(r - 1)]
        q = [1, -corner]
        for _ in range(2, r + 1):
            q.append(-sum(R[i] * vec[i] for i in range(r - 1)))
            vec = [sum(rows[i][j] * vec[j] for j in range(r - 1)) for i in range(r - 1)]
        new = []
        for i in range(r + 1):
            acc = 0
            for j in range(max(0, i - r), min(i, r - 1) + 1):
                acc += q[i - j] * coeffs[j]
            new.append(acc)
        coeffs = new
    return IntPolynomial(tuple(coeffs))
