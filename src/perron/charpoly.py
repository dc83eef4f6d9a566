"""Characteristic polynomials of digraphs.

Two independent routes: signed enumeration of vertex-disjoint cycle unions
(linear subdigraphs), and a division-free Berkowitz elimination on the
multiplicity matrix.  They must agree bit-exactly on the shared domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add, mul

from .digraph import Cycle, MultiDigraph, _grid_arcs, _path_cycle, _smooth, _weighted_cycles
from .errors import ParameterRangeError, ResourceLimitError
from .polynomial import IntPolynomial

CT_MAX_VERTICES = 64
ORACLE_MAX_VERTICES = 200
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
    V: int, arcs, weights, cap: int = SUBDIGRAPH_CAP_DEFAULT, size: int | None = -1
):
    """One walk over the linear subdigraphs of an arc list (see ``_weighted_cycles``).

    Returns ``(b, kept)``.  ``b`` is the descending coefficient list indexed by
    arc count: b_i sums (-1)^(number of cycles) times the weight product over
    all disjoint cycle unions of i arcs, so for a grid's arcs (``_grid_arcs``)
    it is the characteristic polynomial.  ``kept`` lists the unions of
    ``size`` arcs (every union when ``size`` is None, none by default) as
    ``(arc-id tuples of the cycles, weight)``.  Unions are built in increasing
    order of their cycles' anchor (minimal) vertices, so each one is seen
    exactly once.
    """
    by_anchor: list[list[tuple[int, tuple[int, ...], int, int]]] = [[] for _ in range(V)]
    for mask, anchor, path, weight in _weighted_cycles(V, arcs, weights, cap):
        by_anchor[anchor].append((mask, path, len(path), weight))

    b = [0] * (V + 1)
    b[0] = 1
    kept = []
    count = 0

    def extend(next_anchor, mask, nvert, signed, chosen):
        nonlocal count
        for a in range(next_anchor, V):
            if (mask >> a) & 1:
                continue
            for cmask, path, clen, w in by_anchor[a]:
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
                c2 = chosen + (path,)
                if size is None or v2 == size:
                    kept.append((c2, abs(s2)))
                extend(a + 1, mask | cmask, v2, s2, c2)

    extend(0, 0, 0, 1, ())
    return b, kept


def _core_unions(V: int, arcs):
    """The cycle unions of a smoothed core, from one census walk, by cycle count.

    Returns ``(cycles, levels)``: ``cycles`` lists each cycle's arc ids, and
    ``levels[n - 1]`` holds the unions of n cycles as two parallel lists,
    each union's parent (the union of its first n - 1 cycles, by position in
    the level below; the empty union is position 0 of level 0) and the index
    of its last cycle.
    """
    _, kept = _linear_subdigraph_census(V, arcs, [1] * len(arcs), size=None)
    cycles: dict[tuple[int, ...], int] = {}
    positions: list[dict] = [{(): 0}]
    levels: list[tuple[list[int], list[int]]] = []
    for union, _ in kept:  # a parent union is always listed before its children
        n = len(union)
        if n > len(levels):
            levels.append(([], []))
            positions.append({})
        parents, last = levels[n - 1]
        positions[n][union] = len(parents)
        parents.append(positions[n - 1][union[:-1]])
        last.append(cycles.setdefault(union[-1], len(cycles)))
    return list(cycles), levels


def _core_census(rows, cores: dict):
    """A grid's descending charpoly coefficients, summed over its smoothed core.

    Returns ``(b, most)``: b_i sums (-1)^(cycles) times the weight product
    over the core's unions whose arc lengths total i, and ``most`` is the
    largest cycle count of a spanning union (total length m), None if there
    is none.  ``cores`` maps each labelled core ``(V, arcs)`` to its
    ``_core_unions``; a missing core is walked once and added, so a caller
    that keeps one dict over a sweep walks each core once.
    """
    m = len(rows)
    V, arcs, lengths, weights = _smooth(rows)
    key = (V, tuple(arcs))
    unions = cores.get(key)
    if unions is None:
        unions = cores[key] = _core_unions(V, arcs)
    paths, levels = unions
    cycle_len = [sum(map(lengths.__getitem__, path)) for path in paths]
    weighted = weights.count(1) != len(weights)  # most swept digraphs have no multiple edge
    if weighted:
        cycle_w = [prod(map(weights.__getitem__, path)) for path in paths]
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


def char_poly_ct(
    d: MultiDigraph, cap: int = SUBDIGRAPH_CAP_DEFAULT, max_m: int = CT_MAX_VERTICES
) -> IntPolynomial:
    """Characteristic polynomial via the signed linear-subdigraph census."""
    if d.m > max_m:
        raise ParameterRangeError(f"char_poly_ct supports at most {max_m} vertices, got {d.m}")
    return IntPolynomial(tuple(_linear_subdigraph_census(*_grid_arcs(d.rows), cap)[0]))


def enumerate_linear_subdigraphs(
    d: MultiDigraph, i: int | None = None, cap: int = SUBDIGRAPH_CAP_DEFAULT
) -> list[LinearSubdigraph]:
    """All linear subdigraphs, one entry per distinct set of cycles.

    With ``i`` given, only those covering exactly i vertices are returned.
    """
    if d.m > CT_MAX_VERTICES:
        raise ParameterRangeError(f"supports at most {CT_MAX_VERTICES} vertices, got {d.m}")
    V, arcs, weights = _grid_arcs(d.rows)
    _, kept = _linear_subdigraph_census(V, arcs, weights, cap, i)
    return [
        LinearSubdigraph(tuple(_path_cycle(arcs, path) for path in cycles), w) for cycles, w in kept
    ]


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
