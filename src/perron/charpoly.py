"""Characteristic polynomials of digraphs.

Two independent routes: signed enumeration of vertex-disjoint cycle unions
(linear subdigraphs), and a division-free Berkowitz elimination on the
multiplicity matrix.  They must agree bit-exactly on the shared domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import prod
from operator import add, mul, sub

from .digraph import ORACLE_MAX_VERTICES, Cycle, MultiDigraph, _grid_arcs, _path_cycle
from .digraph import _weighted_cycles
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


def _linear_subdigraph_census(V: int, arcs, weights, tree: bool = False):
    """One walk over the linear subdigraphs of an arc list (see ``_weighted_cycles``),
    at most ``SUBDIGRAPH_CAP_DEFAULT`` of them.

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
    cap = SUBDIGRAPH_CAP_DEFAULT
    by_anchor: list[list[tuple[int, int, int, int]]] = [[] for _ in range(V)]
    cycles = _weighted_cycles(V, arcs, weights)
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


def _core_tree(core, cores: dict):
    """The ``(paths, levels)`` union tree of a smoothed core ``(V, arcs,
    lengths, weights)`` (see ``Shape._core``): each cycle's arc ids, and the
    levels of one unit-weight ``_linear_subdigraph_census`` walk.  ``cores``
    maps each labelled core ``(V, arcs)`` to its tree; a missing core is
    walked once and added, so a caller that keeps one dict over a sweep walks
    each core once."""
    V, arcs, _, _ = core
    key = (V, tuple(arcs))
    tree = cores.get(key)
    if tree is None:
        _, cycles, levels = _linear_subdigraph_census(V, arcs, [1] * len(arcs), tree=True)
        tree = cores[key] = [path for _, _, path, _ in cycles], levels
    return tree


def _census_of_core(m: int, core, cores: dict):
    """The descending charpoly coefficients of a digraph on m vertices, summed
    over its smoothed core ``(V, arcs, lengths, weights)`` (see ``Shape._core``).

    Returns ``(b, most)``: b_i sums (-1)^(cycles) times the weight product
    over the core's unions whose arc lengths total i, and ``most`` is the
    largest cycle count of a spanning union (total length m), None if there
    is none.  The unions come from the core's tree in ``cores`` (see
    ``_core_tree``).
    """
    _, _, lengths, weights = core
    paths, levels = _core_tree(core, cores)
    # each cycle's length and weight: the sum and product over its arcs
    cycle_len = list(map(sum, map(map, repeat(lengths.__getitem__), paths)))
    weighted = weights.count(1) != len(weights)  # most swept digraphs have no multiple edge
    if weighted:
        cycle_w = list(map(prod, map(map, repeat(weights.__getitem__), paths)))
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


def _edge_placement_matches(rows, b, target) -> list[tuple[int, int]]:
    """The (i, j), in row-major order, whose single-edge placement i -> j on T
    has the descending charpoly coefficients ``target``.

    The identity of ``_edge_placement_coeffs``, one adjugate column at a time:
    v_0 = e_i and v_k = T·v_{k-1} + b_k e_i give B_k[j][i] = v_k[j], so
    placement i -> j has coefficient k + 1 equal to b_{k+1} - v_k[j].  Each j
    is dropped at the first k where that differs from the target's, and a
    column stops when no j is left.  B_0 = I, so the first coefficient settles
    the diagonal: it keeps only the loop i -> i or only the other edges.
    """
    m = len(rows)
    if len(target) != m + 1 or target[0] != 1:
        return []
    want = list(map(sub, b[1:], target[1:]))  # want[k] = B_k[j][i] for a match
    if want[0] not in (0, 1):
        return []
    loop = want[0] == 1
    cols = [[] for _ in range(m)]  # cols[t]: T's (row, multiplicity) in column t
    for r, row in enumerate(rows):
        for t, mult in enumerate(row):
            if mult:
                cols[t].append((r, mult))
    matches = []
    for i in range(m):
        alive = [i] if loop else [j for j in range(m) if j != i]
        v = [0] * m
        v[i] = 1
        for k in range(1, m):
            nxt = [0] * m
            for t, x in enumerate(v):
                if x:
                    for r, mult in cols[t]:
                        nxt[r] += mult * x
            nxt[i] += b[k]
            v = nxt
            w = want[k]
            alive = [j for j in alive if v[j] == w]
            if not alive:
                break
        matches.extend((i, j) for j in alive)
    return matches


def _check_ct_size(m: int):
    """Refuse a digraph on more vertices than char_poly_ct takes."""
    if m > CT_MAX_VERTICES:
        raise ParameterRangeError(
            f"char_poly_ct supports at most {CT_MAX_VERTICES} vertices, got {m}"
        )


def char_poly_ct(d: MultiDigraph) -> IntPolynomial:
    """Characteristic polynomial via the signed linear-subdigraph census."""
    _check_ct_size(d.m)
    return IntPolynomial(tuple(_linear_subdigraph_census(*_grid_arcs(d.rows))[0]))


def enumerate_linear_subdigraphs(d: MultiDigraph, i: int | None = None) -> list[LinearSubdigraph]:
    """All linear subdigraphs, one entry per distinct set of cycles.

    With ``i`` given, only those covering exactly i vertices are returned.
    They are listed by cycle count, then in the census walk's order; no
    caller should depend on that order.
    """
    if d.m > CT_MAX_VERTICES:
        raise ParameterRangeError(f"supports at most {CT_MAX_VERTICES} vertices, got {d.m}")
    V, arcs, weights = _grid_arcs(d.rows)
    _, walked, levels = _linear_subdigraph_census(V, arcs, weights, tree=True)
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
