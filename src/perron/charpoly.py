"""Characteristic polynomials of digraphs.

Two independent routes: signed enumeration of vertex-disjoint cycle unions
(linear subdigraphs), and a division-free Berkowitz elimination on the
multiplicity matrix.  They must agree bit-exactly on the shared domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Cycle, MultiDigraph, _weighted_cycles
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


def _linear_subdigraph_census(rows, cap: int = SUBDIGRAPH_CAP_DEFAULT, size: int | None = -1):
    """One walk over the linear subdigraphs of a raw multiplicity grid.

    Returns ``(b, kept)``.  ``b`` is the descending charpoly coefficient list:
    b_i sums (-1)^(number of cycles) times the multiplicity product over all
    i-vertex disjoint cycle unions.  ``kept`` lists the unions on ``size``
    vertices (every union when ``size`` is None, none by default) as
    ``(vertex tuples of the cycles, weight)``.  Unions are built in increasing
    order of their cycles' anchor (minimal) vertices, so each one is seen
    exactly once.
    """
    m = len(rows)
    by_anchor: list[list[tuple[int, tuple[int, ...], int, int]]] = [[] for _ in range(m)]
    for mask, anchor, verts, weight in _weighted_cycles(rows, cap):
        by_anchor[anchor].append((mask, verts, len(verts), weight))

    b = [0] * (m + 1)
    b[0] = 1
    kept = []
    count = 0

    def extend(next_anchor, mask, nvert, signed, chosen):
        nonlocal count
        for a in range(next_anchor, m):
            if (mask >> a) & 1:
                continue
            for cmask, verts, clen, w in by_anchor[a]:
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
                c2 = chosen + (verts,)
                if size is None or v2 == size:
                    kept.append((c2, abs(s2)))
                extend(a + 1, mask | cmask, v2, s2, c2)

    extend(0, 0, 0, 1, ())
    return b, kept


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
    return IntPolynomial(tuple(_linear_subdigraph_census(d.rows, cap)[0]))


def enumerate_linear_subdigraphs(
    d: MultiDigraph, i: int | None = None, cap: int = SUBDIGRAPH_CAP_DEFAULT
) -> list[LinearSubdigraph]:
    """All linear subdigraphs, one entry per distinct set of cycles.

    With ``i`` given, only those covering exactly i vertices are returned.
    """
    if d.m > CT_MAX_VERTICES:
        raise ParameterRangeError(f"supports at most {CT_MAX_VERTICES} vertices, got {d.m}")
    _, kept = _linear_subdigraph_census(d.rows, cap, i)
    return [LinearSubdigraph(tuple(map(Cycle, cycles)), w) for cycles, w in kept]


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
