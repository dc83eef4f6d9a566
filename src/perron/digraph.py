"""Multi-digraphs as non-negative multiplicity matrices, with structural predicates.

A digraph on m vertices is the same data as an m-by-m non-negative integer
matrix T: entry t[i][j] counts the parallel edges i -> j.  Vertices are
0-based internally; all file formats and the CLI use 1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import index

from .errors import ParameterRangeError, ResourceLimitError

CYCLE_CAP_DEFAULT = 10_000_000
ORACLE_MAX_VERTICES = 200
CANONICAL_MAX_VERTICES = 20
_CANONICAL_LEAF_CAP = 100_000


@dataclass(frozen=True)
class MultiDigraph:
    """Immutable multi-digraph; ``rows[i][j]`` is the multiplicity of edge i -> j."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.rows)
        if m < 1:
            raise ParameterRangeError("a digraph needs at least one vertex")
        for row in self.rows:
            if len(row) != m:
                raise ParameterRangeError("adjacency grid must be square")
            for t in row:
                if not isinstance(t, int) or t < 0:
                    raise ParameterRangeError("edge multiplicities must be non-negative integers")

    @classmethod
    def from_rows(cls, rows) -> "MultiDigraph":
        try:
            grid = tuple(tuple(map(index, row)) for row in rows)
        except TypeError:
            raise ParameterRangeError("edge multiplicities must be non-negative integers") from None
        return cls(grid)

    @classmethod
    def _from_grid(cls, grid) -> "MultiDigraph":
        """Wrap a grid that a builder of this library filled itself.

        The builders keep the invariant (a non-empty square grid of
        non-negative ints) by checking their own arguments, so the grid is not
        revalidated entry by entry.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "rows", tuple(map(tuple, grid)))
        return d

    @classmethod
    def from_edges(cls, m: int, edges) -> "MultiDigraph":
        """Build from (i, j) or (i, j, k) entries, 0-based, k >= 1 parallel edges.

        The vertex count may come from a file, so it is capped before the
        m x m grid is allocated: no operation supports more vertices than the
        Berkowitz oracle.
        """
        if m > ORACLE_MAX_VERTICES:
            raise ResourceLimitError(
                f"a digraph may have at most {ORACLE_MAX_VERTICES} vertices, got {m}", estimate=m
            )
        grid = [[0] * m for _ in range(m)]
        for e in edges:
            i, j = _edge_endpoints(m, e[:2])
            try:
                k = index(e[2]) if len(e) > 2 else 1
            except TypeError:
                k = 0  # refused below with the k < 1 entries
            if k < 1:
                raise ParameterRangeError(f"edge multiplicities must be integers >= 1, got {e!r}")
            grid[i][j] += k
        return cls.from_rows(grid)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def edge_count(self) -> int:
        return sum(map(sum, self.rows))

    def mult(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def edges(self):
        """Yield (i, j, k) for every present edge slot, k >= 1, in row-major order."""
        vertices = range(self.m)
        for i, row in enumerate(self.rows):
            for j in compress(vertices, row):
                yield i, j, row[j]

    def with_edge(self, i: int, j: int) -> "MultiDigraph":
        """A copy with one more parallel edge i -> j."""
        i, j = _edge_endpoints(self.m, (i, j))
        grid = [list(row) for row in self.rows]
        grid[i][j] += 1
        return MultiDigraph._from_grid(grid)

    def permuted(self, perm) -> "MultiDigraph":
        """Relabel: old vertex v becomes perm[v]."""
        m = self.m
        if sorted(perm) != list(range(m)):
            raise ParameterRangeError("perm must be a permutation of 0..m-1")
        grid = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                grid[perm[i]][perm[j]] = self.rows[i][j]
        return MultiDigraph._from_grid(grid)


def _edge_endpoints(m: int, edge) -> tuple[int, int]:
    """``edge`` as a pair (i, j) of ``operator.index`` vertices in 0..m-1."""
    try:
        i, j = map(index, edge)
    except (TypeError, ValueError):
        raise ParameterRangeError(f"an edge is a pair of integer vertices, got {edge!r}") from None
    if not (0 <= i < m and 0 <= j < m):
        raise ParameterRangeError(f"edge ({i}, {j}) outside vertex range 0..{m - 1}")
    return i, j


@dataclass(frozen=True)
class Cycle:
    """An elementary directed cycle, recorded as its vertex sequence.

    The sequence starts at the smallest vertex; consecutive entries (and
    last -> first) are edges of the host digraph.
    """

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


def cycle_digraph(m: int) -> MultiDigraph:
    """The directed m-cycle 0 -> 1 -> ... -> m-1 -> 0 (a loop when m = 1)."""
    if m < 1:
        raise ParameterRangeError("cycle needs m >= 1")
    grid = [[0] * m for _ in range(m)]
    for i in range(m):
        grid[i][(i + 1) % m] = 1
    return MultiDigraph._from_grid(grid)


def complexity(d: MultiDigraph) -> int:
    """Edge count minus vertex count; negative for very sparse digraphs."""
    return d.edge_count - d.m


def _reachable(rows, m, transposed: bool) -> int:
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(m):
            t = rows[w][v] if transposed else rows[v][w]
            if t and not (seen >> w) & 1:
                seen |= 1 << w
                stack.append(w)
    return seen

def is_strongly_connected(d: MultiDigraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    m = d.m
    full = (1 << m) - 1
    return _reachable(d.rows, m, False) == full and _reachable(d.rows, m, True) == full


def cycle_length_gcd(d: MultiDigraph) -> int:
    """gcd of the lengths of all directed cycles; 0 if the digraph is acyclic.

    Requires strong connectivity.  Computed as the gcd of level differences
    along a BFS tree, which for a strongly connected digraph equals the gcd
    of all closed-walk lengths, hence of all elementary cycle lengths.
    """
    if not is_strongly_connected(d):
        raise ParameterRangeError("cycle_length_gcd requires a strongly connected digraph")
    return _bfs_cycle_gcd(d.rows, d.m)


def _bfs_cycle_gcd(rows, m) -> int:
    level = [-1] * m
    level[0] = 0
    queue = [0]
    g = 0
    while queue:
        nxt = []
        for v in queue:
            for w in range(m):
                if rows[v][w]:
                    if level[w] < 0:
                        level[w] = level[v] + 1
                        nxt.append(w)
        queue = nxt
    for v in range(m):
        for w in range(m):
            if rows[v][w]:
                g = gcd(g, level[v] + 1 - level[w])
    return abs(g)


def is_primitive(d: MultiDigraph) -> bool:
    """True iff d is strongly connected and its cycle-length gcd is 1."""
    return is_strongly_connected(d) and _bfs_cycle_gcd(d.rows, d.m) == 1


def is_primitive_power(d: MultiDigraph) -> bool:
    """Primitivity by the positive-power criterion: T^k > 0 for some k <= (m-1)^2 + 1.

    Once some power is entrywise positive, all later powers are, so checking
    the single exponent (m-1)^2 + 1 suffices.  Uses bitmask boolean matrices.
    """
    m = d.m
    full = (1 << m) - 1
    base = [sum(1 << j for j in range(m) if d.rows[i][j]) for i in range(m)]

    def bool_mul(a, b):
        out = []
        for arow in a:
            acc = 0
            r = arow
            while r:
                j = (r & -r).bit_length() - 1
                acc |= b[j]
                r &= r - 1
            out.append(acc)
        return out

    k = (m - 1) ** 2 + 1
    result = None
    sq = base
    while k:
        if k & 1:
            result = sq if result is None else bool_mul(result, sq)
        k >>= 1
        if k:
            sq = bool_mul(sq, sq)
    return all(row == full for row in result)


def _path_cycle(arcs, path) -> Cycle:
    """The cycle that walks the arc ids of ``path``, as its vertex sequence."""
    return Cycle(tuple(arcs[e][0] for e in path))


def _grid_arcs(rows):
    """A multiplicity grid as ``(vertex count, arcs, weights)``: one arc
    ``(u, v)`` per non-zero entry, in row-major order, weighted by the entry."""
    arcs = []
    weights = []
    for u, row in enumerate(rows):
        for v, t in enumerate(row):
            if t:
                arcs.append((u, v))
                weights.append(t)
    return len(rows), arcs, weights


def _weighted_cycles(V: int, arcs, weights):
    """All elementary cycles of an arc list as (vertex_mask, anchor, arc ids, weight).

    ``arcs[e]`` is the arc ``(u, v)`` on vertices 0..V-1 and ``weights[e]``
    its multiplicity; a dense grid is the case of one arc per non-zero entry
    (``_grid_arcs``).  Each cycle is listed once, from its anchor (minimal)
    vertex, as the ids of its arcs in order; its weight is the product of
    their weights.  The total weight is capped at ``CYCLE_CAP_DEFAULT``.
    """
    cap = CYCLE_CAP_DEFAULT
    out_arcs = [[] for _ in range(V)]
    for e, (u, v) in enumerate(arcs):
        out_arcs[u].append((v, e))
    out = []
    total = 0

    for a in range(V):
        path = []

        def dfs(v, mask, weight):
            nonlocal total
            for w, e in out_arcs[v]:
                if w < a:  # only vertices >= a may appear; a is the anchor
                    continue
                if w == a:
                    cw = weight * weights[e]
                    total += cw
                    if total > cap:
                        raise ResourceLimitError(
                            f"elementary cycle count exceeds cap {cap}", estimate=total
                        )
                    out.append((mask, a, (*path, e), cw))
                elif not (mask >> w) & 1:
                    path.append(e)
                    dfs(w, mask | (1 << w), weight * weights[e])
                    path.pop()

        dfs(a, 1 << a, 1)
    return out


def enumerate_elementary_cycles(d: MultiDigraph) -> list[Cycle]:
    """Every elementary cycle once per rotation class, repeated by edge multiplicity."""
    V, arcs, weights = _grid_arcs(d.rows)
    cycles = []
    for _, _, path, weight in _weighted_cycles(V, arcs, weights):
        cycles.extend([_path_cycle(arcs, path)] * weight)
    return cycles


def canonical_form(d: MultiDigraph) -> bytes:
    """Canonical label: two digraphs get equal bytes iff they are isomorphic.

    Individualization-refinement over vertex colorings; the label is the
    minimal adjacency encoding over all discrete refinements.  Exhaustive,
    so only supported up to CANONICAL_MAX_VERTICES vertices.
    """
    m = d.m
    if m > CANONICAL_MAX_VERTICES:
        raise ParameterRangeError(
            f"canonical_form supports at most {CANONICAL_MAX_VERTICES} vertices, got {m}"
        )
    rows = d.rows

    def refine(colors):
        while True:
            sigs = []
            for v in range(m):
                outs = sorted((colors[w], rows[v][w]) for w in range(m) if rows[v][w])
                ins = sorted((colors[w], rows[w][v]) for w in range(m) if rows[w][v])
                sigs.append((colors[v], tuple(outs), tuple(ins)))
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [ranking[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    best = None
    leaves = 0

    def encode(order):
        cells = [str(m)]
        for i in order:
            for j in order:
                cells.append(str(rows[i][j]))
        return ",".join(cells).encode()

    def search(colors):
        nonlocal best, leaves
        colors = refine(colors)
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            leaves += 1
            if leaves > _CANONICAL_LEAF_CAP:
                raise ResourceLimitError("canonical labeling search exceeded its leaf cap")
            order = sorted(range(m), key=colors.__getitem__)
            enc = encode(order)
            if best is None or enc < best:
                best = enc
            return
        for v in range(m):
            if colors[v] == target:
                child = [c * 2 for c in colors]
                child[v] -= 1
                search(child)

    search([0] * m)
    return best
