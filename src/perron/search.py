"""Exhaustive sweeps over low-complexity digraph shapes and isomorph-free
enumeration, the case-analysis verifications, realization counting, genus
candidate searches, and the knot-monodromy fixture reconstruction.

All searches are deterministic: parameter spaces are swept in a fixed order
and reports are sorted, so identical runs produce identical reports.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod
from operator import sub

from .charpoly import (
    char_poly_ct,
    _census_of_core,
    _core_tree,
    _edge_placement_coeffs,
    _edge_placement_matches,
)
from .digraph import (
    MultiDigraph,
    canonical_form,
    cycle_digraph,
    is_primitive,
)
from .errors import (
    CounterexampleError,
    FixtureNotFound,
    ParameterRangeError,
    ResourceLimitError,
)
from .families import (
    Shape,
    build_shape_nc,
    hironaka_bound,
    lt_polynomial,
    _ring_attachments,
    _ring_polynomial,
    _ring_root,
    _ring_sign_at,
    _through_exits,
    two_cycle_polynomial,
)
from .io import arcs_to_json_obj
from .polynomial import (
    IntPolynomial,
    PalindromeClass,
    _pdivmod,
    classify_palindrome,
    eval_at_one,
    format_polynomial,
)
from .spectral import RootResult

ENUMERATION_CAP_DEFAULT = 1_000_000
FULL_ENUMERATION_MAX_M = 14
# the genus search tabulates the (4,5) ring-plus-one-edge placements up to this m
_RING_PLUS_ONE_M_MAX = 10
# the bracket width of each genus candidate's root and of the bound's
_SEARCH_TOL = Fraction(1, 10**7)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass
class SurvivorEntry:
    """A surviving polynomial, the ring shape of a digraph realizing it, and its report fields.

    Reports render the digraph from the shape's arcs; no grid is built unless
    ``representative`` is read.
    """

    polynomial: IntPolynomial
    shape: Shape
    info: dict

    @property
    def representative(self) -> MultiDigraph:
        """The realizing digraph, built from the shape on each read."""
        return build_shape_nc(self.shape)

    def to_json_obj(self):
        return {
            "polynomial": list(self.polynomial.coeffs),
            "pretty": format_polynomial(self.polynomial),
            "representative": arcs_to_json_obj(self.shape.m, self.shape.arcs()),
            "info": self.info,
        }


@dataclass
class SearchReport:
    parameters: dict
    total: int
    eliminated: dict
    survivors: list[SurvivorEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_obj(self):
        return {
            "parameters": self.parameters,
            "total": self.total,
            "eliminated": self.eliminated,
            "survivors": [s.to_json_obj() for s in self.survivors],
            "notes": self.notes,
        }

    def render_text(self) -> str:
        lines = []
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines.append(f"parameters: {params}")
        lines.append(f"total enumerated: {self.total}")
        lines.append("eliminated:")
        for key in sorted(self.eliminated):
            lines.append(f"  {key}: {self.eliminated[key]}")
        lines.append(f"survivors ({len(self.survivors)}):")
        for s in self.survivors:
            info = ", ".join(f"{k}={v}" for k, v in s.info.items())
            lines.append(f"  {format_polynomial(s.polynomial)}" + (f"  [{info}]" if info else ""))
            lines.append(f"    representative: m={s.shape.m} {s.shape._arc_text()}")
        if self.notes:
            lines.append("notes:")
            for n in self.notes:
                lines.append(f"  - {n}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# small combinatorial helpers
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`:
    the gaps between sorted cuts 0 < c_1 < ... < c_{parts-1} < total."""
    if total >= parts:
        for cuts in itertools.combinations(range(1, total), parts - 1):
            yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def _weak_compositions(total: int, parts: int):
    """Ordered tuples of `parts` non-negative integers summing to `total`:
    the gaps between sorted cuts 0 <= c_1 <= ... <= c_{parts-1} <= total."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def _partitions_le(total: int, parts: int):
    """Non-increasing tuples of `parts` >= 1 non-negative integers summing to
    `total` >= 0, in decreasing lexicographic order."""
    a = [total] + [0] * (parts - 1)
    while True:
        yield tuple(a)
        # the next tuple lowers the rightmost entry that can drop by one while
        # the entries after it, one more in all, still fit under it, and then
        # fills those entries greedily
        rest = 0
        for i in range(parts - 2, -1, -1):
            rest += a[i + 1]
            cap = a[i] - 1
            if rest + 1 <= cap * (parts - 1 - i):
                break
        else:
            return
        a[i] = cap
        rest += 1
        for t in range(i + 1, parts):
            a[t] = min(cap, rest)
            rest -= a[t]


def _partitions_exact(total: int, parts: int, minimum: int):
    """Non-increasing tuples of `parts` integers >= minimum summing to `total`."""
    shift = total - parts * minimum
    if shift < 0:
        return
    for p in _partitions_le(shift, parts):
        yield tuple(x + minimum for x in p)


# ---------------------------------------------------------------------------
# shape placement sweeps
# ---------------------------------------------------------------------------

def _ring_shapes(n: int, m: int):
    """All ring placements in sweep order: compositions of m into n lengths
    times exit offsets, each as ``(lengths, exits, ring shape)``."""
    for lengths in _compositions(m, n):
        for exits in itertools.product(*map(range, lengths)):
            yield lengths, exits, Shape._unchecked(lengths, _ring_attachments(exits))


def _chord_shapes(m: int):
    """All (1,2) placements up to rotation, as ``(case, shape)``: the one-cycle
    ring with chord s1 -> 0, plus a free edge s2 -> t2.

    case is 'disjoint', 'plain' (the two chord cycles intersect, chords do not
    interact), or 'crossing' (a cycle through both chords exists).  The chord
    cycles cover the forward arcs 0..s1 and t2..s2, which are disjoint when
    s1 < t2 <= s2; a cycle through both chords exists when s2 < t2 <= s1.
    """
    for _, (s1,), ring in _ring_shapes(1, m):
        for s2 in range(m):
            for t2 in range(m):
                if s1 < t2 <= s2:
                    case = "disjoint"
                elif s2 < t2 <= s1:
                    case = "crossing"
                else:
                    case = "plain"
                yield case, Shape._unchecked((m,), ring.attachments + ((0, s2, 0, t2),))


def _ring_classes(n: int, m: int):
    """The ring placements of ``_ring_shapes(n, m)`` grouped by cycle-length
    class, each as ``(lengths, exits, size, ring shape)``.

    A ring's cycles are its n disjoint cycles, of lengths l_k, and one
    through-cycle of length t = sum(e_k + 1) that meets each of them, so its
    polynomial depends only on the lengths as a multiset and on t.  One class
    per non-decreasing ``lengths`` (a partition of m into n parts) and per
    n <= t <= m, in sweep order; ``lengths`` and ``exits`` name its first
    placement, the lengths in ascending order with the lexicographically
    least exits whose e_k + 1 sum to t.  ``size`` counts its placements: the
    distinct orderings of the lengths times the coefficient of x^(t - n) in
    prod_k (1 + x + ... + x^(l_k - 1)), the exits with 0 <= e_k < l_k that
    sum to t - n.
    """
    for lengths in _compositions(m, n):
        if lengths != tuple(sorted(lengths)):
            continue  # the ascending ordering stands for all orderings of its lengths
        orderings = factorial(n) // prod(map(factorial, Counter(lengths).values()))
        ways = [1]  # ways[s]: the exits of the lengths so far with sum s
        for l in lengths:
            ways = [sum(ways[max(0, s - l + 1) : s + 1]) for s in range(len(ways) + l - 1)]
        for t, count in enumerate(ways, n):
            exits = _through_exits(lengths[::-1], t)[::-1]  # least: filled from the last cycle
            ring = Shape._unchecked(lengths, _ring_attachments(exits))
            yield lengths, exits, orderings * count, ring


# ---------------------------------------------------------------------------
# case-analysis verification sweeps
# ---------------------------------------------------------------------------

def _census_checks(shape: Shape, core, cores: dict) -> IntPolynomial:
    """The characteristic polynomial of a swept placement's digraph, summed
    over the unions of ``core``, the shape's smoothed core that its caller has
    read with ``shape._core()``, with the structural coefficient facts every
    swept digraph must satisfy.  ``cores`` is the sweep's cache of core unions."""
    m = shape.m
    b, most = _census_of_core(m, core, cores)
    p = IntPolynomial(tuple(b))
    if b[1] > 0:
        raise CounterexampleError(f"b_1 > 0 on a digraph: {format_polynomial(p)}")
    if abs(b[m]) == 1 and most is None:
        raise CounterexampleError("|b_m| = 1 without a spanning linear subdigraph")
    # the complexity: each attachment is one edge beyond the m cycle edges
    if most is not None and most > len(shape.attachments):
        raise CounterexampleError("spanning linear subdigraph with more cycles than complexity")
    return p


def _ring_class_census(lengths, exits, ring: Shape, cores: dict) -> IntPolynomial:
    """``_census_checks`` on the first placement of a ring class (see
    ``_ring_classes``), once its core's own union tree shows the class's
    cycles: n + 1 of them, of lengths l_k and t = sum(e_k + 1).  A core cycle
    counts as often as the product of its arc weights: the one-cycle ring
    whose through-cycle is the whole cycle doubles that cycle's last edge."""
    core = ring._core()
    _, _, arc_lengths, weights = core
    paths, _ = _core_tree(core, cores)
    cycles = sorted(
        itertools.chain.from_iterable(
            [sum(map(arc_lengths.__getitem__, path))] * prod(map(weights.__getitem__, path))
            for path in paths
        )
    )
    if cycles != sorted((*lengths, len(exits) + sum(exits))):
        raise CounterexampleError(f"ring {lengths} with exits {exits} has cycles {cycles}")
    return _census_checks(ring, core, cores)


def _check_placement(key: str, m: int, p: IntPolynomial, instances: int, p1_counts: dict, p1: int):
    """Check the polynomial of one placement, or of each of the ``instances``
    placements of a ring class, that must be neither palindromic nor
    antipalindromic: p(1) (tallied ``instances`` times in ``p1_counts``) must
    be ``p1`` and the class must be neither."""
    value = eval_at_one(p)
    p1_counts[value] = p1_counts.get(value, 0) + instances
    if value != p1:
        raise CounterexampleError(f"{key} placement on m={m} has p(1) = {value}, expected {p1}")
    if classify_palindrome(p) is not PalindromeClass.NEITHER:
        raise CounterexampleError(f"{key} placement on m={m} misclassified")


def _p1_note(label: str, p1_counts: dict) -> str:
    return f"{label}: " + ", ".join(f"{v}: {p1_counts[v]}" for v in sorted(p1_counts))


def verify_case_c_le_2(m_max: int) -> SearchReport:
    """Sweep the (1,1), (1,2) and (2,2) shapes for all m <= m_max.

    Verifies the case analysis: (1,1) always has p(1) = -1; (1,2) has
    p(1) = -2 or -1 in the two non-interacting chord cases (-3 when a cycle
    through both chords exists, a case outside the two-case analysis and
    reported separately); (2,2) palindromic survivors are exactly the LT
    expressions.  Any violation raises CounterexampleError.

    The (2,2) rings are checked once per cycle-length class of
    ``_ring_classes``, on its first placement, which counts for the class's
    size in the totals and in its palindromic class's instances; primitivity
    too depends only on the class (gcd(a1, a2, t)).  The (1,1) and (1,2)
    chord placements are checked one by one: which of their cycles meet is
    the case analysis under test, so grouping them would assume it.
    """
    if not 1 <= m_max <= FULL_ENUMERATION_MAX_M:
        raise ParameterRangeError(f"verify_case_c_le_2 needs 1 <= m_max <= {FULL_ENUMERATION_MAX_M}")

    total = 0
    eliminated = {
        "not_strongly_connected": 0,
        "neither_class": 0,
        "antipalindromic_p1_nonzero": 0,
        "b1_positive": 0,
    }
    p1_distribution: dict[int, int] = {}
    # palindromic classes: coeffs -> {count, first placement's ring shape, primitive seen}
    palindromic: dict[tuple, dict] = {}

    # the (1,1) and (1,2) chord placements, keyed by their expected p(1)
    expected_p1 = {"(1,1)": -1, "(1,2) disjoint": -1, "(1,2) plain": -2, "(1,2) crossing": -3}
    cores: dict = {}  # the sweep's core unions, walked once per labelled core

    for m in range(1, m_max + 1):
        chords = itertools.chain(
            (("(1,1)", ring) for _, _, ring in _ring_shapes(1, m)),
            ((f"(1,2) {case}", shape) for case, shape in _chord_shapes(m)),
        )
        for key, shape in chords:
            total += 1
            p = _census_checks(shape, shape._core(), cores)
            _check_placement(key, m, p, 1, p1_distribution, expected_p1[key])
            eliminated["neither_class"] += 1

        for (a1, a2), (e1, e2), size, ring in _ring_classes(2, m):
            total += size
            pp, qq = e1 + 1, e2 + 1
            shape = f"({a1},{a2},{pp},{qq})"
            p = _ring_class_census((a1, a2), (e1, e2), ring, cores)
            if p != two_cycle_polynomial(a1, a2, pp + qq):
                raise CounterexampleError(f"(2,2) shape {shape} violates the two-cycle formula")
            cls = classify_palindrome(p)
            if cls is PalindromeClass.ANTIPALINDROMIC:
                raise CounterexampleError(f"antipalindromic (2,2) shape {shape}")
            if (cls is PalindromeClass.PALINDROMIC) != (2 * (pp + qq) == m):
                raise CounterexampleError(
                    f"(2,2) shape {shape}: palindromic iff m = 2d and a3 = d fails"
                )
            if cls is not PalindromeClass.PALINDROMIC:
                eliminated["neither_class"] += size
                continue
            rec = palindromic.get(p.coeffs)
            if rec is None:
                rec = palindromic[p.coeffs] = {"count": 0, "ring": ring, "primitive": False}
            rec["count"] += size
            if not rec["primitive"] and is_primitive(build_shape_nc(ring)):
                rec["primitive"] = True

    # completeness: every LT expression with 2d <= m_max, and only those, survived
    expected = {}
    for d_half in range(2, m_max // 2 + 1):
        for a in range(1, d_half + 1):
            expected[two_cycle_polynomial(a, 2 * d_half - a, d_half).coeffs] = (d_half, a)
    if set(palindromic) != set(expected):
        raise CounterexampleError("(2,2) palindromic survivor set mismatch")

    survivors = []
    for coeffs in sorted(palindromic, key=lambda cs: (len(cs), cs)):
        rec = palindromic[coeffs]
        d_half, a = expected[coeffs]
        if a == d_half and rec["primitive"]:
            raise CounterexampleError(
                f"boundary polynomial d={d_half} unexpectedly has a primitive realization"
            )
        survivors.append(
            SurvivorEntry(
                IntPolynomial(coeffs),
                rec["ring"],
                {
                    "shape": "(2,2)",
                    "d": d_half,
                    "a": a,
                    "instances": rec["count"],
                    "primitive_realization": rec["primitive"],
                    "lt_member": a < d_half,
                },
            )
        )

    notes = [_p1_note("p(1) distribution over all swept digraphs", p1_distribution)]
    if -3 in p1_distribution:  # only the crossing placements may have p(1) = -3
        notes.append(
            f"(1,2) placements with interacting chords (a cycle through both chords): "
            f"{p1_distribution[-3]} instances, all with p(1) = -3; these fall outside the "
            f"two-case split, which covers the non-interacting placements"
        )
    if any(a == d_half for d_half, a in expected.values()):
        notes.append(
            "palindromic boundary family x^{2d} - 3x^d + 1 (cycle lengths a1 = a2 = "
            "through = d) arises only from imprimitive digraphs; the LT family proper "
            "(1 <= a <= d-1) accounts for every other palindromic survivor"
        )

    report = SearchReport(
        parameters={"op": "verify_c_le_2", "m_max": m_max, "shapes": "(1,1) (1,2) (2,2)"},
        total=total,
        eliminated=eliminated,
        survivors=survivors,
        notes=notes,
    )
    _check_report_balance(report)
    return report


def verify_case_odd_diagonal(k: int, m_max: int) -> SearchReport:
    """Sweep the (2k+1, 2k+1) ring shapes: no palindromic or antipalindromic
    characteristic polynomial occurs, and p(1) = -1 throughout.

    Every ring of n cycles has p(x) = prod(x^l_k - 1) - x^(m - t), t the
    through-cycle's length: a cycle that uses a ring arc uses all n of them,
    so the through-cycle is the only cycle besides the ring's own.  So each
    cycle-length class of ``_ring_classes`` is checked once, on its first
    placement, once that placement's own union tree shows the class's
    cycles, and counts for its size in the total and the p(1) tally.
    """
    if k < 0 or 2 * k + 1 > 5:
        raise ParameterRangeError("verify_case_odd_diagonal needs k >= 0 with 2k+1 <= 5")
    if not 1 <= m_max <= FULL_ENUMERATION_MAX_M:
        raise ParameterRangeError(f"m_max must be within 1..{FULL_ENUMERATION_MAX_M}")
    n = 2 * k + 1
    total = 0
    p1_distribution: dict[int, int] = {}
    cores: dict = {}  # the sweep's core unions, walked once per labelled core

    key = f"({n},{n}) ring"
    for m in range(n, m_max + 1):
        for lengths, exits, size, ring in _ring_classes(n, m):
            total += size
            p = _ring_class_census(lengths, exits, ring, cores)
            _check_placement(key, m, p, size, p1_distribution, -1)

    report = SearchReport(
        parameters={"op": "verify_odd_diagonal", "k": k, "n": n, "c": n, "m_max": m_max},
        total=total,
        eliminated={"neither_class": total},
        survivors=[],
        notes=[_p1_note("p(1) distribution", p1_distribution)],
    )
    _check_report_balance(report)
    return report


def _check_report_balance(report: SearchReport):
    survivor_instances = sum(s.info.get("instances", 1) for s in report.survivors)
    if survivor_instances + sum(report.eliminated.values()) != report.total:
        raise CounterexampleError("report bookkeeping does not balance")


# ---------------------------------------------------------------------------
# isomorph-free enumeration
# ---------------------------------------------------------------------------

def _plain_vertices(rows) -> set[int]:
    """The vertices with in = out = 1."""
    return {v for v, row in enumerate(rows) if sum(row) == 1 and sum(r[v] for r in rows) == 1}


def _cores(c: int, v_max: int) -> list[MultiDigraph]:
    """Strongly connected multi-digraphs with V + c edges on V <= min(2c, v_max)
    vertices and no in = out = 1 vertex: the smoothing cores, sorted by
    canonical form, each an unspecified member of its class.

    Every strongly connected digraph of complexity c >= 1 arises uniquely by
    subdividing the arcs of its core (suppressing all in=out=1 vertices).
    Each core grows from a cycle by c ears, paths u -> v (u = v allowed)
    through new vertices.  An ear clears in = out = 1 from at most its two
    ends, so no ear may leave more such vertices than twice the ears to come.
    """
    v_max = min(2 * c, v_max)
    level = [cycle_digraph(V) for V in range(1, v_max + 1)]
    ears = 0
    for left in reversed(range(c)):  # ears still to come after this level's
        plains = [_plain_vertices(d.rows) for d in level]
        ears += sum(
            d.m * d.m * (min(v_max - d.m, 2 * left + 2 - len(plain)) + 1)
            for d, plain in zip(level, plains)
        )
        if ears > ENUMERATION_CAP_DEFAULT:
            raise ResourceLimitError(
                f"core growth estimate of {ears} ears exceeds cap {ENUMERATION_CAP_DEFAULT}",
                estimate=ears,
            )
        found: dict[bytes, MultiDigraph] = {}
        for d, plain in zip(level, plains):
            V = d.m
            for u in range(V):
                for v in range(V):
                    cleared = (u in plain) + (v != u and v in plain)
                    for L in range(min(v_max - V, 2 * left - len(plain) + cleared) + 1):
                        grid = [[*row, *[0] * L] for row in d.rows]
                        grid += [[0] * (V + L) for _ in range(L)]
                        path = [u, *range(V, V + L), v]
                        for a, b in zip(path, path[1:]):
                            grid[a][b] += 1
                        dg = MultiDigraph._from_grid(grid)
                        found.setdefault(canonical_form(dg), dg)
        level = [found[k] for k in sorted(found)]
    return level


def _subdivide(core: MultiDigraph, assignment) -> MultiDigraph:
    """Lay one path [i, *new vertices, j] per parallel edge i -> j of the core,
    with as many new vertices as the assignment gives that edge."""
    m = core.m + sum(map(sum, assignment))
    grid = [[0] * m for _ in range(m)]
    nxt = core.m
    for (i, j, _), parts in zip(core.edges(), assignment):
        for interior in parts:
            path = [i, *range(nxt, nxt + interior), j]
            nxt += interior
            for u, v in zip(path, path[1:]):
                grid[u][v] += 1
    return MultiDigraph._from_grid(grid)


def enumerate_digraphs(m: int, c: int, n_cycles: int | None = None) -> list[MultiDigraph]:
    """All strongly connected multi-digraphs with m vertices and m + c edges,
    one unspecified member per isomorphism class, sorted by canonical form.

    Full enumeration subdivides the arcs of the cores that ``_cores`` grows by
    ears, and is supported for m <= 14; pass ``n_cycles`` for the
    shape-restricted sweep (one representative per class of digraphs built
    from n disjoint cycles in the ring arrangement plus free extra edges).
    """
    if m < 1:
        raise ParameterRangeError("m must be >= 1")
    if n_cycles is not None:
        return _enumerate_shape_classes(m, c, n_cycles)
    if m > FULL_ENUMERATION_MAX_M:
        raise ParameterRangeError(
            f"full enumeration is capped at m <= {FULL_ENUMERATION_MAX_M}; "
            "use the shape-restricted mode for larger m"
        )
    if c < 0:
        return []
    if c == 0:
        return [cycle_digraph(m)]

    cores = _cores(c, m)  # each on at most m vertices
    estimate = 0
    for core in cores:
        E = core.edge_count
        estimate += comb(m - core.m + E - 1, E - 1)
    if estimate > ENUMERATION_CAP_DEFAULT:
        raise ResourceLimitError(
            f"subdivision space estimate {estimate} exceeds cap {ENUMERATION_CAP_DEFAULT}",
            estimate=estimate,
        )

    reps: dict[bytes, MultiDigraph] = {}
    for core in cores:
        groups = [k for _, _, k in core.edges()]
        for sizes in _weak_compositions(m - core.m, len(groups)):
            for assignment in itertools.product(*map(_partitions_le, sizes, groups)):
                dg = _subdivide(core, assignment)
                reps.setdefault(canonical_form(dg), dg)
    return [reps[k] for k in sorted(reps)]


def _check_shape_range(n: int, c: int):
    if n < 1 or c < n:
        raise ParameterRangeError("shape-restricted enumeration needs 1 <= n <= c")


def _ring_placements(m: int, c: int, n: int):
    """The placements of the ring-arrangement sweep, grouped by all but the
    last extra edge.

    Checks the placement estimate against the cap before building anything
    (summing only until it passes the cap), then yields ``(lengths, exits, dg,
    slots)`` for each ring of n disjoint cycles plus a prefix of the c - n
    extra edges: the last edge takes each slot in ``slots`` (slot s is the
    edge s // m -> s % m), which walks the ``combinations_with_replacement``
    order of all extra edges.  With no extra edge, ``slots`` is None and
    ``dg`` is the placement itself.  A plain ring's polynomial is the closed
    form ``_ring_polynomial(lengths, n + sum(exits))``, which the verify sweeps
    check by census on every ring class; a ring plus a prefix has none.  Every
    placement is strongly connected: the ring's cycles and its edge from each
    cycle to the next already are, and extra edges keep it so.

    Only the rings whose ``(l_k, e_k)`` sequence is the least of its n cyclic
    rotations are built.  A rotated ring is the same ring with its cycle
    blocks relabelled, and the relabelling carries every multiset of extra
    edges on it to one on the kept ring, so the placements still reach every
    class.  The estimate still counts every rotation, so the same inputs are
    refused with the same ``estimate``.
    """
    _check_shape_range(n, c)
    if m < n:
        return
    cap = ENUMERATION_CAP_DEFAULT
    extra_edges = c - n
    placements = m * m
    # each ring walks placements**extra_edges placements, raised only until it
    # passes the cap, and builds at least its extra_edges - 1 prefix edges
    per_ring = 1
    if placements > 1:
        for _ in range(extra_edges):
            per_ring *= placements
            if per_ring > cap:
                break
    per_ring = max(per_ring, extra_edges)
    estimate = 0
    for lengths in _compositions(m, n):
        prod = 1
        for l in lengths:
            prod *= l
        estimate += prod * per_ring
        if estimate > cap:
            raise ResourceLimitError(
                f"shape placement estimate of at least {estimate} exceeds cap {cap}",
                estimate=estimate,
            )
    for lengths, exits, shape in _ring_shapes(n, m):
        ring = tuple(zip(lengths, exits))
        if any(ring[r:] + ring[:r] < ring for r in range(1, n)):
            continue  # a rotation of a ring that is built
        base = build_shape_nc(shape)
        if extra_edges == 0:
            yield lengths, exits, base, None
            continue
        for prefix in itertools.combinations_with_replacement(range(placements), extra_edges - 1):
            if not prefix:
                yield lengths, exits, base, range(placements)
                continue
            grid = [list(row) for row in base.rows]
            for s in prefix:
                i, j = divmod(s, m)
                grid[i][j] += 1
            yield lengths, exits, MultiDigraph._from_grid(grid), range(prefix[-1], placements)


def _enumerate_shape_classes(m: int, c: int, n: int) -> list[MultiDigraph]:
    """Ring-arrangement sweep: n disjoint cycles joined in a ring, plus
    c - n extra edges placed anywhere, deduped by canonical form."""
    reps: dict[bytes, MultiDigraph] = {}
    for _, _, dg, slots in _ring_placements(m, c, n):
        candidates = [dg] if slots is None else (dg.with_edge(*divmod(s, m)) for s in slots)
        for pl in candidates:
            reps.setdefault(canonical_form(pl), pl)
    return [reps[k] for k in sorted(reps)]


def count_realizations(p: IntPolynomial, n: int, c: int) -> int:
    """Isomorphism classes of strongly connected (n,c)-shape digraphs on
    degree(p) vertices whose characteristic polynomial equals p.

    Walks the placements of ``enumerate_digraphs(m, c, n_cycles=n)``, but
    compares each placement's polynomial with p first and labels only the
    matches: ``_edge_placement_matches`` drops each last-edge slot at the first
    coefficient where the rank-one update of its ring-plus-prefix polynomial
    differs from p.  A plain ring base (c - n <= 1) takes its polynomial from
    the closed form, which the verify sweeps check by census on every ring
    class; a ring plus a prefix of extra edges takes ``char_poly_ct``.
    """
    m = p.degree
    if not 1 <= m <= FULL_ENUMERATION_MAX_M:
        raise ParameterRangeError(f"count_realizations needs degree 1..{FULL_ENUMERATION_MAX_M}")
    _check_shape_range(n, c)
    if p.b(1) > 0 or p.coeffs[0] != 1:
        return 0  # every digraph's polynomial is monic with b_1 = -trace(T) <= 0
    forms = set()
    for lengths, exits, dg, slots in _ring_placements(m, c, n):
        q = _ring_polynomial(lengths, n + sum(exits)) if c - n <= 1 else char_poly_ct(dg)
        if slots is None:
            if q == p:
                forms.add(canonical_form(dg))
            continue
        for i, j in _edge_placement_matches(dg.rows, q.coeffs, p.coeffs):
            if i * m + j in slots:
                forms.add(canonical_form(dg.with_edge(i, j)))
    return len(forms)


# ---------------------------------------------------------------------------
# genus candidate search
# ---------------------------------------------------------------------------

def _decide_candidate(lengths, through, poly, bound):
    """Compare one ring candidate against the genus bound bracket.

    Returns (status, bracket), status survivor or inconclusive; ``bound`` is
    the search's ``GenusBound``, or None when no bound applies.  Its
    candidates come from ``genus_candidates``, which has already eliminated
    every candidate whose ring sign at the bound's upper end is negative, so
    the candidate's one root above 1 lies at or below that end.  The
    candidate's own bracket comes from ``_ring_root``; when it does not end at
    or below the bound's lower end, the ring sign there counts the roots above
    it: a ring polynomial has one root above x >= 1 when its sign at x is
    negative and none otherwise.  A survivor reports its own bracket, or the
    bound's when the bound polynomial divides it and so shares its one root
    above 1.
    """
    lam = _ring_root(lengths, through, poly, _SEARCH_TOL)
    if bound is None or lam.hi <= bound.bound.lo:
        return "survivor", lam
    if _ring_sign_at(lengths, through, *bound.bound.lo.as_integer_ratio()) >= 0:
        return "survivor", lam
    # the one root lies in the bound bracket and is the bound's root when the
    # bound polynomial divides the candidate; its own grid could round differently
    if not any(_pdivmod(poly.coeffs, lt_polynomial(bound.d, bound.a).coeffs)[1]):
        return "survivor", RootResult(bound.bound.lo, bound.bound.hi)
    return "inconclusive", None


def genus_candidates(g: int, c_max: int, m_max: int | None = None) -> SearchReport:
    """Palindromic candidate polynomials from the ring shape classes with
    n <= c <= c_max, dimension window [2g, min(m_max, 6g-6)], kept when their
    certified largest root does not exceed the genus bound.

    The ring families contribute: two-cycle shapes give the LT polynomials,
    four-cycle rings give the complexity-4 family, odd rings give nothing
    palindromic.  For g >= 6 the bound is the certified (g+1, g or g-2)
    family root; g = 5 has no bound in this family, so candidates are listed
    with their roots unfiltered.

    A candidate is held as its plain ring data until its ring sign at the
    bound's upper end, read from its lengths, is known: the about three in
    four that it eliminates never get a polynomial, a decision or a shape.
    The kept candidates are decided in this process, one after another.
    """
    if g < 5:
        raise ParameterRangeError("genus_candidates needs g >= 5")
    if not 1 <= c_max <= 5:
        raise ParameterRangeError("c_max must be within 1..5")
    window_hi = 6 * g - 6 if m_max is None else min(m_max, 6 * g - 6)
    window_lo = 2 * g
    bound = hironaka_bound(g, _SEARCH_TOL) if g >= 6 else None
    if bound is not None:
        num, den = bound.bound.hi.as_integer_ratio()

    # each candidate as (family, d, a, ring lengths), its through-cycle of length d
    ds = range(g, window_hi // 2 + 1)
    lt = (("lt", d, a, (a, 2 * d - a)) for d in ds for a in range(1, d)) if c_max >= 2 else ()
    c4 = (("c4", d, a, a) for d in ds for a in _partitions_exact(2 * d, 4, 2)) if c_max >= 4 else ()
    # The phases run batched over all candidates: signs, polynomials, decisions, then
    # survivors.  One loop per candidate through all four was slower: genus_candidates
    # (5..8, 4) took 46.1 against 40.6 ms, best of 15 runs (2-core sandbox, CPython 3.11).
    total = 0
    kept = []
    for family, d, a, lengths in itertools.chain(lt, c4):
        total += 1
        if bound is None or _ring_sign_at(lengths, d, num, den) >= 0:
            kept.append((family, d, a, lengths))
    polys = [_ring_polynomial(lengths, d) for _, d, _, lengths in kept]
    results = [
        _decide_candidate(lengths, d, poly, bound)
        for (_, d, _, lengths), poly in zip(kept, polys)
    ]

    survivors = []
    inconclusive = 0
    for (family, d, a, lengths), poly, (status, lam) in zip(kept, polys, results):
        if status != "survivor":
            inconclusive += 1
            continue
        if family == "lt":
            exits = (0, d - 2)
        else:
            a, exits = list(a), _through_exits(lengths, d)
        shape = Shape._unchecked(lengths, _ring_attachments(exits))
        info = {"family": family, "d": d, "a": a, "m": 2 * d, "lambda": lam.decimal(5)}
        info["m_minus_2g"] = 2 * d - 2 * g
        survivors.append(SurvivorEntry(poly, shape, info))

    notes = []
    if bound is not None:
        notes.append(
            f"bound: largest root of the (d, a) = ({bound.d}, {bound.a}) family "
            f"polynomial, {bound.bound.decimal(5)}"
        )
    else:
        notes.append("no (d, a) bound case covers g = 5; candidates listed unfiltered")
    if inconclusive:
        notes.append(f"inconclusive root comparisons at tolerance {_SEARCH_TOL}: {inconclusive}")
    notes.append(
        "odd rings contribute no palindromic polynomials "
        "(see verify_case_odd_diagonal)"
    )
    if c_max >= 5:
        notes.extend(_ring_plus_one_tabulation(window_lo, min(window_hi, _RING_PLUS_ONE_M_MAX)))

    report = SearchReport(
        parameters={
            "op": "genus_candidates",
            "g": g,
            "c_max": c_max,
            "m_window": f"[{window_lo}, {window_hi}]",
            "tol": str(_SEARCH_TOL),
        },
        total=total,
        eliminated={
            "lambda_above_bound": total - len(kept),
            "inconclusive": inconclusive,
        },
        survivors=survivors,
        notes=notes,
    )
    return report


def _ring_plus_one_tabulation(window_lo: int, window_hi: int) -> list[str]:
    """Desk-scale sweep of the (4,5) ring-plus-one-edge placements within the
    dimension window, which the caller caps at ``_RING_PLUS_ONE_M_MAX``;
    tabulates any palindromic findings."""
    if window_hi < window_lo:
        return [
            "(4,5) ring-plus-one-edge sweep skipped: the dimension window lies "
            "above the sweep cap"
        ]
    total = 0
    palindromic = 0
    doubled_edge_palindromic = 0
    for m in range(window_lo, window_hi + 1):
        for lengths, exits, shape in _ring_shapes(4, m):
            base = build_shape_nc(shape)
            ring = _ring_polynomial(lengths, 4 + sum(exits)).coeffs
            polys = _edge_placement_coeffs(base.rows, ring)
            for i in range(m):
                for j in range(m):
                    total += 1
                    cs = polys[i][j]
                    if cs == cs[::-1]:  # monic, so palindromic in classify_palindrome's sense
                        palindromic += 1
                        if base.rows[i][j]:  # the placement doubles an existing edge
                            doubled_edge_palindromic += 1
    notes = [f"(4,5) ring-plus-one-edge sweep over m in [{window_lo}, {window_hi}]: "
             f"{total} placements, {palindromic} palindromic"]
    if palindromic:
        notes.append(
            f"all {palindromic} palindromic (4,5) placements double an existing edge "
            f"({doubled_edge_palindromic} confirmed), i.e. they are weighted (4,4) rings "
            "rather than new shapes"
            if palindromic == doubled_edge_palindromic
            else f"(4,5) palindromic placements found: {palindromic}, of which "
            f"{doubled_edge_palindromic} double an existing edge"
        )
    return notes


# ---------------------------------------------------------------------------
# knot-monodromy fixture reconstruction
# ---------------------------------------------------------------------------

FIGURE4_POLYNOMIAL = IntPolynomial((1, -2, 1, 0, -4, 4, 0, -1, 2, -1))
FIGURE4_SEVEN_CYCLE = (0, 1, 2, 8, 5, 6, 3)  # vertices 1,2,3,9,6,7,4 in cycle order


def reconstruct_figure4() -> MultiDigraph:
    """The digraph made of the standard 9-cycle, loops at vertices 3 and 7,
    and four further edges, with the stated characteristic polynomial and the
    stated 7-cycle.

    The further edges must be neither loops nor reversed 9-cycle edges.  The
    7-cycle's arcs outside the base digraph must be among them, and there are
    exactly four, so they are the further edges: the one digraph they give is
    checked for the stated polynomial.
    """
    m = 9
    base_arcs = {(i, (i + 1) % m) for i in range(m)}
    cyc = FIGURE4_SEVEN_CYCLE
    forced = sorted({(cyc[t], cyc[(t + 1) % 7]) for t in range(7)} - base_arcs)
    if len(forced) == 4 and all(i != j and (j, i) not in base_arcs for i, j in forced):
        dg = cycle_digraph(m).with_edge(2, 2).with_edge(6, 6)
        for i, j in forced:
            dg = dg.with_edge(i, j)
        if char_poly_ct(dg) == FIGURE4_POLYNOMIAL:
            return dg
    raise FixtureNotFound(
        "no digraph with the stated polynomial and 7-cycle exists in the search space"
    )
