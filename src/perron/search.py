"""Exhaustive sweeps over low-complexity digraph shapes and isomorph-free
enumeration, the case-analysis verifications, realization counting, genus
candidate searches, and the knot-monodromy fixture reconstruction.

All searches are deterministic: parameter spaces are swept in a fixed order
and reports are sorted, so identical runs produce identical reports.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .charpoly import (
    char_poly_ct,
    _core_census,
    _edge_placement_coeffs,
)
from .digraph import (
    MultiDigraph,
    canonical_form,
    complexity,
    cycle_digraph,
    is_primitive,
    is_strongly_connected,
)
from .errors import (
    CounterexampleError,
    FixtureNotFound,
    ParameterRangeError,
    ResourceLimitError,
)
from .families import (
    build_shape_nc,
    build_shape_22,
    c4_polynomial,
    hironaka_bound,
    lt_polynomial,
    ring_shape,
    ring_shape_with_through,
    two_cycle_polynomial,
)
from .io import digraph_to_json_obj
from .polynomial import (
    IntPolynomial,
    PalindromeClass,
    _pdivmod,
    _sign_at,
    classify_palindrome,
    eval_at_one,
    format_polynomial,
    to_fraction,
)
from .spectral import (
    RootResult,
    count_roots_above,
    descartes_roots_above,
    largest_real_root,
)

ENUMERATION_CAP_DEFAULT = 1_000_000
FULL_ENUMERATION_MAX_M = 14


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass
class SurvivorEntry:
    polynomial: IntPolynomial
    representative: MultiDigraph | None
    info: dict

    def to_json_obj(self):
        rep = self.representative
        return {
            "polynomial": list(self.polynomial.coeffs),
            "pretty": format_polynomial(self.polynomial),
            "representative": None if rep is None else digraph_to_json_obj(rep),
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
            if s.representative is not None:
                edges = " ".join(
                    f"{i + 1}->{j + 1}" + (f"x{k}" if k > 1 else "")
                    for i, j, k in s.representative.edges()
                )
                lines.append(f"    representative: m={s.representative.m} {edges}")
        if self.notes:
            lines.append("notes:")
            for n in self.notes:
                lines.append(f"  - {n}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# small combinatorial helpers
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if total >= parts:
        for w in _weak_compositions(total - parts, parts):
            yield tuple(x + 1 for x in w)


def _weak_compositions(total: int, parts: int):
    """Ordered tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _partitions_le(total: int, parts: int):
    """Non-increasing tuples of `parts` non-negative integers summing to `total`."""

    def rec(remaining, k, cap):
        if k == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        for first in range(min(remaining, cap), -1, -1):
            if remaining - first > first * (k - 1):
                break
            for rest in rec(remaining - first, k - 1, first):
                yield (first,) + rest

    yield from rec(total, parts, total)


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

def _arc(m: int, u: int, v: int) -> frozenset:
    """Vertices of the forward arc u -> v (inclusive) on the standard m-cycle."""
    return frozenset((u + t) % m for t in range(((v - u) % m) + 1))


def sweep_ring(n: int, m: int):
    """All ring placements: compositions of m into n lengths times exit
    offsets.  Every swept digraph is built here."""
    for lengths in _compositions(m, n):
        for exits in itertools.product(*(range(l) for l in lengths)):
            yield lengths, exits, build_shape_nc(ring_shape(lengths, exits))


def sweep_shape_11(m: int):
    """All (1,1) placements up to rotation: the one-cycle rings, chord s -> 0."""
    for _, (s,), dg in sweep_ring(1, m):
        yield s + 1, dg  # chord cycle visits 0..s


def sweep_shape_12(m: int):
    """All (1,2) placements up to rotation: first chord into vertex 0.

    Yields (case, digraph) where case is 'disjoint', 'plain' (the two chord
    cycles intersect, chords do not interact), or 'crossing' (a cycle through
    both chords exists).
    """
    for a1, d1 in sweep_shape_11(m):
        s1 = a1 - 1
        a_1 = _arc(m, 0, s1)
        for s2 in range(m):
            for t2 in range(m):
                a_2 = _arc(m, t2, s2)
                if not (a_1 & a_2):
                    case = "disjoint"
                elif not (_arc(m, 0, s2) & _arc(m, t2, s1)):
                    case = "crossing"
                else:
                    case = "plain"
                yield case, d1.with_edge(s2, t2)


def sweep_shape_22(m: int):
    """All (2,2) placements, the two-cycle rings: lengths (a1, a2), through split (p, q)."""
    for (a1, a2), (e1, e2), dg in sweep_ring(2, m):
        yield a1, a2, e1 + 1, e2 + 1, dg


# ---------------------------------------------------------------------------
# case-analysis verification sweeps
# ---------------------------------------------------------------------------

def _census_checks(d: MultiDigraph, cores: dict) -> IntPolynomial:
    """The characteristic polynomial of a swept digraph, summed over its
    smoothed core's unions, with the structural coefficient facts every swept
    digraph must satisfy.  ``cores`` is the sweep's cache of core unions."""
    m = d.m
    b, most = _core_census(d.rows, cores)
    p = IntPolynomial(tuple(b))
    if p.b(1) > 0:
        raise CounterexampleError(f"b_1 > 0 on a digraph: {format_polynomial(p)}")
    if abs(p.b(m)) == 1 and most is None:
        raise CounterexampleError("|b_m| = 1 without a spanning linear subdigraph")
    if most is not None and most > complexity(d):
        raise CounterexampleError("spanning linear subdigraph with more cycles than complexity")
    return p


def _check_placement(key: str, m: int, dg: MultiDigraph, cores: dict, p1_counts: dict, p1=-1):
    """Check one placement whose polynomial is neither palindromic nor
    antipalindromic: the census checks, then p(1) (tallied in ``p1_counts``)
    must be ``p1`` and the class must be neither."""
    p = _census_checks(dg, cores)
    value = eval_at_one(p)
    p1_counts[value] = p1_counts.get(value, 0) + 1
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
    # palindromic classes: coeffs -> {count, representative, primitive seen}
    palindromic: dict[tuple, dict] = {}

    # the (1,1) and (1,2) chord placements, keyed by their expected p(1)
    expected_p1 = {"(1,1)": -1, "(1,2) disjoint": -1, "(1,2) plain": -2, "(1,2) crossing": -3}
    cores: dict = {}  # the sweep's core unions, walked once per labelled core

    for m in range(1, m_max + 1):
        chords = itertools.chain(
            (("(1,1)", dg) for _, dg in sweep_shape_11(m)),
            ((f"(1,2) {case}", dg) for case, dg in sweep_shape_12(m)),
        )
        for key, dg in chords:
            total += 1
            _check_placement(key, m, dg, cores, p1_distribution, expected_p1[key])
            eliminated["neither_class"] += 1

        for a1, a2, pp, qq, dg in sweep_shape_22(m):
            total += 1
            shape = f"({a1},{a2},{pp},{qq})"
            p = _census_checks(dg, cores)
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
                eliminated["neither_class"] += 1
                continue
            a = min(a1, a2)
            if p != two_cycle_polynomial(a, m - a, m // 2):
                raise CounterexampleError(
                    f"palindromic (2,2) shape {shape} outside the LT expressions"
                )
            rec = palindromic.setdefault(p.coeffs, {"count": 0, "rep": dg, "primitive": False})
            rec["count"] += 1
            if not rec["primitive"] and is_primitive(dg):
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
                rec["rep"],
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
    so the through-cycle is the only cycle besides the ring's own.
    """
    if k < 0 or 2 * k + 1 > 5:
        raise ParameterRangeError("verify_case_odd_diagonal needs k >= 0 with 2k+1 <= 5")
    if not 1 <= m_max <= FULL_ENUMERATION_MAX_M:
        raise ParameterRangeError(f"m_max must be within 1..{FULL_ENUMERATION_MAX_M}")
    n = 2 * k + 1
    total = 0
    p1_distribution: dict[int, int] = {}
    cores: dict = {}  # the sweep's core unions, walked once per labelled core

    for m in range(n, m_max + 1):
        for _, _, dg in sweep_ring(n, m):
            total += 1
            _check_placement(f"({n},{n}) ring", m, dg, cores, p1_distribution)

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

def _margin_matrices(row_sums, col_sums):
    """All non-negative integer grids with the given exact row and column sums."""
    V = len(row_sums)
    grid = [[0] * V for _ in range(V)]
    col_rem = list(col_sums)

    def fill(r, j, rem):
        if j == V - 1:
            if rem <= col_rem[j]:
                grid[r][j] = rem
                col_rem[j] -= rem
                if r == V - 1:
                    if all(x == 0 for x in col_rem):
                        yield [row[:] for row in grid]
                else:
                    yield from fill(r + 1, 0, row_sums[r + 1])
                col_rem[j] += rem
                grid[r][j] = 0
            return
        for x in range(min(rem, col_rem[j]), -1, -1):
            grid[r][j] = x
            col_rem[j] -= x
            yield from fill(r, j + 1, rem - x)
            col_rem[j] += x
            grid[r][j] = 0

    yield from fill(0, 0, row_sums[0])


def _cores(c: int, v_max: int) -> list[MultiDigraph]:
    """Strongly connected multi-digraphs with V + c edges on V <= min(2c, v_max)
    vertices and in+out degree >= 3 everywhere: the smoothing cores.

    Every strongly connected digraph of complexity c >= 1 arises uniquely by
    subdividing the arcs of its core (suppressing all in=out=1 vertices).
    """
    found: dict[bytes, MultiDigraph] = {}
    for V in range(1, min(2 * c, v_max) + 1):
        E = V + c
        for row_sums in _compositions(E, V):
            base = [max(1, 3 - r) for r in row_sums]
            rest = E - sum(base)
            if rest < 0:
                continue
            for extra in _weak_compositions(rest, V):
                col_sums = [base[v] + extra[v] for v in range(V)]
                for grid in _margin_matrices(row_sums, col_sums):
                    dg = MultiDigraph._from_grid(grid)
                    if is_strongly_connected(dg):
                        found.setdefault(canonical_form(dg), dg)
    return [found[k] for k in sorted(found)]


def _subdivide(core: MultiDigraph, assignment) -> MultiDigraph:
    """Insert interior path vertices into the core's arcs per the assignment."""
    V = core.m
    extra = sum(sum(parts) for parts in assignment)
    m = V + extra
    grid = [[0] * m for _ in range(m)]
    nxt = V
    idx = 0
    for i, j, k in core.edges():
        parts = assignment[idx]
        idx += 1
        for t in range(k):
            interior = parts[t]
            if interior == 0:
                grid[i][j] += 1
            else:
                chain = [i] + list(range(nxt, nxt + interior)) + [j]
                nxt += interior
                for u, v in zip(chain, chain[1:]):
                    grid[u][v] += 1
    return MultiDigraph._from_grid(grid)


def enumerate_digraphs(
    m: int, c: int, n_cycles: int | None = None, cap: int = ENUMERATION_CAP_DEFAULT
) -> list[MultiDigraph]:
    """All strongly connected multi-digraphs with m vertices and m + c edges,
    one representative per isomorphism class, sorted by canonical form.

    Full enumeration is supported for m <= 14; pass ``n_cycles`` for the
    shape-restricted sweep (one representative per class of digraphs built
    from n disjoint cycles in the ring arrangement plus free extra edges).
    """
    if m < 1:
        raise ParameterRangeError("m must be >= 1")
    if n_cycles is not None:
        return _enumerate_shape_classes(m, c, n_cycles, cap)
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
    if estimate > cap:
        raise ResourceLimitError(
            f"subdivision space estimate {estimate} exceeds cap {cap}", estimate=estimate
        )

    reps: dict[bytes, MultiDigraph] = {}
    for core in cores:
        groups = list(core.edges())
        extra = m - core.m

        def assignments(gi, remaining):
            if gi == len(groups):
                if remaining == 0:
                    yield []
                return
            _, _, k = groups[gi]
            for s in range(remaining + 1):
                for parts in _partitions_le(s, k):
                    for rest in assignments(gi + 1, remaining - s):
                        yield [parts] + rest

        for assignment in assignments(0, extra):
            dg = _subdivide(core, assignment)
            reps.setdefault(canonical_form(dg), dg)
    return [reps[k] for k in sorted(reps)]


def _ring_placements(m: int, c: int, n: int, cap: int):
    """The placements of the ring-arrangement sweep, grouped by all but the
    last extra edge.

    Checks the placement estimate against the cap before building anything
    (summing only until it passes the cap), then yields ``(dg, slots)`` for
    each ring of n disjoint cycles plus a prefix of the c - n extra edges: the
    last edge takes each slot in ``slots`` (slot s is the edge s // m -> s % m),
    which walks the ``combinations_with_replacement`` order of all extra
    edges.  With no extra edge, ``slots`` is None and ``dg`` is the placement
    itself.  Every placement is strongly connected: the ring's cycles and its
    edge from each cycle to the next already are, and extra edges keep it so.
    """
    if n < 1 or c < n:
        raise ParameterRangeError("shape-restricted enumeration needs 1 <= n <= c")
    if m < n:
        return
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
    for _, _, base in sweep_ring(n, m):
        if extra_edges == 0:
            yield base, None
            continue
        for prefix in itertools.combinations_with_replacement(range(placements), extra_edges - 1):
            if not prefix:
                yield base, range(placements)
                continue
            grid = [list(row) for row in base.rows]
            for s in prefix:
                i, j = divmod(s, m)
                grid[i][j] += 1
            yield MultiDigraph._from_grid(grid), range(prefix[-1], placements)


def _enumerate_shape_classes(m: int, c: int, n: int, cap: int) -> list[MultiDigraph]:
    """Ring-arrangement sweep: n disjoint cycles joined in a ring, plus
    c - n extra edges placed anywhere, deduped by canonical form."""
    reps: dict[bytes, MultiDigraph] = {}
    for dg, slots in _ring_placements(m, c, n, cap):
        candidates = [dg] if slots is None else (dg.with_edge(*divmod(s, m)) for s in slots)
        for pl in candidates:
            reps.setdefault(canonical_form(pl), pl)
    return [reps[k] for k in sorted(reps)]


def count_realizations(p: IntPolynomial, n: int, c: int, cap: int = ENUMERATION_CAP_DEFAULT) -> int:
    """Isomorphism classes of strongly connected (n,c)-shape digraphs on
    degree(p) vertices whose characteristic polynomial equals p.

    Walks the placements of ``enumerate_digraphs(m, c, n_cycles=n)``, but
    compares each placement's polynomial with p first (by a rank-one update
    of its ring-plus-prefix polynomial) and labels only the matches.
    """
    m = p.degree
    if not 1 <= m <= FULL_ENUMERATION_MAX_M:
        raise ParameterRangeError(f"count_realizations needs degree 1..{FULL_ENUMERATION_MAX_M}")
    if p.b(1) > 0:
        return 0  # b_1 = -trace(T) <= 0 for every digraph
    forms = set()
    for dg, slots in _ring_placements(m, c, n, cap):
        q = char_poly_ct(dg)
        if slots is None:
            if q == p:
                forms.add(canonical_form(dg))
            continue
        polys = _edge_placement_coeffs(dg.rows, q.coeffs)
        for s in slots:
            i, j = divmod(s, m)
            if polys[i][j] == p.coeffs:
                forms.add(canonical_form(dg.with_edge(i, j)))
    return len(forms)


# ---------------------------------------------------------------------------
# genus candidate search
# ---------------------------------------------------------------------------

def _decide_candidate(task):
    """Compare one candidate polynomial against the genus bound bracket.

    Returns (status, lo, hi) with status in survivor/eliminated/inconclusive;
    survivors carry a certified bracket for their own largest root.
    """
    poly, bound_lo, bound_hi, bound_poly, tol = task
    if bound_lo is None:
        lam = largest_real_root(poly, tol)
        return "survivor", lam.lo, lam.hi
    if poly == bound_poly:
        return "survivor", bound_lo, bound_hi
    if _sign_at(poly.coeffs, bound_hi.numerator, bound_hi.denominator) < 0:
        return "eliminated", None, None  # a real root lies above the bound bracket
    # a Descartes count of 0 spares the Sturm count
    above_lo = count_roots_above(poly, bound_lo) if descartes_roots_above(poly, bound_lo) else 0
    if above_lo == 0:
        lam = largest_real_root(poly, tol)
        return "survivor", lam.lo, lam.hi
    if count_roots_above(poly, bound_hi) >= 1:
        return "eliminated", None, None
    # the only roots at or above bound_lo sit inside the bound bracket; when the
    # bound polynomial divides the candidate and that root is unique, the largest
    # roots coincide exactly
    if above_lo == 1 and not any(_pdivmod(poly.coeffs, bound_poly.coeffs)[1]):
        return "survivor", bound_lo, bound_hi
    return "inconclusive", None, None


def _build_c4_representative(parts, d: int) -> MultiDigraph:
    return build_shape_nc(ring_shape_with_through(parts, d))


def genus_candidates(
    g: int,
    c_max: int,
    m_max: int | None = None,
    tol=Fraction(1, 10**7),
    jobs: int = 1,
    ring_plus_one_max: int = 10,
) -> SearchReport:
    """Palindromic candidate polynomials from the ring shape classes with
    n <= c <= c_max, dimension window [2g, min(m_max, 6g-6)], kept when their
    certified largest root does not exceed the genus bound.

    The ring families contribute: two-cycle shapes give the LT polynomials,
    four-cycle rings give the complexity-4 family, odd rings give nothing
    palindromic.  For g >= 6 the bound is the certified (g+1, g or g-2)
    family root; g = 5 has no bound in this family, so candidates are listed
    with their roots unfiltered.
    """
    if g < 5:
        raise ParameterRangeError("genus_candidates needs g >= 5")
    if not 1 <= c_max <= 5:
        raise ParameterRangeError("c_max must be within 1..5")
    tolf = to_fraction(tol)
    window_hi = 6 * g - 6 if m_max is None else min(m_max, 6 * g - 6)
    window_lo = 2 * g
    bound = hironaka_bound(g, tolf) if g >= 6 else None

    # (poly, info dict, representative builder, its arguments); only survivors
    # get their representative built
    candidates = []
    if c_max >= 2:
        for m in range(window_lo, window_hi + 1, 2):
            d = m // 2
            for a in range(1, d):
                info = {"family": "lt", "d": d, "a": a, "m": m}
                candidates.append(
                    (lt_polynomial(d, a), info, build_shape_22, (a, 2 * d - a, 1, d - 1))
                )
    if c_max >= 4:
        for m in range(window_lo, window_hi + 1, 2):
            d = m // 2
            for parts in _partitions_exact(2 * d, 4, 2):
                info = {"family": "c4", "d": d, "a": list(parts), "m": m}
                candidates.append(
                    (c4_polynomial(d, parts), info, _build_c4_representative, (parts, d))
                )

    bound_lo = bound.bound.lo if bound is not None else None
    bound_hi = bound.bound.hi if bound is not None else None
    bound_poly = lt_polynomial(bound.d, bound.a) if bound is not None else None
    tasks = [(poly, bound_lo, bound_hi, bound_poly, tolf) for poly, *_ in candidates]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_decide_candidate, tasks, chunksize=32))
    else:
        results = [_decide_candidate(t) for t in tasks]

    survivors = []
    eliminated = {"lambda_above_bound": 0}
    inconclusive = 0
    for (poly, info, build, args), (status, lam_lo, lam_hi) in zip(candidates, results):
        if status == "survivor":
            lam = RootResult(lam_lo, lam_hi)
            entry_info = dict(info)
            entry_info["lambda"] = lam.decimal(5)
            entry_info["m_minus_2g"] = info["m"] - 2 * g
            survivors.append(SurvivorEntry(poly, build(*args), entry_info))
        elif status == "eliminated":
            eliminated["lambda_above_bound"] += 1
        else:
            inconclusive += 1

    notes = []
    if bound is not None:
        notes.append(
            f"bound: largest root of the (d, a) = ({bound.d}, {bound.a}) family "
            f"polynomial, {bound.bound.decimal(5)}"
        )
    else:
        notes.append("no (d, a) bound case covers g = 5; candidates listed unfiltered")
    if inconclusive:
        notes.append(f"inconclusive root comparisons at tolerance {tolf}: {inconclusive}")
    notes.append(
        "odd rings contribute no palindromic polynomials "
        "(see verify_case_odd_diagonal)"
    )
    if c_max >= 5:
        notes.extend(_ring_plus_one_tabulation(window_lo, min(window_hi, ring_plus_one_max)))

    report = SearchReport(
        parameters={
            "op": "genus_candidates",
            "g": g,
            "c_max": c_max,
            "m_window": f"[{window_lo}, {window_hi}]",
            "tol": str(tolf),
        },
        total=len(candidates),
        eliminated={**eliminated, "inconclusive": inconclusive},
        survivors=survivors,
        notes=notes,
    )
    return report


def _ring_plus_one_tabulation(window_lo: int, window_hi: int) -> list[str]:
    """Desk-scale sweep of the (4,5) ring-plus-one-edge placements within the
    dimension window, capped at the full-enumeration limit; tabulates any
    palindromic findings."""
    hi = min(window_hi, FULL_ENUMERATION_MAX_M)
    if hi < max(window_lo, 5):
        return [
            "(4,5) ring-plus-one-edge sweep skipped: the dimension window lies "
            "above the sweep cap"
        ]
    total = 0
    palindromic = 0
    doubled_edge_palindromic = 0
    for m in range(max(window_lo, 5), hi + 1):
        for _, _, base in sweep_ring(4, m):
            polys = _edge_placement_coeffs(base.rows, char_poly_ct(base).coeffs)
            for i in range(m):
                for j in range(m):
                    total += 1
                    cs = polys[i][j]
                    if cs == cs[::-1]:  # monic, so palindromic in classify_palindrome's sense
                        palindromic += 1
                        if base.rows[i][j]:  # the placement doubles an existing edge
                            doubled_edge_palindromic += 1
    notes = [f"(4,5) ring-plus-one-edge sweep over m in [{max(window_lo, 5)}, {hi}]: "
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
