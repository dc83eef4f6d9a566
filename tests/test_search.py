import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

import perron.charpoly
import perron.search
from perron.charpoly import char_poly_ct
from perron.digraph import (
    MultiDigraph,
    _smooth,
    canonical_form,
    complexity,
    cycle_digraph,
    is_strongly_connected,
)
from perron.errors import CounterexampleError, ParameterRangeError, ResourceLimitError
from perron.families import build_shape_22, hironaka_bound, lt_polynomial
from perron.fixtures import figure4
from perron.polynomial import IntPolynomial, format_polynomial, parse_polynomial
from perron.search import (
    ENUMERATION_CAP_DEFAULT,
    FIGURE4_POLYNOMIAL,
    FIGURE4_SEVEN_CYCLE,
    count_realizations,
    enumerate_digraphs,
    genus_candidates,
    sweep_ring,
    sweep_shape_11,
    sweep_shape_12,
    sweep_shape_22,
    verify_case_c_le_2,
    verify_case_odd_diagonal,
    _compositions,
    _decide_candidate,
)


def brute_force_class_count(m, c):
    """Independent oracle: scan every multiplicity grid with m + c edges."""
    total = m + c
    slots = [(i, j) for i in range(m) for j in range(m)]
    reps = set()

    def rec(idx, remaining, grid):
        if idx == len(slots) - 1:
            i, j = slots[idx]
            grid[i][j] = remaining
            d = MultiDigraph.from_rows(grid)
            if is_strongly_connected(d):
                reps.add(canonical_form(d))
            grid[i][j] = 0
            return
        i, j = slots[idx]
        for k in range(remaining + 1):
            grid[i][j] = k
            rec(idx + 1, remaining - k, grid)
            grid[i][j] = 0

    rec(0, total, [[0] * m for _ in range(m)])
    return len(reps)


def test_enumerate_trivial_cases():
    assert len(enumerate_digraphs(3, 0)) == 1
    assert enumerate_digraphs(3, 0)[0].rows == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert enumerate_digraphs(4, -1) == []
    assert len(enumerate_digraphs(1, 2)) == 1
    assert enumerate_digraphs(1, 2)[0].rows == ((3,),)


def test_enumerate_m2_c1_regression():
    digs = enumerate_digraphs(2, 1)
    assert len(digs) == 2
    polys = sorted(format_polynomial(char_poly_ct(d)) for d in digs)
    # 2-cycle plus loop, and 2-cycle with one doubled edge
    assert polys == ["x^2 - 2", "x^2 - x - 1"]


def test_enumerate_matches_brute_force():
    for m, c in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        assert len(enumerate_digraphs(m, c)) == brute_force_class_count(m, c), (m, c)


def test_enumerate_representatives_are_valid():
    for m, c in ((4, 2), (5, 1)):
        digs = enumerate_digraphs(m, c)
        assert len(set(canonical_form(d) for d in digs)) == len(digs)
        for d in digs:
            assert d.m == m
            assert complexity(d) == c
            assert is_strongly_connected(d)


def test_shape_restricted_representatives_are_valid():
    """Every ring placement class has m vertices, complexity c, and is
    strongly connected, for rings of up to three cycles."""
    classes = 0
    for n in (1, 2, 3):
        for c in range(n, n + 3):
            for m in range(1, 6):
                for d in enumerate_digraphs(m, c, n_cycles=n):
                    classes += 1
                    assert d.m == m
                    assert complexity(d) == c
                    assert is_strongly_connected(d)
    assert classes == 6436


def test_enumerate_determinism():
    a = [d.rows for d in enumerate_digraphs(4, 2)]
    b = [d.rows for d in enumerate_digraphs(4, 2)]
    assert a == b


def test_enumerate_m_limit_and_cap():
    with pytest.raises(ParameterRangeError):
        enumerate_digraphs(15, 1)
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_digraphs(12, 2, cap=10)
    assert exc.value.estimate is not None and exc.value.estimate > 10


def test_shape_restricted_enumeration_degree14():
    digs = enumerate_digraphs(14, 2, n_cycles=2)
    target = lt_polynomial(7, 6)
    hits = [d for d in digs if char_poly_ct(d) == target]
    # the sweep finds six isomorphism classes (at least the five shown in the
    # figure); see count_realizations for the documented count
    assert len(hits) == 6


def test_count_realizations_examples():
    assert count_realizations(lt_polynomial(7, 6), 2, 2) == 6
    assert count_realizations(lt_polynomial(7, 1), 2, 2) >= 1
    assert count_realizations(parse_polynomial("x^14 + x^13 + 1"), 2, 2) == 0
    with pytest.raises(ParameterRangeError):
        count_realizations(lt_polynomial(8, 1), 2, 2)


def test_count_realizations_matches_brute_force():
    """The count, which labels only placements whose polynomial matches, equals
    the classes of the shape enumeration filtered by their polynomial."""
    for n in range(1, 4):
        for c in range(n, n + 3):
            for m in range(1, 7):
                classes = Counter(char_poly_ct(d) for d in enumerate_digraphs(m, c, n_cycles=n))
                # the two most realized polynomials, the m-cycle's, and one with
                # its constant term moved far off, which nothing realizes
                queries = [p for p, _ in classes.most_common(2)]
                queries.append(IntPolynomial((1,) + (0,) * (m - 1) + (-1,)))
                *head, constant = queries[0].coeffs
                queries.append(IntPolynomial((*head, constant + 100)))
                for p in queries:
                    assert count_realizations(p, n, c) == classes[p], (p, n, c)


def test_count_realizations_checks_the_cap_before_building(monkeypatch):
    p = lt_polynomial(7, 6)
    with pytest.raises(ResourceLimitError) as enumerated:
        enumerate_digraphs(p.degree, 9, n_cycles=2)

    def no_rings(*args):
        raise AssertionError("a ring was built before the cap was checked")

    monkeypatch.setattr(perron.search, "sweep_ring", no_rings)
    with pytest.raises(ResourceLimitError) as counted:
        count_realizations(p, 2, 9)
    assert counted.value.estimate == enumerated.value.estimate > ENUMERATION_CAP_DEFAULT


def test_verify_c2_small_and_balanced():
    report = verify_case_c_le_2(8)
    assert report.total > 0
    survivor_instances = sum(s.info["instances"] for s in report.survivors)
    assert survivor_instances + sum(report.eliminated.values()) == report.total
    lt_survivors = {
        (s.info["d"], s.info["a"]) for s in report.survivors if s.info["lt_member"]
    }
    assert lt_survivors == {(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}
    # boundary entries exist and are imprimitive
    boundary = [s for s in report.survivors if not s.info["lt_member"]]
    assert boundary and all(not s.info["primitive_realization"] for s in boundary)


def test_verify_c2_determinism_and_json():
    r1 = verify_case_c_le_2(6)
    r2 = verify_case_c_le_2(6)
    assert json.dumps(r1.to_json_obj(), sort_keys=True) == json.dumps(
        r2.to_json_obj(), sort_keys=True
    )
    assert r1.render_text() == r2.render_text()
    obj = json.loads(json.dumps(r1.to_json_obj()))
    assert obj["total"] == r1.total


def test_verify_c2_range():
    with pytest.raises(ParameterRangeError):
        verify_case_c_le_2(15)


def test_verify_odd_diagonal():
    r0 = verify_case_odd_diagonal(0, 8)
    assert r0.survivors == []
    assert "-1" in r0.notes[0] or "-1:" in r0.notes[0]
    r1 = verify_case_odd_diagonal(1, 10)
    assert r1.survivors == []
    assert r1.eliminated["neither_class"] == r1.total
    r2 = verify_case_odd_diagonal(2, 9)
    assert r2.survivors == []
    with pytest.raises(ParameterRangeError):
        verify_case_odd_diagonal(3, 8)


def ring_polynomial(lengths, exits):
    """prod(x^l_k - 1) - x^(m - t) with t = sum(e_k + 1), the through-cycle's
    length, from descending coefficient lists."""
    cs = [1]
    for l in lengths:
        factor = [1] + [0] * (l - 1) + [-1]
        cs = [
            sum(cs[i] * factor[k - i] for i in range(len(cs)) if 0 <= k - i <= l)
            for k in range(len(cs) + l)
        ]
    cs[sum(e + 1 for e in exits)] -= 1  # the coefficient of x^(m - t)
    return IntPolynomial(tuple(cs))


def test_every_ring_placement_has_the_ring_polynomial():
    """A cycle that uses a ring arc uses all n of them, so the through-cycle is
    the only cycle besides the ring's own, and p(1) = -1 on every ring."""
    placements = 0
    for n in range(1, 6):
        for m in range(n, 10):
            for lengths, exits, dg in sweep_ring(n, m):
                assert char_poly_ct(dg) == ring_polynomial(lengths, exits), (lengths, exits)
                placements += 1
    assert placements == 3587


def test_odd_ring_sweep_requires_p1_minus_one_and_neither_class(monkeypatch):
    for poly, message in (
        ("x^2 - 3", r"^\(3,3\) ring placement on m=3 has p\(1\) = -2, expected -1$"),
        ("x^2 - 3x + 1", r"^\(3,3\) ring placement on m=3 misclassified$"),
    ):
        monkeypatch.setattr(
            perron.search, "_census_checks", lambda d, cores, p=parse_polynomial(poly): p
        )
        with pytest.raises(CounterexampleError, match=message):
            verify_case_odd_diagonal(1, 6)


def test_each_labelled_core_is_walked_once_per_sweep(monkeypatch):
    """A sweep walks the cycles of each distinct labelled core once, and keeps
    no cores after it returns: a second run walks them all again."""
    calls = 0
    walk = perron.charpoly._weighted_cycles

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return walk(*args, **kwargs)

    def labelled_cores(digraphs):
        keys = set()
        for d in digraphs:
            V, arcs, _, _ = _smooth(d.rows)
            keys.add((V, tuple(arcs)))
        return len(keys)

    c2_digraphs = [
        d
        for m in range(1, 7)
        for d in itertools.chain(
            (d for _, d in sweep_shape_11(m)),
            (d for _, d in sweep_shape_12(m)),
            (d for *_, d in sweep_shape_22(m)),
        )
    ]
    ring_digraphs = [d for m in range(3, 8) for *_, d in sweep_ring(3, m)]
    monkeypatch.setattr(perron.charpoly, "_weighted_cycles", counting)
    for sweep, digraphs in (
        (lambda: verify_case_c_le_2(6), c2_digraphs),
        (lambda: verify_case_odd_diagonal(1, 7), ring_digraphs),
    ):
        cores = labelled_cores(digraphs)
        for _ in range(2):
            calls = 0
            report = sweep()
            assert report.total == len(digraphs)
            assert calls == cores < report.total


def test_genus_candidates_g11():
    report = genus_candidates(11, 4)
    found = {format_polynomial(s.polynomial): s.info for s in report.survivors}
    c4_info = found.get("x^60 - 4x^45 + 5x^30 - 4x^15 + 1")
    assert c4_info is not None
    assert c4_info["lambda"] == "1.06626"
    bound_info = found.get("x^24 - x^13 - x^12 - x^11 + 1")
    assert bound_info is not None
    assert bound_info["lambda"] == "1.08377"
    assert bound_info["m_minus_2g"] == 2
    # 1.06626 < 1.08377: the complexity-4 family cannot be dismissed
    assert report.eliminated["inconclusive"] == 0
    assert report.total == len(report.survivors) + report.eliminated["lambda_above_bound"]


def test_genus_candidates_g5_window_extension():
    report = genus_candidates(5, 2, m_max=14)
    polys = {format_polynomial(s.polynomial) for s in report.survivors}
    assert "x^14 - x^8 - x^7 - x^6 + 1" in polys
    assert any("no (d, a) bound case" in n for n in report.notes)


def test_genus_candidates_survivor_families():
    report = genus_candidates(11, 5, m_max=26, ring_plus_one_max=0)
    for s in report.survivors:
        assert s.info["family"] in ("lt", "c4")
        if s.representative is not None:
            assert char_poly_ct(s.representative) == s.polynomial


def test_genus_candidates_jobs_equivalence():
    a = genus_candidates(6, 2, m_max=16)
    b = genus_candidates(6, 2, m_max=16, jobs=2)
    assert json.dumps(a.to_json_obj(), sort_keys=True) == json.dumps(
        b.to_json_obj(), sort_keys=True
    )


def test_genus_candidates_range_errors():
    with pytest.raises(ParameterRangeError):
        genus_candidates(4, 2)
    with pytest.raises(ParameterRangeError):
        genus_candidates(11, 6)


def test_figure4_fixture_properties():
    d = figure4()
    assert char_poly_ct(d) == FIGURE4_POLYNOMIAL
    cyc = FIGURE4_SEVEN_CYCLE
    assert all(d.mult(cyc[t], cyc[(t + 1) % 7]) >= 1 for t in range(7))
    assert complexity(d) == 6
    assert d.edge_count == 15


def test_decide_reads_no_trace_for_candidates_the_bound_sign_eliminates():
    tol = Fraction(1, 10**7)
    bound = hironaka_bound(6, tol)
    task = lambda p: (p, bound.bound.lo, bound.bound.hi, lt_polynomial(bound.d, bound.a), tol)
    above = lt_polynomial(6, 1)  # root 1.29..., far above the bound
    assert _decide_candidate(task(above))[0] == "eliminated"
    assert "_trace" not in vars(above)
    below = lt_polynomial(15, 14)
    assert _decide_candidate(task(below))[0] == "survivor"
    assert vars(below)["_trace"] is not None


def test_count_realizations_builds_one_prefix_grid_per_ring(monkeypatch):
    """A ring's prefix of extra edges goes into one grid copy, not one copy
    per edge: a loop with 99,999 extra edges needs no ``with_edge`` call."""
    calls = 0
    with_edge = MultiDigraph.with_edge

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return with_edge(self, *args)

    monkeypatch.setattr(MultiDigraph, "with_edge", counting)
    assert count_realizations(parse_polynomial("x-1"), 1, 100_000) == 0
    assert calls == 0


def test_shape_sweeps_match_their_direct_constructions():
    """The (1,1), (1,2) and (2,2) views over the ring builder yield the
    placements of the direct constructions, in the same order."""

    def arc(m, u, v):
        return frozenset((u + t) % m for t in range((v - u) % m + 1))

    def rows(placements):
        return [(*head, d.rows) for *head, d in placements]

    for m in range(1, 10):
        base = cycle_digraph(m)
        shape_11 = [(s + 1, base.with_edge(s, 0)) for s in range(m)]
        shape_12 = []
        for s1 in range(m):
            for s2 in range(m):
                for t2 in range(m):
                    if not arc(m, 0, s1) & arc(m, t2, s2):
                        case = "disjoint"
                    elif not arc(m, 0, s2) & arc(m, t2, s1):
                        case = "crossing"
                    else:
                        case = "plain"
                    shape_12.append((case, base.with_edge(s1, 0).with_edge(s2, t2)))
        shape_22 = [
            (a1, m - a1, p, q, build_shape_22(a1, m - a1, p, q))
            for a1 in range(1, m)
            for p in range(1, a1 + 1)
            for q in range(1, m - a1 + 1)
        ]
        assert rows(sweep_shape_11(m)) == rows(shape_11)
        assert rows(sweep_shape_12(m)) == rows(shape_12)
        assert rows(sweep_shape_22(m)) == rows(shape_22)


def test_compositions_match_their_recursive_definition():
    def direct(total, parts):
        if parts == 1:
            return [(total,)] if total >= 1 else []
        return [
            (first,) + rest
            for first in range(1, total)
            for rest in direct(total - first, parts - 1)
        ]

    for total in range(-2, 16):
        for parts in range(1, 8):
            assert list(_compositions(total, parts)) == direct(total, parts), (total, parts)


# SHA-256 of the stdout of ``perron verify <case> --format text|json``
VERIFY_REPORT_DIGESTS = {
    ("c2", 12): (
        "4d85b3657b2e2f0efd77cbc2cd8de98f33629fd8e1e2e80fd77bf1155aed261e",
        "1f17725320cb63a896b8e59978c1f42ba0c565f8bc021dbe9d846dd388f21865",
    ),
    ("odd", 0, 14): (
        "a5048568e055d415fb6da012a6f8abff8d4fc9f536f7c05ccc60284633cdfca0",
        "b87be3ab9a990ef09d4cc0946e1a053fff8a5cffed6e216401f9587d8d5f682d",
    ),
    ("odd", 1, 12): (
        "3fa6b43d82f788ab1650b33c73d15e0f76efffaf3190abd62105f8cae64211d2",
        "741a3810d3a2829e72eee4fcf9149a77a6857314196555d50486b4282a5b9188",
    ),
    ("odd", 2, 11): (
        "bf0d1cc8be3d1d2f72032d565a68c35a9bffc02240c1f7095f1b6e8884f998ef",
        "70c9e633c8e70056da5bad62f8e0f7e8eca81d2fb666f35f22c50ae92ff5f152",
    ),
}


def test_verify_reports_are_pinned():
    """Each report is built once and rendered as the CLI prints it."""
    for case, (text_digest, json_digest) in VERIFY_REPORT_DIGESTS.items():
        if case[0] == "c2":
            report = verify_case_c_le_2(case[1])
        else:
            report = verify_case_odd_diagonal(*case[1:])
        text = report.render_text() + "\n"
        obj = json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == text_digest, case
        assert hashlib.sha256(obj.encode()).hexdigest() == json_digest, case
