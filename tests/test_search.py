import hashlib
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

import perron.charpoly
import perron.polynomial
import perron.search
import perron.spectral
from perron.charpoly import _census_of_core, char_poly_ct
from perron.digraph import (
    MultiDigraph,
    canonical_form,
    complexity,
    cycle_digraph,
    is_strongly_connected,
)
from perron.errors import CounterexampleError, ParameterRangeError, ResourceLimitError
from perron.families import (
    Shape,
    _ring_polynomial,
    build_shape_22,
    build_shape_nc,
    c4_polynomial,
    hironaka_bound,
    lt_polynomial,
    ring_shape,
    ring_shape_with_through,
)
from perron.fixtures import figure4
from perron.polynomial import IntPolynomial, _pdivmod, _sign_at, format_polynomial, parse_polynomial
from perron.search import (
    ENUMERATION_CAP_DEFAULT,
    FIGURE4_POLYNOMIAL,
    FIGURE4_SEVEN_CYCLE,
    count_realizations,
    enumerate_digraphs,
    genus_candidates,
    verify_case_c_le_2,
    verify_case_odd_diagonal,
    _chord_shapes,
    _compositions,
    _cores,
    _partitions_le,
    _ring_classes,
    _ring_shapes,
    _subdivide,
    _weak_compositions,
    _decide_candidate,
)
from perron.spectral import largest_real_root

from oracles import smooth


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


def test_enumerate_m_limit_and_cap(monkeypatch):
    with pytest.raises(ParameterRangeError):
        enumerate_digraphs(15, 1)
    monkeypatch.setattr(perron.search, "ENUMERATION_CAP_DEFAULT", 10)
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_digraphs(12, 2)
    assert exc.value.estimate is not None and exc.value.estimate > 10


def test_enumerate_checks_the_core_cap_before_labelling(monkeypatch):
    def no_labels(d):
        raise AssertionError("a digraph was labelled before the cap was checked")

    monkeypatch.setattr(perron.search, "canonical_form", no_labels)
    monkeypatch.setattr(perron.search, "ENUMERATION_CAP_DEFAULT", 10)
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_digraphs(12, 2)
    assert exc.value.estimate is not None and exc.value.estimate > 10


def test_enumerate_classes_are_pinned():
    """SHA-256 of the concatenated canonical forms, in the returned order, of
    the classes at complexities 2..4, sizes the brute-force oracle cannot reach."""
    digest = hashlib.sha256()
    for m, c in ((6, 2), (5, 3), (4, 4)):
        for d in enumerate_digraphs(m, c):
            digest.update(canonical_form(d))
    assert digest.hexdigest() == "d7e4f014d9d098d395e667ee8d478a5500172d8f32de2e1ed0b035cff5d1072d"


def test_subdivision_smooths_back_to_its_core(rng):
    """Smoothing a subdivided core gives back the core's arcs, each parallel
    edge i -> j with interior new vertices as one arc of length interior + 1
    (arcs of length 1 merge into one arc weighted by their count)."""
    for core in _cores(3, 6):
        edges = list(core.edges())
        for _ in range(4):
            assignment = [tuple(rng.randrange(4) for _ in range(k)) for _, _, k in edges]
            V, arcs, lengths, weights = smooth(_subdivide(core, assignment).rows)
            assert V == core.m
            smoothed = Counter()
            for arc, length, weight in zip(arcs, lengths, weights):
                smoothed[arc, length] += weight
            expected = Counter(
                ((i, j), interior + 1)
                for (i, j, _), parts in zip(edges, assignment)
                for interior in parts
            )
            assert smoothed == expected, (core.rows, assignment)


def test_enumerate_matches_brute_force_at_complexity_3():
    for m in (2, 3):
        assert len(enumerate_digraphs(m, 3)) == brute_force_class_count(m, 3), m


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


def test_count_realizations_counts_every_realized_polynomial(monkeypatch):
    """At the benchmark's count degrees and every m <= 6 of the one-edge
    shapes, each polynomial that the shape enumeration realizes is counted at
    its number of classes; a plain ring base (c - n <= 1) takes its polynomial
    from the closed form, so no cycle census runs."""
    census_calls = 0

    def counting(d):
        nonlocal census_calls
        census_calls += 1
        return char_poly_ct(d)

    monkeypatch.setattr(perron.search, "char_poly_ct", counting)
    for n, c, ms in ((2, 3, (4, 5)), (1, 2, range(1, 7)), (2, 2, range(1, 7))):
        for m in ms:
            classes = Counter(char_poly_ct(d) for d in enumerate_digraphs(m, c, n_cycles=n))
            for p, realized in classes.items():
                assert count_realizations(p, n, c) == realized, (p, n, c)
    assert census_calls == 0
    # a ring plus a prefix of extra edges has no closed form and keeps the census
    count_realizations(parse_polynomial("x^3 - 1"), 1, 3)
    assert census_calls > 0


def test_shape_classes_equal_the_classes_of_every_rotation():
    """The shape enumeration builds one ring per class of cyclic rotations;
    its classes are those of every ring, rotations included, times every
    multiset of extra edges."""
    for n in range(1, 4):
        for c in range(n, n + 3):
            for m in range(n, 6):
                forms = set()
                for *_, shape in _ring_shapes(n, m):
                    base = build_shape_nc(shape)
                    for extra in itertools.combinations_with_replacement(range(m * m), c - n):
                        grid = [list(row) for row in base.rows]
                        for s in extra:
                            grid[s // m][s % m] += 1
                        forms.add(canonical_form(MultiDigraph.from_rows(grid)))
                enumerated = [canonical_form(d) for d in enumerate_digraphs(m, c, n_cycles=n)]
                assert enumerated == sorted(forms), (m, c, n)


def test_count_realizations_checks_the_cap_before_building(monkeypatch):
    p = lt_polynomial(7, 6)
    with pytest.raises(ResourceLimitError) as enumerated:
        enumerate_digraphs(p.degree, 9, n_cycles=2)

    def no_rings(*args):
        raise AssertionError("a ring was built before the cap was checked")

    monkeypatch.setattr(perron.search, "_ring_shapes", no_rings)
    monkeypatch.setattr(perron.search, "build_shape_nc", no_rings)
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
            for lengths, exits, shape in _ring_shapes(n, m):
                dg = build_shape_nc(shape)
                assert char_poly_ct(dg) == ring_polynomial(lengths, exits), (lengths, exits)
                # count_realizations takes a plain ring's polynomial from this closed form
                assert _ring_polynomial(lengths, n + sum(exits)) == ring_polynomial(lengths, exits)
                placements += 1
    assert placements == 3587


def test_odd_ring_sweep_requires_p1_minus_one_and_neither_class(monkeypatch):
    for poly, message in (
        ("x^2 - 3", r"^\(3,3\) ring placement on m=3 has p\(1\) = -2, expected -1$"),
        ("x^2 - 3x + 1", r"^\(3,3\) ring placement on m=3 misclassified$"),
    ):
        monkeypatch.setattr(
            perron.search, "_census_checks", lambda d, core, cores, p=parse_polynomial(poly): p
        )
        with pytest.raises(CounterexampleError, match=message):
            verify_case_odd_diagonal(1, 6)


def test_each_labelled_core_is_walked_once_per_sweep(monkeypatch):
    """A sweep walks the cycles of each distinct labelled core that it checks
    once: those of every chord placement and of the first placement of each
    ring class.  It keeps no cores after it returns: a second run walks them
    all again."""
    calls = 0
    walk = perron.charpoly._weighted_cycles

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return walk(*args, **kwargs)

    def labelled_cores(shapes):
        keys = set()
        for s in shapes:
            V, arcs, _, _ = smooth(build_shape_nc(s).rows)
            keys.add((V, tuple(arcs)))
        return len(keys)

    c2_placements = sum(
        len(list(_ring_shapes(1, m))) + len(list(_chord_shapes(m))) + len(list(_ring_shapes(2, m)))
        for m in range(1, 7)
    )
    c2_checked = [
        s
        for m in range(1, 7)
        for s in itertools.chain(
            (s for *_, s in _ring_shapes(1, m)),
            (s for _, s in _chord_shapes(m)),
            (s for *_, s in _ring_classes(2, m)),
        )
    ]
    ring_placements = sum(len(list(_ring_shapes(3, m))) for m in range(3, 8))
    ring_checked = [s for m in range(3, 8) for *_, s in _ring_classes(3, m)]
    monkeypatch.setattr(perron.charpoly, "_weighted_cycles", counting)
    for sweep, placements, checked in (
        (lambda: verify_case_c_le_2(6), c2_placements, c2_checked),
        (lambda: verify_case_odd_diagonal(1, 7), ring_placements, ring_checked),
    ):
        cores = labelled_cores(checked)
        for _ in range(2):
            calls = 0
            report = sweep()
            assert report.total == placements
            assert calls == cores < report.total


def test_each_checked_placement_is_smoothed_once(monkeypatch):
    """A sweep smooths each chord placement and each ring class's first
    placement once: the class's cycle check and its census share one core."""
    calls = 0
    core = Shape._core

    def counting(shape):
        nonlocal calls
        calls += 1
        return core(shape)

    chords = sum(
        len(list(_ring_shapes(1, m))) + len(list(_chord_shapes(m))) for m in range(1, 9)
    )
    c2_classes = sum(len(list(_ring_classes(2, m))) for m in range(1, 9))
    odd_classes = sum(len(list(_ring_classes(5, m))) for m in range(5, 10))
    monkeypatch.setattr(Shape, "_core", counting)
    for sweep, checked in (
        (lambda: verify_case_c_le_2(8), chords + c2_classes),
        (lambda: verify_case_odd_diagonal(2, 9), odd_classes),
    ):
        calls = 0
        sweep()
        assert calls == checked


def test_ring_classes_partition_the_ring_placements():
    """Grouped by (sorted lengths, through length), the ring placements are
    the classes of ``_ring_classes``: the same groups in the same order, of
    the same sizes, each named by its first placement, and every placement
    has its class's polynomial."""
    for n in range(1, 6):
        for m in range(n, 12):
            groups = {}
            for lengths, exits, shape in _ring_shapes(n, m):
                key = (tuple(sorted(lengths)), n + sum(exits))
                groups.setdefault(key, []).append((lengths, exits, shape))
            classes = list(_ring_classes(n, m))
            assert [
                (key, len(members), members[0]) for key, members in groups.items()
            ] == [
                ((lengths, n + sum(exits)), size, (lengths, exits, shape))
                for lengths, exits, size, shape in classes
            ], (n, m)
            cores = {}
            for (lengths, exits, _, shape), members in zip(classes, groups.values()):
                first = _census_of_core(m, shape._core(), cores)[0]
                for *_, member in members:
                    assert _census_of_core(m, member._core(), cores)[0] == first, (lengths, exits)


def test_ring_sweeps_read_each_class_key_off_its_union_tree(monkeypatch):
    """A class whose first placement has other cycles than its lengths and
    exits name is refused, in both ring sweeps."""
    classes = perron.search._ring_classes

    def mislabelled(n, m):
        found = list(classes(n, m))
        for (lengths, exits, size, _), (*_, ring) in zip(found, found[1:] + found[:1]):
            yield lengths, exits, size, ring

    monkeypatch.setattr(perron.search, "_ring_classes", mislabelled)
    for sweep in (lambda: verify_case_c_le_2(4), lambda: verify_case_odd_diagonal(1, 5)):
        with pytest.raises(CounterexampleError, match=r"^ring \(.*\) with exits \(.*\) has cycles"):
            sweep()


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
    report = genus_candidates(11, 5, m_max=26)
    for s in report.survivors:
        assert s.info["family"] in ("lt", "c4")
        if s.representative is not None:
            assert char_poly_ct(s.representative) == s.polynomial


def test_genus_candidates_builds_digraphs_only_when_read(monkeypatch):
    """A survivor keeps its ring shape: the search and its renderings build no
    digraph, and each read of a representative builds one."""
    built = []
    from_grid = MultiDigraph.__dict__["_from_grid"].__func__

    def counting(cls, grid):
        built.append(len(grid))
        return from_grid(cls, grid)

    monkeypatch.setattr(MultiDigraph, "_from_grid", classmethod(counting))
    report = genus_candidates(8, 4)
    assert built == [] and report.survivors
    report.render_text()
    report.to_json_obj()
    assert built == []
    for s in report.survivors:
        s.representative
    assert len(built) == len(report.survivors)


def test_genus_survivor_shapes_equal_the_checked_ring_shapes(monkeypatch):
    """The search makes its survivors' shapes with no argument checks; each
    equals the one that ``ring_shape`` or ``ring_shape_with_through`` gives:
    an LT survivor's ring exits at offsets 0 and d - 2, a c4 survivor's
    through-cycle has length d.  Rendering the report as text expands no
    survivor's arcs."""
    for g in range(5, 12):
        for s in genus_candidates(g, 4).survivors:
            d, a = s.info["d"], s.info["a"]
            if s.info["family"] == "lt":
                assert s.shape == ring_shape((a, 2 * d - a), (0, d - 2)), s.info
            else:
                assert s.shape == ring_shape_with_through(a, d), s.info
    expanded = []
    arcs = Shape.arcs

    def counting(shape):
        expanded.append(shape)
        return arcs(shape)

    monkeypatch.setattr(Shape, "arcs", counting)
    report = genus_candidates(8, 4)
    assert report.render_text() and report.survivors
    assert expanded == []


def test_verify_sweeps_build_grids_only_for_primitivity_checks(monkeypatch):
    """The verify sweeps smooth each placement from its shape: the odd rings
    build no grid, and the c2 sweep builds one only for each primitivity check
    of a palindromic (2,2) class."""
    built = []
    from_grid = MultiDigraph.__dict__["_from_grid"].__func__

    def counting(cls, grid):
        built.append(len(grid))
        return from_grid(cls, grid)

    checks = 0
    primitive = perron.search.is_primitive

    def counting_primitive(d):
        nonlocal checks
        checks += 1
        return primitive(d)

    monkeypatch.setattr(MultiDigraph, "_from_grid", classmethod(counting))
    monkeypatch.setattr(perron.search, "is_primitive", counting_primitive)
    assert verify_case_odd_diagonal(2, 9).total > 0
    assert built == [] and checks == 0
    report = verify_case_c_le_2(8)
    assert 0 < checks < report.total
    assert len(built) <= checks


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


def test_decide_reads_no_trace_for_a_survivor():
    bound = hironaka_bound(6, Fraction(1, 10**7))
    below = lt_polynomial(15, 14)
    assert _decide_candidate((14, 16), 15, below, bound)[0] == "survivor"
    assert "_trace" not in vars(below)


@pytest.mark.parametrize("g, kept, total", [(6, 182, 620), (8, 474, 2383)])
def test_genus_search_eliminates_by_ring_sign_before_building(monkeypatch, g, kept, total):
    """The ring sign at the bound's upper end is the search's one elimination
    there: it is read once per candidate, only the candidates it keeps get a
    polynomial and a decision, and every decided polynomial is non-negative at
    that end.  The decision reads the sign at the bound's lower end only for the
    few candidates whose own bracket does not settle them."""
    signs, built, decided = {}, [], []  # signs: the signs read at each point
    ring_sign_at = perron.search._ring_sign_at
    ring_polynomial = perron.search._ring_polynomial
    decide = perron.search._decide_candidate

    def counting_sign(lengths, t, num, den):
        sign = ring_sign_at(lengths, t, num, den)
        signs.setdefault(Fraction(num, den), []).append(sign)
        return sign

    def counting_polynomial(*args):
        built.append(args)
        return ring_polynomial(*args)

    def counting_decide(lengths, through, poly, bound):
        decided.append((poly, bound))
        return decide(lengths, through, poly, bound)

    monkeypatch.setattr(perron.search, "_ring_sign_at", counting_sign)
    monkeypatch.setattr(perron.search, "_ring_polynomial", counting_polynomial)
    monkeypatch.setattr(perron.search, "_decide_candidate", counting_decide)
    report = genus_candidates(g, 4)
    bound = hironaka_bound(g, Fraction(1, 10**7)).bound
    upper = signs.pop(bound.hi)
    assert report.total == len(upper) == total
    assert len(built) == len(decided) == sum(s >= 0 for s in upper) == kept
    assert {x: len(read) for x, read in signs.items()} == {bound.lo: {6: 3, 8: 2}[g]}
    for poly, genus_bound in decided:
        assert genus_bound.bound.hi == bound.hi
        assert _sign_at(poly.coeffs, *bound.hi.as_integer_ratio()) >= 0


def _decide_at_genus(g):
    """The genus-g bound at 1e-7, and ``_decide_candidate`` of a ring
    candidate against it."""
    bound = hironaka_bound(g, Fraction(1, 10**7))
    return bound.bound, lambda lengths, t: _decide_candidate(
        lengths, t, _ring_polynomial(lengths, t), bound
    )


def test_decide_reports_the_bound_bracket_for_candidates_the_bound_divides():
    bound, decide = _decide_at_genus(7)
    bound_poly, c4 = lt_polynomial(8, 7), c4_polynomial(16, (9, 9, 7, 7))
    assert not any(_pdivmod(c4.coeffs, bound_poly.coeffs)[1])
    own = largest_real_root(c4, Fraction(1, 10**7))
    assert (own.lo, own.hi) != (bound.lo, bound.hi)  # another grid, so the pin below bites
    for ring in (((7, 9), 8), ((9, 9, 7, 7), 16)):
        status, lam = decide(*ring)
        assert status == "survivor"
        assert (lam.lo, lam.hi) == (bound.lo, bound.hi)


def test_decide_reports_the_own_bracket_without_a_bound():
    tol = Fraction(1, 10**7)
    poly = lt_polynomial(6, 5)
    status, lam = _decide_candidate((5, 7), 6, poly, None)
    own = largest_real_root(poly, tol)
    assert status == "survivor" and (lam.lo, lam.hi) == (own.lo, own.hi)


def test_decide_with_a_coarse_bracket_straddling_the_bound(monkeypatch):
    """At candidate tolerance 1/10 the candidate's own bracket contains the
    bound's lower end, so the bracket alone decides nothing."""
    coarse = Fraction(1, 10)
    bound, decide = _decide_at_genus(6)
    monkeypatch.setattr(perron.search, "_SEARCH_TOL", coarse)
    below, above = lt_polynomial(7, 5), lt_polynomial(6, 4)
    for poly in (below, above):
        lam = largest_real_root(poly, coarse)
        assert lam.lo < bound.lo < lam.hi
    status, lam = decide((5, 9), 7)
    own = largest_real_root(below, coarse)
    assert status == "survivor" and (lam.lo, lam.hi) == (own.lo, own.hi)


@pytest.mark.parametrize(
    "g, total, survivors, above, inconclusive", [(6, 620, 179, 435, 6), (8, 2383, 470, 1885, 28)]
)
def test_genus_search_counts_inconclusive_comparisons(monkeypatch, g, total, survivors, above, inconclusive):
    """At search tolerance 1/1000 some candidates' roots lie in the bound's
    bracket without the bound polynomial dividing them: the search counts them
    apart from the eliminated and names the tolerance in a note."""
    monkeypatch.setattr(perron.search, "_SEARCH_TOL", Fraction(1, 1000))
    report = genus_candidates(g, 4)
    assert report.total == total and len(report.survivors) == survivors
    assert report.eliminated == {"lambda_above_bound": above, "inconclusive": inconclusive}
    assert f"inconclusive root comparisons at tolerance 1/1000: {inconclusive}" in report.notes


def test_genus_search_certifies_each_survivor_once(monkeypatch):
    """Each survivor's Descartes certificate comes from its own bracket, with
    no second count at the bound: the 474 survivors of g = 8 and the bound
    make 475 calls, against 946 when every survivor was counted twice."""
    calls = 0
    original = perron.spectral.descartes_roots_above

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "perron" and getattr(module, "descartes_roots_above", None) is original:
            monkeypatch.setattr(module, "descartes_roots_above", counting)
    report = genus_candidates(8, 4)
    assert len(report.survivors) == 474
    assert calls <= 475


def test_genus_search_takes_no_general_root_route(monkeypatch):
    """Ring signs and the one-root lemma decide every candidate and the bound:
    no Descartes or Sturm count, no general bracket and no trace polynomial."""
    calls = Counter()
    for name in ("descartes_roots_above", "count_roots_above", "_sturm_bracket", "largest_real_root"):
        original = getattr(perron.spectral, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "perron" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    traces = []
    trace_coeffs = perron.polynomial._trace_coeffs
    monkeypatch.setattr(perron.polynomial, "_trace_coeffs", lambda cs: traces.append(cs) or trace_coeffs(cs))
    report = genus_candidates(8, 4)
    assert len(report.survivors) == 474
    assert calls == Counter() and traces == []


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
    """The (1,1), (1,2) and (2,2) placements of the ring and chord generators,
    built as digraphs, are those of the direct constructions, in the same
    order."""

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
        swept_11 = [(s + 1, build_shape_nc(shape)) for _, (s,), shape in _ring_shapes(1, m)]
        swept_12 = [(case, build_shape_nc(shape)) for case, shape in _chord_shapes(m)]
        swept_22 = [
            (a1, a2, e1 + 1, e2 + 1, build_shape_nc(shape))
            for (a1, a2), (e1, e2), shape in _ring_shapes(2, m)
        ]
        assert rows(swept_11) == rows(shape_11)
        assert rows(swept_12) == rows(shape_12)
        assert rows(swept_22) == rows(shape_22)


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


def test_weak_compositions_match_their_recursive_definition():
    def direct(total, parts):
        if parts == 1:
            return [(total,)]
        return [
            (first,) + rest
            for first in range(total + 1)
            for rest in direct(total - first, parts - 1)
        ]

    for total in range(-2, 16):
        for parts in range(1, 8):
            assert list(_weak_compositions(total, parts)) == direct(total, parts), (total, parts)


def test_partitions_le_match_their_recursive_definition():
    # the order matters: _partitions_exact feeds the c4 genus candidates
    def direct(total, parts, cap):
        if parts == 1:
            return [(total,)] if total <= cap else []
        return [
            (first,) + rest
            for first in range(min(total, cap), -1, -1)
            if total - first <= first * (parts - 1)
            for rest in direct(total - first, parts - 1, first)
        ]

    for total in range(16):
        for parts in range(1, 8):
            assert list(_partitions_le(total, parts)) == direct(total, parts, total), (total, parts)


def test_enumerate_one_vertex_with_many_loops():
    # the one core, a vertex with 1001 loops, has a group of 1001 parallel arcs
    classes = enumerate_digraphs(1, 1000)
    assert len(classes) == 1
    assert classes[0].rows == ((1001,),)


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
    ("c2", 14): (
        "ec2c70208c025dff367cd4287861dce2a4014e95d94ada65e32fc3f637e48f4b",
        "24a6a68a9e994cfb9a67cbc1afa31c3cf200bcc51038dc2c27cfa9fe8c2dcb31",
    ),
    ("odd", 2, 12): (
        "08616a486487d542d832f83b4e86feaec7ac64f6574123418bc2e3ae1620048b",
        "fc6abbadff55ec38cca89c1e8894afec88b5028eead175858d3dcaaf9e4911ac",
    ),
    ("odd", 1, 14): (
        "0bfda7132cdbedbc1dc3d67fe3c2910fa1278b0b03d1ebbf32ec68ea1670bfa0",
        "2ad5eadb88bad9f5722b381732a3c72c988fbef91fce8236e94e77506b95974b",
    ),
    ("odd", 2, 14): (
        "80d80f0a1d1c023adbaf4ce5d9e381127c7f9a56f8ae3c52dc09e128620740a2",
        "0687801bf9fb1f9ec52cd78b3f6f9313482ba591c0911625004850d3c73e211b",
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
