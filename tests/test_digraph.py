import random

import pytest

import perron.digraph
from perron.digraph import (
    MultiDigraph,
    canonical_form,
    complexity,
    cycle_digraph,
    cycle_length_gcd,
    enumerate_elementary_cycles,
    is_primitive,
    is_primitive_power,
    is_strongly_connected,
)
from perron.errors import ParameterRangeError, ResourceLimitError
from perron.families import build_shape_22, build_shape_nc, ring_shape
from perron.fixtures import figure1, figure4
from perron.io import parse_digraph

from conftest import random_digraph


def test_complexity_single_cycle():
    for m in (1, 2, 5, 9):
        assert complexity(cycle_digraph(m)) == 0


def test_complexity_fixtures():
    assert figure1().m == 14
    assert figure1().edge_count == 16
    assert complexity(figure1()) == 2
    assert figure4().m == 9
    assert figure4().edge_count == 15
    assert complexity(figure4()) == 6


def test_complexity_can_be_negative():
    d = MultiDigraph.from_rows([[0, 1], [0, 0]])
    assert complexity(d) == -1


def test_strong_connectivity():
    assert is_strongly_connected(cycle_digraph(6))
    assert is_strongly_connected(figure1())
    two_islands = MultiDigraph.from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert not is_strongly_connected(two_islands)
    assert is_strongly_connected(MultiDigraph.from_rows([[0]]))  # single bare vertex


def test_primitivity_basics():
    # pure cycles of length >= 2 have all cycle lengths divisible by m
    for m in (2, 3, 7):
        assert not is_primitive(cycle_digraph(m))
        assert not is_primitive_power(cycle_digraph(m))
    loop = MultiDigraph.from_rows([[1]])
    assert is_primitive(loop)
    assert is_primitive_power(loop)
    bare = MultiDigraph.from_rows([[0]])
    assert not is_primitive(bare)
    assert not is_primitive_power(bare)


def test_primitivity_figure1_shape():
    # cycle lengths 6, 8, 7 have gcd 1
    d = build_shape_22(6, 8, 1, 6)
    assert cycle_length_gcd(d) == 1
    assert is_primitive(d)
    assert is_primitive_power(d)


def test_primitivity_checks_strong_connectivity_once(monkeypatch):
    """One reachability scan each way, not a second pair inside the gcd."""
    scans = 0
    reachable = perron.digraph._reachable

    def counting(*args):
        nonlocal scans
        scans += 1
        return reachable(*args)

    monkeypatch.setattr(perron.digraph, "_reachable", counting)
    assert is_primitive(figure1())
    assert scans == 2


def test_cycle_gcd_matches_cycle_lengths():
    d = build_shape_22(2, 4, 1, 2)  # cycle lengths 2, 4, 3
    lengths = [c.length for c in enumerate_elementary_cycles(d)]
    assert sorted(set(lengths)) == [2, 3, 4]
    g = 0
    for l in lengths:
        g = __import__("math").gcd(g, l)
    assert cycle_length_gcd(d) == g == 1

    d2 = build_shape_22(2, 4, 1, 1)  # cycle lengths 2, 4, 2
    assert cycle_length_gcd(d2) == 2
    assert not is_primitive(d2)


def test_primitivity_methods_agree_on_random_sample():
    # both implementations over >= 10^4 random digraphs with m <= 8
    rng = random.Random(946)
    for _ in range(10_000):
        m = rng.randint(1, 8)
        grid = [
            [rng.randint(1, 2) if rng.random() < 1.7 / m else 0 for _ in range(m)]
            for _ in range(m)
        ]
        d = MultiDigraph.from_rows(grid)
        if not is_strongly_connected(d):
            continue
        assert is_primitive(d) == is_primitive_power(d)
        if is_primitive(d):
            assert is_strongly_connected(d)


def test_elementary_cycles_single_cycle():
    cycles = enumerate_elementary_cycles(cycle_digraph(5))
    assert len(cycles) == 1
    assert cycles[0].length == 5


def test_elementary_cycles_figure1():
    lengths = sorted(c.length for c in enumerate_elementary_cycles(figure1()))
    assert lengths == [6, 7, 8]


def test_elementary_cycles_figure4_contains_seven_cycle():
    cycles = enumerate_elementary_cycles(figure4())
    # vertices 1,2,3,9,6,7,4 (1-based) in some rotation
    want = {0, 1, 2, 8, 5, 6, 3}
    assert any(set(c.vertices) == want and c.length == 7 for c in cycles)


def test_elementary_cycles_multiplicity():
    d = MultiDigraph.from_rows([[2]])
    cycles = enumerate_elementary_cycles(d)
    assert len(cycles) == 2
    assert all(c.vertices == (0,) for c in cycles)


def test_cycle_cap(monkeypatch):
    monkeypatch.setattr(perron.digraph, "CYCLE_CAP_DEFAULT", 2)
    with pytest.raises(ResourceLimitError):
        enumerate_elementary_cycles(figure4())


def test_canonical_form_permutation_invariance(rng):
    for _ in range(60):
        d = random_digraph(rng, m_max=7)
        perm = list(range(d.m))
        rng.shuffle(perm)
        dp = d.permuted(perm)
        assert canonical_form(d) == canonical_form(dp)
        assert complexity(d) == complexity(dp)
        assert is_strongly_connected(d) == is_strongly_connected(dp)
        assert is_primitive(d) == is_primitive(dp)
        assert sorted(c.length for c in enumerate_elementary_cycles(d)) == sorted(
            c.length for c in enumerate_elementary_cycles(dp)
        )


def test_canonical_form_cycles_same_label():
    d1 = cycle_digraph(8)
    perm = [3, 5, 0, 1, 7, 2, 6, 4]
    assert canonical_form(d1) == canonical_form(d1.permuted(perm))


def test_canonical_form_distinguishes_splits():
    # through-cycle split (1,6) vs (6,1) on cycles of lengths 6 and 8
    d1 = build_shape_22(6, 8, 1, 6)
    d2 = build_shape_22(6, 8, 6, 1)
    assert canonical_form(d1) != canonical_form(d2)


def test_canonical_form_agrees_with_networkx_isomorphism(rng):
    nx = pytest.importorskip("networkx")

    def to_nx(d):
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(d.m))
        for i, j, k in d.edges():
            for _ in range(k):
                g.add_edge(i, j)
        return g

    pairs = []
    for _ in range(25):
        d1 = random_digraph(rng, m_max=6)
        d2 = random_digraph(rng, m_max=6)
        pairs.append((d1, d2))
        perm = list(range(d1.m))
        rng.shuffle(perm)
        pairs.append((d1, d1.permuted(perm)))
    for d1, d2 in pairs:
        same = canonical_form(d1) == canonical_form(d2)
        assert same == nx.is_isomorphic(to_nx(d1), to_nx(d2))


def test_canonical_form_size_limit():
    with pytest.raises(ParameterRangeError):
        canonical_form(cycle_digraph(21))


def test_with_edge_and_permuted_validation():
    d = cycle_digraph(3)
    assert d.with_edge(0, 0).mult(0, 0) == 1
    with pytest.raises(ParameterRangeError):
        d.with_edge(3, 0)
    for i, j in (("0", 1), (0.5, 1), (1, None)):
        with pytest.raises(ParameterRangeError, match="pair of integer vertices"):
            d.with_edge(i, j)
        with pytest.raises(ParameterRangeError, match="pair of integer vertices"):
            MultiDigraph.from_edges(3, [(i, j)])
    with pytest.raises(ParameterRangeError):
        d.permuted([0, 0, 1])


def test_rejects_bad_grids():
    with pytest.raises(ParameterRangeError):
        MultiDigraph.from_rows([])
    with pytest.raises(ParameterRangeError):
        MultiDigraph.from_rows([[0, 1], [0]])
    with pytest.raises(ParameterRangeError):
        MultiDigraph.from_rows([[-1]])


def test_public_constructors_reject_bad_grids():
    """The public paths validate every entry: negative, non-integer and
    non-square input is refused with the one error kind."""
    for rows in ([[-1]], [[0, 1], [1, -2]], [[1.5]], [["1"]], [[None]], [[0, 1]], [[0], [1]], []):
        with pytest.raises(ParameterRangeError):
            MultiDigraph.from_rows(rows)
        with pytest.raises(ParameterRangeError):
            MultiDigraph(tuple(map(tuple, rows)))
    for edges in ([(0, 1, -2)], [(0, 1, 1.5)], [(0, 2)], [(-1, 0)]):
        with pytest.raises(ParameterRangeError):
            MultiDigraph.from_edges(2, edges)
    for text in ("2\n1 2 -1\n", "2\n1 2 1.5\n", "2\n1 3\n", "0\n", "2\n1 2 3 4\n"):
        with pytest.raises(ParameterRangeError):
            parse_digraph(text)
    assert MultiDigraph.from_rows([[True, 0], [0, 2]]).rows == ((1, 0), (0, 2))


def test_from_edges_refuses_a_multiplicity_below_one():
    """Each entry's k is checked before it reaches the grid, so a negative k
    cannot cancel earlier parallel edges and a zero k is not dropped."""
    for edges in (
        [(0, 1, 2), (0, 1, -1), (1, 0)],
        [(0, 1, 0), (1, 0)],
        [(0, 1, 1.0), (1, 0)],
        [(0, 1, "2"), (1, 0)],
    ):
        with pytest.raises(ParameterRangeError, match="multiplicities"):
            MultiDigraph.from_edges(2, edges)
    assert MultiDigraph.from_edges(2, [(0, 1, 2), (0, 1), (1, 0, True)]).rows == ((0, 3), (1, 0))


def test_from_edges_refuses_an_entry_of_more_than_three_fields():
    """An extra field is refused, not silently dropped."""
    for edges in ([(0, 1, 1, 99), (1, 0)], [(0, 1), (1, 0, 1, 1, 1)], [(0, 1, 1, None)]):
        with pytest.raises(ParameterRangeError, match=r"\(i, j\) or \(i, j, k\)"):
            MultiDigraph.from_edges(2, edges)
    assert MultiDigraph.from_edges(2, [(0, 1, 1), (1, 0)]).rows == ((0, 1), (1, 0))


def test_internal_builders_keep_the_grid_invariant():
    """Digraphs the library builds without revalidation hold the same square
    grid of non-negative ints that full validation would accept."""
    built = [
        cycle_digraph(5),
        cycle_digraph(4).with_edge(1, 3).with_edge(1, 3),
        figure1().permuted([(v * 5) % 14 for v in range(14)]),
        build_shape_nc(ring_shape((2, 3, 4), (1, 0, 2))),
    ]
    for d in built:
        assert MultiDigraph.from_rows(d.rows) == d
        assert all(type(t) is int and t >= 0 for row in d.rows for t in row)


def test_edges_lists_the_present_slots_in_row_major_order(rng):
    for _ in range(30):
        d = random_digraph(rng, m_max=9, mult_max=3)
        dense = [(i, j, d.rows[i][j]) for i in range(d.m) for j in range(d.m) if d.rows[i][j]]
        assert list(d.edges()) == dense
