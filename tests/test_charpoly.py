import random
from collections import Counter

import pytest

from perron.charpoly import (
    _core_census,
    _edge_placement_coeffs,
    char_poly_ct,
    char_poly_oracle,
    enumerate_linear_subdigraphs,
)
from perron.digraph import MultiDigraph, _smooth, complexity, cycle_digraph
from perron.errors import ParameterRangeError, ResourceLimitError
from perron.fixtures import figure1, figure4
from perron.polynomial import (
    IntPolynomial,
    PalindromeClass,
    classify_palindrome,
    parse_polynomial,
)
from perron.search import sweep_ring, sweep_shape_11, sweep_shape_12, sweep_shape_22

from conftest import random_digraph

FIG1_POLY = parse_polynomial("x^14 - x^8 - x^7 - x^6 + 1")
FIG4_POLY = parse_polynomial("x^9 - 2x^8 + x^7 - 4x^5 + 4x^4 - x^2 + 2x - 1")


def test_figure1_both_methods():
    assert char_poly_ct(figure1()) == FIG1_POLY
    assert char_poly_oracle(figure1()) == FIG1_POLY


def test_figure4_both_methods():
    assert char_poly_ct(figure4()) == FIG4_POLY
    assert char_poly_oracle(figure4()) == FIG4_POLY


def test_single_cycle_and_loop():
    for m in (1, 2, 6):
        coeffs = [1] + [0] * (m - 1) + [-1]
        assert char_poly_ct(cycle_digraph(m)) == IntPolynomial(tuple(coeffs))
    assert char_poly_ct(MultiDigraph.from_rows([[1]])) == parse_polynomial("x - 1")


def test_oracle_zero_matrix():
    for m in (1, 3, 7):
        d = MultiDigraph.from_rows([[0] * m for _ in range(m)])
        assert char_poly_oracle(d) == IntPolynomial(tuple([1] + [0] * m))


def test_multiplicities_enter_the_census():
    # doubled loop: single 1-vertex subdigraph of weight 2
    assert char_poly_ct(MultiDigraph.from_rows([[2]])) == parse_polynomial("x - 2")
    # doubled edge on a 2-cycle
    d = MultiDigraph.from_rows([[0, 2], [1, 0]])
    assert char_poly_ct(d) == parse_polynomial("x^2 - 2")
    assert char_poly_oracle(d) == parse_polynomial("x^2 - 2")


def test_ct_equals_oracle_on_random_digraphs(rng):
    for _ in range(200):
        d = random_digraph(rng, m_max=9, mult_max=2)
        assert char_poly_ct(d) == char_poly_oracle(d)


def test_charpoly_invariant_under_permutation(rng):
    for _ in range(40):
        d = random_digraph(rng, m_max=8)
        perm = list(range(d.m))
        rng.shuffle(perm)
        assert char_poly_ct(d) == char_poly_ct(d.permuted(perm))


def test_b1_is_minus_trace(rng):
    for _ in range(200):
        d = random_digraph(rng, m_max=9)
        trace = sum(d.rows[i][i] for i in range(d.m))
        assert char_poly_ct(d).b(1) == -trace


def test_linear_subdigraph_census_figure1():
    by_size = {}
    for L in enumerate_linear_subdigraphs(figure1()):
        by_size.setdefault(L.vertex_count, []).append(L)
    assert sorted(by_size) == [6, 7, 8, 14]
    assert all(len(v) == 1 for v in by_size.values())
    assert by_size[6][0].cycle_count == 1
    assert by_size[7][0].cycle_count == 1
    assert by_size[8][0].cycle_count == 1
    assert by_size[14][0].cycle_count == 2


def test_linear_subdigraphs_filtered_by_size():
    assert len(enumerate_linear_subdigraphs(figure1(), 14)) == 1
    assert len(enumerate_linear_subdigraphs(figure1(), 7)) == 1
    assert enumerate_linear_subdigraphs(cycle_digraph(5), 3) == []


def test_spanning_census_matches_bm(rng):
    for _ in range(60):
        d = random_digraph(rng, m_max=7)
        p = char_poly_ct(d)
        spanning = enumerate_linear_subdigraphs(d, d.m)
        signed = sum((-1) ** L.cycle_count * L.weight for L in spanning)
        assert p.b(d.m) == signed
        if abs(p.b(d.m)) == 1:
            assert spanning


def test_census_by_size_matches_both_routes(rng):
    """Every size filter of the census is the filtered full census, and its
    signed weight sum is that coefficient of both characteristic polynomials."""
    for _ in range(60):
        m = rng.randint(1, 7)
        density = rng.uniform(1.0, 2.5) / m
        grid = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]
        d = MultiDigraph.from_rows(grid)
        every = enumerate_linear_subdigraphs(d)
        ct, oracle = char_poly_ct(d), char_poly_oracle(d)
        for i in range(m + 1):
            sized = enumerate_linear_subdigraphs(d, i)
            assert sized == [L for L in every if L.vertex_count == i]
            # the empty union, which is not listed, gives b_0 = 1
            signed = (i == 0) + sum((-1) ** L.cycle_count * L.weight for L in sized)
            assert signed == ct.b(i) == oracle.b(i)


def test_linear_subdigraphs_match_networkx_cycle_unions():
    """Every union of pairwise vertex-disjoint networkx cycles, weighted by the
    product of its edge multiplicities, is listed once, and nothing else is."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(16180)
    for _ in range(60):
        m = rng.randint(1, 6)
        density = rng.uniform(0.8, 2.5) / m
        grid = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]
        d = MultiDigraph.from_rows(grid)
        g = nx.DiGraph((i, j) for i in range(m) for j in range(m) if grid[i][j])
        cycles = []
        for cyc in nx.simple_cycles(g):
            start = cyc.index(min(cyc))
            vertices = tuple(cyc[start:] + cyc[:start])
            weight = 1
            for u, v in zip(vertices, vertices[1:] + vertices[:1]):
                weight *= grid[u][v]
            cycles.append((vertices, weight))

        expected = Counter()

        def unions(first, used, chosen, weight):
            for k in range(first, len(cycles)):
                vertices, w = cycles[k]
                if used.isdisjoint(vertices):
                    union = chosen | {vertices}
                    expected[union, weight * w] += 1
                    unions(k + 1, used | set(vertices), union, weight * w)

        unions(0, frozenset(), frozenset(), 1)
        listed = Counter(
            (frozenset(c.vertices for c in L.cycles), L.weight)
            for L in enumerate_linear_subdigraphs(d)
        )
        assert listed == expected


def test_edge_placement_update_matches_both_routes(rng):
    """The rank-one update gives the polynomial of every single-edge placement,
    loops and doubled edges included, on digraphs that need not be strongly
    connected."""
    for _ in range(60):
        m = rng.randint(1, 7)
        density = rng.uniform(0.5, 2.5) / m
        grid = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]
        d = MultiDigraph.from_rows(grid)
        placements = _edge_placement_coeffs(d.rows, char_poly_ct(d).coeffs)
        for i in range(m):
            for j in range(m):
                e = d.with_edge(i, j)
                assert placements[i][j] == char_poly_ct(e).coeffs == char_poly_oracle(e).coeffs


def test_no_spanning_cover_forces_bm_zero():
    # triangle 0-1-2 with a pendant 2-cycle at vertex 1: no disjoint cycles
    # cover all four vertices
    d = MultiDigraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 1)])
    p = char_poly_ct(d)
    assert p.b(4) == 0
    assert not enumerate_linear_subdigraphs(d, 4)
    assert classify_palindrome(p) is PalindromeClass.NEITHER


def test_vertex_limits():
    with pytest.raises(ParameterRangeError):
        char_poly_ct(cycle_digraph(65))
    with pytest.raises(ParameterRangeError):
        char_poly_ct(cycle_digraph(15), max_m=14)


def test_subdigraph_cap():
    with pytest.raises(ResourceLimitError):
        char_poly_ct(figure1(), cap=3)


# ---------------------------------------------------------------------------
# the polynomial summed over the smoothed core's unions
# ---------------------------------------------------------------------------

def core_polynomial(d, cores=None):
    b, _ = _core_census(d.rows, {} if cores is None else cores)
    return IntPolynomial(tuple(b))


def swept_digraphs(m):
    """Every digraph the verify sweeps build on m vertices: the (1,1), (1,2)
    and (2,2) shapes and the rings of three and of five cycles."""
    yield from (d for _, d in sweep_shape_11(m))
    yield from (d for _, d in sweep_shape_12(m))
    yield from (d for *_, d in sweep_shape_22(m))
    for n in (3, 5):
        yield from (d for *_, d in sweep_ring(n, m))


def test_core_sum_matches_both_routes_on_every_small_swept_digraph():
    cores = {}
    seen = 0
    for m in range(1, 10):
        for d in swept_digraphs(m):
            assert core_polynomial(d, cores) == char_poly_ct(d) == char_poly_oracle(d)
            seen += 1
    assert seen > 20 * len(cores)  # many digraphs share each labelled core


def test_core_sum_matches_both_routes_on_a_sample_of_larger_swept_digraphs():
    rng = random.Random(314159)
    cores = {}
    for m in range(10, 15):
        sample = [d for d in swept_digraphs(m) if rng.random() < 0.004]
        assert sample
        for d in sample:
            assert core_polynomial(d, cores) == char_poly_ct(d) == char_poly_oracle(d)


def test_core_sum_matches_both_routes_on_random_multidigraphs(rng):
    """Digraphs that need not be strongly connected, with sources, sinks,
    loops, multiple edges and bare-cycle components."""
    bare = [
        cycle_digraph(6),  # a bare cycle: its core is one vertex with a loop of length 6
        MultiDigraph.from_edges(1, [(0, 0)]),
        # a triangle with a chord beside a bare 4-cycle on vertices 3..6
        MultiDigraph.from_edges(7, [(0, 1), (1, 2), (2, 0), (1, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
        MultiDigraph.from_edges(3, []),
    ]
    randoms = []
    for _ in range(60 - len(bare)):
        m = rng.randint(1, 9)
        density = rng.uniform(0.5, 2.5) / m
        grid = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]
        randoms.append(MultiDigraph.from_rows(grid))
    for d in bare + randoms:
        assert core_polynomial(d) == char_poly_ct(d) == char_poly_oracle(d)
        V, arcs, lengths, weights = _smooth(d.rows)
        assert sum(weights) - V == complexity(d)
    assert _smooth(bare[0].rows) == (1, [(0, 0)], [6], [1])
    assert _smooth(bare[2].rows)[0] == 3  # two branch vertices and one kept from the 4-cycle


def test_core_census_reports_the_largest_spanning_union(rng):
    for _ in range(40):
        d = random_digraph(rng, m_max=7)
        _, most = _core_census(d.rows, {})
        spanning = enumerate_linear_subdigraphs(d, d.m)
        assert most == (max(L.cycle_count for L in spanning) if spanning else None)
