"""Bitset graph core: constructors, queries, and clique routines against
itertools brute force on seeded random graphs."""

import random
from itertools import combinations

import pytest
from graph_families import cycle_graph, disjoint_union, empty_graph, path_graph
from oracles import reference_max_stable_sets

from cocritical.canon import nonisomorphic_graphs
from cocritical.construction import ConstructionParams, build
from cocritical.graphs import (
    Graph,
    add_edge,
    bitmask,
    clique_core_in_mask,
    complement,
    complete_graph,
    components,
    enumerate_cliques,
    enumerate_cliques_in_mask,
    has_clique,
    iter_bits,
    make_graph,
    max_stable_sets,
    maximal_cliques,
    twin_classes,
)


def rand_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def relabel(g, perm):
    """Oracle helper: vertex v of g becomes perm[v] of the result."""
    assert sorted(perm) == list(range(g.n))
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def clique_number(g):
    """Oracle helper: order of a largest clique, by branch and bound."""
    best = 0

    def grow(count, cand):
        nonlocal best
        best = max(best, count)
        while cand:
            if count + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            grow(count + 1, g.adj[low.bit_length() - 1] & cand)

    grow(0, g.vertex_mask)
    return best


def is_connected_mask(g, mask):
    """Oracle helper: does the subgraph induced on mask form one component?"""
    if mask == 0:
        return False
    comp = mask & -mask
    frontier = comp
    while frontier:
        grown = 0
        for u in iter_bits(frontier):
            grown |= g.adj[u]
        frontier = grown & mask & ~comp
        comp |= frontier
    return comp == mask


def test_make_graph_validates():
    with pytest.raises(ValueError):
        make_graph(3, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])  # out of range
    with pytest.raises(ValueError):
        make_graph(-1, [])
    with pytest.raises(ValueError, match="^loop at vertex 1$"):
        Graph(2, (0b10, 0b10))
    with pytest.raises(ValueError, match="^asymmetric adjacency 0,1$"):
        Graph(2, (0b10, 0))
    # only a lower bit, so the upper-triangle mirror test alone passes
    with pytest.raises(ValueError, match="^asymmetric adjacency 1,0$"):
        Graph(2, (0, 0b01))


def first_row_fault(n, adj):
    """Oracle helper: the message Graph(n, adj) must raise, or None.  Every
    row is checked for range and loops before any pair for symmetry."""
    for v, row in enumerate(adj):
        if row >> n:
            return f"row {v} refers to vertices >= {n}"
        if row >> v & 1:
            return f"loop at vertex {v}"
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric adjacency {v},{u}"
    return None


def test_graph_validation_names_the_first_fault():
    rng = random.Random(29)
    for _ in range(3000):
        n = rng.randrange(1, 9)
        rows = list(rand_graph(rng, n, rng.random()).adj)
        for _ in range(rng.randrange(0, 3)):
            rows[rng.randrange(n)] ^= 1 << rng.randrange(n + rng.choice([0, 0, 0, 1]))
        want = first_row_fault(n, rows)
        if want is None:
            assert Graph(n, tuple(rows)).adj == tuple(rows)
        else:
            with pytest.raises(ValueError) as err:
                Graph(n, tuple(rows))
            assert str(err.value) == want, rows


def test_basic_queries():
    g = cycle_graph(5)
    assert g.n == 5
    assert g.edge_count() == 5
    assert g.degree_sequence() == (2, 2, 2, 2, 2)
    assert g.has_edge(0, 1) and g.has_edge(4, 0)
    assert not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert g.non_edges() == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def test_known_graphs():
    assert complete_graph(5).edge_count() == 10
    assert empty_graph(4).edge_count() == 0
    assert path_graph(4).edge_count() == 3
    assert complete_graph(1).edge_count() == 0
    assert cycle_graph(3) == complete_graph(3)


def test_add_edge():
    g = path_graph(3)
    g2 = add_edge(g, 0, 2)
    assert g2 == cycle_graph(3)
    with pytest.raises(ValueError):
        add_edge(g, 0, 1)  # already present


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(30):
        g = rand_graph(rng, rng.randrange(1, 9))
        assert complement(complement(g)) == g
        assert g.edge_count() + complement(g).edge_count() == g.n * (g.n - 1) // 2


def test_disjoint_union_and_join():
    a, b = complete_graph(3), complete_graph(2)
    u = disjoint_union(a, b)
    assert u.n == 5 and u.edge_count() == 4
    assert sorted(map(len, components(u))) == [2, 3]


def test_components_and_connectivity():
    g = disjoint_union(cycle_graph(4), path_graph(3))
    comps = components(g)
    assert [sorted(c) for c in comps] == [[0, 1, 2, 3], [4, 5, 6]]
    assert is_connected_mask(g, bitmask([0, 1, 2, 3]))
    assert not is_connected_mask(g, bitmask([0, 4]))
    assert is_connected_mask(g, bitmask([5]))


def test_relabel():
    g = cycle_graph(5)
    p = relabel(g, (4, 3, 2, 1, 0))
    assert p.edge_count() == 5 and p.degree_sequence() == g.degree_sequence()


def test_iter_bits_bitmask_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        s = sorted(rng.sample(range(60), rng.randrange(0, 12)))
        assert sorted(iter_bits(bitmask(s))) == s


def brute_cliques(g, size):
    return [
        frozenset(c)
        for c in combinations(range(g.n), size)
        if all(g.has_edge(u, v) for u, v in combinations(c, 2))
    ]


def test_clique_routines_against_brute_force():
    rng = random.Random(991)
    for _ in range(60):
        n = rng.randrange(1, 9)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        omega = max((s for s in range(1, n + 1) if brute_cliques(g, s)), default=0)
        assert clique_number(g) == omega
        for size in range(1, n + 2):
            want = brute_cliques(g, size)
            assert has_clique(g, size) == bool(want)
            assert sorted(enumerate_cliques(g, size)) == sorted(want)


def test_enumerate_cliques_in_mask():
    g = complete_graph(5)
    inside = enumerate_cliques_in_mask(g, bitmask([0, 2, 4]), 2)
    assert sorted(inside) == sorted(
        [frozenset({0, 2}), frozenset({0, 4}), frozenset({2, 4})]
    )


def test_clique_core_in_mask_against_brute_force():
    rng = random.Random(4391)
    for _ in range(60):
        n = rng.randrange(1, 9)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        mask = rng.randrange(1 << n)
        inside = frozenset(iter_bits(mask))
        for size in range(1, len(inside) + 2):
            want = [c for c in brute_cliques(g, size) if c <= inside]
            core = clique_core_in_mask(g, mask, size)
            if not want:
                assert core is None
            else:
                assert core == frozenset.intersection(*want)
    # ids stay the graph's own: inside {5, 7, 9} the one K_2 is the edge 79
    assert clique_core_in_mask(make_graph(10, [(7, 9)]), bitmask([5, 7, 9]), 2) == {7, 9}
    with pytest.raises(ValueError):
        clique_core_in_mask(complete_graph(3), 0b111, 0)


def test_maximal_cliques_against_networkx():
    # every floor from 1 to n + 1 on every class up to 7 vertices and on
    # seeded G(n, p) graphs up to 24 vertices
    nx = pytest.importorskip("networkx")
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    rng = random.Random(2006)
    for _ in range(120):
        graphs.append(rand_graph(rng, rng.randrange(1, 25), rng.choice([0.3, 0.6, 0.9])))
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        want = sorted((len(c), bitmask(c)) for c in nx.find_cliques(h))
        for floor in range(1, g.n + 2):
            got = sorted(maximal_cliques(g, floor))
            assert got == sorted(m for size, m in want if size >= floor), (g.adj, floor)


def test_maximal_cliques_edge_cases():
    assert maximal_cliques(empty_graph(0)) == []
    assert maximal_cliques(empty_graph(3)) == [0b001, 0b010, 0b100]
    assert maximal_cliques(empty_graph(3), 2) == []
    # every vertex of K_6 has degree 5 = floor - 1, so the degree filter
    # keeps them all; the pendant vertex 6 goes, and so does its edge
    g = make_graph(7, [(u, v) for u in range(6) for v in range(u + 1, 6)] + [(0, 6)])
    assert maximal_cliques(g, 6) == [0b0111111]
    assert sorted(maximal_cliques(g, 2)) == [0b0111111, 0b1000001]
    assert maximal_cliques(g, 7) == []
    # three disjoint triangles; the cap stops the enumeration at two
    triangles = disjoint_union(complete_graph(3), disjoint_union(complete_graph(3), complete_graph(3)))
    assert len(maximal_cliques(triangles, 3)) == 3
    assert len(maximal_cliques(triangles, 3, cap=2)) == 2
    with pytest.raises(ValueError):
        maximal_cliques(g, 0)


def brute_max_stable(g):
    """Oracle helper: alpha and every maximum stable set, lexicographic."""
    best = 0
    sets = []
    for r in range(g.n, 0, -1):
        for c in combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in combinations(c, 2)):
                sets.append(frozenset(c))
        if sets:
            best = r
            break
    return best, sets


def test_max_stable_sets_against_brute_force():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = rand_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert max_stable_sets(g) == brute_max_stable(g), g.adj
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            assert max_stable_sets(g) == brute_max_stable(g), g.adj


def complete_multipartite(sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return make_graph(len(part), [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]])


@pytest.mark.parametrize(
    "g",
    [
        empty_graph(1),
        empty_graph(7),
        # disjoint K2s on interleaved labels: 2^(n/2) maximum stable sets
        make_graph(8, [(0, 4), (1, 5), (2, 6), (3, 7)]),
        make_graph(12, [(v, v + 1) for v in range(0, 12, 2)]),
        cycle_graph(5),
        cycle_graph(7),
        complete_graph(4),
        complete_multipartite([3, 3, 3]),
        complete_multipartite([1, 4, 2, 4]),
        complete_multipartite([2, 2, 2, 2, 2]),
    ],
    ids=lambda g: f"n{g.n}e{g.edge_count()}",
)
def test_max_stable_sets_on_tie_heavy_graphs(g):
    # many maximum stable sets of one size: the family and its order must
    # survive the clique-cover cut, which keeps ties
    assert max_stable_sets(g) == brute_max_stable(g)


def test_max_stable_sets_against_the_complement_on_corpus_sized_graphs():
    # G(n, m) graphs shaped like the props corpus: the family must equal the
    # maximum cliques of the complement, in the same (lexicographic) order
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(12, 24)
        m = rng.randint(21, n * (n - 1) // 4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = make_graph(n, rng.sample(pairs, m))
        co = complement(g)
        alpha = clique_number(co)
        got = max_stable_sets(g)
        assert got == (alpha, enumerate_cliques(co, alpha)), g.adj
        assert got == reference_max_stable_sets(g), g.adj


def brute_twin_classes(g):
    # straight from the definitions: closed twins N[u] = N[w], open twins
    # N(u) = N(w); a vertex takes its closed class when that is non-trivial
    def closed(u, w):
        same = all(g.has_edge(u, x) == g.has_edge(w, x) for x in range(g.n) if x not in (u, w))
        return same and (u == w or g.has_edge(u, w))

    def opened(u, w):
        return all(g.has_edge(u, x) == g.has_edge(w, x) for x in range(g.n))

    classes = set()
    for v in range(g.n):
        cls = frozenset(w for w in range(g.n) if closed(v, w))
        if len(cls) == 1:
            cls = frozenset(w for w in range(g.n) if opened(v, w))
        classes.add(cls)
    return sorted(classes, key=min)


def test_twin_classes_match_definition():
    checked = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            classes = twin_classes(g)
            assert classes == brute_twin_classes(g)
            # a partition of the vertices, and each class is all closed or all open twins
            assert sorted(v for c in classes for v in c) == list(range(n))
            for c in classes:
                ends = sorted(c)[:2]
                if len(ends) == 2:
                    adjacent = g.has_edge(*ends)
                    assert all(g.has_edge(u, w) == adjacent for u, w in combinations(c, 2))
                # any permutation inside a class is an automorphism: test the cycle
                perm = list(range(n))
                members = sorted(c)
                for a, b in zip(members, members[1:] + members[:1]):
                    perm[a] = b
                assert relabel(g, perm) == g
            checked += 1
    assert checked == 1 + 2 + 4 + 11 + 34 + 156


@pytest.mark.parametrize(
    "t, k, n, sizes",
    [
        (4, 3, 13, [1] * 9 + [2] * 2),
        (5, 3, 17, [1] * 13 + [2] * 2),
        (4, 4, 18, [1] * 4 + [2] * 4 + [3] * 2),
    ],
)
def test_twin_class_sizes_of_frozen_instances(t, k, n, sizes):
    classes = twin_classes(build(ConstructionParams(t, k, n)))
    assert sorted(len(c) for c in classes) == sizes
