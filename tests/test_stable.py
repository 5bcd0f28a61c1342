"""Maximum stable set family facts and the whole-graph clique core
(graphs.clique_core_in_mask on every vertex), the clique core cross-checked
against brute force on every small graph."""

import random
from itertools import combinations

import pytest
from graph_families import cycle_graph, disjoint_union, empty_graph, path_graph
from test_graphs import clique_number

from cocritical.canon import nonisomorphic_graphs
from cocritical.graphs import clique_core_in_mask, complete_graph, enumerate_cliques, make_graph
from cocritical.stable import (
    hajnal_check,
    stable_family_stats,
    stable_intersection_check,
)


def rand_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def clique_core(g, size):
    """The clique core of the whole graph, None when it has no such clique."""
    return clique_core_in_mask(g, g.vertex_mask, size)


def star(leaves):
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_family_stats_examples():
    s = stable_family_stats(cycle_graph(4))
    assert s.alpha == 2
    assert s.family == (frozenset({0, 2}), frozenset({1, 3}))
    assert s.intersection == frozenset() and s.union == frozenset(range(4))

    s = stable_family_stats(star(3))
    assert s.alpha == 3
    assert s.family == (frozenset({1, 2, 3}),)
    assert s.intersection == frozenset({1, 2, 3})

    s = stable_family_stats(path_graph(3))
    assert s.alpha == 2 and s.intersection == frozenset({0, 2})


def test_hajnal_examples():
    r = hajnal_check(cycle_graph(4))
    assert r.passed and r.intersection_size + r.union_size == 2 * r.alpha
    r = hajnal_check(star(3))
    assert r.passed and r.intersection_size == 3 and r.union_size == 3
    assert hajnal_check(complete_graph(5)).passed  # alpha 1: 1 + 5 >= 2


def test_hajnal_exhaustive_small():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            assert hajnal_check(g).passed


def test_stable_intersection_examples():
    # star: alpha 3 > 4/2, core 3 >= 1 + 6 - 4
    r = stable_intersection_check(star(3))
    assert r.applicable and r.passed
    assert r.lower_bound == 3 and r.intersection_size == 3
    assert not r.moreover_applicable

    # not applicable when alpha <= n/2
    r = stable_intersection_check(cycle_graph(4))
    assert not r.applicable and r.passed is None

    # isolated vertex plus an edge: core is exactly the isolated vertex
    g = disjoint_union(empty_graph(1), complete_graph(2))
    r = stable_intersection_check(g)
    assert r.applicable and r.passed
    assert r.intersection_size == 1
    assert r.moreover_applicable and r.moreover_passed


def test_stable_intersection_exhaustive_small():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            r = stable_intersection_check(g)
            if r.applicable:
                assert r.passed
                if r.moreover_applicable:
                    assert r.moreover_passed


def test_clique_core_examples():
    # K_4 minus an edge: both triangles share the opposite edge
    g = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert clique_core(g, 3) == frozenset({2, 3})
    assert clique_core(complete_graph(4), 4) == frozenset(range(4))
    # every vertex is a 1-clique, so nothing is common
    assert clique_core(complete_graph(3), 1) == frozenset()
    assert clique_core(path_graph(3), 3) is None  # no triangle to intersect
    with pytest.raises(ValueError):
        clique_core(path_graph(3), 0)


def test_clique_core_is_not_bound_by_the_stable_set_cap():
    # cliques are enumerated in g itself, so the n <= 24 guard of the
    # stable-set family does not apply
    assert clique_core(complete_graph(30), 30) == frozenset(range(30))


def brute_core(g, size):
    found = [
        frozenset(c)
        for c in combinations(range(g.n), size)
        if all(g.has_edge(u, v) for u, v in combinations(c, 2))
    ]
    core = frozenset(range(g.n))
    for s in found:
        core &= s
    return core, found


def test_clique_core_routes_agree():
    # enumeration agrees with brute force at the clique number and at every
    # size below it, on every graph with up to 6 vertices
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            omega = clique_number(g)
            if omega == 0:
                continue
            via_module = clique_core(g, omega)
            expect, found = brute_core(g, omega)
            assert found
            assert via_module == expect
            for size in range(1, omega):
                assert clique_core(g, size) == brute_core(g, size)[0]


def test_clique_core_random():
    rng = random.Random(8128)
    for _ in range(60):
        g = rand_graph(rng, rng.randrange(2, 9), rng.choice([0.4, 0.6, 0.8]))
        omega = clique_number(g)
        core = clique_core(g, omega)
        expect, _ = brute_core(g, omega)
        assert core == expect
        assert all(core <= q for q in enumerate_cliques(g, omega))
