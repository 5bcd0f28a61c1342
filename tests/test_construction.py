"""Parameterized construction: frozen instance values, closed-form edge
counts, bound formulas, and the good coloring that comes with the build."""

from fractions import Fraction

import pytest
from oracles import enumerate_critical_colorings

from cocritical.coloring import blue_blocks, is_critical
from cocritical.construction import (
    ANALYZED_CLIQUE_ORDERS,
    ConstructionParams,
    block_edge_lower_bound,
    blueprint_coloring,
    build,
    expected_edge_count,
    lower_bound_slope,
    min_order,
    ramsey_number,
    role_layout,
    turan_edges,
    upper_bound_edges,
    upper_bound_offset,
)

GRID = [(t, k) for t in (4, 5) for k in range(3, 9)]


def test_ramsey_number():
    assert ramsey_number(3, 3) == 5
    assert ramsey_number(3, 4) == 7
    assert ramsey_number(4, 3) == 7
    assert ramsey_number(4, 4) == 10
    assert ramsey_number(5, 5) == 17
    with pytest.raises(ValueError):
        ramsey_number(1, 3)


def test_turan_edges():
    assert turan_edges(2, 4) == 4  # balanced bipartite C_4
    assert turan_edges(3, 6) == 12  # balanced tripartite on 2+2+2
    assert turan_edges(3, 7) == 16  # parts 3+2+2
    assert turan_edges(5, 5) == 10  # one vertex per part: complete graph
    assert turan_edges(1, 6) == 0


def test_bound_formulas_frozen_values():
    assert lower_bound_slope(4, 3) == Fraction(9, 2)
    assert lower_bound_slope(4, 6) == Fraction(5)
    assert upper_bound_offset(4, 3) == Fraction(-25, 2)
    assert upper_bound_offset(4, 4) == Fraction(6)
    assert upper_bound_edges(4, 3, 13) == Fraction(46)
    assert upper_bound_edges(4, 4, 18) == Fraction(87)
    assert block_edge_lower_bound(4, 3, 13) == Fraction(5)


def test_params_validation():
    assert min_order(4, 3) == 13
    assert min_order(4, 4) == 18
    with pytest.raises(ValueError):
        ConstructionParams(4, 3, 12)  # below threshold
    with pytest.raises(ValueError):
        ConstructionParams(2, 3, 30)
    with pytest.raises(ValueError):
        ConstructionParams(4, 2, 30)


def test_warnings_outside_analyzed_orders():
    assert ConstructionParams(4, 3, 13).warnings() == ()
    assert ConstructionParams(5, 3, 20).warnings() == ()
    warned = ConstructionParams(6, 4, 40).warnings()
    assert len(warned) == 1 and "6" in warned[0]
    assert 6 not in ANALYZED_CLIQUE_ORDERS


def test_layout_partitions_vertex_ids():
    for t, k in GRID:
        p = ConstructionParams(t, k, min_order(t, k) + 5)
        lay = role_layout(p)
        assert len(lay.anchor) == k - 1
        assert len(lay.hubs) == t - 2 and all(len(h) == k - 2 for h in lay.hubs)
        assert len(lay.satellites) == t - 2 and all(len(s) == k - 2 for s in lay.satellites)
        assert len(lay.apexes) == t - 2 and len(lay.near_apexes) == t - 2
        assert all(len(f) <= (k + 1) // 2 + 1 for f in lay.fillers)
        base = lay.base_vertices()
        assert sorted(base + lay.apexes + lay.near_apexes) == list(range(p.n))


def test_instance_4_3_13():
    p = ConstructionParams(4, 3, 13)
    g = build(p)
    assert g.n == 13
    assert g.edge_count() == 44
    assert len(g.non_edges()) == 34
    c = blueprint_coloring(p)
    assert is_critical(c, 4, 3)
    assert len(c.blue) == 6 and len(c.red) == 38
    assert blue_blocks(c).size_multiset() == (1, 2, 2, 2, 2, 2, 2)


def test_instance_4_4_18():
    p = ConstructionParams(4, 4, 18)
    g = build(p)
    assert g.n == 18
    assert g.edge_count() == 87
    assert Fraction(g.edge_count()) == upper_bound_edges(4, 4, 18)
    assert len(g.non_edges()) == 66
    c = blueprint_coloring(p)
    assert is_critical(c, 4, 4)
    assert blue_blocks(c).size_multiset() == (3, 3, 3, 3, 3, 3)


def test_good_colorings_of_frozen_instances():
    # both instances admit exactly two good colorings, the blueprint among
    # them, and all with the same block-size multiset
    for t, k, n in ((4, 3, 13), (4, 4, 18)):
        p = ConstructionParams(t, k, n)
        colorings = enumerate_critical_colorings(build(p), t, k)
        assert len(colorings) == 2
        blueprint = blueprint_coloring(p)
        assert blueprint.blue in {c.blue for c in colorings}
        multisets = {blue_blocks(c).size_multiset() for c in colorings}
        assert multisets == {blue_blocks(blueprint).size_multiset()}


def test_grid_edge_counts_and_bounds():
    for t, k in GRID:
        thr = min_order(t, k)
        for n in range(thr, thr + 11):
            p = ConstructionParams(t, k, n)
            g = build(p)
            assert g.edge_count() == expected_edge_count(p), (t, k, n)
            assert Fraction(g.edge_count()) <= upper_bound_edges(t, k, n), (t, k, n)
            assert g.edge_count() <= turan_edges(ramsey_number(t, k) - 1, n), (t, k, n)
            c = blueprint_coloring(p)
            assert is_critical(c, t, k), (t, k, n)
            assert max(blue_blocks(c).size_multiset()) <= k - 1
