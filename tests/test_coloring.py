"""Edge colorings, block partitions, and the correspondence between them."""

import random

import pytest

from cocritical.coloring import (
    BlockPartition,
    EdgeColoring,
    blue_blocks,
    cross_graph,
    is_critical,
    make_coloring,
    make_partition,
    normalize_edge,
    partition_to_coloring,
)
from cocritical.graphs import complete_graph, cycle_graph, make_graph


def rand_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        normalize_edge(2, 2)


def test_make_coloring_partitions_edges():
    g = complete_graph(4)
    c = make_coloring(g, [(0, 1), (2, 3)])
    assert set(c.blue) == {(0, 1), (2, 3)}
    assert set(c.red) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    # blue edges given in either orientation normalize to the same coloring
    assert make_coloring(g, [(1, 0), (3, 2)]) == c
    with pytest.raises(ValueError):
        make_coloring(cycle_graph(4), [(0, 2)])  # not an edge


def test_coloring_validation():
    g = make_graph(3, [(0, 1), (1, 2)])  # the path 0-1-2
    assert EdgeColoring(g, ((0, 1),)).red == {(1, 2)}
    with pytest.raises(ValueError, match="of the base graph"):
        EdgeColoring(g, ((0, 1), (0, 2)))  # (0,2) is not an edge
    with pytest.raises(ValueError, match="of the base graph"):
        EdgeColoring(g, ((1, 0),))  # reversed pair


def test_is_critical_on_k4():
    g = complete_graph(4)
    # blue perfect matching leaves a red 4-cycle: no red triangle, blue pairs
    c = make_coloring(g, [(0, 1), (2, 3)])
    assert is_critical(c, 3, 3)
    # a single blue edge leaves a red triangle
    c = make_coloring(g, [(0, 1)])
    assert not is_critical(c, 3, 3)
    # blue triangle is a 3-vertex component: too big for k = 3
    c = make_coloring(g, [(0, 1), (0, 2), (1, 2)])
    assert not is_critical(c, 3, 3)
    assert is_critical(c, 3, 4)


def test_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition((frozenset({0, 1}), frozenset({1, 2})), 2)  # overlap
    with pytest.raises(ValueError):
        BlockPartition((frozenset({0, 1, 2}),), 2)  # block too big
    with pytest.raises(ValueError):
        BlockPartition((frozenset(),), 2)  # empty block
    p = BlockPartition((frozenset({0, 1}), frozenset({2})), 2)
    assert p.max_block == 2


def test_make_partition_normalizes_order():
    p = make_partition([[2, 3], [0, 1]], 2)
    assert [sorted(b) for b in p.blocks] == [[0, 1], [2, 3]]
    assert make_partition([[0, 1], [2]]).max_block == 2


def test_partition_coloring_correspondence():
    g = complete_graph(4)
    p = make_partition([[0, 1], [2, 3]], 2)
    c = partition_to_coloring(g, p)
    assert set(c.blue) == {(0, 1), (2, 3)}
    assert blue_blocks(c) == p


def test_disconnected_block_refines():
    # a block with no internal edge contributes nothing blue, so recovering
    # the blue components splits it into singletons
    g = cycle_graph(4)
    p = make_partition([[0, 2], [1, 3]], 2)
    c = partition_to_coloring(g, p)
    assert c.blue == frozenset()
    assert blue_blocks(c).size_multiset() == (1, 1, 1, 1)


def test_cross_graph_strips_block_interiors():
    g = complete_graph(4)
    p = make_partition([[0, 1], [2, 3]], 2)
    h = cross_graph(g, p)
    assert h.edge_count() == 4
    assert not h.has_edge(0, 1) and not h.has_edge(2, 3)
    assert h.has_edge(0, 2) and h.has_edge(1, 3)


def test_blue_blocks_of_random_critical_colorings():
    # any coloring whose blue side is a matching splits into blocks <= 2
    rng = random.Random(404)
    for _ in range(25):
        g = rand_graph(rng, rng.randrange(2, 9))
        edges = g.edges()
        if not edges:
            continue
        rng.shuffle(edges)
        blue, used = [], set()
        for u, v in edges:
            if u not in used and v not in used:
                blue.append((u, v))
                used.update((u, v))
        c = make_coloring(g, blue)
        p = blue_blocks(c)
        assert all(len(b) <= 2 for b in p.blocks)
        assert partition_to_coloring(g, p) == c

