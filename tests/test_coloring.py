"""Edge colorings, block partitions, and the correspondence between them."""

import random

import pytest
from graph_families import cycle_graph

from cocritical.coloring import (
    BlockPartition,
    EdgeColoring,
    block_rows,
    blue_blocks,
    cross_graph,
    is_critical,
    make_coloring,
    make_partition,
    normalize_edge,
    partition_to_coloring,
    within_edges,
)
from cocritical.graphs import complete_graph, iter_bits, make_graph


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
    # blocks are vertex masks
    with pytest.raises(ValueError, match="overlap"):
        BlockPartition((0b011, 0b110))
    with pytest.raises(ValueError, match="empty"):
        BlockPartition((0b011, 0))
    with pytest.raises(ValueError, match="not ordered"):
        BlockPartition((0b100, 0b011))
    # the lowest vertex orders the blocks, not the mask's value
    with pytest.raises(ValueError, match="not ordered"):
        BlockPartition((0b0110, 0b1001))
    p = BlockPartition((0b011, 0b100))
    assert p.size_multiset() == (1, 2)
    assert p.to_json() == [[0, 1], [2]]
    assert BlockPartition((0b1001, 0b0110)).to_json() == [[0, 3], [1, 2]]


def test_make_partition_normalizes_order():
    p = make_partition([[2, 3], [0, 1]])
    assert p.blocks == (0b0011, 0b1100)
    assert p.to_json() == [[0, 1], [2, 3]]
    # any vertex iterables, in any order inside a block
    q = make_partition(iter([(3, 0), {1}, range(2, 3), frozenset({4, 5})]))
    assert q.to_json() == [[0, 3], [1], [2], [4, 5]]
    assert make_partition([]) == BlockPartition(())
    with pytest.raises(ValueError, match="empty"):
        make_partition([[0], []])
    with pytest.raises(ValueError, match="overlap"):
        make_partition([[0, 1], [1, 2]])


def test_partition_coloring_correspondence():
    g = complete_graph(4)
    p = make_partition([[0, 1], [2, 3]])
    c = partition_to_coloring(g, p)
    assert set(c.blue) == {(0, 1), (2, 3)}
    assert blue_blocks(c) == p


def test_disconnected_block_refines():
    # a block with no internal edge contributes nothing blue, so recovering
    # the blue components splits it into singletons
    g = cycle_graph(4)
    p = make_partition([[0, 2], [1, 3]])
    c = partition_to_coloring(g, p)
    assert c.blue == frozenset()
    assert blue_blocks(c).size_multiset() == (1, 1, 1, 1)


def test_cross_graph_strips_block_interiors():
    g = complete_graph(4)
    p = make_partition([[0, 1], [2, 3]])
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
        assert all(b.bit_count() <= 2 for b in p.blocks)
        assert partition_to_coloring(g, p) == c



def random_partition(rng, n):
    """Vertices 0..n-1 dealt into random, not necessarily connected, blocks."""
    blocks = [[] for _ in range(rng.randrange(1, n + 1))]
    for v in range(n):
        rng.choice(blocks).append(v)
    return make_partition(b for b in blocks if b)


def test_block_and_cross_rows_match_a_per_edge_reference():
    rng = random.Random(2025)
    for _ in range(60):
        n = rng.randrange(1, 10)
        g = rand_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
        p = random_partition(rng, n)
        home = {v: set(b) for b in p.to_json() for v in b}
        block_of, cross = block_rows(g.adj, p.blocks)
        assert [set(iter_bits(m)) for m in block_of] == [home[v] for v in range(n)]
        assert [set(iter_bits(row)) for row in cross] == [
            {u for u in iter_bits(g.adj[v]) if u not in home[v]} for v in range(n)
        ]
        inside = [(u, v) for u, v in g.edges() if v in home[u]]
        assert within_edges(g.adj, block_of) == inside
        assert cross_graph(g, p).edges() == [(u, v) for u, v in g.edges() if v not in home[u]]
        assert partition_to_coloring(g, p).blue == frozenset(inside)
    # a vertex that no block holds has the empty block mask and its full row
    assert block_rows(complete_graph(3).adj, [0b011]) == ([0b011, 0b011, 0], [0b100, 0b100, 0b011])
