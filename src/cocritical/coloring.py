"""Two-colorings of graph edges and vertex-block partitions.

A coloring is *good* for parameters (t, k) when the red side has no clique on
t vertices and every blue component spans fewer than k vertices.  The blue
condition is a pure component-size bound: a blue component on k or more
vertices contains a spanning tree on k of them, and conversely every tree on k
vertices needs a component that large, so no subtree search is ever required.

Block partitions are the search-side view of the same object: grouping the
vertices into connected blocks and coloring exactly the within-block edges
blue turns a partition into a coloring, and the blue components of a good
coloring recover such a partition.  A partition holds its blocks as vertex
bitmasks, the format the partition walk works in, and block_rows owns the
split of a graph's rows into block and cross rows: the walk's leaf steps,
cross_graph, partition_to_coloring and the structure checks all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, bitmask, components, has_clique, iter_bits, make_graph

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError("loop is not an edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class EdgeColoring:
    """Partition of a graph's edges into red and blue, stored as its blue side.

    blue holds normalized pairs (u < v), each an edge of base; every other
    edge of base is red.
    """

    base: Graph
    blue: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blue", frozenset(self.blue))
        if not self.blue <= frozenset(self.base.edges()):
            raise ValueError("blue edges must be edges (u, v) of the base graph with u < v")

    @property
    def red(self) -> frozenset[Edge]:
        return frozenset(self.base.edges()) - self.blue

    def red_graph(self) -> Graph:
        return make_graph(self.base.n, self.red)

    def blue_graph(self) -> Graph:
        return make_graph(self.base.n, self.blue)


def make_coloring(g: Graph, blue: Iterable[Edge]) -> EdgeColoring:
    """Coloring of g with the given edges blue and the rest red."""
    return EdgeColoring(g, frozenset(normalize_edge(u, v) for u, v in blue))


def check_parameters(t: int, k: int) -> None:
    """Reject a clique order t or a tree order k below 2, naming which."""
    for name, value in (("t", t), ("k", k)):
        if value < 2:
            raise ValueError(f"{name} must be at least 2, got {value}")


def is_critical(c: EdgeColoring, t: int, k: int) -> bool:
    """No red clique on t vertices and every blue component below k vertices."""
    check_parameters(t, k)
    if has_clique(c.red_graph(), t):
        return False
    return all(len(comp) <= k - 1 for comp in components(c.blue_graph()))


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint nonempty vertex blocks as bitmasks, ordered by lowest vertex."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = 0
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("blocks overlap")
            seen |= b
        lows = [b & -b for b in self.blocks]
        if lows != sorted(lows):
            raise ValueError("blocks not ordered by smallest member")

    def size_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(b.bit_count() for b in self.blocks))

    def to_json(self) -> list[list[int]]:
        """Each block as its ascending vertex list."""
        return [list(iter_bits(b)) for b in self.blocks]


def make_partition(blocks: Iterable[Iterable[int]]) -> BlockPartition:
    """Partition from vertex iterables, ordered by smallest member."""
    return BlockPartition(tuple(sorted(map(bitmask, blocks), key=lambda b: b & -b)))


def block_rows(adj: Sequence[int], blocks: Iterable[int]) -> tuple[list[int], list[int]]:
    """Per vertex, the mask of its block (0 when no block holds it) and its
    row of the cross graph: its neighbours in other blocks, for the graph
    with adjacency rows adj."""
    block_of = [0] * len(adj)
    for m in blocks:
        for v in iter_bits(m):
            block_of[v] = m
    return block_of, [row & ~block_of[v] for v, row in enumerate(adj)]


def within_edges(adj: Sequence[int], block_of: Sequence[int]) -> list[Edge]:
    """The edges (u, v), u < v, that lie inside a block, in ascending order."""
    return [(u, v) for u, row in enumerate(adj) for v in iter_bits(row & block_of[u] >> (u + 1) << (u + 1))]


def _check_cover(g: Graph, p: BlockPartition) -> None:
    covered = sum(p.blocks)  # the blocks are disjoint
    if covered != g.vertex_mask:
        missing = list(iter_bits(g.vertex_mask & ~covered))
        extra = list(iter_bits(covered & ~g.vertex_mask))
        raise ValueError(f"partition does not match vertex set (missing {missing}, extra {extra})")


def partition_to_coloring(g: Graph, p: BlockPartition) -> EdgeColoring:
    """Within-block edges blue, cross edges red."""
    _check_cover(g, p)
    return make_coloring(g, within_edges(g.adj, block_rows(g.adj, p.blocks)[0]))


def cross_graph(g: Graph, p: BlockPartition) -> Graph:
    """g with every within-block edge removed; only block-crossing edges remain."""
    _check_cover(g, p)
    return Graph(g.n, tuple(block_rows(g.adj, p.blocks)[1]))


def blue_blocks(c: EdgeColoring) -> BlockPartition:
    """Blue components of a coloring as a partition (isolated vertices included)."""
    return make_partition(components(c.blue_graph()))
