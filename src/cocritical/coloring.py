"""Two-colorings of graph edges and vertex-block partitions.

A coloring is *good* for parameters (t, k) when the red side has no clique on
t vertices and every blue component spans fewer than k vertices.  The blue
condition is a pure component-size bound: a blue component on k or more
vertices contains a spanning tree on k of them, and conversely every tree on k
vertices needs a component that large, so no subtree search is ever required.

Block partitions are the search-side view of the same object: grouping the
vertices into connected blocks and coloring exactly the within-block edges
blue turns a partition into a coloring, and the blue components of a good
coloring recover such a partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    """Disjoint vertex blocks, ordered by smallest member, sizes <= max_block."""

    blocks: tuple[frozenset[int], ...]
    max_block: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if len(b) > self.max_block:
                raise ValueError(f"block of size {len(b)} exceeds bound {self.max_block}")
            if seen & b:
                raise ValueError("blocks overlap")
            seen |= b
        mins = [min(b) for b in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks not ordered by smallest member")

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    def size_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))


def make_partition(blocks: Iterable[Iterable[int]], max_block: int | None = None) -> BlockPartition:
    """Normalize block order; max_block defaults to the largest block size."""
    frozen = [frozenset(b) for b in blocks]
    frozen.sort(key=lambda b: min(b) if b else -1)
    if max_block is None:
        max_block = max((len(b) for b in frozen), default=1)
    return BlockPartition(tuple(frozen), max_block)


def _check_cover(g: Graph, p: BlockPartition) -> None:
    covered = p.vertices()
    expected = frozenset(range(g.n))
    if covered != expected:
        missing = sorted(expected - covered)
        extra = sorted(covered - expected)
        raise ValueError(f"partition does not match vertex set (missing {missing}, extra {extra})")


def partition_to_coloring(g: Graph, p: BlockPartition) -> EdgeColoring:
    """Within-block edges blue, cross edges red."""
    _check_cover(g, p)
    blue = []
    for b in p.blocks:
        mask = bitmask(b)
        for v in b:
            row = g.adj[v] & mask
            blue.extend((v, u) for u in _bits_above(row, v))
    return make_coloring(g, blue)


def _bits_above(mask: int, v: int) -> Iterable[int]:
    return iter_bits(mask >> (v + 1) << (v + 1))


def cross_graph(g: Graph, p: BlockPartition) -> Graph:
    """g with every within-block edge removed; only block-crossing edges remain."""
    _check_cover(g, p)
    rows = list(g.adj)
    for b in p.blocks:
        mask = bitmask(b)
        for v in b:
            rows[v] &= ~mask
    return Graph(g.n, tuple(rows))


def blue_blocks(c: EdgeColoring) -> BlockPartition:
    """Blue components of a coloring as a partition (isolated vertices included)."""
    comps = components(c.blue_graph())
    return make_partition(comps)

