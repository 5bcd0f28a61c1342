"""Canonical labeling and generation of small graphs up to isomorphism.

Labeling runs in two stages: iterated neighborhood refinement splits the
vertices into cells that any isomorphism must respect, then a backtracking
pass over cell-respecting orderings picks the one whose adjacency bit string
is lexicographically smallest.  The refinement signatures are built purely
from color multisets, so isomorphic graphs refine to matching cell structures
and end up with identical canonical forms.  Labeling is guarded to
``CANONICAL_ORDER_CAP`` (10) vertices, beyond which the backtracking over
large cells gets slow; exhaustive generation is guarded separately to 8
vertices (12,346 classes), the most the minimum search scans.

Generation grows each class by one vertex, but only by neighborhoods in which
the new vertex has minimum degree (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998, restricts the last vertex in the same way).
Every other attachment is skipped before it is labeled.
"""

from __future__ import annotations

from .graphs import Graph, iter_bits, relabel

CANONICAL_ORDER_CAP = 10


def _refine(g: Graph) -> list[list[int]]:
    """Split vertices into ordered cells no isomorphism can tell apart."""
    n = g.n
    colors = [0] * n
    while True:
        sigs = []
        for v in range(n):
            nbr = tuple(sorted(colors[u] for u in iter_bits(g.adj[v])))
            sigs.append((colors[v], nbr))
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [palette[s] for s in sigs]
        if fresh == colors:
            break
        colors = fresh
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    n = g.n
    if n > CANONICAL_ORDER_CAP:
        raise ValueError(f"canonical labeling guarded to n <= {CANONICAL_ORDER_CAP}")
    if n <= 1:
        return g
    cells = _refine(g)
    adj = g.adj
    best: list[int] | None = None
    best_order: list[int] | None = None
    order: list[int] = []
    current: list[int] = []

    def rec(cell_idx: int, remaining: tuple[int, ...], tight: bool) -> None:
        nonlocal best, best_order
        level = len(order)
        if level == n:
            if best is None or current < best:
                best = current.copy()
                best_order = order.copy()
            return
        if not remaining:
            rec(cell_idx + 1, tuple(cells[cell_idx + 1]), tight)
            return
        for i, v in enumerate(remaining):
            row = adj[v]
            bits = 0
            for placed in order:
                bits = bits << 1 | (row >> placed & 1)
            child_tight = tight
            if best is not None and tight:
                if bits > best[level]:
                    continue
                child_tight = bits == best[level]
            current.append(bits)
            order.append(v)
            rec(cell_idx, remaining[:i] + remaining[i + 1 :], child_tight)
            order.pop()
            current.pop()

    rec(0, tuple(cells[0]), True)
    assert best_order is not None
    perm = [0] * n
    for pos, v in enumerate(best_order):
        perm[v] = pos
    return relabel(g, perm)


def canonical_key(g: Graph) -> tuple[int, ...]:
    """Hashable isomorphism-class fingerprint: canonical adjacency rows."""
    return canonical_graph(g).adj


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_key(a) == canonical_key(b)


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """Every graph on exactly n vertices, one per isomorphism class.

    Built by leveling up: each class g on m vertices is extended by every new
    neighborhood S in which the new vertex has minimum degree, that is
    deg_g(u) + [u in S] >= |S| for every old vertex u, and the children are
    deduplicated canonically.  Returns canonical representatives sorted by
    edge count, then adjacency rows.

    Soundness: every graph H on m+1 vertices has a vertex v of minimum degree.
    H - v is isomorphic to a listed class g, by some map phi.  Attaching a new
    vertex to phi(N(v)) gives a copy of H in which the new vertex has minimum
    degree, so the filter keeps that copy and no class is lost.
    """
    if not 1 <= n <= 8:
        raise ValueError("exhaustive generation guarded to 1 <= n <= 8")
    level = [Graph(1, (0,))]
    for m in range(1, n):
        seen: dict[tuple[int, ...], Graph] = {}
        for g in level:
            degrees = g.degree_sequence()
            low = min(degrees)
            # |S| <= low always passes; |S| == low + 1 passes only when S
            # holds every vertex of degree low; larger S never passes
            lowest = sum(1 << u for u, d in enumerate(degrees) if d == low)
            for nbhd in range(1 << m):
                size = nbhd.bit_count()
                if size > low and (size > low + 1 or lowest & ~nbhd):
                    continue
                rows = [row | ((nbhd >> v & 1) << m) for v, row in enumerate(g.adj)]
                rows.append(nbhd)
                key = canonical_key(Graph(m + 1, tuple(rows)))
                if key not in seen:
                    seen[key] = Graph(m + 1, key)
        level = list(seen.values())
    level.sort(key=lambda g: (g.edge_count(), g.adj))
    return level
