"""Canonical labeling and generation of small graphs up to isomorphism.

One labeler, ``_label``, works on adjacency rows (tuples of int bitmasks).
It runs in two stages: iterated neighborhood refinement splits the vertices
into cells that any isomorphism must respect, then a backtracking pass over
cell-respecting orderings picks the one whose adjacency bit string is
lexicographically smallest.  The refinement signatures are built purely from
color multisets, so isomorphic graphs refine to matching cell structures and
end up with identical canonical forms.  Labeling is guarded to
``CANONICAL_ORDER_CAP`` (10) vertices, beyond which the backtracking over
large cells gets slow; exhaustive generation is guarded separately to
``GENERATION_ORDER_CAP`` vertices (12,346 classes at 8), which is also the
most the minimum search scans.

The backtracking prunes a branch only when its prefix equals the best
string's prefix and its next row is larger, comparing against the best found
so far (not against the best when the frame was entered, which would stop
pruning once a subtree improves the best).  Every pruned leaf is strictly
larger than the final best, so the result is the true minimum, and every
leaf that ties the final best is visited.  Two orderings o and o' with the
same string give the same canonical graph C, so o'^-1 o is an automorphism
of C; conversely every automorphism maps the best ordering to a
cell-respecting ordering with the same string.  The ties are therefore
exactly Aut(C), and generation asks ``_label`` to return them.  When it
does not, the search also skips twins of a tried sibling (see ``_label``).

Generation grows each class by one vertex, but only by neighborhoods in which
the new vertex has minimum degree (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998, restricts the last vertex in the same way),
and only by one neighborhood per orbit of the parent's automorphism group.
Every other attachment is skipped before it is labeled.  The last level is
labeled one edge count at a time, so a caller that stops early stops the
labeling too.  Each order is generated at most once per process: the full
levels, the last level's unlabeled children and its labeled edge-count
buckets are memoized, so a later caller at an order already reached labels
nothing, and orders share the levels below them.  That helps only a process
that asks for some order more than once, or for several orders; a single
question does the same cold work as without the memo.  ``iter_classes``
gives the soundness arguments, the memo's included.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache

from .graphs import Graph

CANONICAL_ORDER_CAP = 10
GENERATION_ORDER_CAP = 8

Perm = tuple[int, ...]
Rows = tuple[int, ...]


def _label(n: int, rows: Sequence[int], autos: bool = False) -> tuple[tuple[int, ...], list[Perm]]:
    """Canonical rows of the graph with adjacency ``rows`` on 0..n-1.

    With ``autos``, also every automorphism of the canonical rows, as maps
    position -> position, the identity first; without it the list is empty.

    Without ``autos`` the search also skips a vertex whose tried sibling at
    the same level is its twin (equal rows apart from each other).  The
    transposition of two twins is an automorphism that fixes the placed
    vertices and keeps cells, so it maps the sibling's subtree onto the
    skipped one string for string and the minimum is unchanged.
    """
    if n > CANONICAL_ORDER_CAP:
        raise ValueError(f"canonical labeling guarded to n <= {CANONICAL_ORDER_CAP}")
    if n <= 1:
        return tuple(rows), [tuple(range(n))] if autos else []
    nbrs = [[u for u in range(n) if row >> u & 1] for row in rows]
    # one refinement round from the uniform coloring ranks vertices by degree
    degrees = [len(nb) for nb in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    while True:
        sigs = [(colors[v], tuple(sorted([colors[u] for u in nbrs[v]]))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [palette[s] for s in sigs]
        if fresh == colors:
            break
        colors = fresh
    # the cell each position is filled from, in cell order
    level_cell = [[v for v in range(n) if colors[v] == c] for c in sorted(colors)]

    best: list[int] | None = None
    orders: list[list[int]] = []
    order: list[int] = []
    current: list[int] = []

    def rec(level: int, placed: int) -> None:
        nonlocal best, orders
        if level == n:
            if best is None or current < best:
                best = current.copy()
                orders = [order.copy()]
            elif autos and current == best:
                orders.append(order.copy())
            return
        tried: list[int] = []
        for v in level_cell[level]:
            if placed >> v & 1:
                continue
            row = rows[v]
            if not autos:
                if any(not (row ^ rows[u]) & ~(1 << u | 1 << v) for u in tried):
                    continue
                tried.append(v)
            bits = 0
            for u in order:
                bits = bits << 1 | (row >> u & 1)
            if best is not None and bits > best[level] and best[:level] == current:
                continue
            current.append(bits)
            order.append(v)
            rec(level + 1, placed | 1 << v)
            order.pop()
            current.pop()

    rec(0, 0)
    pos = [0] * n
    for i, v in enumerate(orders[0]):
        pos[v] = i
    key = tuple(sum(1 << pos[u] for u in nbrs[v]) for v in orders[0])
    return key, [tuple(pos[v] for v in o) for o in orders] if autos else []


def canonical_key(g: Graph) -> tuple[int, ...]:
    """Hashable isomorphism-class fingerprint: canonical adjacency rows."""
    return _label(g.n, g.adj)[0]


def _attachments(m: int, rows: Rows, perms: Sequence[Perm]) -> list[int]:
    """One neighborhood per Aut-orbit among those in which a new vertex
    joined to ``rows`` has minimum degree: the smallest mask of each orbit."""
    degrees = [row.bit_count() for row in rows]
    low = min(degrees)
    # |S| <= low always passes; |S| == low + 1 passes only when S holds
    # every vertex of degree low; larger S never passes
    lowest = sum(1 << u for u, d in enumerate(degrees) if d == low)
    masks = [[1 << i for i in p] for p in perms]
    covered = bytearray(1 << m)
    reps = []
    for nbhd in range(1 << m):
        size = nbhd.bit_count()
        if covered[nbhd] or size > low and (size > low + 1 or lowest & ~nbhd):
            continue
        reps.append(nbhd)
        members = [u for u in range(m) if nbhd >> u & 1]
        for mask in masks:
            image = 0
            for u in members:
                image |= mask[u]
            covered[image] = 1
    return reps


def _attach(m: int, rows: tuple[int, ...], nbhd: int) -> list[int]:
    """Rows of the graph ``rows`` plus vertex m joined to ``nbhd``."""
    return [row | (nbhd >> v & 1) << m for v, row in enumerate(rows)] + [nbhd]


@cache
def _level(m: int) -> tuple[tuple[Rows, tuple[Perm, ...]], ...]:
    """Every class on m >= 1 vertices as (canonical rows, automorphisms),
    built from ``_level(m - 1)``; see ``iter_classes``."""
    if m == 1:
        return (((0,), ((0,),)),)
    seen: dict[Rows, tuple[Perm, ...]] = {}
    for rows, perms in _level(m - 1):
        for nbhd in _attachments(m - 1, rows, perms):
            key, autos = _label(m, _attach(m - 1, rows, nbhd), autos=True)
            seen.setdefault(key, tuple(autos))
    return tuple(seen.items())


@cache
def _children(n: int) -> tuple[tuple[tuple[Rows, int], ...], ...]:
    """The unlabeled children (parent rows, neighborhood) of ``_level(n - 1)``,
    grouped by edge count; see ``iter_classes``."""
    m = n - 1
    by_edges: list[list[tuple[Rows, int]]] = [[] for _ in range(n * m // 2 + 1)]
    for rows, perms in _level(m):
        edges = sum(row.bit_count() for row in rows) // 2
        for nbhd in _attachments(m, rows, perms):
            by_edges[edges + nbhd.bit_count()].append((rows, nbhd))
    return tuple(map(tuple, by_edges))


@cache
def _bucket(n: int, edges: int) -> tuple[Graph, ...]:
    """The classes on n vertices with ``edges`` edges, sorted by rows: the
    children of that edge count, labeled and deduplicated."""
    keys = {_label(n, _attach(n - 1, rows, nbhd))[0] for rows, nbhd in _children(n)[edges]}
    return tuple(Graph(n, key) for key in sorted(keys))


def iter_classes(n: int) -> Iterator[Graph]:
    """Every graph on exactly n vertices, one per isomorphism class, as
    canonical representatives in order of edge count, then adjacency rows.

    Levels 1..n-1 are built in full by ``_level``, each class with its
    automorphisms.  A class g on m vertices is extended by one neighborhood
    S per Aut(g)-orbit among those in which the new vertex has minimum
    degree, that is deg_g(u) + [u in S] >= |S| for every old vertex u, and
    the children are deduplicated by canonical rows.  Level n is labeled
    lazily: for each edge count e in turn, only the children with
    e(g) + |S| = e are labeled, deduplicated and yielded.

    Soundness, minimum degree: every graph H on m+1 vertices has a vertex v
    of minimum degree.  H - v is isomorphic to a listed class g, by some map
    phi.  Attaching a new vertex to phi(N(v)) gives a copy of H in which the
    new vertex has minimum degree, so the filter keeps that copy.

    Soundness, orbits: if p in Aut(g) maps S to S', then p extended by
    new -> new is an isomorphism from g + S to g + S'.  The filter depends
    only on degrees, which p preserves, so S passes exactly when S' does,
    and labeling one S per orbit loses no class.

    Soundness, edge counts: g + S has e(g) + |S| edges, and isomorphic
    graphs have equal edge counts, so every copy of a class falls in the
    same edge count; deduplicating within it loses nothing and yields each
    class once.

    Soundness, memo: generation is a pure function of n, so ``_level``,
    ``_children`` and ``_bucket`` keep their results for the life of the
    process.  The stored values are tuples and frozen ``Graph``s, which no
    caller can change.  ``functools.cache`` stores a result only when the
    call returns, so a bucket is stored only once it is labeled in full,
    and an exception while labeling stores nothing; a generator yields
    nothing of a bucket before that, so one abandoned early leaves only
    complete buckets behind.  Hence every generator yields the same
    sequence, cold or warm, and a warm one labels nothing.
    """
    if not 1 <= n <= GENERATION_ORDER_CAP:
        raise ValueError(f"exhaustive generation guarded to 1 <= n <= {GENERATION_ORDER_CAP}")

    def generate() -> Iterator[Graph]:
        if n == 1:
            yield Graph(1, (0,))
            return
        for edges in range(len(_children(n))):
            yield from _bucket(n, edges)

    return generate()


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """Every graph on exactly n vertices, one per isomorphism class: the
    classes of ``iter_classes`` in a list."""
    return list(iter_classes(n))
