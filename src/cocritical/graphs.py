"""Small-graph core: immutable bitset graphs, cliques, stable sets, components.

Every graph is stored as a tuple of adjacency bitmasks, one Python int per
vertex, bit u of ``adj[v]`` set iff uv is an edge.  Vertex ids are 0..n-1 and
every operation that returns vertices, sets, or lists of sets does so in
ascending id order, so repeated runs produce identical output.  Graph order is
capped at MAX_ORDER; constructors reject anything larger.

Neighborhood intersection (``adj[u] & adj[v]``) is the primitive everything
else is built from: clique search branches on the lowest candidate bit and
recurses into the common neighborhood, which keeps enumeration order
deterministic and makes membership tests cheap.

The maximum stable sets come from one branch-and-bound that partitions the
candidates greedily into cliques at each call, since a stable set takes at
most one vertex of each (the colouring bound of Tomita and Seki's MCQ, read
on the complement).  Its family is checked, order included, against brute
force on tie-heavy graphs and every class on up to 6 vertices, and on 300
G(n, m) graphs shaped like the props corpus against the maximum cliques of
the complement and the plain popcount-cut search kept in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_ORDER = 128


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bitmask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"graph order {n} outside 0..{MAX_ORDER}")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on vertices 0..n-1 with bitmask rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        """Reject a wrong row count, bits outside 0..n-1, loops and
        asymmetric rows.

        Symmetry is tested on the upper triangle only: every bit u > v of
        row v must have its mirror, bit v of row u, and the rows must hold
        exactly twice as many bits as the upper triangle.  Mirroring maps
        the upper bits one-to-one onto lower bits, so equal counts leave no
        lower bit without its mirror.  Only on failure is every bit
        visited, so that the message names the first asymmetric pair.
        """
        _check_order(self.n)
        adj = self.adj
        if len(adj) != self.n:
            raise ValueError("adjacency row count does not match order")
        full = (1 << self.n) - 1
        total = upper = 0
        mirrored = True
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} refers to vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            total += row.bit_count()
            above = row >> v
            upper += above.bit_count()
            while above and mirrored:
                low = above & -above
                if not adj[v + low.bit_length() - 1] >> v & 1:
                    mirrored = False
                above ^= low
        if mirrored and 2 * upper == total:
            return
        for v in range(self.n):
            for u in iter_bits(adj[v]):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency {v},{u}")

    # --- basic queries ---------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def non_edges(self) -> list[tuple[int, int]]:
        """All non-adjacent pairs (u, v), u < v, lexicographic."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adj[u] >> v & 1:
                    out.append((u, v))
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree of empty graph undefined")
        return min(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree of empty graph undefined")
        return max(row.bit_count() for row in self.adj)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")


# --- constructors ---------------------------------------------------------


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; rejects loops and out-of-range ids."""
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complete_graph(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Copy of g with edge uv added; uv must currently be a non-edge."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("cannot add a loop")
    if g.adj[u] >> v & 1:
        raise ValueError(f"edge ({u},{v}) already present")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


# --- operations -----------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grown = 0
            for u in iter_bits(frontier):
                grown |= g.adj[u]
            frontier = grown & ~comp
            comp |= frontier
        seen |= comp
        out.append(frozenset(iter_bits(comp)))
    return out


def twin_classes(g: Graph) -> list[frozenset[int]]:
    """Classes of interchangeable vertices, ordered by smallest member.

    Closed twins have N[u] = N[w] (so they are adjacent), open twins have
    N(u) = N(w) (so they are not); both relations are equivalences.  A vertex
    cannot sit in a non-trivial class of both kinds: with u, w closed twins
    and u, x open twins, w lies in N(u) = N(x), so x lies in N[w] = N[u]
    and x ~ u, which open twins never are.  Each vertex's class is therefore
    its closed class when that is non-trivial, else its open class (possibly
    a singleton).  Any permutation inside one class is an automorphism of g.
    """
    return [frozenset(iter_bits(m)) for v, m in enumerate(twin_masks(g)) if m & -m == 1 << v]


def twin_masks(g: Graph) -> list[int]:
    """Per vertex, the mask of its twin class (see twin_classes)."""
    closed: dict[int, int] = {}
    opened: dict[int, int] = {}
    bit = 1
    for row in g.adj:
        closed[row | bit] = closed.get(row | bit, 0) | bit
        opened[row] = opened.get(row, 0) | bit
        bit <<= 1
    out = []
    bit = 1
    for row in g.adj:
        mask = closed[row | bit]
        out.append(opened[row] if mask == bit else mask)
        bit <<= 1
    return out


# --- cliques ---------------------------------------------------------------


def _clique_rec(adj: tuple[int, ...], mask: int, size: int) -> bool:
    if size <= 0:
        return True
    if size == 1:
        return mask != 0
    while mask:
        if mask.bit_count() < size:
            return False
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        # branch on v as the lowest clique vertex; candidates stay above v
        if _clique_rec(adj, adj[v] & mask, size - 1):
            return True
    return False


def has_clique(g: Graph, size: int) -> bool:
    if size < 0:
        raise ValueError("clique size must be nonnegative")
    return _clique_rec(g.adj, g.vertex_mask, size)


def enumerate_cliques(g: Graph, size: int) -> list[frozenset[int]]:
    """Every clique on exactly `size` vertices, in lexicographic vertex order."""
    return enumerate_cliques_in_mask(g, g.vertex_mask, size)


def enumerate_cliques_in_mask(g: Graph, mask: int, size: int) -> list[frozenset[int]]:
    """Every clique on exactly `size` vertices inside the induced mask."""
    if size < 1:
        raise ValueError("clique size must be at least 1")
    adj = g.adj
    out: list[frozenset[int]] = []
    chosen: list[int] = []

    def extend(cand: int, need: int) -> None:
        if need == 0:
            out.append(frozenset(chosen))
            return
        while cand:
            if cand.bit_count() < need:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            chosen.append(v)
            extend(adj[v] & cand, need - 1)
            chosen.pop()

    extend(mask & g.vertex_mask, size)
    return out


def clique_core_in_mask(g: Graph, mask: int, size: int) -> frozenset[int] | None:
    """Vertices common to every clique on exactly `size` vertices inside the
    induced mask, or None when the mask holds no such clique."""
    cliques = enumerate_cliques_in_mask(g, mask, size)
    return frozenset.intersection(*cliques) if cliques else None


def maximal_cliques(g: Graph, floor: int = 1, cap: int | None = None) -> list[int]:
    """Masks of the maximal cliques of g on at least `floor` vertices, at
    most `cap` of them (all when None).

    Bron–Kerbosch with Tomita pivoting (Tomita, Tanaka and Takahashi, TCS
    2006): a call holds a clique R, the candidates P that extend it and the
    vertices X that extend it but were tried before, and reports R when P
    and X are both empty.  It branches only on the candidates outside the
    neighbourhood of a pivot u in P | X with the most neighbours in P.  A
    clique that adds to R only neighbours of u is not maximal, since u,
    which is adjacent to all of R, extends it; so every maximal clique
    through R holds a branch vertex and is reported on the branch of the
    first one it holds.

    A vertex of degree below floor - 1 lies in no clique on floor vertices,
    so it is dropped before enumerating; that keeps every large maximal
    clique and adds no new one, since a vertex extending a clique on floor
    vertices has degree at least floor.  A call is cut when R with all of P
    stays below floor, which also rejects a smaller maximal clique at the
    leaf.
    """
    if floor < 1:
        raise ValueError("clique floor must be at least 1")
    adj = g.adj
    out: list[int] = []

    def expand(clique: int, size: int, cand: int, done: int) -> None:
        if size + cand.bit_count() < floor:
            return
        if not cand:
            if not done:
                out.append(clique)
            return
        pivot = max(iter_bits(cand | done), key=lambda u: (adj[u] & cand).bit_count())
        branch = cand & ~adj[pivot]
        while branch and len(out) != cap:
            low = branch & -branch
            branch ^= low
            row = adj[low.bit_length() - 1]
            expand(clique | low, size + 1, cand & row, done & row)
            cand ^= low
            done |= low

    expand(0, 0, sum(1 << v for v, row in enumerate(adj) if row.bit_count() >= floor - 1), 0)
    return out


# --- stable sets -----------------------------------------------------------

STABLE_SET_ORDER_CAP = 24


def max_stable_sets(g: Graph) -> tuple[int, list[frozenset[int]]]:
    """Independence number and the full family of maximum stable sets, in
    lexicographic vertex order.

    One branch-and-bound with the greedy-colouring bound of Tomita and
    Seki's MCQ (DMTCS 2003), read on the complement.  A call holds a stable
    set and the candidates that extend it.  It first cuts when the set with
    every candidate stays below the best size so far.  Otherwise it
    partitions the candidates greedily into cliques C_1..C_m of g, branches
    on the vertices of C_m first, then C_{m-1}, and so on, removing each
    vertex from the candidates once its branch returns, and cuts when the
    set plus the number of cliques left stays below the best size.  A leaf
    (no candidates) of that size joins the family, which starts over
    whenever the best size grows.

    Soundness: a stable set takes at most one vertex of a clique, and when
    the call reaches C_i the candidates left lie in C_1..C_i, so no set
    grown from there exceeds the set plus i vertices.  Let S be a maximum
    stable set.  Along its path, the vertex a call branches on for S is
    the first of S's remaining vertices it reaches, so the others are still
    candidates there and, being non-adjacent to it, in the child's
    candidates too.  No cut on the path fires, since the rest of S, at most
    one vertex per clique left, fits in the bound and |S| is at least the
    best size.  A call whose set is all of S has no candidates, since one
    would extend S, so S reaches a leaf; removing each vertex after its
    branch means no other path chooses the same set, so S joins once.  The
    cuts are strict, so sets tying the best size are kept.

    The leaves come out of lexicographic order and are sorted at the end:
    equal-size sets A and B have A first exactly when min(A ^ B) lies in
    A, which is the order of their bit strings read from vertex 0 up,
    largest first.  Exhaustive; guarded to small orders.
    """
    if g.n > STABLE_SET_ORDER_CAP:
        raise ValueError(f"stable-set enumeration guarded to n <= {STABLE_SET_ORDER_CAP}")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    adj = g.adj
    full = g.vertex_mask
    co = [full & ~row & ~(1 << v) for v, row in enumerate(adj)]
    best = 0
    family: list[int] = []

    def extend(chosen: int, size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            if size > best:
                best = size
                family.clear()
            if size == best:
                family.append(chosen)
            return
        if size + cand.bit_count() < best:
            return
        cliques = []
        rest = cand
        while rest:
            clique = low = rest & -rest
            inside = rest & adj[low.bit_length() - 1]
            while inside:
                low = inside & -inside
                clique |= low
                inside &= adj[low.bit_length() - 1]
            rest ^= clique
            cliques.append(clique)
        left = len(cliques)
        for clique in reversed(cliques):
            while clique:
                if size + left < best:
                    return
                low = clique & -clique
                clique ^= low
                cand ^= low
                extend(chosen | low, size + 1, co[low.bit_length() - 1] & cand)
            left -= 1

    extend(0, 0, full)
    family.sort(key=lambda m: f"{m:0{g.n}b}"[::-1], reverse=True)
    return best, [frozenset(iter_bits(m)) for m in family]
