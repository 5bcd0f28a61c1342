"""Deciding and optimizing good colorings by partition search.

A good coloring for (t, k) exists iff the vertex set splits into connected
blocks of at most k-1 vertices whose block-crossing edges contain no clique on
t vertices: color within-block edges blue and crossing edges red.  The search
therefore walks vertex partitions rather than edge colorings.

The walker builds blocks in order of their smallest member: it takes the
lowest unassigned vertex, enumerates every connected block through it (each
exactly once), and recurses on the remainder.  Once a block is fixed, every
edge leaving it is guaranteed to cross, so those edges join a growing "cross"
graph immediately; a new clique on t vertices can only appear through a newly
crossed edge, which keeps the pruning test local and cheap.  Cross edges only
accumulate along a branch, so pruning is monotone-safe and a completed walk is
a proof of exhaustion.

Four rules prune the walk, each argued in _walk_partitions:

- the clique test: a placement whose new cross edges close a K_t is dropped;
- the forced-merge lookahead, always on: a placement that forces more than
  k-1 unplaced vertices into one block is dropped;
- the clique-capacity lookahead, always on: a placement after which some
  clique of g must meet more than t-1 blocks is dropped.  This and the
  forced-merge rule cut only subtrees without a leaf, so every search visits
  the same leaves in the same order;
- the twin rule, in every walk (the walk derives the twin masks from g): of
  partitions that differ by permuting twins, only the lex-leader is kept.
  It acts while a block grows: a candidate whose lower twin would be left
  outside the block is never added, so no block that breaks the rule is
  built.

Every walk returns its first leaf as a BlockPartition, re-checked by
_assert_witness independently of the walker, or None when it reached no
leaf.  That leaf is the witness of exists_critical_coloring and the base
witness of verify.is_cocritical; the other queries discard it, but their
walks check it all the same.

A leaf's good colorings are its good refinements: blue edge sets inside the
blocks that connect each block and leave no red K_t.  One generator,
_good_refinements, yields them lazily in (len(blue), blue) order, each with
fewer blue edges than an optional bound, and raises the budget exception
once the caller's time cap runs out.  One leaf step, _max_red_step, takes
its first item per leaf for max_red_critical_coloring and for the fold in
verify.is_cocritical.
_good_refinements and the co-criticality leaf step read a leaf's block and
cross rows from coloring.block_rows.

Budgets cap tree nodes and wall time; outcomes say whether the space was
exhausted or the budget ran out, and an `arrows` query that dies on budget
raises instead of guessing.  The walk reads the clock at its first node and
every 64 nodes after it, the leaf step at each of its own nodes.
brute_force_exists scans all 2^e colorings directly (_brute_force_scan
yields every good one) and exists to cross-check the partition search on
small inputs; it shares no code with the search on purpose.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from .coloring import (
    BlockPartition,
    EdgeColoring,
    block_rows,
    check_parameters,
    is_critical,
    make_coloring,
    within_edges,
)
from .graphs import (
    Graph,
    _clique_rec,
    enumerate_cliques,
    iter_bits,
    maximal_cliques,
    twin_masks,
)

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_NODE_CAP = 10**8
DEFAULT_TIME_CAP = 600.0
# the walk tests every kept clique that meets a new block, and a graph may
# have exponentially many large maximal cliques; any subset keeps the rule sound
CAPACITY_CLIQUE_CAP = 256
BRUTE_FORCE_EDGE_CAP = 20


class IndeterminateResultError(RuntimeError):
    """A yes/no question could not be settled within the search budget."""


class NoCriticalColoringError(ValueError):
    """An optimization over good colorings was asked of a graph that has none."""


@dataclass(frozen=True)
class SearchBudget:
    node_cap: int = DEFAULT_NODE_CAP
    time_cap: float = DEFAULT_TIME_CAP

    def __post_init__(self) -> None:
        for name, value in (("node_cap", self.node_cap), ("time_cap", self.time_cap)):
            # written as "not > 0" so that a NaN cap is rejected too
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: BlockPartition | None
    nodes: int
    millis: float

    def __post_init__(self) -> None:
        if (self.status == FOUND) != (self.witness is not None):
            raise ValueError("witness must accompany exactly the found status")


class _BudgetHit(Exception):
    pass


class _Stop(Exception):
    pass


def _walk_partitions(g: Graph, t: int, k: int, budget: SearchBudget, on_partition):
    """Visit every connected-block partition with a clique-free cross graph
    that obeys the twin rule.

    on_partition(blocks) gets the list of block masks of each complete
    partition (a list the walker goes on reusing) and returns True to stop
    the walk, which unwinds by raising _Stop.  Returns (status, nodes,
    millis, first) where status is EXHAUSTED, FOUND (stopped by
    on_partition, even at the last leaf), or BUDGET_EXCEEDED, and first is
    the first leaf the walk reached as a BlockPartition, or None when it
    reached none.  Every walk re-checks that leaf with _assert_witness,
    independently of the walker, before it returns it; the 0-vertex graph's
    one leaf is the empty partition.

    Each placement copies its parent's cross rows, adds the edges from the
    new block to the unplaced rest and hands the copy down, so nothing is
    undone on the way back.  Only those new edges can close a K_t: a cross
    edge never joins two vertices of one block, or two unplaced vertices, so
    a new K_t has exactly one vertex u in the new block and one vertex w in
    the rest, its other t - 2 vertices lie in earlier blocks, and uw is its
    only new edge.  The test of uw on cross[u] & cross[w] therefore finds it
    whatever order the new edges go in.

    Lookahead.  Once a placement closes no K_t, the walk looks at each
    adjacent pair w, x of unplaced vertices.  Every edge from an unplaced
    vertex to a placed one is already final: the placed vertex's block is
    complete and does not hold the unplaced one, so the edge crosses in every
    leaf below, and so do the cross edges among placed vertices.  If
    cross[w] & cross[x] holds a K_{t-2}, a red wx would close a K_t, so every
    leaf below puts w and x in one block.  Sharing a block is an equivalence
    relation, so each group of the union of these forced pairs lies inside
    one block of every leaf below.  A group of more than k - 1 vertices
    leaves no leaf below: the block is counted as a node but not placed, and
    grow still extends it, since a larger block may take a group in.  The
    rule cuts only subtrees that hold no leaf, so the walk visits the same
    leaves in the same order with or without it, and every walk-order
    argument (the twin rule below, the first leaf, fail_fast's first
    settling leaf, the max-red tie-break) holds unchanged.  A group lies
    inside the rest, so the check is skipped when the rest has at most k - 1
    vertices.

    Clique capacity.  Let C be a clique of g.  One vertex from each block
    that meets C gives a clique of the cross graph, so in every leaf at most
    t - 1 blocks meet C (Chvatal's r(K_t, T_k) = (t - 1)(k - 1) + 1 applied
    to C).  Placed blocks are final, and the vertices of C in the rest go
    into new blocks of at most k - 1 vertices each.  So a placement after
    which m placed blocks meet C and r vertices of C lie in the rest has no
    leaf below it when m + ceil(r / (k - 1)) > t - 1.  The same holds for any
    set of cliques of g.  A clique inside a larger one never fires alone,
    since m and r only grow with the clique, so the walk takes the maximal
    cliques of g on at least
    2k vertices (graphs.maximal_cliques, at most CAPACITY_CLIQUE_CAP of them)
    and keeps each one's m in the tail of cross, past the vertex rows, so
    the per-placement copy carries it and nothing is undone.  Only the
    cliques that meet the new block change, so only they are tested.

    Cliques on fewer than 2k vertices would cut no node that the other
    rules leave.  Say the test fires on C at a placement of block B, so C
    meets B and m >= 1.  If m >= t, one vertex of C from B and from each of
    t - 1 earlier blocks form a K_t that the clique test dropped when the
    last of those earlier blocks was placed, so the walk never gets here.
    If m = t - 1, firing needs r >= 1, and a vertex w of C in the rest is
    joined by final cross edges to one vertex of C in each of the m placed
    blocks: a K_t through the new edge from B to w, which the clique test
    drops at this node.  If m = t - 2 and r >= k, those t - 2
    vertices lie in cross[w] & cross[x] for every two vertices w, x of C in
    the rest, so all r of them form one forced group of more than k - 1
    vertices, and the forced-merge lookahead drops this node.  If m = t - 2
    and r <= k - 1 the test does not fire.  If m <= t - 3, firing needs
    ceil(r / (k - 1)) >= 3, so r >= 2k - 1 and, with the vertex in B,
    |C| >= 2k.  Like the forced-merge rule, this one cuts only subtrees that
    hold no leaf, so the leaf sequence, the twin rule below, the first leaf,
    fail_fast's first settling leaf and the max-red tie-break are the same
    with or without it.

    Twin rule.  The walk takes per vertex the mask of its twins
    (graphs.twin_masks) with smaller ids, and keeps only the partitions that
    obey the lex-leader rule of Crawford, Ginsberg, Luks and Roy (KR 1996):
    a block may hold twin w only if every lower twin of w is in an earlier
    block or in the same one.  The walk derives the masks from g itself, so
    no caller can hand it masks that the soundness argument below does not
    cover.  The rule acts in grow, which never builds a block that breaks
    it: of its candidates it bars each w that has a lower twin u still
    unplaced and outside the block, and the barred w still counts as tried
    for its later siblings, so no block is built twice.  Twins share every
    neighbour outside {u, w}, so u enters reach together with w and, being
    lower, is either forbidden already or a candidate tried before w; either
    way u is forbidden in every block grown from block | w, and each of
    those blocks breaks the rule.  v0 has no unplaced lower twin, so by
    induction every block grown obeys the rule, and the walk visits exactly
    the rule-obeying leaves, in the same relative order as without it.
    Barred candidates cannot outrun the time or node cap: every grow call
    makes exactly one counted attempt and skips at most |cand| <= n
    candidates, so the uncounted work per counted node stays bounded.

    Soundness.  Swapping two twins is an automorphism of g: it keeps blocks
    connected and of the same size and maps the cross graph onto an
    isomorphic one, so it maps good partitions to good partitions.  Number
    each vertex by the rank of its block in walk order (blocks ordered by
    smallest member).  If block B holds w and its lower twin u lies in a
    later block B', swapping u and w keeps the smallest member, and so the
    rank, of every block whose smallest member is below u; no vertex below u
    changes rank and u drops to B's rank.  The numbering gets
    lexicographically smaller, so the least member of every orbit under twin
    swaps obeys the rule.

    Walk order.  The same swap yields a leaf that the walk reaches strictly
    earlier.  The blocks before B are shared, and B - w + u is grown before
    B: grow builds a block by adding, step by step, the least current
    candidate that the block holds, and twins u, w become candidates
    together.  Both blocks take the same steps until the step at which u is
    the least candidate that B - w + u holds.  There it takes u, while B,
    which lacks u, takes a larger vertex: the candidates B holds are the
    same ones with w (a candidate, since u is) in place of u.
    Repeating the swap ends at a rule-obeying leaf that precedes the one we
    started from.  So the first leaf with any property that twin swaps
    preserve (being a leaf, having a good refinement with m blue edges,
    settling some non-edge) is the same with or without the rule.
    """
    check_parameters(t, k)
    adj = g.adj
    limit = k - 1
    need = t - 2
    # (index of its count in the tail of cross, mask) per large maximal clique
    capacity = list(enumerate(maximal_cliques(g, 2 * k, CAPACITY_CLIQUE_CAP), g.n))
    lower = [m & ((1 << v) - 1) for v, m in enumerate(twin_masks(g))]
    has_lower = sum(1 << v for v, m in enumerate(lower) if m)
    blocks: list[int] = []
    first: list[int] | None = None
    start = time.perf_counter()
    deadline = start + budget.time_cap
    node_cap = budget.node_cap
    nodes = 0

    def place(unassigned: int, cross: list[int]) -> None:
        nonlocal first
        if unassigned == 0:
            if first is None:
                first = list(blocks)
            if on_partition(blocks):
                raise _Stop
            return
        v0_bit = unassigned & -unassigned
        grow(v0_bit, adj[v0_bit.bit_length() - 1], 0, unassigned, cross)

    def grow(block: int, reach: int, forbidden: int, unassigned: int, cross: list[int]) -> None:
        attempt(block, unassigned, cross)
        if block.bit_count() == limit:
            return
        cand = reach & unassigned & ~block & ~forbidden
        # the twin rule: bar each candidate with a lower twin left outside
        go = cand
        ws = cand & has_lower
        while ws:
            w_bit = ws & -ws
            ws ^= w_bit
            if lower[w_bit.bit_length() - 1] & unassigned & ~block:
                go ^= w_bit
        while go:
            low = go & -go
            go ^= low
            grow(block | low, reach | adj[low.bit_length() - 1], forbidden | cand & (low - 1), unassigned, cross)

    def attempt(block: int, unassigned: int, cross: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise _BudgetHit
        if nodes & 63 == 1 and time.perf_counter() > deadline:
            raise _BudgetHit
        rest = unassigned & ~block
        cross = cross[:]
        # the clique-capacity lookahead: cross[i] counts the placed blocks
        # that meet clique c
        for i, c in capacity:
            if c & block:
                met = cross[i] + 1
                if met + -(-(c & rest).bit_count() // limit) > t - 1:
                    return
                cross[i] = met
        bm = block
        while bm:
            u_bit = bm & -bm
            bm ^= u_bit
            u = u_bit.bit_length() - 1
            targets = adj[u] & rest
            while targets:
                w_bit = targets & -targets
                targets ^= w_bit
                w = w_bit.bit_length() - 1
                cross[u] |= w_bit
                cross[w] |= u_bit
                if _clique_rec(cross, cross[u] & cross[w], need):
                    return
        if rest.bit_count() > limit:
            # the forced-merge lookahead: group[v] is v's forced group, when
            # v has one
            group = {}
            wm = rest
            while wm:
                w_bit = wm & -wm
                wm ^= w_bit
                w = w_bit.bit_length() - 1
                xs = adj[w] & wm
                while xs:
                    x_bit = xs & -xs
                    xs ^= x_bit
                    x = x_bit.bit_length() - 1
                    if _clique_rec(cross, cross[w] & cross[x], need):
                        gw = group.get(w, w_bit)
                        if not gw & x_bit:
                            merged = gw | group.get(x, x_bit)
                            if merged.bit_count() > limit:
                                return
                            ym = merged
                            while ym:
                                y_bit = ym & -ym
                                ym ^= y_bit
                                group[y_bit.bit_length() - 1] = merged
        blocks.append(block)
        place(rest, cross)
        blocks.pop()

    try:
        place(g.vertex_mask, [0] * (g.n + len(capacity)))
        status = EXHAUSTED
    except _Stop:
        status = FOUND
    except _BudgetHit:
        status = BUDGET_EXCEEDED
    millis = (time.perf_counter() - start) * 1000.0
    if first is None:
        return status, nodes, millis, None
    _assert_witness(adj, t, k, first)
    return status, nodes, millis, BlockPartition(tuple(first))


def _assert_witness(rows: Sequence[int], t: int, k: int, blocks: Sequence[int]) -> None:
    """Re-check, independently of the walker, that the block masks form a good
    partition of the graph with adjacency rows `rows`: the blocks cover the
    vertices once, each has at most k-1 vertices and is connected, and the
    cross graph (rows without within-block edges) holds no K_t."""
    cross = list(rows)
    covered = 0
    for block in blocks:
        if block & covered:
            raise AssertionError("witness blocks overlap")
        covered |= block
        if block.bit_count() > k - 1:
            raise AssertionError("witness block too large")
        # search the block from its lowest vertex, dropping within-block
        # edges from each row reached
        reach = todo = block & -block
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            found = rows[v] & block & ~reach
            reach |= found
            todo |= found
            cross[v] &= ~block
        if not block or reach != block:
            raise AssertionError("witness block not connected")
    if covered != (1 << len(rows)) - 1:
        raise AssertionError("witness blocks do not cover the vertices")
    if _clique_rec(cross, covered, t):
        raise AssertionError("witness cross graph has a forbidden clique")


def exists_critical_coloring(g: Graph, t: int, k: int, budget: SearchBudget = SearchBudget()) -> SearchOutcome:
    """Decide whether g admits a good coloring; found outcomes carry the
    walk's first leaf, which is also the first leaf of the walk without the
    twin rule (_walk_partitions, "Walk order")."""
    status, nodes, millis, witness = _walk_partitions(g, t, k, budget, lambda blocks: True)
    return SearchOutcome(status, witness, nodes, millis)


def arrows(g: Graph, t: int, k: int, budget: SearchBudget = SearchBudget()) -> bool:
    """Does every red/blue coloring of g produce a red t-clique or a blue
    component on at least k vertices?  Raises when the budget runs out first."""
    outcome = exists_critical_coloring(g, t, k, budget)
    if outcome.status == BUDGET_EXCEEDED:
        raise IndeterminateResultError(
            f"arrowing undecided within budget after {outcome.nodes} nodes"
        )
    return outcome.status == EXHAUSTED


# --- refinements of a partition into explicit colorings ---------------------


def _good_refinements(g: Graph, t: int, blocks: list[int], below: int | None = None, deadline: float = float("inf")):
    """Yield the good refinements of a leaf lazily, in (len(blue), blue) order,
    each with fewer than `below` blue edges (no limit when None).

    blocks is a leaf of the walk: connected blocks that cover the vertices
    and whose cross edges hold no K_t.  A good refinement is a blue edge set
    inside the blocks that connects each block and leaves no red K_t; its
    blue components are exactly the blocks.  Each is a sorted tuple of (u, v)
    edges with u < v.  A block needs |B| - 1 blue edges to hold together and
    the blocks cover all n vertices, so the sizes L run upwards from
    n - len(blocks).

    For each L a depth-first search decides the within-block edges in
    ascending order, trying include before exclude.  Among sets of one size
    that is lexicographic order: every set holding the first edge comes
    before every set without it, and so on down the edges.  A branch is cut
    when it cannot reach L edges, when some K_t of g has no chosen or
    undecided within-block edge left, so that it ends red, or when some
    block can no longer be connected through its chosen and undecided edges.
    A cut drops only subtrees without a good refinement of size L, so the
    items come in exactly the order of the sorted, filtered refinement
    product, and the first one is the least good refinement in
    (len(blue), blue) order.

    Both tests run when an edge uv is excluded, since only the K_t through uv
    and uv's own block can lose their last way out.  red holds the cross
    edges and the excluded ones; a K_t with no chosen or undecided edge is a
    K_t of red, and a new one holds uv, so it is found on red[u] & red[v] as
    in the walk's clique test.

    Raises _BudgetHit once time.perf_counter() passes deadline, which the
    walk reports as BUDGET_EXCEEDED.
    """
    if below is not None and g.n - len(blocks) >= below:
        return  # skip the set-up: no refinement is small enough
    adj = g.adj
    block_of, red = block_rows(adj, blocks)
    edges = within_edges(adj, block_of)

    def connected(block: int) -> bool:
        reach = todo = block & -block
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            found = adj[v] & block & ~red[v] & ~reach
            reach |= found
            todo |= found
        return reach == block

    def fill(i: int, need: int):
        # edges below i are decided, and need more of the rest are to be blue
        if time.perf_counter() > deadline:
            raise _BudgetHit
        if i == len(edges):
            yield tuple((u, v) for u, v in edges if not red[u] >> v & 1)
            return
        if need:
            yield from fill(i + 1, need - 1)
        if len(edges) - i > need:
            u, v = edges[i]
            red[u] |= 1 << v
            red[v] |= 1 << u
            if not _clique_rec(red, red[u] & red[v], t - 2) and connected(block_of[u]):
                yield from fill(i + 1, need)
            red[u] ^= 1 << v
            red[v] ^= 1 << u

    top = len(edges) if below is None else min(len(edges), below - 1)
    for size in range(g.n - len(blocks), top + 1):
        yield from fill(0, size)


def _max_red_step(g: Graph, t: int, blocks: list[int], best: list, deadline: float) -> None:
    """The max-red leaf step.  best holds the blue edges of the best
    refinement so far, or nothing at the start; the step puts in its place
    the first item of _good_refinements below that count, which is the
    leaf's least good refinement in (len(blue), blue) order if that has
    fewer blue edges."""
    blue = next(_good_refinements(g, t, blocks, len(best[0]) if best else None, deadline), None)
    if blue is not None:
        best[:] = [blue]


def max_red_critical_coloring(g: Graph, t: int, k: int, budget: SearchBudget = SearchBudget()) -> EdgeColoring:
    """A good coloring with the most red edges; first in canonical order on ties.

    Minimizing blue is the same thing.  Every leaf of the walk goes through
    _max_red_step, which keeps the leaf's least good refinement in
    (len(blue), blue) order if that has fewer blue edges than the best so
    far.  Improvements are strict, so the answer is the least good
    refinement of the first leaf, in walk order, with the fewest blue edges
    m; twin swaps preserve having a refinement with m blue edges, so that is
    the answer of the walk without the twin rule too (_walk_partitions,
    "Walk order").  Only the answer is built as an EdgeColoring.
    """
    best: list = []  # blue edges of the max-red refinement so far
    deadline = time.perf_counter() + budget.time_cap

    def on_partition(blocks: list[int]) -> bool:
        _max_red_step(g, t, blocks, best, deadline)
        return False

    status, nodes, _, _ = _walk_partitions(g, t, k, budget, on_partition)
    if status == BUDGET_EXCEEDED:
        raise IndeterminateResultError(f"maximization incomplete after {nodes} nodes")
    if not best:
        raise NoCriticalColoringError("graph admits no good coloring")
    coloring = make_coloring(g, best[0])
    assert is_critical(coloring, t, k)
    return coloring


# --- independent brute-force oracle ------------------------------------------


def brute_force_exists(g: Graph, t: int, k: int) -> bool:
    """Scan all 2^e colorings for a good one.  Oracle for the partition search."""
    for _ in _brute_force_scan(g, t, k):
        return True
    return False


def _brute_force_scan(g: Graph, t: int, k: int):
    check_parameters(t, k)
    edges = g.edges()
    e = len(edges)
    if e > BRUTE_FORCE_EDGE_CAP:
        raise ValueError(f"brute force guarded to {BRUTE_FORCE_EDGE_CAP} edges, got {e}")
    index = {edge: i for i, edge in enumerate(edges)}
    clique_masks = []
    for q in enumerate_cliques(g, t) if t <= g.n else []:
        m = 0
        for u, v in combinations(sorted(q), 2):
            m |= 1 << index[(u, v)]
        clique_masks.append(m)
    n = g.n
    bound = k - 1
    for blue in range(1 << e):
        ok = True
        for cm in clique_masks:
            if not cm & blue:  # fully red clique
                ok = False
                break
        if not ok:
            continue
        # blue component sizes via union-find, abort past the bound
        parent = list(range(n))
        size = [1] * n
        bm = blue
        while bm and ok:
            low = bm & -bm
            bm ^= low
            u, v = edges[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                continue
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            if size[u] > bound:
                ok = False
        if ok:
            yield tuple(edges[i] for i in iter_bits(blue))
