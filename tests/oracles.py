"""Test-side oracles: slower, simpler routes to what the library computes.

ruleless_walk is the partition walk without the clique-capacity lookahead,
and without the twin rule and the forced-merge lookahead unless asked for
them; it shares no walk code with the library.  Every library walk applies
the twin rule, so ruleless_walk is the reference for every good partition
in walk order, and obeys tells which of them the twin rule keeps.

enumerate_critical_colorings walks the good partitions with ruleless_walk
and no rules and takes every item of each leaf's good refinements;
brute_force_critical_colorings scans all 2^e colorings.  The tests check
each against the other and use them to cross-check the library's queries.
Both reach _good_refinements, the scan and make_coloring through the search
module, so a test that patches one of those there sees their calls.

reference_parse_graph6 decodes graph6 bit by bit and reference_max_stable_sets
searches stable sets with the popcount cut alone; the library's
graph6.parse_graph6 and graphs.max_stable_sets must agree with them exactly,
error messages and family order included.
"""

import time

from cocritical import search
from cocritical.coloring import EdgeColoring
from cocritical.graphs import MAX_ORDER, Graph, _clique_rec, iter_bits, twin_masks
from cocritical.search import EXHAUSTED, FOUND

ENUMERATION_CAP = 10**6


def lower_twins(g):
    """Per vertex, the mask of its twins with smaller ids."""
    return [m & ((1 << v) - 1) for v, m in enumerate(twin_masks(g))]


class OracleStop(Exception):
    pass


def ruleless_walk(g, t, k, on_partition, lower_twins=None, forced_merge=False):
    """The partition walk without the clique-capacity lookahead, as a
    test-local oracle: blocks grown in the same order, the clique test on new
    cross edges and the twin rule, plus the forced-merge lookahead when
    forced_merge is set, and nothing else.  Returns (status, nodes)."""
    adj, limit, need = g.adj, k - 1, t - 2
    has_lower = 0 if lower_twins is None else sum(1 << v for v, m in enumerate(lower_twins) if m)
    blocks = []
    nodes = 0

    def place(unassigned, cross):
        if unassigned == 0:
            if on_partition(blocks):
                raise OracleStop
            return
        v0_bit = unassigned & -unassigned
        grow(v0_bit, adj[v0_bit.bit_length() - 1], 0, unassigned, cross)

    def grow(block, reach, forbidden, unassigned, cross):
        attempt(block, unassigned, cross)
        if block.bit_count() == limit:
            return
        cand = reach & unassigned & ~block & ~forbidden
        used = 0
        while cand:
            low = cand & -cand
            cand ^= low
            grow(block | low, reach | adj[low.bit_length() - 1], forbidden | used, unassigned, cross)
            used |= low

    def attempt(block, unassigned, cross):
        nonlocal nodes
        nodes += 1
        rest = unassigned & ~block
        # low-bit while loops, as in the walk: iter_bits generators would
        # cost more than the walk under test
        twins = block & has_lower
        while twins:
            w_bit = twins & -twins
            twins ^= w_bit
            if lower_twins[w_bit.bit_length() - 1] & rest:
                return
        cross = cross[:]
        us = block
        while us:
            u_bit = us & -us
            us ^= u_bit
            u = u_bit.bit_length() - 1
            ws = adj[u] & rest
            while ws:
                w_bit = ws & -ws
                ws ^= w_bit
                w = w_bit.bit_length() - 1
                cross[u] |= w_bit
                cross[w] |= u_bit
                if _clique_rec(cross, cross[u] & cross[w], need):
                    return
        if forced_merge and rest.bit_count() > limit:
            group = {}
            ws = rest
            while ws:
                w_bit = ws & -ws
                ws ^= w_bit
                w = w_bit.bit_length() - 1
                xs = adj[w] & ws  # the neighbours of w in the rest above w
                while xs:
                    x_bit = xs & -xs
                    xs ^= x_bit
                    x = x_bit.bit_length() - 1
                    if _clique_rec(cross, cross[w] & cross[x], need):
                        merged = group.get(w, w_bit) | group.get(x, x_bit)
                        if merged.bit_count() > limit:
                            return
                        ys = merged
                        while ys:
                            y_bit = ys & -ys
                            ys ^= y_bit
                            group[y_bit.bit_length() - 1] = merged
        blocks.append(block)
        place(rest, cross)
        blocks.pop()

    try:
        place(g.vertex_mask, [0] * g.n)
    except OracleStop:
        return FOUND, nodes
    return EXHAUSTED, nodes


def obeys(leaf, lower):
    """Does the leaf, its blocks in walk order, obey the twin rule: does each
    block hold a twin only when every lower twin of it is in that block or
    an earlier one?"""
    assigned = 0
    for block in leaf:
        assigned |= block
        if any(lower[w] & ~assigned for w in range(len(lower)) if block >> w & 1):
            return False
    return True


def enumerate_critical_colorings(
    g: Graph, t: int, k: int, budget: search.SearchBudget = search.SearchBudget()
) -> list[EdgeColoring]:
    """All good colorings, ordered by partition then blue edge set.

    The result is truncated at ENUMERATION_CAP.  A walk of more nodes than
    the node cap, or a time cap passed in search._good_refinements, raises
    instead, because a partial answer to "list them all" is not an answer.
    An EdgeColoring is built only for each coloring returned.
    """
    results: list[tuple[tuple, tuple]] = []
    deadline = time.perf_counter() + budget.time_cap

    def on_partition(blocks: list[int]) -> bool:
        part_key = tuple(tuple(iter_bits(m)) for m in blocks)
        results.extend(
            (part_key, blue) for blue in search._good_refinements(g, t, blocks, deadline=deadline)
        )
        return len(results) >= ENUMERATION_CAP

    try:
        _, nodes = ruleless_walk(g, t, k, on_partition)
    except search._BudgetHit:
        raise search.IndeterminateResultError("enumeration incomplete within the time cap") from None
    if nodes > budget.node_cap:
        raise search.IndeterminateResultError(f"enumeration incomplete within {budget.node_cap} nodes")
    results.sort()
    return [search.make_coloring(g, blue) for _, blue in results[:ENUMERATION_CAP]]


def brute_force_critical_colorings(g: Graph, t: int, k: int) -> list[EdgeColoring]:
    """Every good coloring, by exhaustive scan.  Cross-check for enumerate."""
    return [search.make_coloring(g, blue) for blue in search._brute_force_scan(g, t, k)]


def reference_parse_graph6(text: str) -> Graph:
    """graph6 decoded one bit at a time, every byte range-checked in turn."""
    s = text.rstrip("\r\n")
    if not s:
        raise ValueError("byte 0: empty graph6 string")
    data = [ord(c) for c in s]
    for off, c in enumerate(data):
        if not 63 <= c <= 126:
            raise ValueError(f"byte {off}: character {c!r} outside graph6 range")
    if data[0] != 126:
        n, body_start = data[0] - 63, 1
    elif len(data) < 4:
        raise ValueError("byte 0: truncated long-form order prefix")
    elif data[1] == 126:
        raise ValueError("byte 1: 36-bit order form exceeds supported range")
    else:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body_start = 4
    if n > MAX_ORDER:
        raise ValueError(f"byte 1: graph order {n} exceeds cap {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    expect = body_start + (nbits + 5) // 6
    if len(data) != expect:
        raise ValueError(f"byte {len(s)}: expected {expect} bytes for order {n}, got {len(data)}")
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row in range(col):
            group = data[body_start + idx // 6] - 63
            if group >> (5 - idx % 6) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            idx += 1
    for pad in range(nbits, (nbits + 5) // 6 * 6):
        group = data[body_start + pad // 6] - 63
        if group >> (5 - pad % 6) & 1:
            raise ValueError(f"byte {body_start + pad // 6}: nonzero padding bit")
    return Graph(n, tuple(rows))


def reference_max_stable_sets(g: Graph) -> tuple[int, list[frozenset[int]]]:
    """Independence number and maximum stable sets, lexicographic order.

    Branches on the lowest candidate first, candidates kept above the
    largest chosen vertex, cut only when the set with every candidate stays
    below the best size; the leaves then come in lexicographic order.
    """
    full = g.vertex_mask
    co = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    best = 0
    family: list[frozenset[int]] = []
    chosen: list[int] = []

    def extend(cand: int) -> None:
        nonlocal best
        if not cand:
            if len(chosen) > best:
                best = len(chosen)
                family.clear()
            if len(chosen) == best:
                family.append(frozenset(chosen))
            return
        while cand:
            if len(chosen) + cand.bit_count() < best:
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            chosen.append(v)
            extend(co[v] & cand)
            chosen.pop()

    extend(full)
    return best, family
