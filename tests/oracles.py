"""Test-side oracles: slower, simpler routes to what the library computes.

enumerate_critical_colorings walks the good partitions without the twin rule
and takes every item of each leaf's good refinements; brute_force_critical_colorings
scans all 2^e colorings.  The tests check each against the other and use them
to cross-check the library's queries.  Both reach the walk, the scan and
make_coloring through the search module, so a test that patches one of
those there sees their calls.

reference_parse_graph6 decodes graph6 bit by bit and reference_max_stable_sets
searches stable sets with the popcount cut alone; the library's
graph6.parse_graph6 and graphs.max_stable_sets must agree with them exactly,
error messages and family order included.
"""

import time

from cocritical import search
from cocritical.coloring import EdgeColoring
from cocritical.graphs import MAX_ORDER, Graph, iter_bits

ENUMERATION_CAP = 10**6


def enumerate_critical_colorings(
    g: Graph, t: int, k: int, budget: search.SearchBudget = search.SearchBudget()
) -> list[EdgeColoring]:
    """All good colorings, ordered by partition then blue edge set.

    The result is truncated at ENUMERATION_CAP; running out of nodes or
    time before the space is exhausted raises instead, because a partial
    answer to "list them all" is not an answer.  Each leaf's colorings come
    from search._good_refinements, which also checks the time cap; an
    EdgeColoring is built only for each coloring returned.
    """
    results: list[tuple[tuple, tuple]] = []
    deadline = time.perf_counter() + budget.time_cap

    def on_partition(blocks: list[int]) -> bool:
        part_key = tuple(tuple(iter_bits(m)) for m in blocks)
        results.extend(
            (part_key, blue) for blue in search._good_refinements(g, t, blocks, deadline=deadline)
        )
        return len(results) >= ENUMERATION_CAP

    status, nodes, _, _ = search._walk_partitions(g, t, k, budget, on_partition)
    if status == search.BUDGET_EXCEEDED:
        raise search.IndeterminateResultError(f"enumeration incomplete after {nodes} nodes")
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
