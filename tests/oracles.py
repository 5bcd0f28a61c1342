"""Test-side oracles that list every good coloring of a small graph.

enumerate_critical_colorings walks the good partitions without the twin rule
and takes every item of each leaf's good refinements; brute_force_critical_colorings
scans all 2^e colorings.  The tests check each against the other and use them
to cross-check the library's queries.  Both reach the walk, the scan and
make_coloring through the search module, so a test that patches one of
those there sees their calls.
"""

import time

from cocritical import search
from cocritical.coloring import EdgeColoring
from cocritical.graphs import Graph, iter_bits

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
