"""Small graph families that only the tests build: the empty graph, cycles,
paths and the disjoint union."""

from cocritical.graphs import MAX_ORDER, Graph, make_graph


def empty_graph(n: int) -> Graph:
    return make_graph(n, [])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return make_graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(v, v + 1) for v in range(n - 1)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """a followed by b, b's vertex ids shifted up by a.n."""
    if a.n + b.n > MAX_ORDER:
        raise ValueError("union exceeds maximum order")
    rows = list(a.adj) + [row << a.n for row in b.adj]
    return Graph(a.n + b.n, tuple(rows))
