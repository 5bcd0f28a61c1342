"""Co-criticality verification and structural consequence checks.

A non-complete graph is co-critical for (t, k) when it has a good coloring
(no red clique on t vertices, no blue component on k) but gains none back
after any single edge addition: no supergraph g+e has one.  Every good
coloring of g+e restricts to one of g, so the verifier walks the good
partitions of g once and asks at each leaf which non-edges it would let
back in.  It keeps the three possible answers apart: co-critical,
demonstrably not, or indeterminate because the budget ran out.  The same
walk keeps the maximum-red good coloring, which a co-critical report carries.
Like every walk, it skips partitions that differ from a visited one only by
permuting twin vertices, and a non-edge settled there settles every non-edge
of its twin type.

The structural checks take the report alone and read the graph, (t, k)
and that coloring off it, so they walk nothing again.  They translate what
must hold for verified co-critical graphs under a maximum-red coloring into
executable form: degree windows on the red side, cliques in common
cross-neighborhoods behind every missing cross edge, forced block sizes next
to singleton blocks, a clean minimum-degree neighborhood, a degree/k
trade-off, a strict lower bound on within-block edges, and connectivity of
the cross graph.  The two neighborhood items ask which vertices lie in
every K_{t-2} inside a neighborhood of the cross graph;
graphs.clique_core_in_mask answers that on the cross graph's own vertices,
so the edges they report are its edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .canon import GENERATION_ORDER_CAP, iter_classes
from .coloring import (
    BlockPartition,
    EdgeColoring,
    block_rows,
    blue_blocks,
    check_parameters,
    is_critical,
    make_coloring,
)
from .construction import block_edge_lower_bound, ramsey_number
from .graphs import (
    Graph,
    _clique_rec,
    clique_core_in_mask,
    components,
    iter_bits,
    twin_masks,
)
from .graph6 import emit_graph6
from .search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchBudget,
    _assert_witness,
    _max_red_step,
    _walk_partitions,
)

Edge = tuple[int, int]

CO_CRITICAL = "co-critical"
NOT_CO_CRITICAL = "not-co-critical"
INDETERMINATE = "indeterminate"

STILL_COLORABLE = "still-colorable"
BUDGET = "budget"


@dataclass(frozen=True)
class CocriticalReport:
    t: int
    k: int
    non_edge_count: int
    base_status: str
    base_witness: BlockPartition | None
    failures: tuple[tuple[Edge, str], ...]
    nodes: int
    millis: float
    complete: bool
    coloring: EdgeColoring | None = None  # max-red, kept only when co-critical

    @property
    def is_cocritical(self) -> bool:
        return self.verdict() == CO_CRITICAL

    def verdict(self) -> str:
        if self.non_edge_count == 0:
            return NOT_CO_CRITICAL  # complete graphs are excluded by definition
        if self.base_status == BUDGET_EXCEEDED:
            return INDETERMINATE
        if self.base_status == EXHAUSTED:
            return NOT_CO_CRITICAL
        if any(reason == STILL_COLORABLE for _, reason in self.failures):
            return NOT_CO_CRITICAL
        if any(reason == BUDGET for _, reason in self.failures) or not self.complete:
            return INDETERMINATE
        return CO_CRITICAL

    def to_json(self) -> dict:
        # millis stays out, so two runs of one question give the same
        # results; the CLI reports it as timings.walk_ms
        return {
            "t": self.t,
            "k": self.k,
            "non_edges": self.non_edge_count,
            "verdict": self.verdict(),
            "is_cocritical": self.is_cocritical,
            "base_status": self.base_status,
            "base_witness": None if self.base_witness is None else self.base_witness.to_json(),
            "failures": [[list(edge), reason] for edge, reason in self.failures],
            "nodes": self.nodes,
            "complete": self.complete,
        }


def is_cocritical(
    g: Graph,
    t: int,
    k: int,
    budget: SearchBudget = SearchBudget(),
    fail_fast: bool = False,
) -> CocriticalReport:
    """Full co-criticality report from one walk over the good partitions of g.

    Soundness is the restriction argument.  A good coloring of g+uv,
    restricted to g, is a good coloring of g, and a graph has a good coloring
    iff it has a good block partition (blue components as blocks).  Hence
    g+uv has a good coloring iff some good partition P of g satisfies one of:

    1. u and v share a block: P is good for g+uv, uv blue inside the block;
    2. B(u) and B(v) together hold at most k-1 vertices: merging them
       through a blue uv gives a connected block of at most k-1 vertices and
       removes cross edges (with B(u) = B(v) this always holds: case 1);
    3. cross[u] & cross[v] holds no K_{t-2}: uv can be red without closing a
       red K_t.

    Conversely let Q be a good partition of g+uv.  If u and v lie in
    different blocks, Q is good for g and (3) holds.  If they share a block
    that g keeps connected, Q is good for g and (1) holds.  Otherwise uv is a
    bridge of that block; its two sides have no g-edge between them, so
    splitting the block leaves the cross graph unchanged and (2) holds.

    Twins.  The walk keeps only the partitions that obey the lex-leader twin
    rule (search._walk_partitions): every orbit of good partitions under
    permutations inside twin classes has a member that obeys it.  A
    non-edge's type is the unordered pair of its ends' twin classes; a
    permutation inside the classes sends any non-edge of a type
    to any other and g+uv onto g+u'v', so the non-edges of one type all
    arrow or all do not.  A leaf that settles uv settles its whole type, and
    the orbit argument shows that every type some good partition settles is
    settled by a visited one.  Each reported non-edge's witness is the
    settling leaf mapped by the twin permutation that sends the settled
    non-edge to it (_twin_image), built only for the non-edges the report
    lists and re-checked on g+uv.  The base witness is the walk's first leaf,
    which the walk re-checks itself.

    The walk therefore tests every open non-edge at every leaf, skipping one
    whose type an earlier non-edge of the leaf settled, and stops once no
    type is open, or under fail_fast at the first non-edge a leaf settles.
    A non-edge still open when the walk is exhausted is arrowed; one still
    open when the budget runs out is reported as BUDGET.  The budget bounds
    this one walk, the max-red leaf step included, and the report carries
    its nodes and millis.  Every non-edge is checked, in g.non_edges() order,
    except that under fail_fast a stopped walk checks only the first
    non-edge, in that order, that its stopping leaf settled itself (report
    marked incomplete when others remain).  That leaf is the walk's first
    settling leaf.  Twin swaps preserve being a leaf and settling some
    non-edge, so by search._walk_partitions, "Walk order", the base witness
    and the first settling leaf are also those of the walk without the twin
    rule.

    Without fail_fast, every leaf also goes to search._max_red_step until a
    non-edge is settled.  A co-critical report (nothing settled, walk
    exhausted) has put every leaf of the walk through that step, which is
    what max_red_critical_coloring does, so it carries the coloring that
    max_red_critical_coloring returns.  A fail_fast walk may stop at any
    settling leaf, so it keeps no coloring.
    """
    deadline = time.perf_counter() + budget.time_cap
    adj, limit, need = g.adj, k - 1, t - 2
    twin_of = twin_masks(g)
    non_edges = g.non_edges()
    open_edges = list(non_edges)
    # non-edge type (the union of its ends' twin classes) -> the first
    # non-edge of that type a leaf settled, and that good partition of g+uv
    settled: dict[int, tuple[Edge, list[int]]] = {}
    best: list = []  # blue edges of the max-red refinement so far

    def on_partition(blocks: list[int]) -> bool:
        leaf = list(blocks)  # the walker reuses its list
        block_of, cross = block_rows(adj, blocks)
        still_open = []
        for u, v in open_edges:
            kind = twin_of[u] | twin_of[v]
            if kind in settled:
                continue  # an earlier non-edge of this leaf settled the type
            bu, bv = block_of[u], block_of[v]
            if (bu | bv).bit_count() <= limit:  # (1) is the case bu == bv
                merged = [m for m in leaf if m not in (bu, bv)] + [bu | bv]
                witness = sorted(merged, key=lambda m: m & -m)
            elif not _clique_rec(cross, cross[u] & cross[v], need):
                witness = leaf
            else:
                still_open.append((u, v))
                continue
            settled[kind] = ((u, v), witness)
            if fail_fast:
                return True
        if len(still_open) < len(open_edges):  # this leaf settled a type
            still_open = [(u, v) for u, v in still_open if twin_of[u] | twin_of[v] not in settled]
        open_edges[:] = still_open
        if not (fail_fast or settled):
            _max_red_step(g, t, blocks, best, deadline)
        return not open_edges

    status, nodes, millis, base_witness = _walk_partitions(g, t, k, budget, on_partition)
    if base_witness is None:
        # no good base coloring, or none found within the budget
        return CocriticalReport(t, k, len(non_edges), status, None, (), nodes, millis, True)
    checked = non_edges
    if fail_fast and settled:
        # the one settling leaf tested in non_edges order: its first hit
        checked = [next(iter(settled.values()))[0]]
    failures: list[tuple[Edge, str]] = []
    for e in checked:
        hit = settled.get(twin_of[e[0]] | twin_of[e[1]])
        if hit is not None:
            source, witness = hit
            if source != e:
                witness = _twin_image(witness, source, e, twin_of)
            u, v = e
            plus = list(adj)
            plus[u] |= 1 << v
            plus[v] |= 1 << u
            _assert_witness(plus, t, k, witness)
            failures.append((e, STILL_COLORABLE))
        elif status == BUDGET_EXCEEDED:
            failures.append((e, BUDGET))
    report = CocriticalReport(
        t,
        k,
        len(non_edges),
        FOUND,
        base_witness,
        tuple(failures),
        nodes,
        millis,
        len(checked) == len(non_edges),
    )
    if fail_fast or not report.is_cocritical:
        return report
    coloring = make_coloring(g, best[0])
    assert is_critical(coloring, t, k)
    return replace(report, coloring=coloring)


def _twin_image(blocks: list[int], source: Edge, target: Edge, twin_of: list[int]) -> list[int]:
    """Map a good partition of g+source to one of g+target, for two non-edges
    of the same type, by a permutation inside twin classes.

    The permutation sends the ends of source to the ends of target (pairing
    ends of the same class) and the other members of each class involved to
    the other members in ascending order; it is an automorphism of g that
    sends g+source onto g+target.
    """
    (a, b), (u, v) = source, target
    if twin_of[a] != twin_of[u]:
        u, v = v, u
    perm: dict[int, int] = {}
    for members in {twin_of[a], twin_of[b]}:
        ends = [(x, y) for x, y in ((a, u), (b, v)) if twin_of[x] == members]
        sources = [x for x, _ in ends] + [x for x in iter_bits(members) if x not in (a, b)]
        targets = [y for _, y in ends] + [y for y in iter_bits(members) if y not in (u, v)]
        perm.update(zip(sources, targets))
    image = [sum(1 << perm.get(x, x) for x in iter_bits(m)) for m in blocks]
    return sorted(image, key=lambda m: m & -m)


# --- structure of good colorings on co-critical graphs ----------------------


def check_critical_structure(c: EdgeColoring, t: int, k: int) -> list[str]:
    """Violations of the blue-component structure forced by co-criticality.

    On a co-critical graph every good coloring must have blue components that
    induce complete subgraphs, the components on fewer than k/2 vertices must
    be pairwise fully adjacent in the base graph c.base, and there can be at
    most t-1 of those small ones.  Returns human-readable violations; empty
    means the coloring is consistent with co-criticality of its base graph.
    """
    g = c.base
    if not is_critical(c, t, k):
        raise ValueError("coloring is not good for these parameters")
    violations: list[str] = []
    blocks = blue_blocks(c).to_json()
    for members in blocks:
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if not g.has_edge(u, v):
                    violations.append(
                        f"blue component {members} misses base edge ({u},{v})"
                    )
    small = [b for b in blocks if 2 * len(b) < k]
    for i, b1 in enumerate(small):
        for b2 in small[i + 1 :]:
            for u in b1:
                for v in b2:
                    if not g.has_edge(u, v):
                        violations.append(
                            f"small components {b1} and {b2} "
                            f"miss edge ({u},{v})"
                        )
    if len(small) > t - 1:
        violations.append(f"{len(small)} components below k/2 vertices exceeds t-1 = {t - 1}")
    return violations


@dataclass(frozen=True)
class StructureItem:
    applicable: bool
    passed: bool | None
    details: dict

    def to_json(self) -> dict:
        return {"applicable": self.applicable, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class StructureReport:
    t: int
    k: int
    coloring: EdgeColoring
    blocks: BlockPartition
    items: dict[str, StructureItem]

    def all_passed(self) -> bool:
        return all(item.passed for item in self.items.values() if item.applicable)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "k": self.k,
            "blocks": self.blocks.to_json(),
            "all_passed": self.all_passed(),
            "items": {name: item.to_json() for name, item in self.items.items()},
        }


def saturation_structure_checks(report: CocriticalReport) -> StructureReport:
    """Evaluate the structural facts that hold for verified co-critical graphs.

    Takes a report from is_cocritical and walks nothing: the graph is the
    base of the report's maximum-red good coloring, and (t, k) are the
    report's.  Refuses a report whose verdict is not co-critical, and one
    that carries no coloring (fail_fast keeps none).  The checks run against
    that coloring and its cross graph; conditional items report
    applicable=False when their hypotheses are not met.
    """
    if report.verdict() != CO_CRITICAL:
        raise ValueError(
            f"structure checks need a verified co-critical graph, got {report.verdict()}"
        )
    tau = report.coloring
    if tau is None:
        raise ValueError("report carries no max-red coloring (fail_fast keeps none)")
    g, t, k = tau.base, report.t, report.k
    blocks = blue_blocks(tau)
    block_of, cross = block_rows(g.adj, blocks.blocks)
    H = Graph(g.n, tuple(cross))
    n = g.n
    items: dict[str, StructureItem] = {}

    red = tau.red_graph()
    max_red, min_red = red.max_degree(), red.min_degree()
    items["degree_bounds"] = StructureItem(
        True,
        max_red <= n - 2 and min_red >= 2 * (t - 2),
        {"max_red_degree": max_red, "min_red_degree": min_red, "max_allowed": n - 2, "min_required": 2 * (t - 2)},
    )

    cross_nonedges = [(u, v) for u, v in g.non_edges() if block_of[u] != block_of[v]]
    failures_b = [
        (u, v)
        for u, v in cross_nonedges
        if not _clique_rec(H.adj, H.adj[u] & H.adj[v], t - 2)
    ]
    items["cross_nonedge_clique"] = StructureItem(
        bool(cross_nonedges),
        not failures_b if cross_nonedges else None,
        {"checked": len(cross_nonedges), "failures": [list(e) for e in failures_b]},
    )

    items["forced_block_sizes"] = _forced_block_sizes_item(H, blocks, t, k)
    items["min_neighborhood_core"] = _min_neighborhood_core_item(H, t, k)

    delta_h = H.min_degree()
    items["degree_tradeoff"] = StructureItem(
        True,
        k >= 2 * t - 1 - delta_h and delta_h >= t - 1,
        {"min_cross_degree": delta_h, "k_required": 2 * t - 1 - delta_h, "degree_required": t - 1},
    )

    within = g.edge_count() - H.edge_count()
    rhs = block_edge_lower_bound(t, k, n)
    items["block_edge_total"] = StructureItem(
        True,
        Fraction(within) > rhs,
        {"within_block_edges": within, "strict_lower_bound": str(rhs)},
    )

    cross_components = len(components(H))
    items["cross_graph_connected"] = StructureItem(
        True, cross_components == 1, {"components": cross_components}
    )

    return StructureReport(t, k, tau, blocks, items)


def _forced_block_sizes_item(H: Graph, blocks: BlockPartition, t: int, k: int) -> StructureItem:
    """Singleton blocks pinned inside every neighborhood clique force all the
    blocks they do not dominate to be full size."""
    singletons = [b.bit_length() - 1 for b in blocks.blocks if b.bit_count() == 1]
    triggered = 0
    failures: list[dict] = []
    for v in singletons:
        for u in iter_bits(H.adj[v]):
            nb = H.adj[u]
            core = clique_core_in_mask(H, nb, t - 2)
            if core is None or v not in core:
                continue
            triggered += 1
            for b in blocks.blocks:
                if b >> u & 1:
                    continue
                if b & ~nb and b.bit_count() != k - 1:
                    members = list(iter_bits(b))
                    failures.append(
                        {"singleton": v, "edge_end": u, "block": members, "size": len(members)}
                    )
    return StructureItem(
        triggered > 0,
        (not failures) if triggered else None,
        {"triggered_pairs": triggered, "failures": failures},
    )


def _min_neighborhood_core_item(H: Graph, t: int, k: int) -> StructureItem:
    """At low minimum cross degree (and k >= t) no edge of a minimum-degree
    vertex's neighborhood may lie in every max-order clique of it."""
    delta_h = H.min_degree()
    applicable = delta_h <= 2 * t - 5 and k >= t
    if not applicable:
        return StructureItem(False, None, {"min_cross_degree": delta_h, "threshold": 2 * t - 5})
    failures: list[dict] = []
    checked = []
    for u in range(H.n):
        if H.degree(u) != delta_h:
            continue
        core = clique_core_in_mask(H, H.adj[u], t - 2)
        if core is None:
            checked.append({"vertex": u, "cliques": 0})
            continue
        checked.append({"vertex": u, "core_size": len(core)})
        # the core lies inside a clique, so every pair in it is an edge of H
        pinned = [list(e) for e in combinations(sorted(core), 2)]
        if pinned:
            failures.append({"vertex": u, "pinned_edges": pinned})
    return StructureItem(True, not failures, {"checked": checked, "failures": failures})


# --- smallest co-critical graphs by exhaustive scan --------------------------


@dataclass(frozen=True)
class MinSearchResult:
    t: int
    k: int
    n: int
    minimum_edges: int | None
    witnesses: tuple[Graph, ...]
    examined: int
    indeterminate: tuple[tuple[Graph, int], ...]
    refuted: int  # examined classes decided by _refuting_non_edge, no walk

    @property
    def complete(self) -> bool:
        return not self.indeterminate

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "k": self.k,
            "n": self.n,
            "minimum_edges": self.minimum_edges,
            "witnesses": [emit_graph6(g) for g in self.witnesses],
            "examined": self.examined,
            "complete": self.complete,
            "indeterminate": [
                {"graph6": emit_graph6(g), "edges": e} for g, e in self.indeterminate
            ],
            "refuted": self.refuted,
        }


def _refuting_non_edge(g: Graph, t: int) -> Edge | None:
    """The first non-edge uv, in g.non_edges() order, whose common
    neighbourhood N(u) & N(v) holds no K_{t-2}; None if there is none.

    Such a non-edge shows that g is not co-critical; min_cocritical_search
    gives the argument.  The scan walks each row's non-neighbours above u
    lowest first, which is g.non_edges() order, and builds no list.
    """
    adj, need, full = g.adj, t - 2, g.vertex_mask
    for u in range(g.n):
        rest = full & ~adj[u] & ~((2 << u) - 1)  # non-neighbours above u
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if not _clique_rec(adj, adj[u] & adj[v], need):
                return u, v
    return None


def min_cocritical_search(
    t: int, k: int, n: int, budget: SearchBudget = SearchBudget()
) -> MinSearchResult:
    """Scan every graph on n vertices up to isomorphism, in edge-count order,
    for co-critical ones; report the minimum size and all witnesses there.

    The scan stops once the edge count passes a confirmed minimum.  Budget
    caps apply to each individual search; graphs left indeterminate by them
    are reported and make the result incomplete.  Parameters are checked
    before any class is generated.

    Below Chvátal's order r(K_t, T_k) = (t-1)(k-1)+1
    (construction.ramsey_number) nothing is generated: the answer is no
    minimum, complete, with nothing examined, whatever the budget.
    Soundness: for n <= (t-1)(k-1), split K_n into t-1 parts of at most k-1
    vertices each, colour the edges inside the parts blue and those across
    them red.  Every blue component has fewer than k vertices, and the red
    graph is (t-1)-partite, so it holds no K_t.  Every g+uv on n vertices
    is a subgraph of K_n and inherits this good colouring, so no g on n
    vertices is co-critical.

    A class with a refuting non-edge (_refuting_non_edge) is decided without
    a walk: it is not co-critical, and it counts in examined and in refuted.
    Soundness, for a non-edge uv whose common neighbourhood holds no K_{t-2}:

    - if g has no good coloring, then g arrows (K_t, T_k), so g is not
      co-critical;
    - otherwise take any good coloring of g and color uv red.  A red K_t
      through uv would need t-2 common red neighbours of u and v forming a
      clique, that is a K_{t-2} inside N(u) & N(v), and there is none; the
      blue graph is unchanged.  So g+uv keeps a good coloring and g is not
      co-critical either.

    This is condition (3) of is_cocritical with G's rows for the cross rows:
    cross rows are subsets of G's rows, so such a uv is settled at every good
    partition.  For t = 2 the lemma never fires, since every set holds a K_0,
    so the scan for a refuting non-edge is skipped there.
    """
    check_parameters(t, k)
    if not 1 <= n <= GENERATION_ORDER_CAP:
        raise ValueError(f"n must be between 1 and {GENERATION_ORDER_CAP}, got {n}")
    if n < ramsey_number(t, k):
        return MinSearchResult(t, k, n, None, (), 0, (), 0)
    minimum: int | None = None
    witnesses: list[Graph] = []
    indeterminate: list[tuple[Graph, int]] = []
    examined = refuted = 0
    for g in iter_classes(n):
        e = g.edge_count()
        if minimum is not None and e > minimum:
            break
        if e == n * (n - 1) // 2:
            continue  # complete graph can never be co-critical
        examined += 1
        if t > 2 and _refuting_non_edge(g, t) is not None:
            refuted += 1
            continue
        report = is_cocritical(g, t, k, budget, fail_fast=True)
        verdict = report.verdict()
        if verdict == CO_CRITICAL:
            minimum = e
            witnesses.append(g)
        elif verdict == INDETERMINATE:
            indeterminate.append((g, e))
    return MinSearchResult(
        t, k, n, minimum, tuple(witnesses), examined, tuple(indeterminate), refuted
    )
