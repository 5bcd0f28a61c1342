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

reference_percolation_run is the percolation kernel as it was before its
per-vertex quantities were computed in whole-row passes: a bit loop per
vertex for weight and influence, and one generator per row for the score.
percolation.run must return the same certificate, trail included, or raise
PercolationError with the same message and trail.
"""

import time
from fractions import Fraction
from math import comb

from cocritical import search
from cocritical.coloring import BlockPartition, EdgeColoring, _check_cover
from cocritical.graphs import MAX_ORDER, Graph, _clique_rec, bitmask, iter_bits, twin_masks
from cocritical.percolation import (
    PercolationCertificate,
    PercolationError,
    check_seeds,
    check_threshold,
)
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


def _ref_close(adj, n: int, seed_mask: int, q: int):
    """Run activation rounds; also count, per newly active vertex, its edges
    into the previously active set.  Those edges are pairwise distinct and lie
    inside the final closure, so their total is a certified lower bound on
    e(closure) of q per activated vertex."""
    active = seed_mask
    activation_edges = 0
    while True:
        newly = 0
        gained = 0
        for v in range(n):
            if active >> v & 1:
                continue
            d = (adj[v] & active).bit_count()
            if d >= q:
                newly |= 1 << v
                gained += d
        if not newly:
            break
        active |= newly
        activation_edges += gained
    return active, activation_edges


def _ref_measure(g: Graph, q: int, seed_mask: int):
    """Measure one seed set, in units of 1/(2q).

    Returns (closure mask, activation edges, exterior mask, weight of each
    exterior vertex as a dict, influence list, score list, bad mask).  Raises
    if a score exceeds its weight.  Each score is summed per influence class,
    which equals the sum over the neighbors because the classes split the
    neighborhood by the value of f (see the module docstring)."""
    adj = g.adj
    closure_mask, activation_edges = _ref_close(adj, g.n, seed_mask, q)
    ext_mask = g.vertex_mask & ~closure_mask
    weight = {
        v: 2 * q * (adj[v] & closure_mask).bit_count() + q * (adj[v] & ext_mask).bit_count()
        for v in iter_bits(ext_mask)
    }
    influence = [
        2 * q if seed_mask >> x & 1
        else q if closure_mask >> x & 1
        else (row & seed_mask).bit_count()
        for x, row in enumerate(adj)
    ]
    # one mask per nonzero influence value; an exterior d_seeds(x) may equal
    # q or 2q, so the masks are merged by value
    classes: dict[int, int] = {}
    for x, f in enumerate(influence):
        if f:
            classes[f] = classes.get(f, 0) | 1 << x
    score = [sum(f * (row & mask).bit_count() for f, mask in classes.items()) for row in adj]
    bad = 0
    for v, w in weight.items():
        # the potential never exceeds the weight it chases
        if score[v] > w:
            raise PercolationError(f"score exceeds weight at vertex {v}")
        if w < 2 * q * q:
            bad |= 1 << v
    return closure_mask, activation_edges, ext_mask, weight, influence, score, bad


def _ref_repair(g: Graph, partition: BlockPartition, q: int, iteration: int,
            seed_mask: int, closure_mask: int, bad: int) -> tuple[int, dict]:
    """One augmentation round: group bad vertices by their seed-neighborhood
    trace, add one booster per trace plus its bad block classmates and its
    old-closure neighborhood.  Returns the grown seed mask and the round's
    trail detail.

    The seed set may grow by at most B + q - 1 per trace, with B the size
    of the largest block, and a larger growth raises.  A trace adds its
    booster, the bad classmates that share the booster's block (at most
    B - 1 of them besides the booster), and the booster's closure
    neighbours.  The booster is exterior, so fewer than q of its neighbours
    lie in the closure, or it would have activated: at most q - 1 of them.
    """
    adj = g.adj
    traces: dict[int, int] = {}  # trace mask -> smallest bad representative
    for v in iter_bits(bad):
        traces.setdefault(adj[v] & seed_mask, v)
    seed_count = seed_mask.bit_count()
    trace_bound = sum(comb(seed_count, j) for j in range(q))
    if len(traces) > trace_bound:
        raise PercolationError(
            f"{len(traces)} traces exceed the size-{q - 1} neighborhood bound {trace_bound}"
        )

    added = 0
    detail: dict[str, dict] = {}
    for trace_mask, rep in traces.items():  # first-seen order: reps ascend
        ext_nbrs = adj[rep] & ~closure_mask
        if not ext_nbrs:
            raise PercolationError(f"bad vertex {rep} has no exterior neighbor")
        booster = (ext_nbrs & -ext_nbrs).bit_length() - 1
        block = next(b for b in partition.blocks if b >> booster & 1)
        classmates = [v for v in iter_bits(bad & block) if adj[v] & seed_mask == trace_mask]
        closure_nbrs = adj[booster] & closure_mask
        added |= 1 << booster | bitmask(classmates) | closure_nbrs
        detail[",".join(map(str, iter_bits(trace_mask)))] = {
            "representative": rep,
            "booster": booster,
            "classmates": classmates,
            "closure_neighbors": list(iter_bits(closure_nbrs)),
        }

    grown = seed_mask | added
    allowance = (max(b.bit_count() for b in partition.blocks) + q - 1) * len(traces)
    if grown.bit_count() > seed_count + allowance:
        raise PercolationError(
            f"seed growth {grown.bit_count() - seed_count} exceeds allowance {allowance}"
        )
    return grown, {
        "iteration": iteration,
        "trace_count": len(traces),
        "trace_bound": trace_bound,
        "growth_allowance": allowance,
        "traces": detail,
    }


def _ref_default_seed(g: Graph) -> int:
    """The lowest vertex of minimum degree."""
    adj = g.adj
    return min(range(g.n), key=lambda v: (adj[v].bit_count(), v))


def reference_percolation_run(
    g: Graph,
    partition: BlockPartition,
    q: int,
    seeds: frozenset[int] | None = None,
    check_progress: bool = True,
) -> PercolationCertificate:
    """Iterate repair steps until no bad vertex remains, then certify
    e(H) >= q * (n - |seeds|) by explicit counting.

    With check_progress any surviving bad vertex whose score rises by less
    than 1/(2q) aborts the run (trail attached); without it the run continues
    and the certificate comes back uncertified if violations occurred or bad
    vertices survive the iteration cap of 2*q*q.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices: nothing to percolate")
    check_threshold(q)
    _check_cover(g, partition)
    if g.min_degree() < q:
        raise ValueError(
            f"minimum degree {g.min_degree()} below threshold {q}: no certificate possible"
        )
    if seeds is None:
        seeds = frozenset({_ref_default_seed(g)})
    seeds = frozenset(seeds)
    check_seeds(seeds, g.n)

    cap = 2 * q * q
    seed_mask = bitmask(seeds)
    iteration = 0
    prev = info = None
    trail: list[dict] = []
    violations: list[str] = []
    while True:
        closure_mask, activation_edges, ext_mask, weight, influence, score, bad = _ref_measure(
            g, q, seed_mask
        )
        entry = {
            "iteration": iteration,
            "seeds": list(iter_bits(seed_mask)),
            "closure_size": closure_mask.bit_count(),
            "exterior_size": ext_mask.bit_count(),
            "bad": list(iter_bits(bad)),
            "activation_edges": activation_edges,
        }
        if prev is not None:
            old_closure, old_influence, old_score, old_bad = prev
            if old_closure & ~closure_mask:
                raise PercolationError("closure not monotone under seed growth")
            if bad & ~old_bad:
                raise PercolationError("bad set gained a vertex")
            for x in range(g.n):
                if influence[x] < old_influence[x]:
                    raise PercolationError(f"influence dropped at vertex {x}")
            for v in iter_bits(bad):
                gain = score[v] - old_score[v]
                if gain < 1:  # the floor 1/(2q), in units of 1/(2q)
                    msg = (
                        f"iteration {iteration}: bad vertex {v} gained "
                        f"{Fraction(gain, 2 * q)} < {Fraction(1, 2 * q)}"
                    )
                    violations.append(msg)
                    if check_progress:
                        trail.append(entry)
                        raise PercolationError(msg, tuple(trail))
            entry["step"] = info
        trail.append(entry)
        if not bad or iteration == cap:
            break
        iteration += 1
        prev = closure_mask, influence, score, bad
        seed_mask, info = _ref_repair(g, partition, q, iteration, seed_mask, closure_mask, bad)
    if bad and check_progress:
        raise PercolationError(
            f"bad vertices {list(iter_bits(bad))} survived {cap} iterations", tuple(trail)
        )

    adj = g.adj
    e_closure = sum((adj[v] & closure_mask).bit_count() for v in iter_bits(closure_mask)) // 2
    e_between = sum((adj[v] & ext_mask).bit_count() for v in iter_bits(closure_mask))
    e_ext = sum((adj[v] & ext_mask).bit_count() for v in iter_bits(ext_mask)) // 2
    e_total = g.edge_count()
    if e_closure + e_between + e_ext != e_total:
        raise PercolationError("edge partition does not add up", tuple(trail))
    activated = closure_mask.bit_count() - seed_mask.bit_count()
    if activation_edges < q * activated:
        raise PercolationError("activation edges fall short of q per vertex", tuple(trail))
    if e_closure < activation_edges:
        raise PercolationError("closure has fewer edges than were counted into it", tuple(trail))
    weight_sum = sum(weight.values())
    if weight_sum != 2 * q * (e_between + e_ext):
        raise PercolationError("exterior weights do not sum to their edges", tuple(trail))

    certified = not bad and not violations
    bound = q * (g.n - seed_mask.bit_count())
    if certified:
        # bad is empty, so weight_sum >= q|Y| and the three-way split yields the bound
        if weight_sum < 2 * q * q * ext_mask.bit_count():
            raise PercolationError("exterior weight below q per vertex", tuple(trail))
        if e_total < bound:
            raise PercolationError("certified bound exceeds the actual edge count", tuple(trail))
    return PercolationCertificate(
        q,
        tuple(sorted(seeds)),
        tuple(iter_bits(seed_mask)),
        iteration,
        certified,
        closure_mask.bit_count(),
        ext_mask.bit_count(),
        e_total,
        e_closure,
        e_between,
        e_ext,
        activation_edges,
        activated,
        bound,
        tuple(violations),
        tuple(trail),
    )
