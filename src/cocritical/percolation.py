"""Weighted bootstrap percolation on cross graphs, with edge-count certificates.

An inactive vertex activates once it has q active neighbors; the closure of a
seed set is everything that eventually activates.  Counting activation edges
gives e(closure) >= q * (closure - seeds), and when every exterior vertex v
carries weight

    omega(v) = deg into closure + (deg inside exterior) / 2  >= q

the exterior contributes q per vertex as well, so in total

    e(H) >= q * (n - |seeds|).

The run loop repairs exterior vertices of low weight ("bad") by augmenting
the seed set along their neighborhood traces: each distinct trace donates one
booster (an exterior neighbor of the smallest bad representative), the bad
classmates sharing the booster's block, and the booster's old-closure
neighborhood.  The influence f(x) is 1 on seeds, 1/2 on the rest of the
closure and d_seeds(x)/(2q) outside it; the potential phi(v), the total
influence over the neighborhood of v, never exceeds omega(v) on the exterior.
phi must rise by at least 1/(2q) on every surviving bad vertex per iteration,
which bounds the loop by 2*q*q iterations.

Every one of these rationals is a multiple of 1/(2q), so the module keeps
them as exact integers in units of 1/(2q): omega(v) is 2q*d_closure(v) +
q*d_exterior(v); f(x) is 2q on seeds, q on the rest of the closure and
d_seeds(x) outside; phi(v) is the sum of f over N(v); a vertex is bad when its
weight is below 2q^2; and the progress floor is 1.  Fractions appear only in
messages.

Each quantity is one pass over the rows or over the exterior, and omega(v)
is taken as q*(deg(v) + d_closure(v)) (see _measure).  phi is summed per
influence class: the vertices sharing one value c of f form a mask, and
phi(v) is the sum over c of c * |N(v) & mask_c|.  The masks partition the
vertices of nonzero influence, so each neighbor is counted once, at its own
f, and the class sum is the per-neighbor sum exactly.  The seeds (2q) and
the rest of the closure (q) give q*(d_seeds(v) + d_closure(v)) together.  An
exterior vertex has fewer than q active neighbors, or it would have
activated, so its d_seeds(x) is at most q - 1 and never meets q or 2q: each
value of the exterior vertices adjacent to a seed is a class of its own, one
more popcount per row, and every other exterior vertex has influence 0.

Every inequality the final certificate relies on is re-established by
explicit counting, and any violation raises with the full iteration trail
attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import lt

from .coloring import BlockPartition, _check_cover
from .graphs import Graph, bitmask, iter_bits


class PercolationError(RuntimeError):
    """Raised when a run cannot certify its bound; carries the iteration trail."""

    def __init__(self, message: str, trail: tuple[dict, ...] = ()):
        super().__init__(message)
        self.trail = trail


def closure(g: Graph, seeds: frozenset[int], q: int) -> frozenset[int]:
    """Seeds plus everything that activates at threshold q.

    q below 1 and a seed outside 0..n-1 raise ValueError with run's
    messages; no seeds close to the empty set."""
    check_threshold(q)
    if seeds:
        check_seeds(seeds, g.n)
    active, _ = _close(g.adj, g.n, bitmask(seeds), q)
    return frozenset(iter_bits(active))


def _close(adj, n: int, seed_mask: int, q: int):
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


def _measure(g: Graph, q: int, seed_mask: int):
    """Measure one seed set, in units of 1/(2q).

    Returns (closure mask, activation edges, exterior mask, weight of each
    exterior vertex as a dict, influence list, score list, bad mask).  Raises
    if a score exceeds its weight.

    The weight 2q*d_C(v) + q*d_Y(v) is q*(deg(v) + d_C(v)), because a
    loop-free graph has d_C(v) + d_Y(v) = deg(v); run checks the weight sum
    against its own count of the edges between C and Y and inside Y.  The
    score is summed per influence class (see the module docstring)."""
    adj = g.adj
    closure_mask, activation_edges = _close(adj, g.n, seed_mask, q)
    ext_mask = g.vertex_mask & ~closure_mask
    exterior = [v for v in range(g.n) if ext_mask >> v & 1]
    d_seeds = [(row & seed_mask).bit_count() for row in adj]
    d_closure = [(row & closure_mask).bit_count() for row in adj]
    weight = {v: q * (adj[v].bit_count() + d_closure[v]) for v in exterior}
    influence = d_seeds[:]
    for x in iter_bits(closure_mask & ~seed_mask):
        influence[x] = q
    seed_nbrs = 0
    for x in iter_bits(seed_mask):
        influence[x] = 2 * q
        seed_nbrs |= adj[x]
    # 2q on S and q on C minus S give q*(d_S + d_C); an exterior vertex has
    # fewer than q active neighbors, so d_S(x) <= q - 1 and each exterior
    # value is a class of its own
    classes: dict[int, int] = {}
    for x in iter_bits(seed_nbrs & ext_mask):
        classes[d_seeds[x]] = classes.get(d_seeds[x], 0) | 1 << x
    score = [q * (s + c) for s, c in zip(d_seeds, d_closure)]
    for f, mask in classes.items():
        score = [s + f * (row & mask).bit_count() for s, row in zip(score, adj)]
    # the potential never exceeds the weight it chases
    over = [v for v in exterior if score[v] > weight[v]]
    if over:
        raise PercolationError(f"score exceeds weight at vertex {over[0]}")
    bad = bitmask([v for v in exterior if weight[v] < 2 * q * q])
    return closure_mask, activation_edges, ext_mask, weight, influence, score, bad


def _repair(g: Graph, partition: BlockPartition, q: int, iteration: int,
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


@dataclass(frozen=True)
class PercolationCertificate:
    q: int
    seed_origin: tuple[int, ...]
    seeds: tuple[int, ...]
    iterations: int
    certified: bool
    closure_size: int
    exterior_size: int
    edges_total: int
    edges_inside_closure: int
    edges_between: int
    edges_inside_exterior: int
    activation_edges: int
    activated: int
    edge_lower_bound: int
    progress_violations: tuple[str, ...]
    trail: tuple[dict, ...]

    def to_json(self) -> dict:
        """The fields in declaration order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


def check_threshold(q: int) -> None:
    if q < 1:
        raise ValueError("threshold q must be at least 1")


def check_seeds(seeds: frozenset[int], n: int) -> None:
    """Reject an empty seed set or a seed that is not a vertex 0..n-1."""
    if not seeds:
        raise ValueError("seeds must be nonempty")
    for v in sorted(seeds):
        if not 0 <= v < n:
            where = f"outside 0..{n - 1}" if n else "given, but the graph has no vertices"
            raise ValueError(f"seed vertex {v} {where}")


def run(
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
    adj = g.adj
    degrees = [row.bit_count() for row in adj]
    low = min(degrees)
    if low < q:
        raise ValueError(f"minimum degree {low} below threshold {q}: no certificate possible")
    if seeds is None:
        seeds = frozenset({degrees.index(low)})  # the lowest vertex of minimum degree
    seeds = frozenset(seeds)
    check_seeds(seeds, g.n)

    cap = 2 * q * q
    seed_mask = bitmask(seeds)
    iteration = 0
    prev = info = None
    trail: list[dict] = []
    violations: list[str] = []
    while True:
        closure_mask, activation_edges, ext_mask, weight, influence, score, bad = _measure(
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
            if any(map(lt, influence, old_influence)):
                x = next(x for x in range(g.n) if influence[x] < old_influence[x])
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
        seed_mask, info = _repair(g, partition, q, iteration, seed_mask, closure_mask, bad)
    if bad and check_progress:
        raise PercolationError(
            f"bad vertices {list(iter_bits(bad))} survived {cap} iterations", tuple(trail)
        )

    closed = [adj[v] for v in iter_bits(closure_mask)]
    e_closure = sum([(row & closure_mask).bit_count() for row in closed]) // 2
    e_between = sum([(row & ext_mask).bit_count() for row in closed])
    e_ext = sum([(adj[v] & ext_mask).bit_count() for v in iter_bits(ext_mask)]) // 2
    e_total = sum(degrees) // 2
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
