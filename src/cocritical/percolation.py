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
neighborhood.  A potential function phi (the influence-weighted neighborhood
score) must rise by at least 1/(2q) on every surviving bad vertex per
iteration, which bounds the loop by 2*q*q iterations.  Every inequality the
final certificate relies on is re-established by explicit counting, and any
violation raises with the full iteration trail attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .coloring import BlockPartition
from .graphs import Graph, bitmask, iter_bits

PROGRESS_GAIN_DENOMINATOR = 2  # surviving bad vertices must gain 1/(2q) per step


class PercolationError(RuntimeError):
    """Raised when a run cannot certify its bound; carries the iteration trail."""

    def __init__(self, message: str, trail: tuple[dict, ...] = ()):
        super().__init__(message)
        self.trail = trail


def closure(g: Graph, seeds: frozenset[int], q: int) -> frozenset[int]:
    """Seeds plus everything that activates at threshold q."""
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


@dataclass(frozen=True, eq=False)
class PercolationState:
    graph: Graph
    partition: BlockPartition
    q: int
    iteration: int
    seeds: frozenset[int]
    closure: frozenset[int]
    activation_edges: int
    exterior: frozenset[int]
    bad: frozenset[int]
    weight_of: dict[int, Fraction]
    influence_of: dict[int, Fraction]
    score_of: dict[int, Fraction]
    last_step: dict | None

    def summary(self) -> dict:
        return {
            "iteration": self.iteration,
            "seeds": sorted(self.seeds),
            "closure_size": len(self.closure),
            "exterior_size": len(self.exterior),
            "bad": sorted(self.bad),
            "activation_edges": self.activation_edges,
        }


def weight(state: PercolationState, v: int) -> Fraction:
    """omega(v): closure degree plus half the exterior degree; exterior only."""
    if v not in state.weight_of:
        raise ValueError(f"vertex {v} is not exterior")
    return state.weight_of[v]


def influence(state: PercolationState, x: int) -> Fraction:
    """f(x): 1 on seeds, 1/2 on the rest of the closure, d_seeds(x)/(2q) outside."""
    return state.influence_of[x]


def score(state: PercolationState, v: int) -> Fraction:
    """phi(v): total influence over the neighborhood of v."""
    return state.score_of[v]


def make_state(
    g: Graph,
    partition: BlockPartition,
    q: int,
    seeds: frozenset[int],
    iteration: int = 0,
    last_step: dict | None = None,
) -> PercolationState:
    adj = g.adj
    n = g.n
    seed_mask = bitmask(seeds)
    closure_mask, activation_edges = _close(adj, n, seed_mask, q)
    ext_mask = g.vertex_mask & ~closure_mask
    weight_of = {
        v: Fraction((adj[v] & closure_mask).bit_count())
        + Fraction((adj[v] & ext_mask).bit_count(), 2)
        for v in iter_bits(ext_mask)
    }
    influence_of: dict[int, Fraction] = {}
    for x in range(n):
        if seed_mask >> x & 1:
            influence_of[x] = Fraction(1)
        elif closure_mask >> x & 1:
            influence_of[x] = Fraction(1, 2)
        else:
            influence_of[x] = Fraction((adj[x] & seed_mask).bit_count(), 2 * q)
    score_of = {
        v: sum((influence_of[x] for x in iter_bits(adj[v])), Fraction(0))
        for v in range(n)
    }
    bad = frozenset(v for v, w in weight_of.items() if w < q)
    for v in iter_bits(ext_mask):
        # the potential never exceeds the weight it chases
        if score_of[v] > weight_of[v]:
            raise PercolationError(f"score exceeds weight at vertex {v}")
    return PercolationState(
        g,
        partition,
        q,
        iteration,
        frozenset(seeds),
        frozenset(iter_bits(closure_mask)),
        activation_edges,
        frozenset(iter_bits(ext_mask)),
        bad,
        weight_of,
        influence_of,
        score_of,
        last_step,
    )


def step(state: PercolationState) -> PercolationState:
    """One augmentation round: group bad vertices by their seed-neighborhood
    trace, add one booster per trace plus its bad block classmates and its
    old-closure neighborhood, then rebuild the state on the larger seed set."""
    if not state.bad:
        raise ValueError("nothing to repair: no bad vertices")
    g = state.graph
    adj = g.adj
    q = state.q
    seed_mask = bitmask(state.seeds)
    closure_mask = bitmask(state.closure)
    ext_mask = bitmask(state.exterior)

    traces: dict[int, int] = {}  # trace mask -> smallest bad representative
    for v in sorted(state.bad):
        traces.setdefault(adj[v] & seed_mask, v)
    trace_bound = sum(comb(len(state.seeds), j) for j in range(q))
    if len(traces) > trace_bound:
        raise PercolationError(
            f"{len(traces)} traces exceed the size-{q - 1} neighborhood bound {trace_bound}"
        )

    block_of = {v: frozenset(b) for b in state.partition.blocks for v in b}
    added = 0
    detail: dict[str, dict] = {}
    for trace_mask, rep in sorted(traces.items(), key=lambda kv: kv[1]):
        ext_nbrs = adj[rep] & ext_mask
        if not ext_nbrs:
            raise PercolationError(f"bad vertex {rep} has no exterior neighbor")
        booster = (ext_nbrs & -ext_nbrs).bit_length() - 1
        classmates = [
            v
            for v in sorted(state.bad)
            if adj[v] & seed_mask == trace_mask and v in block_of[booster]
        ]
        closure_nbrs = adj[booster] & closure_mask
        added |= 1 << booster
        added |= bitmask(classmates)
        added |= closure_nbrs
        detail[",".join(map(str, sorted(iter_bits(trace_mask))))] = {
            "representative": rep,
            "booster": booster,
            "classmates": classmates,
            "closure_neighbors": sorted(iter_bits(closure_nbrs)),
        }

    new_seeds = frozenset(state.seeds) | frozenset(iter_bits(added))
    allowance = (state.partition.max_block + 1 + q - 2) * len(traces)
    if len(new_seeds) > len(state.seeds) + allowance:
        raise PercolationError(
            f"seed growth {len(new_seeds) - len(state.seeds)} exceeds allowance {allowance}"
        )
    info = {
        "iteration": state.iteration + 1,
        "trace_count": len(traces),
        "trace_bound": trace_bound,
        "growth_allowance": allowance,
        "traces": detail,
    }
    nxt = make_state(g, state.partition, q, new_seeds, state.iteration + 1, info)
    if not nxt.closure >= state.closure:
        raise PercolationError("closure not monotone under seed growth")
    if not nxt.bad <= state.bad:
        raise PercolationError("bad set gained a vertex")
    for x in range(g.n):
        if nxt.influence_of[x] < state.influence_of[x]:
            raise PercolationError(f"influence dropped at vertex {x}")
    return nxt


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
        return {
            "q": self.q,
            "seed_origin": list(self.seed_origin),
            "seeds": list(self.seeds),
            "iterations": self.iterations,
            "certified": self.certified,
            "closure_size": self.closure_size,
            "exterior_size": self.exterior_size,
            "edges_total": self.edges_total,
            "edges_inside_closure": self.edges_inside_closure,
            "edges_between": self.edges_between,
            "edges_inside_exterior": self.edges_inside_exterior,
            "activation_edges": self.activation_edges,
            "activated": self.activated,
            "edge_lower_bound": self.edge_lower_bound,
            "progress_violations": list(self.progress_violations),
            "trail": list(self.trail),
        }


def default_seed(g: Graph) -> int:
    return min(range(g.n), key=lambda v: (g.degree(v), v))


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
    if q < 1:
        raise ValueError("threshold q must be at least 1")
    if sorted(v for b in partition.blocks for v in b) != list(range(g.n)):
        raise ValueError("partition does not cover the graph's vertices")
    if g.min_degree() < q:
        raise ValueError(
            f"minimum degree {g.min_degree()} below threshold {q}: no certificate possible"
        )
    if seeds is None:
        seeds = frozenset({default_seed(g)})
    seeds = frozenset(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    for v in sorted(seeds):
        if not 0 <= v < g.n:
            raise ValueError(f"seed vertex {v} outside 0..{g.n - 1}")

    state = make_state(g, partition, q, seeds)
    trail: list[dict] = [state.summary()]
    violations: list[str] = []
    cap = 2 * q * q
    while state.bad and state.iteration < cap:
        nxt = step(state)
        gain_floor = Fraction(1, PROGRESS_GAIN_DENOMINATOR * q)
        for v in sorted(nxt.bad):
            gain = nxt.score_of[v] - state.score_of[v]
            if gain < gain_floor:
                msg = (
                    f"iteration {nxt.iteration}: bad vertex {v} gained "
                    f"{gain} < {gain_floor}"
                )
                violations.append(msg)
                if check_progress:
                    trail.append(nxt.summary())
                    raise PercolationError(msg, tuple(trail))
        state = nxt
        trail.append({**state.summary(), "step": state.last_step})
    if state.bad and check_progress:
        raise PercolationError(
            f"bad vertices {sorted(state.bad)} survived {cap} iterations", tuple(trail)
        )

    adj = g.adj
    closure_mask = bitmask(state.closure)
    ext_mask = bitmask(state.exterior)
    e_closure = sum((adj[v] & closure_mask).bit_count() for v in state.closure) // 2
    e_between = sum((adj[v] & ext_mask).bit_count() for v in state.closure)
    e_ext = sum((adj[v] & ext_mask).bit_count() for v in state.exterior) // 2
    e_total = g.edge_count()
    if e_closure + e_between + e_ext != e_total:
        raise PercolationError("edge partition does not add up", tuple(trail))
    activated = len(state.closure) - len(state.seeds)
    if state.activation_edges < q * activated:
        raise PercolationError("activation edges fall short of q per vertex", tuple(trail))
    if e_closure < state.activation_edges:
        raise PercolationError("closure has fewer edges than were counted into it", tuple(trail))
    weight_sum = sum(state.weight_of.values(), Fraction(0))
    if weight_sum != e_between + e_ext:
        raise PercolationError("exterior weights do not sum to their edges", tuple(trail))

    certified = not state.bad and not violations
    bound = q * (g.n - len(state.seeds))
    if certified:
        # bad is empty, so weight_sum >= q|Y| and the three-way split yields the bound
        if weight_sum < q * len(state.exterior):
            raise PercolationError("exterior weight below q per vertex", tuple(trail))
        if e_total < bound:
            raise PercolationError("certified bound exceeds the actual edge count", tuple(trail))
    return PercolationCertificate(
        q,
        tuple(sorted(seeds)),
        tuple(sorted(state.seeds)),
        state.iteration,
        certified,
        len(state.closure),
        len(state.exterior),
        e_total,
        e_closure,
        e_between,
        e_ext,
        state.activation_edges,
        activated,
        bound,
        tuple(violations),
        tuple(trail),
    )
