"""Extremal co-critical graphs: parametric construction and size bounds.

For clique order t and tree order k the construction glues together:

* an anchor clique on k-1 vertices,
* t-2 hub cliques on k-2 vertices, each joined to the anchor, to all other
  hubs, and to its own satellite,
* t-2 satellite cliques on k-2 vertices with no other base attachments,
* filler cliques covering the remaining base vertices (sizes ceil(k/2) and
  ceil(k/2)+1, except k = 3, where edges and single vertices are used so no
  filler outgrows a blue block),
* t-2 apex vertices joined to the whole base and to each other,
* t-2 near-apex vertices, the i-th joined to the base minus the anchor and to
  every apex except the i-th.

Vertex ids are assigned in exactly that order.  The blueprint coloring makes
each clique listed above blue, attaches apex i to hub i and near-apex i to
satellite i in blue, and colors everything else red; its blue components are
then blocks of at most k-1 vertices and its red side is clique-free, which the
tests verify.  Bound evaluators use exact rational arithmetic throughout; no
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .coloring import EdgeColoring, check_parameters, make_coloring
from .graphs import Graph, MAX_ORDER, make_graph


def ramsey_number(t: int, k: int) -> int:
    """Smallest n with complete-graph arrowing: every coloring of K_n has a
    red clique on t vertices or a blue component on k."""
    check_parameters(t, k)
    return (t - 1) * (k - 1) + 1


def turan_edges(parts: int, n: int) -> int:
    """Edge count of the balanced complete multipartite graph."""
    if parts < 1 or n < 0:
        raise ValueError("need at least one part and a nonnegative order")
    small, extra = divmod(n, parts)
    sizes = [small + 1] * extra + [small] * (parts - extra)
    return comb(n, 2) - sum(comb(s, 2) for s in sizes)


def half_up(k: int) -> int:
    return (k + 1) // 2


def lower_bound_slope(t: int, k: int) -> Fraction:
    """Per-vertex slope of the linear lower bound on co-critical size."""
    return Fraction(4 * t - 9, 2) + Fraction(half_up(k), 2)


def upper_bound_offset(t: int, k: int) -> Fraction:
    """Additive constant of the linear upper bound on co-critical size."""
    h = half_up(k)
    return (
        Fraction(t * t + t - 5, 2) * k * k
        - (2 * t * t + 2 * t - 11) * k
        - Fraction((t - 2) * (t - 19), 2)
        - Fraction(h, 2) * ((2 * t - 3) * (k - 1) - h)
    )


def upper_bound_edges(t: int, k: int, n: int) -> Fraction:
    return lower_bound_slope(t, k) * n + upper_bound_offset(t, k)


def block_edge_lower_bound(t: int, k: int, n: int) -> Fraction:
    """Strict lower bound on the number of within-block edges of the graph
    under any maximum-red good coloring."""
    h = half_up(k)
    return (Fraction(h, 2) - Fraction(1, 2)) * (n - (t - 1) * (h - 1))


ANALYZED_CLIQUE_ORDERS = (4, 5)


def min_order(t: int, k: int) -> int:
    """Smallest order the construction is defined for."""
    h = half_up(k)
    return (2 * t - 3) * (k - 1) + h * h - 1


@dataclass(frozen=True)
class ConstructionParams:
    t: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.t < 3 or self.k < 3:
            raise ValueError("construction needs t >= 3 and k >= 3")
        low = min_order(self.t, self.k)
        if self.n < low:
            raise ValueError(f"n = {self.n} below the construction threshold {low}")
        if self.n > MAX_ORDER:
            raise ValueError(f"n = {self.n} exceeds graph order cap {MAX_ORDER}")

    def filler_split(self) -> tuple[int, int]:
        """divmod of the base vertices left over for filler cliques by
        ceil(k/2)."""
        return divmod(self.n - (2 * self.t - 3) * (self.k - 1), half_up(self.k))

    def warnings(self) -> tuple[str, ...]:
        if self.t not in ANALYZED_CLIQUE_ORDERS:
            return (
                f"construction is only analyzed for clique orders {ANALYZED_CLIQUE_ORDERS}; "
                f"t = {self.t} is built on request without an extremality claim",
            )
        return ()


@dataclass(frozen=True)
class RoleLayout:
    """Which vertex ids play which role; ids follow the module-docstring order."""

    anchor: tuple[int, ...]
    hubs: tuple[tuple[int, ...], ...]
    satellites: tuple[tuple[int, ...], ...]
    fillers: tuple[tuple[int, ...], ...]
    apexes: tuple[int, ...]
    near_apexes: tuple[int, ...]

    def base_vertices(self) -> tuple[int, ...]:
        out = list(self.anchor)
        for group in self.hubs + self.satellites + self.fillers:
            out.extend(group)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "anchor": list(self.anchor),
            "hubs": [list(g) for g in self.hubs],
            "satellites": [list(g) for g in self.satellites],
            "fillers": [list(g) for g in self.fillers],
            "apexes": list(self.apexes),
            "near_apexes": list(self.near_apexes),
        }


def role_layout(params: ConstructionParams) -> RoleLayout:
    t, k = params.t, params.k
    s, r = params.filler_split()
    h = half_up(k)
    cursor = 0

    def take(count: int) -> tuple[int, ...]:
        nonlocal cursor
        group = tuple(range(cursor, cursor + count))
        cursor += count
        return group

    anchor = take(k - 1)
    hubs = tuple(take(k - 2) for _ in range(t - 2))
    satellites = tuple(take(k - 2) for _ in range(t - 2))
    if k == 3:
        filler_sizes = [2] * s + [1] * r
    else:
        filler_sizes = [h] * (s - r) + [h + 1] * r
    fillers = tuple(take(size) for size in filler_sizes)
    apexes = take(t - 2)
    near_apexes = take(t - 2)
    assert cursor == params.n
    return RoleLayout(anchor, hubs, satellites, fillers, apexes, near_apexes)


def _clique_edges(group: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(u, v) for i, u in enumerate(group) for v in group[i + 1 :]]


def _join_edges(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(u, v) for u in a for v in b]


def build(params: ConstructionParams) -> Graph:
    """The extremal candidate graph for the given parameters."""
    lay = role_layout(params)
    edges: list[tuple[int, int]] = []
    edges += _clique_edges(lay.anchor)
    for i, hub in enumerate(lay.hubs):
        edges += _clique_edges(hub)
        edges += _join_edges(hub, lay.anchor)
        edges += _join_edges(hub, lay.satellites[i])
        for other in lay.hubs[i + 1 :]:
            edges += _join_edges(hub, other)
    for sat in lay.satellites:
        edges += _clique_edges(sat)
    for filler in lay.fillers:
        edges += _clique_edges(filler)
    base = lay.base_vertices()
    for i, x in enumerate(lay.apexes):
        edges += [(x, v) for v in base]
        edges += [(x, y) for y in lay.apexes[i + 1 :]]
    non_anchor_base = tuple(v for v in base if v not in lay.anchor)
    for i, y in enumerate(lay.near_apexes):
        edges += [(y, v) for v in non_anchor_base]
        edges += [(y, x) for j, x in enumerate(lay.apexes) if j != i]
    return make_graph(params.n, edges)


def expected_edge_count(params: ConstructionParams) -> int:
    """Closed-form edge count, summed over the labeled pieces."""
    t, k, n = params.t, params.k, params.n
    s, r = params.filler_split()
    h = half_up(k)
    apex_to_base = (t - 2) * (2 * n - 4 * t - k + 9)
    among_apexes = comb(t - 2, 2) + (t - 2) * (t - 3)
    hubs_to_satellites = (t - 2) * (k - 2) ** 2
    inside_satellites = (t - 2) * comb(k - 2, 2)
    anchor_hub_clique = comb((t - 2) * (k - 2) + k - 1, 2)
    if k == 3:
        inside_fillers = s
    else:
        inside_fillers = (s - r) * comb(h, 2) + r * comb(h + 1, 2)
    return (
        apex_to_base
        + among_apexes
        + hubs_to_satellites
        + inside_satellites
        + anchor_hub_clique
        + inside_fillers
    )


def blueprint_coloring(params: ConstructionParams) -> EdgeColoring:
    """The intended good coloring: every construction clique blue, apex i tied
    to hub i and near-apex i to satellite i in blue, all else red."""
    lay = role_layout(params)
    g = build(params)
    blue: list[tuple[int, int]] = []
    blue += _clique_edges(lay.anchor)
    for group in lay.hubs + lay.satellites + lay.fillers:
        blue += _clique_edges(group)
    for i, x in enumerate(lay.apexes):
        blue += [(x, v) for v in lay.hubs[i]]
    for i, y in enumerate(lay.near_apexes):
        blue += [(y, v) for v in lay.satellites[i]]
    return make_coloring(g, blue)
