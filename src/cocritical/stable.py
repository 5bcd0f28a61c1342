"""Maximum stable set families and clique cores.

Two classical facts about the family of all maximum stable sets are checked
here: Hajnal's bound (intersection plus union of the family is at least twice
the independence number) and its consequence for graphs whose independence
number exceeds half the order, where the whole family pins down a large
common core.  Both are checked on explicit, exhaustively enumerated families;
nothing is sampled.

The clique core is the mirror notion: the vertices common to every clique of
a given order.  ``graphs.clique_core_in_mask`` is the one routine that
answers it; the structure checks in ``verify`` ask it about neighbourhoods
of the cross graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, max_stable_sets


@dataclass(frozen=True)
class StableFamilyStats:
    alpha: int
    family: tuple[frozenset[int], ...]
    intersection: frozenset[int]
    union: frozenset[int]


@lru_cache(maxsize=1)
def stable_family_stats(g: Graph) -> StableFamilyStats:
    """Independence number plus the full family of maximum stable sets.

    The last graph's answer is kept, so the checks below, run one after the
    other on the same graph, enumerate its maximum stable sets once.
    """
    alpha, family = max_stable_sets(g)
    inter = frozenset(range(g.n))
    union: frozenset[int] = frozenset()
    for s in family:
        inter &= s
        union |= s
    return StableFamilyStats(alpha, tuple(family), inter, union)


@dataclass(frozen=True)
class HajnalResult:
    passed: bool
    alpha: int
    intersection_size: int
    union_size: int


def hajnal_check(g: Graph) -> HajnalResult:
    """Hajnal's inequality: |intersection| + |union| >= 2 alpha."""
    stats = stable_family_stats(g)
    lhs = len(stats.intersection) + len(stats.union)
    return HajnalResult(lhs >= 2 * stats.alpha, stats.alpha, len(stats.intersection), len(stats.union))


@dataclass(frozen=True)
class StableIntersectionResult:
    applicable: bool
    passed: bool | None
    alpha: int
    min_degree: int
    intersection_size: int
    lower_bound: int
    moreover_applicable: bool
    moreover_passed: bool | None


def stable_intersection_check(g: Graph) -> StableIntersectionResult:
    """Large-independence refinement of the family intersection.

    Applies when alpha > n/2.  Then the common intersection of all maximum
    stable sets has at least min_degree + 2 alpha - n >= min_degree + 1
    vertices; if it is a single vertex, alpha = (n+1)/2 and that vertex is
    isolated.
    """
    stats = stable_family_stats(g)
    alpha, n = stats.alpha, g.n
    delta = g.min_degree()
    if 2 * alpha <= n:
        return StableIntersectionResult(False, None, alpha, delta, len(stats.intersection), 0, False, None)
    bound = delta + 2 * alpha - n
    core = len(stats.intersection)
    passed = core >= bound and bound >= delta + 1
    moreover = core == 1
    moreover_passed = None
    if moreover:
        (u,) = stats.intersection
        moreover_passed = 2 * alpha == n + 1 and g.degree(u) == 0
    return StableIntersectionResult(True, passed, alpha, delta, core, bound, moreover, moreover_passed)
