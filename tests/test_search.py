"""Partition-walking search against the independent 2^e brute-force oracle,
plus the arrowing thresholds it must reproduce."""

import random

import pytest

from cocritical import search
from cocritical.canon import nonisomorphic_graphs
from cocritical.coloring import (
    cross_graph,
    is_critical,
    make_coloring,
    make_partition,
    partition_to_coloring,
)
from cocritical.construction import ConstructionParams, build
from cocritical.graphs import complete_graph, has_clique, is_connected_mask, bitmask, make_graph
from cocritical.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    IndeterminateResultError,
    NoCriticalColoringError,
    SearchBudget,
    arrows,
    brute_force_critical_colorings,
    brute_force_exists,
    enumerate_critical_colorings,
    exists_critical_coloring,
    max_red_critical_coloring,
    _walk_partitions,
)

PAIRS = ((3, 3), (3, 4), (4, 3))


def rand_graph(rng, n, p=0.5, max_edges=16):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    chosen = [e for e in pairs if rng.random() < p][:max_edges]
    return make_graph(n, chosen)


def check_witness(g, t, k, outcome):
    assert (outcome.status == FOUND) == (outcome.witness is not None)
    if outcome.witness is None:
        return
    p = outcome.witness
    assert p.max_block == k - 1
    assert sorted(v for b in p.blocks for v in b) == list(range(g.n))
    for b in p.blocks:
        assert is_connected_mask(g, bitmask(b))
    assert is_critical(partition_to_coloring(g, p), t, k)


def test_oracle_agreement_exhaustive_small():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for t, k in PAIRS:
                outcome = exists_critical_coloring(g, t, k)
                assert outcome.status in (FOUND, EXHAUSTED)
                check_witness(g, t, k, outcome)
                assert (outcome.status == FOUND) == brute_force_exists(g, t, k)


def test_oracle_agreement_random():
    rng = random.Random(271828)
    for _ in range(150):
        n = rng.randrange(2, 9)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        t, k = rng.choice(PAIRS)
        outcome = exists_critical_coloring(g, t, k)
        check_witness(g, t, k, outcome)
        assert (outcome.status == FOUND) == brute_force_exists(g, t, k)


def test_arrowing_thresholds():
    # complete-graph arrowing flips exactly at (t-1)(k-1)+1
    for (t, k), threshold in zip(PAIRS, (5, 7, 7)):
        for n in range(2, threshold + 1):
            assert arrows(complete_graph(n), t, k) == (n == threshold)


def test_arrows_witness_on_k6():
    # K_6 falls short for (4,3): a perfect matching of blue pairs works
    outcome = exists_critical_coloring(complete_graph(6), 4, 3)
    assert outcome.status == FOUND
    assert outcome.witness.size_multiset() == (2, 2, 2)


def test_enumerate_on_k4():
    # for a red-triangle bound and blue pairs, K_4 has exactly its 3 perfect
    # matchings as good colorings
    colorings = enumerate_critical_colorings(complete_graph(4), 3, 3)
    assert len(colorings) == 3
    blues = {c.blue for c in colorings}
    assert blues == {
        frozenset({(0, 1), (2, 3)}),
        frozenset({(0, 2), (1, 3)}),
        frozenset({(0, 3), (1, 2)}),
    }


def test_enumerate_matches_brute_force():
    rng = random.Random(1969)
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            t, k = rng.choice(PAIRS)
            mine = enumerate_critical_colorings(g, t, k)
            assert len({c.blue for c in mine}) == len(mine)  # no duplicates
            assert all(is_critical(c, t, k) for c in mine)
            brute = brute_force_critical_colorings(g, t, k)
            assert {c.blue for c in mine} == {c.blue for c in brute}


def test_max_red_minimizes_blue():
    rng = random.Random(1970)
    checked = 0
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = rand_graph(rng, n, 0.6)
        t, k = rng.choice(PAIRS)
        brute = brute_force_critical_colorings(g, t, k)
        if not brute:
            with pytest.raises(NoCriticalColoringError):
                max_red_critical_coloring(g, t, k)
            continue
        tau = max_red_critical_coloring(g, t, k)
        assert is_critical(tau, t, k)
        assert len(tau.blue) == min(len(c.blue) for c in brute)
        # deterministic tie-break: a second run returns the same coloring
        assert max_red_critical_coloring(g, t, k) == tau
        checked += 1
    assert checked >= 20


def test_budget_statuses():
    g = complete_graph(7)
    outcome = exists_critical_coloring(g, 4, 3, SearchBudget(node_cap=50))
    assert outcome.status == BUDGET_EXCEEDED
    assert outcome.witness is None
    assert outcome.nodes <= 51  # the node that trips the cap is counted
    with pytest.raises(IndeterminateResultError):
        arrows(g, 4, 3, SearchBudget(node_cap=50))


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(node_cap=0)
    with pytest.raises(ValueError):
        SearchBudget(time_cap=-1.0)
    with pytest.raises(ValueError):
        SearchBudget(time_cap=float("nan"))


def test_parameter_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        exists_critical_coloring(g, 1, 3)
    with pytest.raises(ValueError):
        exists_critical_coloring(g, 3, 1)


def reference_red_clique_free(g, blue, t):
    """Reference for search._red_clique_free: build the coloring and ask its
    red graph."""
    return not has_clique(make_coloring(g, blue).red_graph(), t)


def refinement_answers():
    """Max-red on every class up to 7 vertices, enumerate up to 6."""
    answers = []
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            for t, k in PAIRS:
                try:
                    answers.append(max_red_critical_coloring(g, t, k))
                except NoCriticalColoringError:
                    answers.append(None)
                if n <= 6:
                    answers.append(enumerate_critical_colorings(g, t, k))
    return answers


def test_row_candidate_test_matches_red_graph_oracle(monkeypatch):
    fast = refinement_answers()
    monkeypatch.setattr(search, "_red_clique_free", reference_red_clique_free)
    assert refinement_answers() == fast


FROZEN_MAX_RED_BLUE = {
    (4, 3, 13): [(0, 1), (2, 9), (3, 10), (4, 11), (5, 12), (6, 7)],
    (5, 3, 17): [(0, 1), (2, 11), (3, 12), (4, 13), (5, 14), (6, 15), (7, 16), (8, 9)],
    (4, 4, 18): [
        (0, 1), (0, 2), (1, 2), (3, 4), (3, 14), (4, 14), (5, 6), (5, 15), (6, 15),
        (7, 8), (7, 16), (8, 16), (9, 10), (9, 17), (10, 17), (11, 12), (11, 13), (12, 13),
    ],
}


@pytest.mark.parametrize("t, k, n", sorted(FROZEN_MAX_RED_BLUE))
def test_max_red_on_frozen_instances_is_pinned(t, k, n):
    tau = max_red_critical_coloring(build(ConstructionParams(t, k, n)), t, k)
    assert sorted(tau.blue) == FROZEN_MAX_RED_BLUE[(t, k, n)]


def test_colorings_are_built_only_for_answers(monkeypatch):
    calls = []

    def counting_make_coloring(g, blue):
        calls.append(blue)
        return make_coloring(g, blue)

    monkeypatch.setattr(search, "make_coloring", counting_make_coloring)
    max_red_critical_coloring(build(ConstructionParams(5, 3, 17)), 5, 3)
    assert len(calls) == 1
    for g, t, k in ((complete_graph(4), 3, 3), (complete_graph(5), 3, 4)):
        calls.clear()
        colorings = enumerate_critical_colorings(g, t, k)
        assert colorings and len(calls) == len(colorings)


def set_partitions(items):
    """Every partition of the list items into blocks, by plain recursion."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def reference_good_partitions(g, t, k):
    """Good partitions by definition: connected blocks of at most k-1
    vertices whose cross graph holds no K_t."""
    good = set()
    for part in set_partitions(list(range(g.n))):
        if any(len(b) > k - 1 or not is_connected_mask(g, bitmask(b)) for b in part):
            continue
        if not has_clique(cross_graph(g, make_partition(part, k - 1)), t):
            good.add(frozenset(bitmask(b) for b in part))
    return good


def walk_leaves(g, t, k):
    leaves = []
    status, _, _ = _walk_partitions(
        g, t, k, SearchBudget(), lambda blocks: leaves.append(frozenset(blocks))
    )
    assert status == EXHAUSTED
    return leaves


def test_walk_leaves_are_the_good_partitions():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for t, k in PAIRS:
                leaves = walk_leaves(g, t, k)
                assert len(set(leaves)) == len(leaves)
                assert set(leaves) == reference_good_partitions(g, t, k), (g.adj, t, k)


def test_walk_stops_at_the_leaf_that_asks():
    stopped = 0
    for g in nonisomorphic_graphs(5):
        for t, k in PAIRS:
            total = len(walk_leaves(g, t, k))
            if not total:
                continue
            for j in sorted({1, (total + 1) // 2, total}):
                calls = []

                def on_partition(blocks, j=j):
                    calls.append(list(blocks))
                    return len(calls) == j

                status, _, _ = _walk_partitions(g, t, k, SearchBudget(), on_partition)
                assert status == FOUND and len(calls) == j
                stopped += 1
    assert stopped > 100
