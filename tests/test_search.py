"""Partition-walking search against the independent 2^e brute-force oracle,
plus the arrowing thresholds it must reproduce."""

import random

import pytest

from cocritical.canon import nonisomorphic_graphs
from cocritical.coloring import is_critical, partition_to_coloring
from cocritical.graphs import complete_graph, is_connected_mask, bitmask, make_graph
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
