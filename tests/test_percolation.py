"""Bootstrap percolation engine: closure arithmetic, exact rational scores,
repair-loop invariants, and the certified edge bound on the frozen instances."""

import random
from fractions import Fraction

import pytest

from cocritical.coloring import BlockPartition, blue_blocks, cross_graph
from cocritical.construction import ConstructionParams, blueprint_coloring, build
from cocritical.graphs import complete_graph, cycle_graph, make_graph
from cocritical.percolation import (
    PercolationError,
    closure,
    influence,
    make_state,
    run,
    score,
    step,
    weight,
)


def singletons(n):
    return BlockPartition(tuple(frozenset({v}) for v in range(n)), 1)


def rand_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_closure_examples():
    c4 = cycle_graph(4)
    assert closure(c4, frozenset({0, 1}), 2) == frozenset({0, 1})
    assert closure(c4, frozenset({0, 2}), 2) == frozenset(range(4))
    assert closure(c4, frozenset({0}), 1) == frozenset(range(4))
    assert closure(complete_graph(5), frozenset({0, 1, 2}), 3) == frozenset(range(5))


def test_state_exact_fractions_on_c5():
    g = cycle_graph(5)
    st = make_state(g, singletons(5), 2, frozenset({0}))
    assert st.closure == frozenset({0})
    assert st.exterior == frozenset({1, 2, 3, 4})
    # neighbor of the seed: one closure edge plus one exterior edge
    assert weight(st, 1) == Fraction(3, 2)
    assert weight(st, 2) == Fraction(1)  # both neighbors exterior
    assert st.bad == frozenset({1, 2, 3, 4})
    assert influence(st, 0) == 1
    assert influence(st, 1) == Fraction(1, 4)  # one seed neighbor over 2q
    assert influence(st, 2) == 0
    assert score(st, 2) == Fraction(1, 4)  # f(1) + f(3)
    assert score(st, 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        weight(st, 0)  # seeds carry no weight


def test_step_requires_bad_vertices():
    g = complete_graph(4)
    st = make_state(g, singletons(4), 1, frozenset({0}))
    assert not st.bad
    with pytest.raises(ValueError):
        step(st)


def test_step_monotone_on_k4():
    g = complete_graph(4)
    st = make_state(g, singletons(4), 3, frozenset({0}))
    assert st.bad == frozenset({1, 2, 3})
    nxt = step(st)
    assert nxt.seeds > st.seeds
    assert nxt.closure >= st.closure
    assert nxt.bad <= st.bad
    assert nxt.last_step["trace_count"] == 1


def test_run_on_k4():
    cert = run(complete_graph(4), singletons(4), 3)
    assert cert.certified
    assert cert.edges_total == 6 >= cert.edge_lower_bound == 3
    assert cert.iterations <= 18
    assert cert.exterior_size == 0
    assert len(cert.trail) == cert.iterations + 1


def frozen_instance(t, k, n):
    p = ConstructionParams(t, k, n)
    g = build(p)
    blocks = blue_blocks(blueprint_coloring(p))
    return cross_graph(g, blocks), blocks


def test_certificate_4_3_13():
    H, blocks = frozen_instance(4, 3, 13)
    cert = run(H, blocks, 3)
    assert cert.certified
    assert cert.iterations == 3
    assert cert.seeds == (0, 2, 3, 9)
    assert cert.edges_total == 38
    assert cert.edge_lower_bound == 3 * (13 - 4) == 27
    assert cert.activation_edges == 28 and cert.activated == 9
    assert cert.activation_edges >= 3 * cert.activated
    # independent edge recount against the certificate split
    assert cert.edges_total == H.edge_count()
    assert (
        cert.edges_inside_closure + cert.edges_between + cert.edges_inside_exterior
        == cert.edges_total
    )
    assert run(H, blocks, 3) == cert  # deterministic


def test_certificate_4_4_18():
    H, blocks = frozen_instance(4, 4, 18)
    cert = run(H, blocks, 3)
    assert cert.certified
    assert cert.iterations == 2
    assert cert.seeds == (3, 5, 11)
    assert cert.edges_total == 69 >= cert.edge_lower_bound == 45
    assert cert.progress_violations == ()


def test_exploratory_mode_matches_on_good_input():
    H, blocks = frozen_instance(4, 3, 13)
    cert = run(H, blocks, 3, check_progress=False)
    assert cert.certified and cert.progress_violations == ()


def test_explicit_seed_choice():
    H, blocks = frozen_instance(4, 3, 13)
    cert = run(H, blocks, 3, seeds=frozenset({12}))
    assert cert.seed_origin == (12,)
    assert cert.certified
    assert cert.edge_lower_bound == 3 * (13 - len(cert.seeds))
    assert cert.edges_total >= cert.edge_lower_bound


def test_input_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        run(g, singletons(4), 0)
    with pytest.raises(ValueError):
        run(g, singletons(3), 2)  # partition misses a vertex
    with pytest.raises(ValueError):
        run(g, singletons(4), 2, seeds=frozenset({7}))
    with pytest.raises(ValueError):
        run(g, singletons(4), 2, seeds=frozenset())
    with pytest.raises(ValueError):
        run(cycle_graph(5), singletons(5), 3)  # degree 2 below threshold


def test_random_runs_keep_invariants():
    rng = random.Random(1089)
    ran = 0
    for _ in range(80):
        n = rng.randrange(5, 12)
        g = rand_graph(rng, n, rng.choice([0.5, 0.7]))
        q = rng.choice([1, 2])
        if g.n == 0 or g.min_degree() < q:
            continue
        try:
            cert = run(g, singletons(n), q)
        except PercolationError:
            continue  # progress can fail off the designed inputs; that is the contract
        ran += 1
        assert cert.edges_total == g.edge_count()
        assert cert.closure_size + cert.exterior_size == n
        assert cert.iterations <= 2 * q * q
        if cert.certified:
            assert cert.edges_total >= cert.edge_lower_bound
            assert cert.activation_edges >= q * cert.activated
    assert ran >= 25


def test_certificate_json():
    H, blocks = frozen_instance(4, 3, 13)
    doc = run(H, blocks, 3).to_json()
    assert doc["certified"] is True
    assert doc["edges_total"] == 38 and doc["edge_lower_bound"] == 27
    assert len(doc["trail"]) == doc["iterations"] + 1
