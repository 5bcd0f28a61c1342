"""Bootstrap percolation engine: closure arithmetic, the integer bookkeeping in
units of 1/(2q) against a Fraction oracle, repair-loop invariants, and the
certified edge bound on the frozen instances."""

import random
from fractions import Fraction

import pytest
from graph_families import cycle_graph
from oracles import reference_percolation_run

from cocritical.canon import nonisomorphic_graphs
from cocritical.coloring import BlockPartition, blue_blocks, cross_graph, make_coloring
from cocritical.construction import ConstructionParams, blueprint_coloring, build, min_order
from cocritical.graphs import bitmask, complete_graph, iter_bits, make_graph
from cocritical.percolation import PercolationError, _measure, closure, run


def singletons(n):
    return BlockPartition(tuple(1 << v for v in range(n)))


def rand_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_closure_examples():
    c4 = cycle_graph(4)
    assert closure(c4, frozenset({0, 1}), 2) == frozenset({0, 1})
    assert closure(c4, frozenset({0, 2}), 2) == frozenset(range(4))
    assert closure(c4, frozenset({0}), 1) == frozenset(range(4))
    assert closure(complete_graph(5), frozenset({0, 1, 2}), 3) == frozenset(range(5))


def test_closure_rejects_what_run_rejects():
    k3 = complete_graph(3)
    with pytest.raises(ValueError, match=r"^seed vertex 5 outside 0\.\.2$"):
        closure(k3, frozenset({5}), 1)
    with pytest.raises(ValueError, match=r"^seed vertex -1 outside 0\.\.2$"):
        closure(k3, frozenset({-1}), 1)
    with pytest.raises(ValueError, match=r"^threshold q must be at least 1$"):
        closure(k3, frozenset({0}), 0)
    with pytest.raises(ValueError, match=r"^seed vertex 0 given, but the graph has no vertices$"):
        closure(make_graph(0, []), frozenset({0}), 1)
    for bad_seeds, q in (({5}, 1), ({-1}, 1), ({0}, 0)):
        with pytest.raises(ValueError) as from_run:
            run(k3, singletons(3), q, seeds=frozenset(bad_seeds))
        with pytest.raises(ValueError) as from_closure:
            closure(k3, frozenset(bad_seeds), q)
        assert str(from_closure.value) == str(from_run.value)


def test_closure_of_no_seeds_is_empty():
    assert closure(complete_graph(3), frozenset(), 1) == frozenset()
    assert closure(make_graph(0, []), frozenset(), 2) == frozenset()


def oracle(g, q, seeds):
    """omega, f, phi and the bad set straight from the module docstring, in
    Fractions: closure by plain activation rounds over vertex sets."""
    nbrs = [set(iter_bits(row)) for row in g.adj]
    active = set(seeds)
    while True:
        newly = {v for v in range(g.n) if v not in active and len(nbrs[v] & active) >= q}
        if not newly:
            break
        active |= newly
    exterior = set(range(g.n)) - active
    omega = {v: len(nbrs[v] & active) + Fraction(len(nbrs[v] & exterior), 2) for v in exterior}
    f = [
        Fraction(1) if x in seeds
        else Fraction(1, 2) if x in active
        else Fraction(len(nbrs[x] & seeds), 2 * q)
        for x in range(g.n)
    ]
    phi = [sum((f[x] for x in nbrs[v]), Fraction(0)) for v in range(g.n)]
    bad = {v for v in exterior if omega[v] < q}
    return active, omega, f, phi, bad


def unscaled(g, q, seeds):
    """The module's integer bookkeeping, divided back by 2q."""
    closure_mask, _, ext_mask, weight, influence, score, bad = _measure(g, q, bitmask(seeds))
    assert closure_mask | ext_mask == g.vertex_mask and not closure_mask & ext_mask
    assert set(weight) == set(iter_bits(ext_mask))
    return (
        set(iter_bits(closure_mask)),
        {v: Fraction(w, 2 * q) for v, w in weight.items()},
        [Fraction(x, 2 * q) for x in influence],
        [Fraction(x, 2 * q) for x in score],
        set(iter_bits(bad)),
    )


def test_scaled_bookkeeping_matches_fraction_oracle():
    checked = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            low = min(range(n), key=lambda v: (g.degree(v), v))
            for q in (1, 2, 3):
                for seeds in ({low}, {0, n - 1}):
                    want = oracle(g, q, seeds)
                    assert unscaled(g, q, seeds) == want, (g.adj, q, seeds)
                    _, omega, _, phi, _ = want
                    assert all(phi[v] <= w for v, w in omega.items())
                    checked += 1
    assert checked == 6 * sum(len(nonisomorphic_graphs(n)) for n in range(1, 7))


def test_state_exact_fractions_on_c5():
    closed, omega, f, phi, bad = unscaled(cycle_graph(5), 2, {0})
    assert closed == {0}
    assert set(omega) == {1, 2, 3, 4}  # seeds carry no weight
    # neighbor of the seed: one closure edge plus one exterior edge
    assert omega[1] == Fraction(3, 2)
    assert omega[2] == Fraction(1)  # both neighbors exterior
    assert bad == {1, 2, 3, 4}
    assert f[0] == 1
    assert f[1] == Fraction(1, 4)  # one seed neighbor over 2q
    assert f[2] == 0
    assert phi[2] == Fraction(1, 4)  # f(1) + f(3)
    assert phi[0] == Fraction(1, 2)


def test_step_monotone_on_k4():
    trail = run(complete_graph(4), singletons(4), 3).trail
    before, after = trail[0], trail[1]
    assert before["bad"] == [1, 2, 3]
    assert set(after["seeds"]) > set(before["seeds"])
    assert after["closure_size"] >= before["closure_size"]
    assert set(after["bad"]) <= set(before["bad"])
    assert after["step"]["trace_count"] == 1


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


def neighbour_sum_scores(g, q, seed_mask, closure_mask):
    """phi per vertex, in units of 1/(2q), as one influence per neighbour."""
    influence = [
        2 * q if seed_mask >> x & 1
        else q if closure_mask >> x & 1
        else (g.adj[x] & seed_mask).bit_count()
        for x in range(g.n)
    ]
    return [sum(influence[x] for x in iter_bits(row)) for row in g.adj]


def test_class_scores_match_the_neighbour_sum_on_the_percolation_grid():
    # the percolate benchmark's grid: every cross graph of t in {4, 5},
    # k in 3..8 and n in {min order, 64, 96, 128}, every q from 1 to its
    # minimum degree, at the seed set of every round of the run
    pairs = rounds = 0
    for t in (4, 5):
        for k in range(3, 9):
            low = min_order(t, k)
            for n in (low, *(n for n in (64, 96, 128) if n > low)):
                H, blocks = frozen_instance(t, k, n)
                for q in range(1, H.min_degree() + 1):
                    pairs += 1
                    for entry in run(H, blocks, q).trail:
                        seed_mask = bitmask(entry["seeds"])
                        closure_mask, *_, score, _ = _measure(H, q, seed_mask)
                        want = neighbour_sum_scores(H, q, seed_mask, closure_mask)
                        assert score == want, (t, k, n, q, entry["iteration"])
                        rounds += 1
    assert pairs == 234 and rounds > pairs


def percolation_grid():
    """The grid above as (cross graph, blocks, q)."""
    for t in (4, 5):
        for k in range(3, 9):
            low = min_order(t, k)
            for n in (low, *(n for n in (64, 96, 128) if n > low)):
                H, blocks = frozen_instance(t, k, n)
                for q in range(1, H.min_degree() + 1):
                    yield H, blocks, q


def outcome(percolate, g, partition, q, seeds=None, check_progress=True):
    """The certificate as JSON, or the message and trail of the PercolationError."""
    try:
        return percolate(g, partition, q, seeds, check_progress).to_json()
    except PercolationError as e:
        return str(e), e.trail


def random_percolation_cases(seed, count):
    """(graph, partition, seeds) for count seeded random graphs.

    n runs from 5 to 128, most graphs small, and the edge probability from
    0.2 to 0.8, capped at 40/n so that the minimum degree, and with it the
    number of thresholds, stays near 40 at most.  Half the graphs keep
    singleton blocks; the other half are the cross graphs of the blue
    blocks of a random coloring.  Each gets 1 to 3 random seeds."""
    rng = random.Random(seed)
    for _ in range(count):
        n = 5 + int(123 * rng.random() ** 6)
        g = rand_graph(rng, n, rng.uniform(0.2, min(0.8, 40 / n)))
        if rng.random() < 0.5:
            partition = singletons(n)
        else:
            block = [rng.randrange(max(1, n // 3)) for _ in range(n)]
            blue = [(u, v) for u, v in g.edges() if block[u] == block[v]]
            partition = blue_blocks(make_coloring(g, blue))
            g = cross_graph(g, partition)
        yield g, partition, frozenset(rng.sample(range(n), rng.randint(1, 3)))


def test_run_matches_the_reference_kernel():
    # the whole-row kernel against the bit-loop kernel it replaced: equal
    # certificates, trail included, or the same error and trail
    grid = 0
    for H, blocks, q in percolation_grid():
        for check_progress in (True, False):
            got = outcome(run, H, blocks, q, check_progress=check_progress)
            want = outcome(reference_percolation_run, H, blocks, q, None, check_progress)
            assert got == want, (H.n, q, check_progress)
        grid += 1
    assert grid == 234

    runs = raised = multi_class = 0
    for g, partition, seeds in random_percolation_cases(1, 300):
        for q in range(1, g.min_degree() + 1):
            for check_progress in (True, False):
                got = outcome(run, g, partition, q, seeds, check_progress)
                want = outcome(reference_percolation_run, g, partition, q, seeds, check_progress)
                assert got == want, (g.adj, q, sorted(seeds), check_progress)
                runs += 1
                raised += isinstance(got, tuple)
            if isinstance(got, dict):
                # the exterior influences of the last round take two values or more
                _, _, ext_mask, _, influence, _, _ = _measure(g, q, bitmask(got["seeds"]))
                multi_class += len({influence[x] for x in iter_bits(ext_mask)} - {0}) > 1
    assert runs > 2500 and raised >= 5 and multi_class > 400


# (t, k) -> |S|, the final seed count at the paper's threshold q = 2t - 4
PAPER_THRESHOLD_SEEDS = {
    (4, 3): 7, (4, 4): 4, (4, 5): 4, (4, 6): 5, (4, 7): 5,
    (5, 3): 11, (5, 4): 7, (5, 5): 7, (5, 6): 7, (5, 7): 6,
}


@pytest.mark.parametrize("t,k", sorted(PAPER_THRESHOLD_SEEDS))
def test_paper_threshold_seed_count_stays_fixed(t, k):
    # e(H) >= (2t - 4)(n - |S|) with |S| independent of n is what makes the
    # lower bound's constant a constant
    low = min_order(t, k)
    for n in range(low, low + 8):
        H, blocks = frozen_instance(t, k, n)
        cert = run(H, blocks, 2 * t - 4)
        assert cert.certified, (t, k, n)
        assert len(cert.seeds) == PAPER_THRESHOLD_SEEDS[t, k], (t, k, n)


def test_seed_growth_stays_within_the_allowance_at_the_paper_threshold():
    # every repair step of the blueprint runs at q = 2t - 4: the allowance
    # is (B + q - 1) per trace, B the largest block, and the seed set grows
    # by no more than that
    steps = 0
    for t, k in sorted(PAPER_THRESHOLD_SEEDS):
        q = 2 * t - 4
        low = min_order(t, k)
        for n in range(low, low + 8):
            H, blocks = frozen_instance(t, k, n)
            largest = max(b.bit_count() for b in blocks.blocks)
            trail = run(H, blocks, q).trail
            for before, entry in zip(trail, trail[1:]):
                step = entry["step"]
                assert step["growth_allowance"] == (largest + q - 1) * step["trace_count"]
                growth = len(entry["seeds"]) - len(before["seeds"])
                assert 0 < growth <= step["growth_allowance"], (t, k, n, entry["iteration"])
                steps += 1
    assert steps == 272


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
    with pytest.raises(ValueError, match=r"missing \[3\]"):
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
