"""Partition-walking search against the independent 2^e brute-force oracle
and against the test-side walk without the twin rule and the forced-merge
and clique-capacity lookaheads, plus the arrowing thresholds it must
reproduce."""

import random
from functools import cache
from itertools import combinations, product

import pytest
from graph_families import empty_graph
from oracles import (
    brute_force_critical_colorings,
    enumerate_critical_colorings,
    lower_twins,
    obeys,
    ruleless_walk,
)
from test_graphs import is_connected_mask

from cocritical import search, verify
from cocritical.canon import nonisomorphic_graphs
from cocritical.coloring import (
    BlockPartition,
    cross_graph,
    is_critical,
    make_coloring,
    make_partition,
    partition_to_coloring,
)
from cocritical.construction import ConstructionParams, build
from cocritical.graph6 import parse_graph6
from cocritical.graphs import (
    _clique_rec,
    bitmask,
    complete_graph,
    has_clique,
    iter_bits,
    make_graph,
)
from cocritical.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    IndeterminateResultError,
    NoCriticalColoringError,
    SearchBudget,
    _assert_witness,
    _good_refinements,
    arrows,
    brute_force_exists,
    exists_critical_coloring,
    max_red_critical_coloring,
    _walk_partitions,
)

PAIRS = ((3, 3), (3, 4), (4, 3))
# (t, k) with 2k <= r = (t-1)(k-1)+1, so K_r holds a clique on 2k vertices
# and the clique-capacity rule fires on complete graphs near the threshold
CAPACITY_THRESHOLD_PAIRS = ((4, 4), (5, 4), (4, 5), (4, 6), (5, 6))


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
    assert sorted(v for b in p.blocks for v in iter_bits(b)) == list(range(g.n))
    for b in p.blocks:
        assert b.bit_count() <= k - 1
        assert is_connected_mask(g, b)
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
    # complete-graph arrowing flips exactly at (t-1)(k-1)+1 (Chvatal), also
    # where the clique-capacity rule cuts the walk
    thresholds = (5, 7, 7, 10, 13, 13, 16, 21)
    for (t, k), threshold in zip(PAIRS + CAPACITY_THRESHOLD_PAIRS, thresholds):
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
    # the whole walk of K_7 takes 2 nodes, the ruleless oracle's 164
    g = complete_graph(7)
    outcome = exists_critical_coloring(g, 4, 3, SearchBudget(node_cap=1))
    assert outcome.status == BUDGET_EXCEEDED
    assert outcome.witness is None
    assert outcome.nodes <= 2  # the node that trips the cap is counted
    with pytest.raises(IndeterminateResultError):
        arrows(g, 4, 3, SearchBudget(node_cap=1))
    with pytest.raises(IndeterminateResultError, match="enumeration incomplete"):
        enumerate_critical_colorings(g, 4, 3, SearchBudget(node_cap=163))


def test_assert_witness_rejects_each_bad_witness():
    # K_4 minus the edge 03, for (t, k) = (3, 3): blocks of at most 2 vertices
    rows = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).adj
    _assert_witness(rows, 3, 3, [0b0011, 0b1100])  # cross edges 02, 12, 13
    bad = (
        ([0b0111, 0b1000], "block too large"),
        ([0b1001, 0b0110], "block not connected"),
        ([0b0001, 0b0010, 0b0100, 0b1000], "forbidden clique"),  # red 012
        ([0b0011, 0b0110, 0b1000], "blocks overlap"),
        ([0b0011], "do not cover"),
    )
    for blocks, message in bad:
        with pytest.raises(AssertionError, match=message):
            _assert_witness(rows, 3, 3, blocks)


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
    """Reference for the red-clique test: build the coloring and ask its red
    graph."""
    return not has_clique(make_coloring(g, blue).red_graph(), t)


def reference_spanning_subsets(g, block_mask):
    """Edge subsets inside the block that connect all its vertices, ordered by
    (size, lexicographic edge tuple)."""
    verts = list(iter_bits(block_mask))
    if len(verts) == 1:
        return [()]
    inner = [
        ((u, v), 1 << u | 1 << v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if g.adj[u] >> v & 1
    ]
    out = []
    for size in range(len(verts) - 1, len(inner) + 1):
        for combo in combinations(inner, size):
            # grow the component of the lowest vertex by whole edge masks
            reach = block_mask & -block_mask
            grew = True
            while grew:
                grew = False
                for _, ends in combo:
                    if reach & ends and ends & ~reach:
                        reach |= ends
                        grew = True
            if reach == block_mask:
                out.append(tuple(edge for edge, _ in combo))
    return out


def reference_refinements(g, blocks):
    """Blue edge sets of the colorings whose blue components are exactly the
    blocks: the whole product of one spanning connected subset per block,
    each joined as a sorted tuple."""
    per_block = [reference_spanning_subsets(g, m) for m in blocks]
    return [tuple(sorted(e for part in combo for e in part)) for combo in product(*per_block)]


def row_red_clique_free(g, blue, t):
    """Does g minus the blue edges hold no K_t?  Asked on adjacency rows with
    the blue bits cleared."""
    rows = list(g.adj)
    for u, v in blue:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return not _clique_rec(rows, g.vertex_mask, t)


def reference_good_list(g, t, blocks):
    """A leaf's good refinements: the refinement product sorted in
    (len(blue), blue) order and filtered by the row-based red-clique test."""
    ordered = sorted(reference_refinements(g, blocks), key=lambda blue: (len(blue), blue))
    return [blue for blue in ordered if row_red_clique_free(g, blue, t)]


def reference_fewer_blue(g, t, blocks, count):
    """The first refinement of a leaf, in (len(blue), blue) order, with fewer
    than count blue edges (no limit when None) and no red K_t, else None."""
    if count is not None and g.n - len(blocks) >= count:
        return None
    for blue in sorted(reference_refinements(g, blocks), key=lambda blue: (len(blue), blue)):
        if count is not None and len(blue) >= count:
            return None
        if row_red_clique_free(g, blue, t):
            return blue
    return None


def reference_good_refinements(g, t, blocks, below=None, deadline=None):
    """Stand-in for search._good_refinements built on the materialised
    product and the red-graph test."""
    for blue in sorted(reference_refinements(g, blocks), key=lambda blue: (len(blue), blue)):
        if below is not None and len(blue) >= below:
            return
        if reference_red_clique_free(g, blue, t):
            yield blue


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
    monkeypatch.setattr(search, "_good_refinements", reference_good_refinements)
    assert refinement_answers() == fast


def check_good_refinements(g, t, blocks):
    """The generator yields exactly the sorted, filtered product, and its first
    item under each cut equals reference_fewer_blue."""
    want = reference_good_list(g, t, blocks)
    assert list(_good_refinements(g, t, blocks)) == want, (g.adj, t, blocks)
    m = len(want[0]) if want else g.n - len(blocks)
    for below in (None, m, m + 1):
        first = next(_good_refinements(g, t, blocks, below), None)
        assert first == reference_fewer_blue(g, t, blocks, below), (g.adj, t, blocks, below)


def test_good_refinements_match_the_product_on_small_classes():
    # every good partition of every class on 1-6 vertices
    leaves = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for t, k in PAIRS:
                for blocks in oracle_leaves(g, t, k):
                    check_good_refinements(g, t, list(blocks))
                    leaves += 1
    assert leaves == 7910


def test_good_refinements_match_the_product_on_4_4_18():
    g = build(ConstructionParams(4, 4, 18))
    leaves = walk_leaves(g, 4, 4)
    assert len(leaves) == 2
    for blocks in leaves:
        check_good_refinements(g, 4, list(blocks))


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


def test_max_red_tie_break_is_pinned():
    # the first leaf, {0} {1} {2} {3,4,5,6}, has three good refinements with
    # the fewest blue edges (four); the lexicographically least wins, where
    # deciding exclusion before inclusion would pick the last one,
    # [(3, 6), (4, 5), (4, 6), (5, 6)]
    tau = max_red_critical_coloring(parse_graph6("F@U^w"), 3, 5)
    assert sorted(tau.blue) == [(3, 4), (3, 6), (4, 6), (5, 6)]


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


@cache
def reference_good_partitions(g, t, k):
    """Good partitions by definition: connected blocks of at most k-1
    vertices whose cross graph holds no K_t.  Cached, since both walks are
    checked against it."""
    good = set()
    for part in set_partitions(list(range(g.n))):
        if any(len(b) > k - 1 or not is_connected_mask(g, bitmask(b)) for b in part):
            continue
        if not has_clique(cross_graph(g, make_partition(part)), t):
            good.add(frozenset(bitmask(b) for b in part))
    return frozenset(good)


def walk_leaves(g, t, k):
    leaves = []
    status, _, _, _ = _walk_partitions(
        g, t, k, SearchBudget(), lambda blocks: leaves.append(frozenset(blocks))
    )
    assert status == EXHAUSTED
    return leaves


def oracle_leaves(g, t, k):
    """The leaves of the ruleless oracle: every good partition."""
    leaves = []
    ruleless_walk(g, t, k, lambda blocks: leaves.append(frozenset(blocks)))
    return leaves


def test_walk_leaves_are_the_good_partitions():
    # the good partitions that obey the twin rule, each once
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            lower = lower_twins(g)
            for t, k in PAIRS:
                leaves = walk_leaves(g, t, k)
                assert len(set(leaves)) == len(leaves)
                good = reference_good_partitions(g, t, k)
                want = {leaf for leaf in good if obeys(sorted(leaf, key=lambda m: m & -m), lower)}
                assert set(leaves) == want, (g.adj, t, k)


def test_oracle_leaves_are_the_good_partitions():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for t, k in PAIRS:
                leaves = oracle_leaves(g, t, k)
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

                status, _, _, _ = _walk_partitions(g, t, k, SearchBudget(), on_partition)
                assert status == FOUND and len(calls) == j
                stopped += 1
    assert stopped > 100


def test_time_cap_stops_a_short_walk_within_64_nodes(monkeypatch):
    # the clock stands still for the walk's start and its first `reads` clock
    # reads and is past the deadline from then on; the walk reads it at node
    # 1 and every 64 nodes after, so even a walk of fewer than 1,024 nodes
    # stops at the next read, 64 nodes after the deadline passed
    g = build(ConstructionParams(4, 4, 18))
    status, total, _, _ = _walk_partitions(g, 4, 4, SearchBudget(), lambda blocks: False)
    assert status == EXHAUSTED and total == 542
    for reads in range(total // 64 + 1):
        clock = iter([0.0] * (1 + reads))
        monkeypatch.setattr(search.time, "perf_counter", lambda: next(clock, 1.0))
        status, nodes, _, _ = _walk_partitions(g, 4, 4, SearchBudget(time_cap=0.5), lambda blocks: False)
        assert (status, nodes) == (BUDGET_EXCEEDED, 64 * reads + 1)


def test_walk_returns_its_first_leaf():
    # the walk's first is the first leaf on_partition saw, as a partition,
    # or None when it saw none
    reached = {True: 0, False: 0}
    for g in [empty_graph(0)] + [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]:
        for t, k in PAIRS:
            seen = []

            def on_partition(blocks):
                seen.append([list(iter_bits(m)) for m in blocks])
                return False

            _, _, _, first = _walk_partitions(g, t, k, SearchBudget(), on_partition)
            assert first == (make_partition(seen[0]) if seen else None), (g.adj, t, k)
            reached[first is not None] += 1
    assert reached[True] and reached[False]
    for t, k in PAIRS:
        assert _walk_partitions(empty_graph(0), t, k, SearchBudget(), lambda blocks: True)[3] == make_partition([])


def test_walk_without_a_leaf_returns_no_first():
    for t, k in PAIRS:
        r = (t - 1) * (k - 1) + 1  # Chvatal: K_r arrows (K_t, T_k)
        status, _, _, first = _walk_partitions(complete_graph(r), t, k, SearchBudget(), lambda blocks: False)
        assert (status, first) == (EXHAUSTED, None)
    g = build(ConstructionParams(4, 4, 18))
    status, _, _, first = _walk_partitions(g, 4, 4, SearchBudget(node_cap=1), lambda blocks: True)
    assert (status, first) == (BUDGET_EXCEEDED, None)


def test_every_query_rechecks_its_first_leaf(monkeypatch):
    class Rechecked(Exception):
        pass

    def refuse(*args):
        raise Rechecked

    monkeypatch.setattr(search, "_assert_witness", refuse)
    g = build(ConstructionParams(4, 3, 13))
    for query in (
        exists_critical_coloring,
        max_red_critical_coloring,
        verify.is_cocritical,
    ):
        with pytest.raises(Rechecked):
            query(g, 4, 3)


def walk_in_order(g, t, k):
    """((status, leaves in walk order), nodes) of the walk."""
    got = []
    status, nodes, _, _ = _walk_partitions(g, t, k, SearchBudget(), lambda blocks: got.append(tuple(blocks)))
    return (status, got), nodes


def oracle_in_order(g, t, k, lower, forced_merge):
    """((status, leaves in walk order), nodes) of the ruleless oracle, its
    leaves kept only where they obey the twin rule."""
    want = []
    status, nodes = ruleless_walk(g, t, k, lambda blocks: want.append(tuple(blocks)), lower, forced_merge)
    twins = lower_twins(g)
    return (status, [leaf for leaf in want if obeys(leaf, twins)]), nodes


def leaf_sequences(g, t, k, oracle_twins, forced_merge=False):
    """(status, leaves) of the walk and of the ruleless oracle, in walk order,
    and the node counts of both.  The oracle applies the twin rule itself
    when oracle_twins is set; otherwise it walks every good partition and
    only the rule-obeying ones are compared."""
    mine, nodes = walk_in_order(g, t, k)
    oracle, oracle_nodes = oracle_in_order(g, t, k, lower_twins(g) if oracle_twins else None, forced_merge)
    return mine, oracle, nodes, oracle_nodes


CAPACITY_PAIRS = PAIRS + ((3, 5), (4, 4))


def test_lookahead_keeps_the_leaf_sequence():
    # the lookaheads cut only subtrees without a leaf: on every class on 1-7
    # vertices the walk gives the leaves of the oracle with the twin rule
    # and without the capacity rule (on CAPACITY_PAIRS) and of the oracle
    # with the twin rule and without either lookahead (on PAIRS), in the
    # oracle's order; on PAIRS the capacity rule alone cuts fewer nodes than
    # both lookaheads
    cut = {True: 0, False: 0}
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            lower = lower_twins(g)
            for t, k in CAPACITY_PAIRS:
                mine, nodes = walk_in_order(g, t, k)
                for forced_merge in (True, False) if (t, k) in PAIRS else (True,):
                    oracle, oracle_nodes = oracle_in_order(g, t, k, lower, forced_merge)
                    assert mine == oracle, (g.adj, t, k, forced_merge)
                    assert nodes <= oracle_nodes
                    if (t, k) in PAIRS:
                        cut[forced_merge] += oracle_nodes - nodes
    assert 0 < cut[True] < cut[False]


@pytest.mark.parametrize(
    "t, k, n, oracle_twins, oracle_nodes",
    [
        (4, 3, 13, False, 306),
        (4, 3, 13, True, 306),
        (5, 3, 17, False, 42522),
        (5, 3, 17, True, 42522),
        (4, 4, 18, False, 97761),
        (4, 4, 18, True, 27428),
    ],
)
def test_lookahead_keeps_frozen_leaf_sequences(t, k, n, oracle_twins, oracle_nodes):
    # the oracle's node counts are the walk sizes from before the lookaheads,
    # with and without the twin rule; the walk's own are pinned in
    # tests/test_verify.py
    mine, oracle, nodes, got_oracle_nodes = leaf_sequences(
        build(ConstructionParams(t, k, n)), t, k, oracle_twins
    )
    assert mine == oracle and mine[1]
    assert got_oracle_nodes == oracle_nodes and nodes < oracle_nodes


@pytest.mark.parametrize(
    "t, k, n, oracle_twins, oracle_nodes",
    [
        (4, 3, 13, False, 65),
        (4, 3, 13, True, 65),
        (5, 3, 17, False, 696),
        (5, 3, 17, True, 696),
        (4, 4, 18, False, 3562),
        (4, 4, 18, True, 1862),
        (4, 5, 28, True, 120883),
    ],
)
def test_capacity_rule_keeps_frozen_leaf_sequences(t, k, n, oracle_twins, oracle_nodes):
    # the oracle's node counts are the walk sizes from before the capacity
    # rule, with and without the twin rule; the walk's own are pinned in
    # tests/test_verify.py
    mine, oracle, nodes, got_oracle_nodes = leaf_sequences(
        build(ConstructionParams(t, k, n)), t, k, oracle_twins, True
    )
    assert mine == oracle and mine[1]
    assert got_oracle_nodes == oracle_nodes and nodes < oracle_nodes


def test_capacity_rule_cuts_k6_and_keeps_its_verdict():
    # K_6 at (4, 3): after the first block {0}, the five other vertices need
    # three more blocks of at most two, and K_6 may meet only three blocks;
    # blocks of two meet it three times, so K_6 has good colorings
    g = complete_graph(6)
    mine, oracle, nodes, oracle_nodes = leaf_sequences(g, 4, 3, True, True)
    assert mine == oracle
    assert nodes < oracle_nodes
    assert mine[1] and brute_force_exists(g, 4, 3)


@pytest.mark.parametrize(
    "t, k, n, walk_nodes, oracle_nodes",
    [
        (4, 4, 8, 17, 88),
        (4, 4, 9, 9, 108),
        (4, 4, 10, 3, 134),
        (4, 5, 10, 36, 389),
        (4, 5, 11, 23, 525),
    ],
)
def test_capacity_rule_keeps_complete_graph_leaf_sequences(t, k, n, walk_nodes, oracle_nodes):
    # complete graphs at k >= 4, away from the construction graphs: the walk
    # gives the leaves of the oracle with the twin rule and without the
    # capacity rule, in its order, and the rule cuts nodes on every one
    mine, oracle, nodes, got_oracle_nodes = leaf_sequences(complete_graph(n), t, k, True, True)
    assert mine == oracle
    assert (nodes, got_oracle_nodes) == (walk_nodes, oracle_nodes)


def check_against_the_oracle(g, t, k, leaves, all_leaves=True):
    """exists_critical_coloring's status and witness are the oracle's status
    and first leaf; with all the oracle's leaves given, max_red_critical_coloring
    is the least good refinement of the first leaf, in walk order, whose
    least good refinement has the fewest blue edges.  A leaf is asked only
    for refinements with fewer blue edges than the best so far."""
    outcome = exists_critical_coloring(g, t, k)
    assert (outcome.status, outcome.witness) == (
        (FOUND, BlockPartition(leaves[0])) if leaves else (EXHAUSTED, None)
    ), (g.adj, t, k)
    if not all_leaves:
        return
    best = None
    for leaf in leaves:
        blue = next(_good_refinements(g, t, list(leaf), None if best is None else len(best)), None)
        if blue is not None:
            best = blue
    if best is None:
        with pytest.raises(NoCriticalColoringError):
            max_red_critical_coloring(g, t, k)
    else:
        assert max_red_critical_coloring(g, t, k) == make_coloring(g, best), (g.adj, t, k)


def test_standalone_queries_match_the_ruleless_oracle():
    # the walks of both queries apply the twin rule and the lookaheads, the
    # oracle none of them: their answers are the full walk's ("Walk order"
    # in search._walk_partitions)
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            for t, k in CAPACITY_PAIRS:
                leaves = []
                ruleless_walk(g, t, k, lambda blocks: leaves.append(tuple(blocks)))
                check_against_the_oracle(g, t, k, leaves)
    for t, k, n in ((4, 3, 13), (5, 3, 17), (4, 4, 18)):
        g = build(ConstructionParams(t, k, n))
        leaves = []
        ruleless_walk(g, t, k, lambda blocks: leaves.append(tuple(blocks)))
        assert leaves
        check_against_the_oracle(g, t, k, leaves)
    # the oracle needs about 16 s to exhaust (4,5,28) even with the
    # forced-merge lookahead, so there it stops at its first leaf, and only
    # exists_critical_coloring is checked
    g = build(ConstructionParams(4, 5, 28))
    leaves = []
    ruleless_walk(g, 4, 5, lambda blocks: leaves.append(tuple(blocks)) or True, None, True)
    assert leaves
    check_against_the_oracle(g, 4, 5, leaves, all_leaves=False)
