"""Co-criticality verdicts, the structural consequence checks, and the
exhaustive minimum search."""

import math
from itertools import combinations

import pytest
from graph_families import cycle_graph, empty_graph, path_graph
from oracles import lower_twins, obeys, ruleless_walk
from test_search import FROZEN_MAX_RED_BLUE

from cocritical import cli, search, verify
from cocritical.canon import GENERATION_ORDER_CAP, iter_classes, nonisomorphic_graphs
from cocritical.coloring import make_coloring, make_partition
from cocritical.construction import ConstructionParams, blueprint_coloring, build
from cocritical.graphs import add_edge, complete_graph, make_graph, twin_classes, twin_masks
from cocritical.graph6 import emit_graph6, parse_graph6
from cocritical.search import (
    EXHAUSTED,
    FOUND,
    IndeterminateResultError,
    SearchBudget,
    _assert_witness,
    _walk_partitions,
    brute_force_exists,
    exists_critical_coloring,
    max_red_critical_coloring,
)
from cocritical.verify import (
    BUDGET,
    CO_CRITICAL,
    INDETERMINATE,
    NOT_CO_CRITICAL,
    STILL_COLORABLE,
    check_critical_structure,
    _refuting_non_edge,
    _twin_image,
    is_cocritical,
    min_cocritical_search,
    saturation_structure_checks,
)


def test_is_cocritical_on_frozen_instance():
    g = build(ConstructionParams(4, 3, 13))
    report = is_cocritical(g, 4, 3)
    assert report.verdict() == CO_CRITICAL and report.is_cocritical
    assert report.complete
    assert report.failures == ()
    assert report.non_edge_count == 34
    assert report.nodes == 60
    doc = report.to_json()
    assert doc["verdict"] == CO_CRITICAL and doc["nodes"] == 60


def _per_nonedge_oracle(g, t, k):
    """(verdict, failures, base outcome) from one independent search per graph."""
    base = exists_critical_coloring(g, t, k)
    failures = ()
    if base.status == FOUND:
        failures = tuple(
            (e, STILL_COLORABLE)
            for e in g.non_edges()
            if exists_critical_coloring(add_edge(g, *e), t, k).status == FOUND
        )
    verdict = CO_CRITICAL if base.status == FOUND and not failures else NOT_CO_CRITICAL
    return verdict, failures, base


def test_one_walk_matches_per_nonedge_oracle():
    disagreements = []
    cases = 0
    for n in range(2, 8):
        for g in nonisomorphic_graphs(n):
            if not g.non_edges():
                continue
            for t, k in ((2, 3), (3, 3), (3, 4), (4, 3)):
                cases += 1
                verdict, failures, base = _per_nonedge_oracle(g, t, k)
                report = is_cocritical(g, t, k)
                got = (report.verdict(), report.failures, report.base_status, report.base_witness)
                fast = is_cocritical(g, t, k, fail_fast=True).verdict()
                if got != (verdict, failures, base.status, base.witness) or fast != verdict:
                    disagreements.append((emit_graph6(g), t, k))
    assert cases == 4980
    assert disagreements == []


def test_one_walk_per_call(monkeypatch):
    calls = []

    def counting_walk(*args, **kwargs):
        calls.append(args[1:3])
        return _walk_partitions(*args, **kwargs)

    monkeypatch.setattr(verify, "_walk_partitions", counting_walk)
    for g, t, k in ((build(ConstructionParams(4, 3, 13)), 4, 3), (cycle_graph(5), 3, 3)):
        calls.clear()
        is_cocritical(g, t, k)
        assert calls == [(t, k)]


def test_folded_max_red_matches_standalone():
    # the co-criticality walk keeps the max-red coloring; on every co-critical
    # case it must be the standalone search's answer, tie-break included
    mismatches = []
    cocritical_cases = 0
    for n in range(2, 8):
        for g in nonisomorphic_graphs(n):
            if not g.non_edges():
                continue
            for t, k in ((2, 3), (3, 3), (3, 4), (4, 3), (3, 5)):
                report = is_cocritical(g, t, k)
                if not report.is_cocritical:
                    if report.coloring is not None:
                        mismatches.append((emit_graph6(g), t, k, "coloring on a non-co-critical report"))
                    continue
                cocritical_cases += 1
                if report.coloring != max_red_critical_coloring(g, t, k):
                    mismatches.append((emit_graph6(g), t, k, "differs from max_red_critical_coloring"))
    assert cocritical_cases == 18
    assert mismatches == []


@pytest.mark.parametrize("t, k, n", sorted(FROZEN_MAX_RED_BLUE))
def test_folded_max_red_on_frozen_instances(t, k, n):
    report = is_cocritical(build(ConstructionParams(t, k, n)), t, k)
    assert report.is_cocritical
    assert sorted(report.coloring.blue) == FROZEN_MAX_RED_BLUE[(t, k, n)]


def test_coloring_only_on_full_cocritical_reports():
    g = build(ConstructionParams(4, 3, 13))
    assert is_cocritical(g, 4, 3).coloring is not None
    fast = is_cocritical(g, 4, 3, fail_fast=True)
    assert fast.is_cocritical and fast.coloring is None
    others = (
        is_cocritical(cycle_graph(5), 3, 3),
        is_cocritical(cycle_graph(5), 3, 3, fail_fast=True),
        is_cocritical(complete_graph(4), 3, 3),
        is_cocritical(complete_graph(5), 3, 3),
        is_cocritical(g, 4, 3, SearchBudget(node_cap=10)),
        is_cocritical(build(ConstructionParams(4, 4, 18)), 4, 4, SearchBudget(node_cap=500)),
    )
    for report in others:
        assert not report.is_cocritical and report.coloring is None


def test_verify_checks_walk_the_graph_once(monkeypatch, capsys):
    calls = []

    def counting_walk(*args, **kwargs):
        calls.append(args[1:3])
        return _walk_partitions(*args, **kwargs)

    monkeypatch.setattr(search, "_walk_partitions", counting_walk)
    monkeypatch.setattr(verify, "_walk_partitions", counting_walk)
    argv = ["verify", "--construct", "4,4,18", "--t", "4", "--k", "4", "--checks"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == [(4, 4)]


def test_structure_checks_walk_nothing(monkeypatch):
    # the checks read the report alone: with every walk disabled they give
    # the same results as with the walk in place
    report = is_cocritical(build(ConstructionParams(4, 4, 18)), 4, 4)
    want = (
        saturation_structure_checks(report),
        check_critical_structure(report.coloring, 4, 4),
    )

    def no_walk(*args, **kwargs):
        raise AssertionError("structure checks must not walk")

    monkeypatch.setattr(search, "_walk_partitions", no_walk)
    monkeypatch.setattr(verify, "_walk_partitions", no_walk)
    got = (
        saturation_structure_checks(report),
        check_critical_structure(report.coloring, 4, 4),
    )
    assert got == want and want[0].all_passed()


def _leaves(g, t, k):
    leaves = []

    def on_partition(blocks):
        leaves.append(tuple(blocks))
        return False

    _walk_partitions(g, t, k, SearchBudget(), on_partition)
    return leaves


def _oracle_leaves(g, t, k):
    """Every good partition, in walk order, from the ruleless oracle."""
    leaves = []
    ruleless_walk(g, t, k, lambda blocks: leaves.append(tuple(blocks)))
    return leaves


def test_twin_rule_keeps_one_leaf_per_orbit_in_walk_order():
    # the walk visits exactly the rule-obeying leaves of the ruleless
    # oracle, in the same order, and every leaf of the oracle has a twin
    # image (same per-class counts, block by block) at or before it among
    # them
    pruned_away = 0
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            class_of = {v: i for i, c in enumerate(twin_classes(g)) for v in c}
            lower = lower_twins(g)

            def orbit(leaf):
                counts = []
                for block in leaf:
                    members = [v for v in range(n) if block >> v & 1]
                    counts.append(tuple(sorted(class_of[v] for v in members)))
                return tuple(sorted(counts))

            for t, k in ((3, 3), (3, 4), (4, 3), (3, 5)):
                full = _oracle_leaves(g, t, k)
                pruned = _leaves(g, t, k)
                assert pruned == [leaf for leaf in full if obeys(leaf, lower)]
                seen = set()
                for leaf in full:
                    if obeys(leaf, lower):
                        seen.add(orbit(leaf))
                    assert orbit(leaf) in seen
                pruned_away += len(full) - len(pruned)
    assert pruned_away > 0


def test_twin_image_maps_witnesses_within_a_type():
    # a good partition of g+e0 mapped by _twin_image is a good partition of
    # g+e for every non-edge e of e0's type (the union of its ends' classes)
    mapped = 0
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            twin_of = twin_masks(g)
            for t, k in ((3, 3), (3, 4), (4, 3)):
                for e0 in g.non_edges():
                    found = exists_critical_coloring(add_edge(g, *e0), t, k).witness
                    if found is None:
                        continue
                    source = list(found.blocks)
                    kind = twin_of[e0[0]] | twin_of[e0[1]]
                    for e in g.non_edges():
                        if e != e0 and twin_of[e[0]] | twin_of[e[1]] == kind:
                            image = _twin_image(source, e0, e, twin_of)
                            _assert_witness(add_edge(g, *e).adj, t, k, image)
                            mapped += 1
    assert mapped > 1000


@pytest.mark.parametrize(
    "t, k, n, pruned, full",
    [(4, 3, 13, 60, 65), (5, 3, 17, 529, 696), (4, 4, 18, 542, 3562), (4, 5, 28, 4315, None)],
)
def test_twin_rule_walk_sizes(t, k, n, pruned, full):
    # pruned is the walk's size; full is the ruleless oracle's with the
    # forced-merge lookahead, which walks every good partition (the walk
    # sizes of the oracle with the twin rule are pinned in
    # tests/test_search.py); the twin pairs of (4,3,13) and (5,3,17) never
    # trigger the twin rule, so there the capacity rule makes the whole
    # difference; (4,5,28)'s full walk, 840,181 nodes, takes the oracle
    # about 16 s, so it is not run
    g = build(ConstructionParams(t, k, n))
    report = is_cocritical(g, t, k)
    assert report.nodes == pruned
    if full is not None:
        assert ruleless_walk(g, t, k, lambda blocks: False, None, True) == (EXHAUSTED, full)


def test_complete_graph_is_never_cocritical():
    report = is_cocritical(complete_graph(4), 3, 3)
    assert report.verdict() == NOT_CO_CRITICAL
    assert report.non_edge_count == 0


def test_still_colorable_failure():
    # a 5-cycle misses triangle bounds everywhere: one blue edge fixes any
    # added chord, so it is far from co-critical
    report = is_cocritical(cycle_graph(5), 3, 3)
    assert report.verdict() == NOT_CO_CRITICAL
    assert report.failures and all(r == STILL_COLORABLE for _, r in report.failures)


def test_no_base_coloring():
    # K_5 forces a red triangle or blue pair-component breach outright
    report = is_cocritical(complete_graph(5), 3, 3)
    assert report.verdict() == NOT_CO_CRITICAL
    assert report.base_status == "exhausted" and report.base_witness is None


def test_empty_graph_reports_its_empty_base_witness():
    # the 0-vertex graph has one good partition, the empty one: the report
    # must carry it rather than read its one leaf as "no leaf"
    g = empty_graph(0)
    report = is_cocritical(g, 3, 3)
    base = exists_critical_coloring(g, 3, 3)
    assert report.base_status == base.status == FOUND
    assert report.base_witness is not None
    assert report.base_witness == base.witness
    assert report.verdict() == NOT_CO_CRITICAL


def test_budget_indeterminate():
    g = build(ConstructionParams(4, 3, 13))
    report = is_cocritical(g, 4, 3, SearchBudget(node_cap=10))
    assert report.verdict() == INDETERMINATE


def test_budget_runs_out_mid_walk():
    # the first leaf (the base witness) comes at 46 nodes, and the walk
    # takes 542 (test_twin_rule_walk_sizes); the cap stops the one walk in
    # between with every non-edge still open
    g = build(ConstructionParams(4, 4, 18))
    assert exists_critical_coloring(g, 4, 4).nodes == 46
    report = is_cocritical(g, 4, 4, SearchBudget(node_cap=500))
    assert report.base_status == FOUND and report.base_witness is not None
    assert report.failures == tuple((e, BUDGET) for e in g.non_edges())
    assert len(report.failures) == 66
    assert report.verdict() == INDETERMINATE


def test_deadline_passes_inside_the_leaf_step(monkeypatch):
    # the clock stands still until the first leaf step starts and reads past
    # every deadline from then on, so only the leaf step's own clock check
    # can stop the search: the (4,3,13) walk takes 60 nodes, and the walk
    # reads the clock at node 1 and then at node 65
    now = [0.0]
    real = search._good_refinements

    def late(*args):
        now[0] = math.inf
        yield from real(*args)

    monkeypatch.setattr(search.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(search, "_good_refinements", late)
    g = build(ConstructionParams(4, 3, 13))
    with pytest.raises(IndeterminateResultError):
        max_red_critical_coloring(g, 4, 3)
    now[0] = 0.0
    report = is_cocritical(g, 4, 3)
    assert report.verdict() == INDETERMINATE and report.coloring is None
    assert report.failures == tuple((e, BUDGET) for e in g.non_edges())


def test_fail_fast_stops_early():
    report = is_cocritical(cycle_graph(5), 3, 3, fail_fast=True)
    assert report.verdict() == NOT_CO_CRITICAL
    assert len(report.failures) == 1 and not report.complete


def test_fail_fast_reports_first_settled_nonedge():
    # the first leaf of the 5-cycle settles every chord; fail_fast keeps the
    # first one in non-edge order and marks the report incomplete
    g = cycle_graph(5)
    full = is_cocritical(g, 3, 3)
    fast = is_cocritical(g, 3, 3, fail_fast=True)
    first = g.non_edges()[0]
    assert fast.failures == ((first, STILL_COLORABLE),)
    assert not fast.complete and full.complete
    assert fast.base_witness == full.base_witness


def settles(g, t, k, leaf, edge):
    """Does the good partition `leaf` of g extend to g+edge (conditions 1-3
    of is_cocritical), with the clique test done on subsets?"""
    block = {x: m for m in leaf for x in range(g.n) if m >> x & 1}
    u, v = edge
    if (block[u] | block[v]).bit_count() <= k - 1:
        return True

    def cross(x, y):
        return g.has_edge(x, y) and block[x] != block[y]

    common = [w for w in range(g.n) if cross(u, w) and cross(v, w)]
    return not any(
        all(cross(a, b) for a, b in combinations(c, 2)) for c in combinations(common, t - 2)
    )


def test_fail_fast_reports_the_first_settling_leafs_first_non_edge():
    # the leaf step stops at the first non-edge it settles; that is the first
    # one, in non-edge order, of the first leaf that settles any, in the walk
    # and in the ruleless oracle alike
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            non_edges = g.non_edges()
            if not non_edges:
                continue
            for t, k in ((3, 3), (3, 4), (4, 3), (3, 5)):
                expected = ()
                for leaf in _oracle_leaves(g, t, k):
                    hits = [e for e in non_edges if settles(g, t, k, leaf, e)]
                    if hits:
                        expected = ((hits[0], STILL_COLORABLE),)
                        break
                fast = is_cocritical(g, t, k, fail_fast=True)
                assert fast.failures == expected, (emit_graph6(g), t, k)
                assert fast.complete == (not expected or len(non_edges) == 1)


def test_minimum_witness_is_cocritical():
    g = parse_graph6("DN{")
    assert is_cocritical(g, 3, 3).verdict() == CO_CRITICAL


def test_check_critical_structure_passes_on_instance():
    p = ConstructionParams(4, 3, 13)
    assert check_critical_structure(blueprint_coloring(p), 4, 3) == []


def test_check_critical_structure_violations():
    # blue spanning path of a non-clique component
    g = path_graph(3)
    c = make_coloring(g, [(0, 1), (1, 2)])
    violations = check_critical_structure(c, 3, 4)
    assert any("misses base edge (0,2)" in v for v in violations)
    # singleton components that are not pairwise adjacent, and too many of them
    g = empty_graph(3)
    c = make_coloring(g, [])
    violations = check_critical_structure(c, 3, 4)
    assert any("miss edge" in v for v in violations)
    assert any("exceeds t-1" in v for v in violations)


def test_check_critical_structure_input_validation():
    p = ConstructionParams(4, 3, 13)
    g = build(p)
    with pytest.raises(ValueError):
        check_critical_structure(make_coloring(g, []), 4, 3)  # red has K_4


def test_saturation_checks_refuse_unverified_graphs():
    with pytest.raises(ValueError):
        saturation_structure_checks(is_cocritical(cycle_graph(5), 3, 3))


def test_saturation_checks_need_the_reports_coloring():
    g = build(ConstructionParams(4, 3, 13))
    fast = is_cocritical(g, 4, 3, fail_fast=True)
    with pytest.raises(ValueError, match="no max-red coloring"):
        saturation_structure_checks(fast)


def test_saturation_checks_on_frozen_instance():
    g = build(ConstructionParams(4, 3, 13))
    report = saturation_structure_checks(is_cocritical(g, 4, 3))
    assert report.all_passed()
    items = report.items
    assert items["degree_bounds"].applicable and items["degree_bounds"].passed
    assert items["degree_bounds"].details["min_red_degree"] == 4
    assert items["cross_nonedge_clique"].details["checked"] == 34
    assert items["degree_tradeoff"].passed
    assert items["degree_tradeoff"].details["min_cross_degree"] == 4
    assert items["block_edge_total"].details["within_block_edges"] == 6
    assert items["cross_graph_connected"].passed
    # hypotheses of the conditional items do not fire here
    assert not items["forced_block_sizes"].applicable
    assert not items["min_neighborhood_core"].applicable
    doc = report.to_json()
    assert doc["all_passed"] and set(doc["items"]) == set(items)


# No verified instance so far meets the hypotheses of the two conditional
# items (see test_saturation_checks_on_frozen_instance), so they are run
# directly on hand-built cross graphs.


def test_min_neighborhood_core_names_the_cross_graphs_edges():
    # minimum cross degree 3 <= 2t - 5 at t = 4; vertex 0's neighbourhood
    # {5, 7, 9} holds the one K_2 {7, 9}, which is therefore pinned
    H = make_graph(10, [
        (0, 5), (0, 7), (0, 9), (7, 9), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
        (3, 4), (5, 6), (5, 8), (6, 8), (6, 1), (8, 2), (7, 3), (9, 4),
    ])
    item = verify._min_neighborhood_core_item(H, 4, 4)
    assert item.applicable and item.passed is False
    assert [c["vertex"] for c in item.details["checked"]] == [0, 5, 6, 7, 8, 9]
    failures = {f["vertex"]: f["pinned_edges"] for f in item.details["failures"]}
    assert failures[0] == [[7, 9]]
    assert failures == {0: [[7, 9]], 5: [[6, 8]], 6: [[5, 8]], 7: [[0, 9]], 8: [[5, 6]], 9: [[0, 7]]}
    # the hypothesis needs k >= t
    assert not verify._min_neighborhood_core_item(H, 4, 3).applicable


def test_min_neighborhood_core_passes_and_counts_cliqueless_neighbourhoods():
    # K_4: each neighbourhood is a triangle, whose three K_2 share nothing
    item = verify._min_neighborhood_core_item(complete_graph(4), 4, 4)
    assert item.applicable and item.passed
    assert item.details["checked"] == [{"vertex": v, "core_size": 0} for v in range(4)]
    # C_5: each neighbourhood is a non-adjacent pair, so it holds no K_2
    item = verify._min_neighborhood_core_item(cycle_graph(5), 4, 4)
    assert item.applicable and item.passed
    assert item.details["checked"] == [{"vertex": v, "cliques": 0} for v in range(5)]
    assert item.details["failures"] == []


def test_forced_block_sizes_trigger():
    # singleton 0 lies in the only K_1 of N(1) = {0}, so every block apart
    # from 1's own that 1 does not dominate must have k - 1 = 2 vertices
    H = make_graph(5, [(0, 1), (0, 3), (0, 4), (2, 3), (2, 4)])
    item = verify._forced_block_sizes_item(H, make_partition([[0], [1, 2], [3, 4]]), 3, 3)
    assert item.applicable and item.passed
    assert item.details == {"triggered_pairs": 1, "failures": []}
    item = verify._forced_block_sizes_item(H, make_partition([[0], [1, 2], [3], [4]]), 3, 3)
    assert item.applicable and item.passed is False
    assert item.details["triggered_pairs"] == 1
    assert [f["block"] for f in item.details["failures"]] == [[3], [4]]
    assert all(f["singleton"] == 0 and f["edge_end"] == 1 for f in item.details["failures"])


def test_min_search_frozen_values():
    r = min_cocritical_search(3, 3, 4)
    assert r.minimum_edges is None and r.witnesses == () and r.complete
    r = min_cocritical_search(3, 3, 5)
    assert r.minimum_edges == 8
    assert [emit_graph6(w) for w in r.witnesses] == ["DN{"]
    assert r.complete
    doc = r.to_json()
    assert doc["minimum_edges"] == 8 and doc["witnesses"] == ["DN{"]


def test_min_search_order_guard():
    with pytest.raises(ValueError):
        min_cocritical_search(3, 3, 9)


def test_min_search_checks_parameters_before_generating(monkeypatch):
    def unreachable(n):
        raise AssertionError("generation reached with bad parameters")

    monkeypatch.setattr(verify, "iter_classes", unreachable)
    for (t, k, n), name in (((1, 3, 7), "t"), ((3, 1, 7), "k"), ((3, 3, 0), "n"), ((3, 3, 9), "n")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            min_cocritical_search(t, k, n)


# --- the refuting non-edge lemma of min_cocritical_search -------------------


def refuting_by_combinations(g, t):
    """The first non-edge whose common neighbourhood holds no t-2 pairwise
    adjacent vertices, found by trying every (t-2)-subset of it."""
    for u, v in g.non_edges():
        common = [w for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w)]
        if not any(
            all(g.has_edge(a, b) for a, b in combinations(c, 2))
            for c in combinations(common, t - 2)
        ):
            return u, v
    return None


def test_refuting_non_edge_matches_the_combinations_oracle():
    fired = 0
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            for t in (2, 3, 4, 5):
                edge = _refuting_non_edge(g, t)
                assert edge == refuting_by_combinations(g, t), (emit_graph6(g), t)
                assert t > 2 or edge is None
                fired += edge is not None
    assert fired == 3170


def test_refuted_classes_are_not_cocritical():
    # every class on up to 7 vertices that the lemma refutes gets a full walk
    refuted = 0
    for n in range(2, 8):
        for g in nonisomorphic_graphs(n):
            for t, k in ((3, 3), (3, 4), (4, 3), (3, 5)):
                if _refuting_non_edge(g, t) is not None:
                    refuted += 1
                    assert is_cocritical(g, t, k).verdict() == NOT_CO_CRITICAL, (emit_graph6(g), t, k)
    assert refuted == 3534


def test_refuted_classes_are_not_cocritical_by_brute_force():
    # the lemma's own argument, on 2^e colorings: if g has a good coloring,
    # so does g+uv for the refuting uv; hence g is never co-critical
    refuted = 0
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            for t, k in ((3, 3), (3, 4), (4, 3), (3, 5)):
                edge = _refuting_non_edge(g, t)
                if edge is None:
                    continue
                refuted += 1
                base = brute_force_exists(g, t, k)
                assert not base or brute_force_exists(add_edge(g, *edge), t, k), (emit_graph6(g), t, k)
                cocritical = base and not any(
                    brute_force_exists(add_edge(g, *e), t, k) for e in g.non_edges()
                )
                assert not cocritical, (emit_graph6(g), t, k)
    assert refuted == 553


def scan_without_lemma(t, k, n):
    """min_cocritical_search's scan with a fail-fast walk on every class."""
    minimum, witnesses, examined, indeterminate = None, [], 0, []
    for g in nonisomorphic_graphs(n):
        e = g.edge_count()
        if minimum is not None and e > minimum:
            break
        if not g.non_edges():
            continue
        examined += 1
        verdict = is_cocritical(g, t, k, fail_fast=True).verdict()
        if verdict == CO_CRITICAL:
            minimum = e
            witnesses.append(emit_graph6(g))
        elif verdict == INDETERMINATE:
            indeterminate.append(g)
    return minimum, witnesses, examined, not indeterminate


@pytest.mark.parametrize("t, k, n", [(3, 3, 5), (3, 3, 6), (3, 3, 7), (3, 4, 7), (4, 3, 7)])
def test_min_search_matches_the_scan_without_lemma(t, k, n):
    r = min_cocritical_search(t, k, n)
    got = (r.minimum_edges, [emit_graph6(w) for w in r.witnesses], r.examined, r.complete)
    assert got == scan_without_lemma(t, k, n)
    assert 0 < r.refuted < r.examined
    assert r.to_json()["refuted"] == r.refuted


@pytest.mark.parametrize("k, n", [(3, 3), (5, 5), (5, 7)])
def test_min_search_skips_the_lemma_for_t_2(monkeypatch, k, n):
    # every set holds a K_0, so no non-edge refutes a class when t = 2
    def unreachable(g, t):
        raise AssertionError("refutation scan reached for t = 2")

    monkeypatch.setattr(verify, "_refuting_non_edge", unreachable)
    r = min_cocritical_search(2, k, n)
    got = (r.minimum_edges, [emit_graph6(w) for w in r.witnesses], r.examined, r.complete)
    assert got == scan_without_lemma(2, k, n)
    assert r.refuted == 0 and r.examined > 0


# --- the order bound of min_cocritical_search --------------------------------


@pytest.mark.parametrize("t, k, n", [(3, 3, 4), (3, 5, 7)])
def test_min_search_below_chvatal_order_matches_the_scan(t, k, n):
    # the scan walks every class and finds none; the search examines none
    r = min_cocritical_search(t, k, n)
    minimum, witnesses, examined, complete = scan_without_lemma(t, k, n)
    got = (r.minimum_edges, [emit_graph6(w) for w in r.witnesses], r.complete)
    assert got == (minimum, witnesses, complete)
    assert minimum is None and examined > 0
    assert r.examined == r.refuted == 0


def test_min_search_below_chvatal_order_generates_nothing(monkeypatch):
    def unreachable(n):
        raise AssertionError("generation reached below Chvátal's order")

    monkeypatch.setattr(verify, "iter_classes", unreachable)
    answered = 0
    for t in range(2, 6):
        for k in range(2, 6):
            for n in range(1, min((t - 1) * (k - 1), GENERATION_ORDER_CAP) + 1):
                r = min_cocritical_search(t, k, n, SearchBudget(node_cap=1))
                assert r == verify.MinSearchResult(t, k, n, None, (), 0, (), 0), (t, k, n)
                answered += 1
    assert answered == 83


def test_min_search_scans_from_chvatal_order(monkeypatch):
    orders = []

    def recording(n):
        orders.append(n)
        return iter_classes(n)

    monkeypatch.setattr(verify, "iter_classes", recording)
    r = min_cocritical_search(3, 3, 5)  # n = (t-1)(k-1)+1
    assert orders == [5]
    assert (r.minimum_edges, r.examined, r.complete) == (8, 32, True)
