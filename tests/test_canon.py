"""Canonical labeling and isomorphism-free generation."""

import hashlib
import random

import pytest
from graph_families import cycle_graph, disjoint_union
from test_graphs import relabel

from cocritical import canon, verify
from cocritical.canon import (
    GENERATION_ORDER_CAP,
    _label,
    canonical_key,
    nonisomorphic_graphs,
)
from cocritical.graph6 import emit_graph6
from cocritical.graphs import Graph, complete_graph, make_graph

# class counts for unlabeled graphs on 1..8 vertices (OEIS A000088)
CLASS_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346]
# first 16 hex digits of the sha256 of the graph6 listing of those classes,
# in generation order: pins the canonical form, the class set and the order
LISTING_SHA256 = [
    "ecf5de1a2ecc66a1",
    "b7cd2a004ade8613",
    "1d237c0da1c599bb",
    "4b883c94e641e07b",
    "8bbb664e4180967d",
    "90301ca41c9ba618",
    "98da539f83e7cec4",
    "0aba146daa3874d2",
]


def _clear_generation_memo():
    canon._level.cache_clear()
    canon._children.cache_clear()
    canon._bucket.cache_clear()


@pytest.fixture
def cold_generation():
    """Clear the generation memo before and after the test, so its label
    counts measure cold work and a patched labeler leaves nothing behind."""
    _clear_generation_memo()
    yield
    _clear_generation_memo()


def _recording_label(monkeypatch):
    """Patch canon._label to record every graph it labels; return the list."""
    labeled = []

    def recording_label(n, rows, autos=False):
        labeled.append(Graph(n, tuple(rows)))
        return _label(n, rows, autos)

    monkeypatch.setattr(canon, "_label", recording_label)
    return labeled


def _listing_digest(graphs):
    listing = "".join(emit_graph6(g) + "\n" for g in graphs)
    return hashlib.sha256(listing.encode()).hexdigest()[:16]


def rand_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def rand_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(321)
    for _ in range(150):
        n = rng.randrange(1, 9)
        g = rand_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        h = relabel(g, rand_perm(rng, n))
        assert canonical_key(g) == canonical_key(h)


def test_twin_skip_keeps_the_canonical_form():
    # blow-ups of small graphs are rich in twins; the automorphism-recording
    # search skips none, so it is the oracle for the twin skip
    rng = random.Random(323)
    for _ in range(300):
        n = rng.randrange(2, 8)
        base = rand_graph(rng, rng.randrange(1, 5))
        part = [rng.randrange(base.n) for _ in range(n)]
        closed = rng.random() < 0.5
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if base.adj[part[u]] >> part[v] & 1 or closed and part[u] == part[v]
        ]
        g = make_graph(n, edges)
        key = canonical_key(g)
        assert key == _label(n, g.adj, autos=True)[0]
        assert key == canonical_key(relabel(g, rand_perm(rng, n)))


def test_canonical_form_separates_nonisomorphic():
    # same degree sequence, different graphs: C_6 vs two triangles
    a = cycle_graph(6)
    b = disjoint_union(complete_graph(3), complete_graph(3))
    assert a.degree_sequence() == b.degree_sequence()
    assert canonical_key(a) != canonical_key(b)


def test_class_counts():
    for n, (want, digest) in enumerate(zip(CLASS_COUNTS, LISTING_SHA256), start=1):
        got = nonisomorphic_graphs(n)
        assert len(got) == want
        # every listed graph is its own canonical form, no duplicates
        assert len({g.adj for g in got}) == want
        assert all(canonical_key(g) == g.adj for g in got)
        assert _listing_digest(got) == digest, n


def test_generation_covers_all_graphs():
    # on 5 vertices, hash every labeled graph into the catalog
    catalog = {canonical_key(g) for g in nonisomorphic_graphs(5)}
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    seen = set()
    for mask in range(1 << len(pairs)):
        g = make_graph(5, [e for i, e in enumerate(pairs) if mask >> i & 1])
        key = canonical_key(g)
        assert key in catalog
        seen.add(key)
    assert seen == catalog


def _all_attachments_reference(n):
    """Classes on n vertices from every one of the 2^m attachments of every
    class on m vertices, with no degree filter: the generator's oracle."""
    level = [Graph(1, (0,))]
    for m in range(1, n):
        seen = {}
        for g in level:
            for nbhd in range(1 << m):
                rows = [row | ((nbhd >> v & 1) << m) for v, row in enumerate(g.adj)]
                rows.append(nbhd)
                key = canonical_key(Graph(m + 1, tuple(rows)))
                seen.setdefault(key, Graph(m + 1, key))
        level = list(seen.values())
    level.sort(key=lambda g: (g.edge_count(), g.adj))
    return level


def test_generation_matches_all_attachments_reference():
    for n in range(1, 8):
        got = [g.adj for g in nonisomorphic_graphs(n)]
        assert got == [g.adj for g in _all_attachments_reference(n)], n


def test_generation_labels_only_minimum_degree_children(monkeypatch, cold_generation):
    labeled = _recording_label(monkeypatch)
    assert len(nonisomorphic_graphs(7)) == 1044
    assert all(h.degree(h.n - 1) == h.min_degree() for h in labeled)
    # one attachment per Aut-orbit: 3,131 children without orbit pruning
    assert len(labeled) == 1639
    # the lazy last level: from a cold memo the search stops labeling after
    # the first edge count past its minimum
    _clear_generation_memo()
    labeled.clear()
    assert verify.min_cocritical_search(3, 3, 7).minimum_edges == 12
    assert len(labeled) == 1461


def _search_answers(t, k, n):
    r = verify.min_cocritical_search(t, k, n)
    return r.minimum_edges, [emit_graph6(w) for w in r.witnesses], r.examined, r.refuted, r.complete


def test_warm_generation_equals_cold(cold_generation):
    # the search stops in the middle of the last level, leaving the memo
    # partly filled; the full listing must not notice
    assert verify.min_cocritical_search(3, 3, 7).minimum_edges == 12
    got = nonisomorphic_graphs(7)
    assert _listing_digest(got) == LISTING_SHA256[6]
    assert [g.adj for g in got] == [g.adj for g in _all_attachments_reference(7)]


def test_interleaved_generators_agree_when_one_is_abandoned(cold_generation):
    want = _all_attachments_reference(7)
    # step two generators in turn; stop the first on the second class of the
    # 9-edge bucket, in the middle of that bucket
    stop = [g.edge_count() for g in want].index(9) + 2
    first, second = canon.iter_classes(7), canon.iter_classes(7)
    got_first, got_second = [], []
    for _ in range(stop):
        got_first.append(next(first))
        got_second.append(next(second))
    first.close()
    got_second += second
    assert got_first == want[:stop]
    assert got_second == want
    assert list(canon.iter_classes(7)) == want


def test_warm_generation_labels_nothing(monkeypatch, cold_generation):
    questions = [(3, 3, 7), (3, 4, 7), (4, 3, 7), (3, 5, 7)]
    cold = []
    for q in questions:
        _clear_generation_memo()
        cold.append(_search_answers(*q))
    want = [g.adj for g in nonisomorphic_graphs(7)]
    labeled = _recording_label(monkeypatch)
    assert [g.adj for g in nonisomorphic_graphs(7)] == want
    assert [_search_answers(*q) for q in questions] == cold
    assert labeled == []


def test_returned_list_is_the_callers_own():
    got = nonisomorphic_graphs(5)
    want = list(got)
    got.clear()
    assert nonisomorphic_graphs(5) == want
    again = nonisomorphic_graphs(5)
    again.reverse()
    assert nonisomorphic_graphs(5) == want


def test_memo_is_bounded_by_the_class_counts(cold_generation):
    last_levels = range(2, GENERATION_ORDER_CAP + 1)
    for _ in range(2):
        for n in range(1, GENERATION_ORDER_CAP + 1):
            assert len(nonisomorphic_graphs(n)) == CLASS_COUNTS[n - 1]
        # a full level per order below the cap, the grouped children per
        # order from 2 up, and a bucket per such order and edge count; the
        # second round adds nothing
        assert canon._level.cache_info().currsize == GENERATION_ORDER_CAP - 1
        assert canon._children.cache_info().currsize == len(last_levels)
        buckets = sum(n * (n - 1) // 2 + 1 for n in last_levels)
        assert canon._bucket.cache_info().currsize == buckets
        for m in range(1, GENERATION_ORDER_CAP):
            assert len(canon._level(m)) == CLASS_COUNTS[m - 1]
        for n in last_levels:
            classes = sum(len(canon._bucket(n, e)) for e in range(n * (n - 1) // 2 + 1))
            assert classes == CLASS_COUNTS[n - 1]


def test_label_returns_exactly_the_automorphisms():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            key, perms = _label(n, g.adj, autos=True)
            assert key == g.adj
            assert perms[0] == tuple(range(n))
            for p in perms:
                assert relabel(g, p) == g
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            automorphisms = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
            assert len(set(perms)) == len(perms) == automorphisms, g


def test_generation_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas: dict[int, set] = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n:
            atlas[n].add(canonical_key(make_graph(n, list(h.edges()))))
    for n in range(1, 8):
        assert atlas[n] == {g.adj for g in nonisomorphic_graphs(n)}, n


def test_generation_sorted_by_edges():
    counts = [g.edge_count() for g in nonisomorphic_graphs(5)]
    assert counts == sorted(counts)


def test_order_guard():
    with pytest.raises(ValueError):
        nonisomorphic_graphs(9)
    with pytest.raises(ValueError):
        nonisomorphic_graphs(0)
