"""Canonical labeling and isomorphism-free generation."""

import hashlib
import random

import pytest
from test_graphs import relabel

from cocritical import canon, verify
from cocritical.canon import (
    _label,
    canonical_key,
    nonisomorphic_graphs,
)
from cocritical.graph6 import emit_graph6
from cocritical.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    make_graph,
)

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
        listing = "".join(emit_graph6(g) + "\n" for g in got)
        assert hashlib.sha256(listing.encode()).hexdigest()[:16] == digest, n


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


def test_generation_labels_only_minimum_degree_children(monkeypatch):
    labeled = []

    def recording_label(n, rows, autos=False):
        labeled.append(Graph(n, tuple(rows)))
        return _label(n, rows, autos)

    monkeypatch.setattr(canon, "_label", recording_label)
    assert len(nonisomorphic_graphs(7)) == 1044
    assert all(h.degree(h.n - 1) == h.min_degree() for h in labeled)
    # one attachment per Aut-orbit: 3,131 children without orbit pruning
    assert len(labeled) == 1639
    # the lazy last level: the search stops labeling after the first edge
    # count past its minimum
    labeled.clear()
    assert verify.min_cocritical_search(3, 3, 7).minimum_edges == 12
    assert len(labeled) == 1461


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
