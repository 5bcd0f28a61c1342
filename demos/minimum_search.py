"""Find the sparsest co-critical graphs on small vertex counts.

Scans the isomorphism classes on n vertices in edge-count order and stops
at the first co-critical graph, so the answer is the true minimum for
that n.  Below Chvátal's order (t-1)(k-1)+1 no graph is co-critical, and
the search answers without examining a class.  Each witness is then torn
down by brute force as a sanity check: the graph itself must admit a good
coloring and every single-edge extension must not.
"""

from cocritical import min_cocritical_search
from cocritical.construction import ramsey_number
from cocritical.graph6 import emit_graph6
from cocritical.graphs import add_edge
from cocritical.search import brute_force_exists

T, K = 3, 3

for n in range(4, 8):
    result = min_cocritical_search(T, K, n)
    if n < ramsey_number(T, K):
        assert result.minimum_edges is None and result.examined == 0
        print(f"n={n}: no co-critical graph, since n <= (t-1)(k-1) = {ramsey_number(T, K) - 1} "
              f"leaves nothing to examine (complete={result.complete})")
        continue
    if result.minimum_edges is None:
        print(f"n={n}: no co-critical graph "
              f"({result.examined} classes examined, {result.refuted} refuted "
              f"without a walk, complete={result.complete})")
        continue
    names = [emit_graph6(w) for w in result.witnesses]
    print(f"n={n}: minimum {result.minimum_edges} edges, "
          f"{len(result.witnesses)} witnesses {names}, "
          f"{result.examined} classes examined, {result.refuted} refuted without a walk")

    # independent teardown of each witness
    for w in result.witnesses:
        assert brute_force_exists(w, T, K)
        assert not any(brute_force_exists(add_edge(w, *e), T, K) for e in w.non_edges())
    print(f"       all witnesses re-verified by brute force")
