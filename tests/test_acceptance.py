"""Acceptance gate.

Each test evaluates one acceptance criterion end to end and prints exactly one
PASS/FAIL line (run with `pytest -s` to see the lines as they happen).  All
checks are exact: integer counts, rational equalities via Fraction, and
set-level agreements, with wall-clock ceilings where the criterion names one.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

from oracles import brute_force_critical_colorings

from cocritical.canon import nonisomorphic_graphs
from cocritical.cli import main
from cocritical.coloring import blue_blocks, cross_graph, is_critical
from cocritical.construction import (
    ConstructionParams,
    blueprint_coloring,
    build,
    ramsey_number,
    turan_edges,
    upper_bound_edges,
)
from cocritical.graph6 import emit_graph6
from cocritical.graphs import add_edge, complete_graph, make_graph
from cocritical.percolation import run as percolation_run
from cocritical.search import (
    arrows,
    brute_force_exists,
    exists_critical_coloring,
    max_red_critical_coloring,
)
from cocritical.stable import hajnal_check, stable_intersection_check
from cocritical.verify import (
    BUDGET,
    CO_CRITICAL,
    STILL_COLORABLE,
    check_critical_structure,
    is_cocritical,
    min_cocritical_search,
    saturation_structure_checks,
)

PAIRS = ((3, 3), (3, 4), (4, 3))


def report(num: int, label: str, problems: list, detail: str = "") -> None:
    status = "PASS" if not problems else f"FAIL ({'; '.join(map(str, problems[:4]))})"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {status}{suffix}")
    assert not problems, f"criterion {num}: {problems}"


def rand_graph(rng, n, p, max_edges):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return make_graph(n, [e for e in pairs if rng.random() < p][:max_edges])


def test_a1_arrowing_thresholds():
    t0 = time.perf_counter()
    problems = []
    for (t, k), threshold in zip(PAIRS, (5, 7, 7)):
        if ramsey_number(t, k) != threshold:
            problems.append(f"formula gives {ramsey_number(t, k)} for {(t, k)}")
        for n in range(2, threshold + 1):
            got = arrows(complete_graph(n), t, k)
            if got != (n == threshold):
                problems.append(f"K_{n} for {(t, k)}: arrows={got}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    report(1, "arrowing flips exactly at (t-1)(k-1)+1", problems, f"{elapsed:.1f}s")


def test_a2_instance_4_3_13_verified():
    t0 = time.perf_counter()
    problems = []
    p = ConstructionParams(4, 3, 13)
    g = build(p)
    if g.n != 13:
        problems.append(f"order {g.n}")
    if g.edge_count() != 44:
        problems.append(f"size {g.edge_count()}")
    if not is_critical(blueprint_coloring(p), 4, 3):
        problems.append("blueprint coloring not good")
    rep = is_cocritical(g, 4, 3)
    if rep.verdict() != CO_CRITICAL:
        problems.append(f"verdict {rep.verdict()}")
    if rep.non_edge_count != 34 or rep.failures or not rep.complete:
        problems.append(f"{rep.non_edge_count} non-edges, complete {rep.complete}, failures {rep.failures}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        problems.append(f"took {elapsed:.1f}s, limit 600s")
    report(2, "build(4,3,13) has 44 edges and verifies with 34 exhausted non-edges",
           problems, f"{elapsed:.2f}s")


def test_a3_instance_4_4_18_extremal():
    t0 = time.perf_counter()
    problems = []
    p = ConstructionParams(4, 4, 18)
    g = build(p)
    if g.edge_count() != 87:
        problems.append(f"size {g.edge_count()}")
    if Fraction(g.edge_count()) != upper_bound_edges(4, 4, 18):
        problems.append(f"upper bound {upper_bound_edges(4, 4, 18)} not met exactly")
    if not is_critical(blueprint_coloring(p), 4, 4):
        problems.append("blueprint coloring not good")
    rep = is_cocritical(g, 4, 4)  # default budget: 600 s for the one walk over all non-edges
    blown = [e for e, r in rep.failures if r == BUDGET]
    colorable = [e for e, r in rep.failures if r == STILL_COLORABLE]
    if colorable:
        problems.append(f"still-colorable after adding {colorable}")
    if rep.verdict() == CO_CRITICAL:
        detail = "66/66 non-edges exhausted"
    else:
        # degraded reading: >= 90% determinate and nothing colorable
        determinate = rep.non_edge_count - len(blown)
        detail = f"shortfall: {len(blown)} of {rep.non_edge_count} non-edges hit the budget"
        if determinate < 0.9 * rep.non_edge_count:
            problems.append(detail)
    elapsed = time.perf_counter() - t0
    report(3, "build(4,4,18) meets the edge bound with rational equality and verifies",
           problems, f"{detail}, {elapsed:.1f}s")


def test_a4_oracle_equivalence():
    problems = []
    checked = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for t, k in PAIRS:
                walker = exists_critical_coloring(g, t, k)
                if walker.status not in ("found", "exhausted"):
                    problems.append(f"budget on n={n} class")
                    continue
                if (walker.status == "found") != brute_force_exists(g, t, k):
                    problems.append(f"disagreement at n={n}, {(t, k)}")
                checked += 1
    rng = random.Random(97)
    for _ in range(500):
        n = rng.randrange(2, 10)
        g = rand_graph(rng, n, rng.choice([0.3, 0.5, 0.7]), 16)
        t, k = rng.choice(PAIRS)
        walker = exists_critical_coloring(g, t, k)
        if (walker.status == "found") != brute_force_exists(g, t, k):
            problems.append(f"disagreement on random n={n}, e={g.edge_count()}, {(t, k)}")
        checked += 1
    report(4, "search agrees with the brute-force oracle", problems,
           f"{checked} comparisons")


def test_a5_percolation_certificates():
    t0 = time.perf_counter()
    problems = []
    for t, k, n in ((4, 3, 13), (4, 4, 18)):
        p = ConstructionParams(t, k, n)
        g = build(p)
        blocks = blue_blocks(blueprint_coloring(p))
        H = cross_graph(g, blocks)
        cert = percolation_run(H, blocks, 3)
        tag = f"({t},{k},{n})"
        if not cert.certified:
            problems.append(f"{tag} uncertified")
        if cert.iterations > 18:
            problems.append(f"{tag} took {cert.iterations} iterations")
        if cert.progress_violations:
            problems.append(f"{tag} progress violations {cert.progress_violations}")
        if cert.edges_total != H.edge_count():
            problems.append(f"{tag} edge recount mismatch")
        if cert.edge_lower_bound != 3 * (H.n - len(cert.seeds)):
            problems.append(f"{tag} bound arithmetic")
        if cert.edges_total < cert.edge_lower_bound:
            problems.append(f"{tag} bound not met")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s, limit 10s")
    report(5, "percolation certifies e(H) >= q(n - |seeds|) on both instances",
           problems, f"{elapsed:.2f}s")


def test_a6_structure_suite():
    problems = []
    always = ("degree_bounds", "cross_nonedge_clique", "degree_tradeoff",
              "block_edge_total", "cross_graph_connected")
    conditional = ("forced_block_sizes", "min_neighborhood_core")
    for t, k, n in ((4, 3, 13), (4, 4, 18)):
        g = build(ConstructionParams(t, k, n))
        rep = saturation_structure_checks(is_cocritical(g, t, k))
        tag = f"({t},{k},{n})"
        for name in always:
            item = rep.items[name]
            if not (item.applicable and item.passed):
                problems.append(f"{tag} {name}: applicable={item.applicable} passed={item.passed}")
        for name in conditional:
            item = rep.items[name]
            if item.applicable and not item.passed:
                problems.append(f"{tag} {name} failed where its hypothesis applies")
    report(6, "structural consequences hold under the max-red coloring", problems)


def test_a7_stable_set_suite():
    t0 = time.perf_counter()
    problems = []
    checked = 0

    def examine(g, tag):
        nonlocal checked
        checked += 1
        if not hajnal_check(g).passed:
            problems.append(f"hajnal fails on {tag}")
        r = stable_intersection_check(g)
        if r.applicable and not r.passed:
            problems.append(f"intersection bound fails on {tag}")
        if r.moreover_applicable and not r.moreover_passed:
            problems.append(f"single-vertex core clause fails on {tag}")

    for n in range(1, 8):
        for i, g in enumerate(nonisomorphic_graphs(n)):
            examine(g, f"class {i} on {n}")
    rng = random.Random(461)
    for i in range(1000):
        n = rng.randrange(8, 11)
        g = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]), 10**9)
        examine(g, f"random {i} on {n}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s, limit 300s")
    report(7, "stable-set family facts hold exhaustively and on random graphs",
           problems, f"{checked} graphs, {elapsed:.1f}s")


def test_a8_minimum_witnesses():
    problems = []
    found = {}
    for n in range(4, 8):
        result = min_cocritical_search(3, 3, n)
        if not result.complete:
            problems.append(f"scan on {n} vertices left graphs undecided")
        found[n] = result
    if found[4].minimum_edges is not None:
        problems.append("found a witness on 4 vertices")
    witnesses = [(n, w) for n in range(5, 8) for w in found[n].witnesses]
    if not witnesses:
        problems.append("no witnesses at all on 5..7 vertices")
    turan_cap = {n: turan_edges(ramsey_number(3, 3) - 1, n) for n in range(5, 8)}
    for n, w in witnesses:
        tag = f"witness on {n} vertices"
        if w.edge_count() > turan_cap[n]:
            problems.append(f"{tag} exceeds the red-side edge maximum")
        # independent route: brute-force both halves of the definition
        if not brute_force_exists(w, 3, 3):
            problems.append(f"{tag} has no good coloring by brute force")
        for e in w.non_edges():
            if brute_force_exists(add_edge(w, *e), 3, 3):
                problems.append(f"{tag} stays colorable after adding {e}")
        # every good coloring respects the forced component structure
        for c in brute_force_critical_colorings(w, 3, 3):
            if check_critical_structure(c, 3, 3):
                problems.append(f"{tag} has a structurally invalid good coloring")
    report(8, "minimum witnesses exist, stay under the edge cap, and re-verify by brute force",
           problems, f"{len(witnesses)} witnesses on 5..7 vertices")


def check_theorem_regime_instance(num: int, t: int, k: int, n: int, non_edges: int, nodes: int) -> None:
    # verified through the CLI under the default budget, with the walk size
    # pinned exactly
    t0 = time.perf_counter()
    problems = []
    out = io.StringIO()
    construct = f"{t},{k},{n}"
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--construct", construct, "--t", str(t), "--k", str(k), "--checks"])
    res = json.loads(out.getvalue())["results"]
    if code != 0 or res["verdict"] != CO_CRITICAL or not res["complete"]:
        problems.append(f"exit {code}, verdict {res['verdict']}, complete {res['complete']}")
    if res["non_edges"] != non_edges or res["failures"]:
        problems.append(f"{res['non_edges']} non-edges, failures {res['failures'][:4]}")
    if not res["structure"]["all_passed"] or res["coloring_structure_violations"]:
        problems.append(f"structure checks: {res['coloring_structure_violations']}")
    if res["nodes"] != nodes:
        problems.append(f"walk took {res['nodes']} nodes, pinned {nodes:,}")
    elapsed = time.perf_counter() - t0
    report(num, f"verify --construct {construct} --checks is co-critical and every check passes",
           problems, f"{res['nodes']} nodes, {elapsed:.1f}s")


def test_a9_theorem_regime_4_6_33_verified():
    # k = 6 >= max{6, t}: the first instance in the regime of the paper's
    # theorem
    check_theorem_regime_instance(9, 4, 6, 33, 285, 22729)


def test_a10_theorem_regime_4_7_45_verified():
    # k = 7 >= max{6, t}: the smallest construction with k = 7
    check_theorem_regime_instance(10, 4, 7, 45, 615, 132421)


def test_a11_theorem_regime_4_6_33_max_red_and_percolation():
    # the standalone max-red search walks with the twin rule, as the
    # verifier does: on (4,6,33) it returns the coloring the verifier
    # keeps, and percolate derives its certificate from it
    t0 = time.perf_counter()
    problems = []
    g = build(ConstructionParams(4, 6, 33))
    if max_red_critical_coloring(g, 4, 6) != is_cocritical(g, 4, 6).coloring:
        problems.append("max-red coloring differs from the verifier's")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["percolate", "--graph6", emit_graph6(g), "--t", "4", "--k", "6", "--q", "4"])
    res = json.loads(out.getvalue())["results"]
    if code != 0 or res.get("certified") is not True:
        problems.append(f"percolate exit {code}, certified {res.get('certified')}")
    elapsed = time.perf_counter() - t0
    report(11, "max-red search on (4,6,33) matches the verifier and percolate --q 4 certifies it",
           problems, f"{elapsed:.1f}s")
