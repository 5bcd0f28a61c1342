"""The four benchmark workloads: seeded inputs, questions and answer checks.

Each workload builds a fixed list of questions from the seed.  A question is
one call into a public entry point of the package: `cocritical.cli.main(argv)`
with its stdout captured, or `cocritical.percolation.run`.  Every question
carries a check that compares its answer with the expected one and extracts
the exact counts that the determinism check compares between passes.

Entry points are looked up on the package at call time, so the tracer's
wrappers, installed by reassigning module attributes, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# (t, k, n) -> number of non-edges of the construction
VERIFY_NON_EDGES = {(4, 3, 13): 34, (5, 3, 17): 53, (4, 4, 18): 66}
# Only the cheapest instance gets a minus-edge control: on the larger two it
# costs as much as the instance itself and repeats the same path.
MINUS_EDGE_CONTROLS = ((4, 3, 13),)

# (t, k, n) -> minimum edge count of a co-critical graph on n vertices
MINSEARCH = (
    ((3, 3, 5), 8),
    ((3, 3, 6), 11),
    ((3, 3, 7), 12),
    ((3, 4, 7), 14),
    ((4, 3, 7), 19),
    ((3, 5, 7), None),
)

# graphs on n vertices up to isomorphism, n = 0..6 (OEIS A000088)
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156)

PERCOLATION_TS = (4, 5)
PERCOLATION_KS = tuple(range(3, 9))
PERCOLATION_NS = (64, 96, 128)  # plus the construction's minimum order

EXIT_OK = 0
EXIT_FALSE = 1


@dataclass(frozen=True)
class Sizes:
    """How much of each workload to build; the benchmark runs FULL."""

    verify: tuple[tuple[int, int, int], ...]
    minsearch: tuple[tuple[tuple[int, int, int], int | None], ...]
    corpus_class_order: int  # every class on 1..this many vertices
    corpus_random: int  # G(n, m) graphs added to the corpus
    certificates: int | None  # cap on percolation questions, None = all


FULL = Sizes(
    verify=tuple(VERIFY_NON_EDGES),
    minsearch=MINSEARCH,
    corpus_class_order=6,
    corpus_random=3000,
    certificates=None,
)
SMOKE = Sizes(
    verify=((4, 3, 13),),
    minsearch=MINSEARCH[:1],
    corpus_class_order=4,
    corpus_random=2,
    certificates=3,
)


@dataclass
class Question:
    """One timed call and the check of its answer.

    `ask` returns the raw answer and is the only part that is timed.
    `check` turns the answer into (problems, counts): problems is empty when
    the answer is right, counts holds the exact counts read off the answer.
    """

    label: str
    ask: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]


# --- CLI questions ----------------------------------------------------------


def _cli_question(cc, label: str, argv: list[str], check) -> Question:
    def ask():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cc.cli.main(argv)
        return code, out.getvalue()

    def parse_and_check(answer):
        code, text = answer
        try:
            doc = json.loads(text)
        except ValueError:
            return [f"exit {code}, stdout is not one JSON document"], {}
        return check(code, doc)

    return Question(label, ask, parse_and_check)


def _expect(problems: list[str], name: str, got, want) -> None:
    if got != want:
        problems.append(f"{name} = {got!r}, expected {want!r}")


def _nonedge_counts(results: dict) -> dict:
    """Walk and node counts of the per-non-edge searches, when reported."""
    stats = results.get("per_edge_stats")
    try:
        return {"walks": len(stats), "nodes": sum(s["nodes"] for s in stats)}
    except (TypeError, KeyError):
        return {}


def _verify_check(non_edges: int, verdict: str, code: int, base_status: str, checks: bool):
    def check(got_code: int, doc: dict):
        problems: list[str] = []
        r = doc.get("results", {})
        _expect(problems, "exit code", got_code, code)
        _expect(problems, "verdict", r.get("verdict"), verdict)
        _expect(problems, "non_edges", r.get("non_edges"), non_edges)
        _expect(problems, "base_status", r.get("base_status"), base_status)
        if checks:
            _expect(problems, "structure.all_passed", r.get("structure", {}).get("all_passed"), True)
            _expect(problems, "coloring_structure_violations", r.get("coloring_structure_violations"), [])
        return problems, _nonedge_counts(r)

    return check


def _remove_edge(cc, g, u: int, v: int):
    return cc.graphs.make_graph(g.n, [e for e in g.edges() if e != (u, v)])


def verify_construct(cc, seed: int, sizes: Sizes, workdir: Path) -> list[Question]:
    """Full `verify --checks` on the constructions, each followed by controls.

    The plus-edge control G+e must exhaust its base walk (G is co-critical,
    so G+e has no good colouring); the minus-edge control G-e must still be
    colourable and fail on e.  Both answer "not co-critical" with exit 1.
    """
    rng = random.Random(seed)
    questions = []
    for t, k, n in sizes.verify:
        spec = f"{t},{k},{n}"
        tk = ["--t", str(t), "--k", str(k), "--checks"]
        base_non_edges = VERIFY_NON_EDGES[(t, k, n)]
        questions.append(
            _cli_question(
                cc,
                f"verify {spec}",
                ["verify", "--construct", spec, *tk],
                _verify_check(base_non_edges, "co-critical", EXIT_OK, "found", True),
            )
        )
        g = cc.construction.build(cc.construction.ConstructionParams(t, k, n))
        u, v = rng.choice(g.non_edges())
        plus = cc.graph6.emit_graph6(cc.graphs.add_edge(g, u, v))
        questions.append(
            _cli_question(
                cc,
                f"verify {spec} +({u},{v})",
                ["verify", "--graph6", plus, *tk],
                _verify_check(base_non_edges - 1, "not-co-critical", EXIT_FALSE, "exhausted", False),
            )
        )
        if (t, k, n) in MINUS_EDGE_CONTROLS:
            u, v = rng.choice(g.edges())
            minus = cc.graph6.emit_graph6(_remove_edge(cc, g, u, v))
            questions.append(
                _cli_question(
                    cc,
                    f"verify {spec} -({u},{v})",
                    ["verify", "--graph6", minus, *tk],
                    _verify_check(base_non_edges + 1, "not-co-critical", EXIT_FALSE, "found", False),
                )
            )
    return questions


def minsearch_n7(cc, seed: int, sizes: Sizes, workdir: Path) -> list[Question]:
    """Smallest co-critical graphs up to n = 7; a fixed grid, the seed is unused."""
    questions = []
    for (t, k, n), minimum in sizes.minsearch:

        def check(code, doc, minimum=minimum):
            problems: list[str] = []
            r = doc.get("results", {})
            _expect(problems, "exit code", code, EXIT_OK if minimum is not None else EXIT_FALSE)
            _expect(problems, "minimum_edges", r.get("minimum_edges"), minimum)
            _expect(problems, "complete", r.get("complete"), True)
            return problems, {"examined": r.get("examined")}

        argv = ["minsearch", "--t", str(t), "--k", str(k), "--n", str(n)]
        questions.append(_cli_question(cc, f"minsearch {t},{k},{n}", argv, check))
    return questions


def _random_graph(cc, rng: random.Random):
    n = rng.randint(12, 24)
    m = rng.randint(21, n * (n - 1) // 4)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return cc.graphs.make_graph(n, rng.sample(pairs, m))


def props_corpus(cc, seed: int, sizes: Sizes, workdir: Path) -> list[Question]:
    """`props` on every class on 1..6 vertices plus seeded G(n, m) graphs.

    The small classes (at most 15 edges) all get the brute-force oracle.  The
    random graphs keep at least 21 edges, above the oracle's 20-edge cap,
    because the 2^e scan would otherwise dominate and swing with the seed.
    """
    rng = random.Random(seed)
    graphs = [
        g
        for order in range(1, sizes.corpus_class_order + 1)
        for g in cc.canon.nonisomorphic_graphs(order)
    ]
    graphs += [_random_graph(cc, rng) for _ in range(sizes.corpus_random)]
    corpus = workdir / "corpus.g6"
    corpus.write_text("".join(cc.graph6.emit_graph6(g) + "\n" for g in graphs), encoding="ascii")
    expected = sum(CLASS_COUNTS[1 : sizes.corpus_class_order + 1]) + sizes.corpus_random

    def check(code, doc):
        problems: list[str] = []
        r = doc.get("results", {})
        _expect(problems, "exit code", code, EXIT_OK)
        _expect(problems, "graphs", r.get("graphs"), expected)
        _expect(problems, "failures", r.get("failures"), 0)
        _expect(problems, "indeterminate", r.get("indeterminate"), 0)
        return problems, {}

    argv = ["props", "--corpus", str(corpus), "--seed", str(seed)]
    return [_cli_question(cc, f"props {expected} graphs", argv, check)]


def percolate_grid(cc, seed: int, sizes: Sizes, workdir: Path) -> list[Question]:
    """Percolation certificates on the constructions' cross graphs.

    One question per threshold q from 1 to the cross graph's minimum degree.
    Blocks and cross graphs are built here, in set-up.  A fixed grid: the seed
    is unused.
    """
    con = cc.construction
    questions = []
    for t in PERCOLATION_TS:
        for k in PERCOLATION_KS:
            low = con.min_order(t, k)
            for n in (low, *(n for n in PERCOLATION_NS if n > low)):
                params = con.ConstructionParams(t, k, n)
                g = con.build(params)
                blocks = cc.coloring.blue_blocks(con.blueprint_coloring(params))
                H = cc.coloring.cross_graph(g, blocks)
                for q in range(1, H.min_degree() + 1):
                    questions.append(
                        Question(
                            f"percolate {t},{k},{n} q={q}",
                            lambda H=H, blocks=blocks, q=q: cc.percolation.run(H, blocks, q),
                            _certificate_check,
                        )
                    )
    if sizes.certificates is not None:
        questions = questions[: sizes.certificates]
    return questions


def _certificate_check(cert) -> tuple[list[str], dict]:
    problems: list[str] = []
    _expect(problems, "certified", cert.certified, True)
    if cert.edges_total < cert.edge_lower_bound:
        problems.append(f"edges_total {cert.edges_total} < edge_lower_bound {cert.edge_lower_bound}")
    return problems, {"iterations": cert.iterations}


WORKLOADS = {
    "verify-construct": verify_construct,
    "minsearch-n7": minsearch_n7,
    "percolate-grid": percolate_grid,
    "props-corpus": props_corpus,
}
