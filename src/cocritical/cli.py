"""Batch command line front end.

Subcommands cover the full library surface: construct (parameterized
builder), verify (co-criticality with structure checks), arrows (exhaustive
coloring search), percolate (edge-count certificates), minsearch (smallest
co-critical graphs), and props (property suites over a graph6 corpus).

Each run prints one JSON report to stdout and a short human summary to
stderr, except a usage or input error, which prints only its `error:` line.
Exit codes are a stable contract: 0 success or determinate-true, 1
determinate-false, 2 usage or input error, 3 indeterminate (a budget ran
out before the answer was settled).

The argument parser is built once per process, on the first `main` call,
and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .coloring import EdgeColoring, blue_blocks, cross_graph
from .construction import (
    ConstructionParams,
    build,
    blueprint_coloring,
    expected_edge_count,
    role_layout,
    upper_bound_edges,
)
from .graphs import Graph, complete_graph
from .graph6 import emit_graph6, graph6_lines, parse_graph6, parse_graph6_lines
from .percolation import PercolationError, check_seeds, check_threshold, run as percolation_run
from .search import (
    BRUTE_FORCE_EDGE_CAP,
    DEFAULT_NODE_CAP,
    DEFAULT_TIME_CAP,
    EXHAUSTED,
    FOUND,
    IndeterminateResultError,
    NoCriticalColoringError,
    SearchBudget,
    brute_force_exists,
    exists_critical_coloring,
    max_red_critical_coloring,
)
from .stable import hajnal_check, stable_intersection_check
from .verify import (
    CO_CRITICAL,
    INDETERMINATE,
    check_critical_structure,
    is_cocritical,
    min_cocritical_search,
    saturation_structure_checks,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

ORACLE_PAIRS = ((3, 3), (3, 4), (4, 3))
PROPS_BATCH = 64  # props rows per json.dumps call


def _report(command: str, inputs: dict, results: dict, timings: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "timings": {k: round(v, 3) for k, v in timings.items()},
        "version": __version__,
    }


def _emit(command: str, inputs: dict, results: dict, timings: dict) -> None:
    print(json.dumps(_report(command, inputs, results, timings), indent=2))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_construct(text: str) -> ConstructionParams:
    try:
        t, k, n = (int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--construct expects three integers T,K,N, got {text!r}") from None
    return ConstructionParams(t, k, n)


def _parse_seeds(text: str) -> frozenset[int]:
    try:
        return frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--seed expects comma separated vertex ids, got {text!r}") from None


def _load_graph(args, construct=build) -> tuple[Graph | EdgeColoring, dict]:
    """Resolve the one graph source the command was given.

    construct turns --construct's parameters into what is returned in the
    graph's place: build gives the graph, and blueprint_coloring gives the
    blueprint coloring, which carries the graph as its base, so a caller
    that needs both builds the graph once.
    """
    sources = [
        s
        for s in ("construct", "complete", "graph6", "input")
        if getattr(args, s, None) is not None
    ]
    if len(sources) != 1:
        raise ValueError(
            f"need exactly one graph source among --construct/--complete/--graph6/--input, got {sources or 'none'}"
        )
    src = sources[0]
    if src == "construct":
        params = _parse_construct(args.construct)
        return construct(params), {"construct": args.construct}
    if src == "complete":
        return complete_graph(args.complete), {"complete": args.complete}
    if src == "graph6":
        return parse_graph6(args.graph6), {"graph6": args.graph6}
    # latin-1 maps every byte to one character, so parse_graph6 can report
    # a non-graph6 byte by line and offset
    with open(args.input, encoding="latin-1") as fh:
        text = fh.read()
    graphs = parse_graph6_lines(text)
    if len(graphs) != 1:
        raise ValueError(f"{args.input} holds {len(graphs)} graphs, expected exactly 1")
    return graphs[0], {"input": args.input}


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph6", help="inline graph6 string")
    sub.add_argument("--input", help="file with one graph6 line")
    sub.add_argument("--complete", type=int, help="use the complete graph K_n")
    sub.add_argument("--construct", help="T,K,N: use the parameterized construction")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--node-cap", type=int, default=DEFAULT_NODE_CAP, help="search node budget per search"
    )
    sub.add_argument("--time-cap", type=float, default=DEFAULT_TIME_CAP, help="seconds per search")


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    params = ConstructionParams(args.t, args.k, args.n)
    sigma = blueprint_coloring(params)
    g = sigma.base
    built_ms = (time.perf_counter() - t0) * 1000
    results = {
        "graph6": emit_graph6(g),
        "vertices": g.n,
        "edges": g.edge_count(),
        "expected_edges": expected_edge_count(params),
        "upper_bound": str(upper_bound_edges(args.t, args.k, args.n)),
        "layout": role_layout(params).to_json(),
        "blue_edges": len(sigma.blue),
        "warnings": list(params.warnings()),
    }
    if args.emit == "graph6":
        print(emit_graph6(g))
    _emit(
        "construct",
        {"t": args.t, "k": args.k, "n": args.n, "emit": args.emit},
        results,
        {"build_ms": built_ms},
    )
    for w in params.warnings():
        _say(f"warning: {w}")
    _say(f"built {g.n} vertices, {g.edge_count()} edges")
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    g, source = _load_graph(args)
    parse_ms = (time.perf_counter() - t0) * 1000
    budget = SearchBudget(args.node_cap, args.time_cap)
    t0 = time.perf_counter()
    report = is_cocritical(g, args.t, args.k, budget)
    verify_ms = (time.perf_counter() - t0) * 1000
    results = report.to_json()
    results["graph6"] = emit_graph6(g)
    checks_ms = 0.0
    if args.checks and report.verdict() == CO_CRITICAL:
        t0 = time.perf_counter()
        structure = saturation_structure_checks(report)
        results["coloring_structure_violations"] = check_critical_structure(
            report.coloring, args.t, args.k
        )
        results["structure"] = structure.to_json()
        checks_ms = (time.perf_counter() - t0) * 1000
    _emit(
        "verify",
        {**source, "t": args.t, "k": args.k, "checks": args.checks},
        results,
        {
            "parse_ms": parse_ms,
            "verify_ms": verify_ms,
            "walk_ms": report.millis,
            "checks_ms": checks_ms,
        },
    )
    verdict = report.verdict()
    _say(f"verdict: {verdict}")
    if verdict == CO_CRITICAL:
        return EXIT_OK
    if verdict == INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_FALSE


def cmd_arrows(args) -> int:
    t0 = time.perf_counter()
    g, source = _load_graph(args)
    budget = SearchBudget(args.node_cap, args.time_cap)
    outcome = exists_critical_coloring(g, args.t, args.k, budget)
    total_ms = (time.perf_counter() - t0) * 1000
    if outcome.status in (FOUND, EXHAUSTED):
        answer = outcome.status == EXHAUSTED
        results = {
            "arrows": answer,
            "witness_blocks": None if answer else outcome.witness.to_json(),
            "nodes": outcome.nodes,
            "status": outcome.status,
        }
        summary, code = f"arrows: {answer}", EXIT_OK if answer else EXIT_FALSE
    else:
        results = {"arrows": None, "status": outcome.status, "nodes": outcome.nodes}
        summary, code = "indeterminate: budget exhausted", EXIT_INDETERMINATE
    _emit("arrows", {**source, "t": args.t, "k": args.k}, results, {"total_ms": total_ms})
    _say(summary)
    return code


def cmd_percolate(args) -> int:
    t0 = time.perf_counter()
    budget = SearchBudget(args.node_cap, args.time_cap)
    g, source = _load_graph(args, blueprint_coloring)
    blueprint, g = (g, g.base) if args.construct is not None else (None, g)
    # usage errors, --seed ranges included, come back before the max-red
    # search can run
    seeds = None
    if args.seed is not None:
        seeds = _parse_seeds(args.seed)
        check_seeds(seeds, g.n)
    check_threshold(args.q)
    inputs = {**source, "q": args.q, "seed": args.seed}
    if args.construct is not None:
        if args.t is not None or args.k is not None:
            raise ValueError(
                "--construct takes its blueprint coloring and cannot be combined with --t/--k"
            )
        blocks = blue_blocks(blueprint)
    elif args.t is None or args.k is None:
        raise ValueError("--t and --k are required to derive a coloring")
    else:
        try:
            blocks = blue_blocks(max_red_critical_coloring(g, args.t, args.k, budget))
        except (NoCriticalColoringError, IndeterminateResultError) as exc:
            total_ms = (time.perf_counter() - t0) * 1000
            _emit("percolate", inputs, {"error": str(exc)}, {"total_ms": total_ms})
            if isinstance(exc, NoCriticalColoringError):
                _say("no good coloring: nothing to percolate")
                return EXIT_FALSE
            _say(f"indeterminate: {exc}")
            return EXIT_INDETERMINATE
    H = cross_graph(g, blocks)
    derive_ms = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    try:
        cert = percolation_run(
            H, blocks, args.q, seeds=seeds, check_progress=not args.no_progress_check
        )
    except PercolationError as exc:
        cert, results = None, {"error": str(exc), "trail": list(exc.trail)}
        summary = f"percolation failed: {exc}"
    run_ms = (time.perf_counter() - t0) * 1000
    if cert is not None:
        results = cert.to_json()
        results["cross_graph6"] = emit_graph6(H)
        results["blocks"] = blocks.to_json()
        summary = (
            f"certified={cert.certified}: e(H)={cert.edges_total} >= "
            f"{cert.q}*(n-|seeds|)={cert.edge_lower_bound} after {cert.iterations} iterations"
        )
    _emit("percolate", inputs, results, {"derive_ms": derive_ms, "run_ms": run_ms})
    _say(summary)
    return EXIT_OK if cert is not None and cert.certified else EXIT_FALSE


def cmd_minsearch(args) -> int:
    t0 = time.perf_counter()
    budget = SearchBudget(args.node_cap, args.time_cap)
    result = min_cocritical_search(args.t, args.k, args.n, budget)
    total_ms = (time.perf_counter() - t0) * 1000
    _emit(
        "minsearch",
        {"t": args.t, "k": args.k, "n": args.n},
        result.to_json(),
        {"total_ms": total_ms},
    )
    _say(
        f"minimum edges: {result.minimum_edges} "
        f"({len(result.witnesses)} witnesses, complete={result.complete})"
    )
    if not result.complete:
        return EXIT_INDETERMINATE
    return EXIT_OK if result.minimum_edges is not None else EXIT_FALSE


def _props_one(g: Graph, line: str, budget: SearchBudget) -> tuple[dict, bool, bool]:
    """Property suite for one corpus graph, read from `line`: stable-set
    checks plus oracle agreement on the standard (t,k) pairs.  Returns (row,
    ok, indeterminate)."""
    # a parsed line is the graph's own graph6 text, except that a long-form
    # order prefix below 63 is re-encoded in the short form
    row: dict = {"graph6": emit_graph6(g) if line[0] == "~" and g.n <= 62 else line}
    ok = True
    indeterminate = False
    hr = hajnal_check(g)
    row["hajnal"] = {"passed": hr.passed, "alpha": hr.alpha}
    ok &= hr.passed
    sr = stable_intersection_check(g)
    row["stable_intersection"] = {
        "applicable": sr.applicable,
        "passed": sr.passed if sr.applicable else None,
    }
    if sr.applicable:
        ok &= sr.passed
    oracle: dict = {}
    if g.edge_count() <= BRUTE_FORCE_EDGE_CAP:
        for t, k in ORACLE_PAIRS:
            walker = exists_critical_coloring(g, t, k, budget)
            if walker.status not in (FOUND, EXHAUSTED):
                indeterminate = True
                oracle[f"{t},{k}"] = None
                continue
            agree = (walker.status == FOUND) == brute_force_exists(g, t, k)
            oracle[f"{t},{k}"] = agree
            ok &= agree
        row["oracle_agreement"] = oracle
    else:
        row["oracle_agreement"] = "skipped: edge count above brute-force cap"
    return row, ok, indeterminate


def _rows_text(rows: list[dict], first: bool) -> str:
    """rows as they stand inside the props report's "rows" list: the
    json.dumps(rows, indent=2) text without its brackets, every line moved
    four spaces right to the depth of results["rows"], and a separating
    ",\n" unless these are the first rows.  Indenting after each newline is
    exact because a JSON string never holds a raw newline."""
    body = json.dumps(rows, indent=2)[2:-2].replace("\n", "\n    ")
    return ("    " if first else ",\n    ") + body


def _emit_props(report: dict, chunks: list[str]) -> None:
    """Print report as _emit does, with its empty "rows" list filled by the
    encoded chunks of _rows_text, written piece by piece.  The text
    '"rows": []' matches only that key: a quote inside a JSON string is
    escaped, and a string value is followed by "," or a bracket, not ":"."""
    doc = json.dumps(report, indent=2)
    if chunks:
        head, _, tail = doc.partition('"rows": []')
        sys.stdout.write(head + '"rows": [\n')
        sys.stdout.writelines(chunks)
        doc = "\n    ]" + tail
    print(doc)


def cmd_props(args) -> int:
    """Property suite over every graph of the corpus, in one report.

    The whole corpus is parsed first, so a bad line fails before any suite
    work.  Each graph is then dropped once its row is built, and the rows
    are kept as JSON text, encoded PROPS_BATCH at a time, so memory follows
    the size of the output.  The printed bytes are those that _emit prints
    for the same report with its rows in place.
    """
    t0 = time.perf_counter()
    with open(args.corpus, encoding="latin-1") as fh:
        text = fh.read()
    graphs: list[Graph | None] = parse_graph6_lines(text)
    parse_ms = (time.perf_counter() - t0) * 1000
    budget = SearchBudget(args.node_cap, args.time_cap)
    t0 = time.perf_counter()
    chunks: list[str] = []
    rows: list[dict] = []
    failures = 0
    indeterminate = 0
    # graph6_lines yields the lines that parse_graph6_lines parsed, in order
    for i, (number, line) in enumerate(graph6_lines(text)):
        try:
            row, ok, indet = _props_one(graphs[i], line, budget)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        graphs[i] = None
        rows.append(row)
        if len(rows) == PROPS_BATCH or i == len(graphs) - 1:
            chunks.append(_rows_text(rows, not chunks))
            rows = []
        failures += 0 if ok else 1
        indeterminate += 1 if indet else 0
    suite_ms = (time.perf_counter() - t0) * 1000
    report = _report(
        "props",
        {"corpus": args.corpus, "seed": args.seed},
        {
            "graphs": len(graphs),
            "failures": failures,
            "indeterminate": indeterminate,
            "rows": [],
        },
        {"parse_ms": parse_ms, "suite_ms": suite_ms},
    )
    _emit_props(report, chunks)
    _say(f"{len(graphs)} graphs: {failures} failures, {indeterminate} indeterminate")
    if failures:
        return EXIT_FALSE
    if indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and then
    shared by the whole process.

    Sharing is sound because parsing leaves the parser unchanged:
    `parse_args` builds a fresh `Namespace` on every call and copies each
    subparser's defaults, `fn` included, into it. No action here opens a
    file (`FileType`) or appends to a shared default, so one call's values
    cannot reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="cocritical",
        description="Construct, verify, and certify co-critical graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the parameterized co-critical graph")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", choices=("json", "graph6"), default="json")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="decide co-criticality of a graph")
    _add_graph_source(p)
    _add_budget(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--checks", action="store_true", help="add structure check sections")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("arrows", help="does every coloring give a red clique or big blue component")
    _add_graph_source(p)
    _add_budget(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_arrows)

    p = sub.add_parser("percolate", help="bootstrap percolation certificate on the cross graph")
    _add_graph_source(p)
    _add_budget(p)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", help="comma separated initial seed vertices")
    p.add_argument("--no-progress-check", action="store_true", help="exploratory run")
    p.set_defaults(fn=cmd_percolate)

    p = sub.add_parser("minsearch", help="smallest co-critical graphs on n vertices")
    _add_budget(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_minsearch)

    p = sub.add_parser("props", help="property suites over a graph6 corpus file")
    _add_budget(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0, help="echoed for reproducibility")
    p.set_defaults(fn=cmd_props)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code. The parser is built
    on the first call and reused after it (`build_parser`)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
