"""Command line contract: exit codes, JSON report shape, stderr summaries."""

import argparse
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from test_verify import refuting_by_combinations

from cocritical import __version__, cli, construction, stable, verify
from cocritical.canon import nonisomorphic_graphs
from cocritical.cli import main
from cocritical.construction import ConstructionParams, build
from cocritical.graph6 import emit_graph6, parse_graph6
from cocritical.graphs import complete_graph, make_graph, max_stable_sets
from cocritical.search import SearchBudget


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_construct_json(capsys):
    code, doc = run_json(capsys, "construct", "--t", "4", "--k", "3", "--n", "13")
    assert code == 0
    assert doc["command"] == "construct"
    assert doc["results"]["vertices"] == 13 and doc["results"]["edges"] == 44
    assert doc["results"]["warnings"] == []
    assert doc["version"]


@pytest.fixture
def build_calls(monkeypatch):
    # the parameters of every construction build, wherever it is called from
    calls = []

    def counted_build(params):
        calls.append(params)
        return build(params)

    monkeypatch.setattr(construction, "build", counted_build)
    monkeypatch.setattr(cli, "build", counted_build)
    return calls


def test_construct_builds_the_graph_once(capsys, build_calls):
    # the blueprint coloring carries the graph it was built on
    code, doc = run_json(capsys, "construct", "--t", "4", "--k", "3", "--n", "13")
    assert code == 0 and doc["results"]["edges"] == 44
    assert build_calls == [ConstructionParams(4, 3, 13)]


def test_percolate_builds_the_graph_once(capsys, build_calls):
    # percolate --construct takes G from the blueprint coloring it runs on
    code, doc = run_json(capsys, "percolate", "--construct", "4,3,13", "--q", "3")
    assert code == 0 and doc["results"]["blocks"]
    assert build_calls == [ConstructionParams(4, 3, 13)]


def test_construct_emit_graph6(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--t", "4", "--k", "3", "--n", "13", "--emit", "graph6"
    )
    assert code == 0
    first, rest = out.split("\n", 1)
    g = parse_graph6(first)
    assert g.n == 13 and g.edge_count() == 44
    doc = json.loads(rest)
    assert doc["results"]["graph6"] == first


def test_construct_below_threshold(capsys):
    code, out, err = run_cli(capsys, "construct", "--t", "4", "--k", "3", "--n", "12")
    assert code == 2
    assert "threshold" in err


def test_construct_warns_outside_analyzed_orders(capsys):
    code, out, err = run_cli(capsys, "construct", "--t", "6", "--k", "4", "--n", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["warnings"]
    assert "warning" in err


def test_verify_frozen_instance(capsys):
    code, doc = run_json(
        capsys, "verify", "--construct", "4,3,13", "--t", "4", "--k", "3", "--checks"
    )
    assert code == 0
    res = doc["results"]
    assert res["verdict"] == "co-critical" and res["complete"]
    assert res["nodes"] == 60
    assert res["structure"]["all_passed"]
    assert res["coloring_structure_violations"] == []
    assert "millis" not in res
    timings = doc["timings"]
    assert set(timings) == {"parse_ms", "verify_ms", "walk_ms", "checks_ms"}


def test_verify_results_repeat_byte_for_byte(capsys):
    # the walk's wall time is a timing, so only timings differ between runs
    argv = ["verify", "--construct", "4,3,13", "--t", "4", "--k", "3", "--checks"]
    docs = [run_json(capsys, *argv)[1] for _ in range(2)]
    first, second = (json.dumps(doc["results"], indent=2) for doc in docs)
    assert first == second
    assert all(doc["timings"]["walk_ms"] <= doc["timings"]["verify_ms"] for doc in docs)


def test_verify_complete_graph_fails(capsys):
    code, doc = run_json(capsys, "verify", "--complete", "5", "--t", "3", "--k", "3")
    assert code == 1
    assert doc["results"]["verdict"] == "not-co-critical"


def test_verify_reports_a_walk_without_leaves(capsys):
    # K_7 arrows (K_4, T_3): the walk finds no good partition, and the
    # report still carries its size
    code, doc = run_json(capsys, "verify", "--complete", "7", "--t", "4", "--k", "3")
    assert code == 1
    res = doc["results"]
    assert res["base_status"] == "exhausted" and res["nodes"] == 2


def test_verify_budget_exit(capsys):
    code, doc = run_json(
        capsys,
        "verify", "--construct", "4,3,13", "--t", "4", "--k", "3",
        "--node-cap", "10",
    )
    assert code == 3
    assert doc["results"]["verdict"] == "indeterminate"


def test_verify_time_cap_exit(capsys):
    # the (4,5,28) walk takes 4,315 nodes, far more than 1 ms allows, and
    # the clock is read every 64 of them
    code, doc = run_json(
        capsys,
        "verify", "--construct", "4,5,28", "--t", "4", "--k", "5",
        "--time-cap", "0.001",
    )
    assert code == 3


def test_time_cap_binds_a_short_walk(capsys):
    # the clock is read at node 1, so a cap that has passed by then stops
    # even the 529-node (5,3,17) walk
    code, doc = run_json(
        capsys,
        "verify", "--construct", "5,3,17", "--t", "5", "--k", "3",
        "--time-cap", "1e-9",
    )
    assert code == 3
    assert doc["results"]["verdict"] == "indeterminate"


def test_verify_first_k5_instance(capsys, monkeypatch):
    # (4,5,28): the first verified instance with k = 5
    reports = []

    def keep_report(*args):
        reports.append(verify.is_cocritical(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "is_cocritical", keep_report)
    code, doc = run_json(
        capsys, "verify", "--construct", "4,5,28", "--t", "4", "--k", "5", "--checks"
    )
    assert code == 0
    res = doc["results"]
    assert res["verdict"] == "co-critical" and res["complete"]
    assert res["structure"]["all_passed"]
    assert res["coloring_structure_violations"] == []
    assert len(reports[0].coloring.blue) == 42


def test_arrows_true_false(capsys):
    code, doc = run_json(capsys, "arrows", "--complete", "5", "--t", "3", "--k", "3")
    assert code == 0 and doc["results"]["arrows"] is True
    code, doc = run_json(capsys, "arrows", "--complete", "4", "--t", "3", "--k", "3")
    assert code == 1 and doc["results"]["arrows"] is False
    assert doc["results"]["witness_blocks"] == [[0, 1], [2, 3]]


def test_block_lists_in_json_are_ascending_vertex_lists(capsys):
    blocks = [[0, 1], [2, 9], [3, 10], [4, 11], [5, 12], [6, 7], [8]]
    code, doc = run_json(capsys, "arrows", "--construct", "4,3,13", "--t", "4", "--k", "3")
    assert code == 1 and doc["results"]["witness_blocks"] == blocks
    code, doc = run_json(
        capsys, "verify", "--construct", "4,3,13", "--t", "4", "--k", "3", "--checks"
    )
    assert code == 0
    assert doc["results"]["base_witness"] == blocks
    assert doc["results"]["structure"]["blocks"] == blocks
    code, doc = run_json(capsys, "percolate", "--construct", "4,4,18", "--q", "4")
    assert code == 0
    assert doc["results"]["blocks"] == [
        [0, 1, 2], [3, 4, 14], [5, 6, 15], [7, 8, 16], [9, 10, 17], [11, 12, 13]
    ]


def test_arrows_budget(capsys):
    code, doc = run_json(
        capsys,
        "arrows", "--complete", "7", "--t", "4", "--k", "3", "--node-cap", "1",
    )
    assert code == 3
    assert doc["results"]["arrows"] is None


def test_percolate_construct(capsys):
    code, doc = run_json(capsys, "percolate", "--construct", "4,3,13", "--q", "3")
    assert code == 0
    res = doc["results"]
    assert res["certified"] and res["edges_total"] == 38
    assert res["edge_lower_bound"] == 27
    h = parse_graph6(res["cross_graph6"])
    assert h.edge_count() == 38


def test_percolate_plain_graph(capsys):
    # K_4 under a triangle/pair regime: the derived cross graph is a 4-cycle
    code, doc = run_json(
        capsys, "percolate", "--graph6", "C~", "--t", "3", "--k", "3", "--q", "2"
    )
    assert code == 0
    res = doc["results"]
    assert res["certified"] and res["edges_total"] == 4 and res["edge_lower_bound"] == 2


def test_percolate_without_coloring(capsys):
    code, doc = run_json(
        capsys, "percolate", "--complete", "5", "--t", "3", "--k", "3", "--q", "2"
    )
    assert code == 1
    assert "error" in doc["results"]


def test_percolate_inputs_name_the_seed_on_every_path(capsys):
    code, doc = run_json(
        capsys, "percolate", "--complete", "5", "--t", "3", "--k", "3", "--q", "2"
    )
    assert code == 1 and "error" in doc["results"]
    assert doc["inputs"] == {"complete": 5, "q": 2, "seed": None}
    code, doc = run_json(
        capsys, "percolate", "--graph6", "C~", "--t", "3", "--k", "3", "--q", "2", "--seed", "0"
    )
    assert code == 0 and doc["results"]["certified"]
    assert doc["inputs"] == {"graph6": "C~", "q": 2, "seed": "0"}


def test_minsearch(capsys):
    code, doc = run_json(capsys, "minsearch", "--t", "3", "--k", "3", "--n", "5")
    assert code == 0
    assert doc["results"]["minimum_edges"] == 8
    code, doc = run_json(capsys, "minsearch", "--t", "3", "--k", "3", "--n", "4")
    assert code == 1
    assert doc["results"]["minimum_edges"] is None


def test_minsearch_budget_exit_lists_every_class(capsys):
    code, doc = run_json(
        capsys, "minsearch", "--t", "3", "--k", "3", "--n", "5", "--node-cap", "1"
    )
    assert code == 3
    res = doc["results"]
    assert res["complete"] is False and res["minimum_edges"] is None
    # every class on 5 vertices but K_5 is examined; a class with a non-edge
    # whose common neighbourhood holds no K_1 is refuted without a walk, and
    # every other class runs out of budget
    classes = [g for g in nonisomorphic_graphs(5) if g.non_edges()]
    refuted = [g for g in classes if refuting_by_combinations(g, 3) is not None]
    walked = [g for g in classes if g not in refuted]
    assert res["examined"] == len(classes) == 33
    assert res["refuted"] == len(refuted) == 19
    assert {row["graph6"] for row in res["indeterminate"]} == {emit_graph6(g) for g in walked}
    assert len(walked) == 14
    assert all(verify.is_cocritical(g, 3, 3).verdict() == verify.NOT_CO_CRITICAL for g in refuted)


def test_minsearch_below_chvatal_order_ignores_the_budget(capsys):
    # n = 4 <= (t-1)(k-1): no class is examined, so no walk can run out
    code, doc = run_json(
        capsys, "minsearch", "--t", "3", "--k", "3", "--n", "4", "--node-cap", "1"
    )
    assert code == 1
    res = doc["results"]
    assert res["complete"] is True and res["minimum_edges"] is None
    assert res["examined"] == res["refuted"] == 0 and res["indeterminate"] == []


def test_props_budget_exit(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("DN{\n" + emit_graph6(build(ConstructionParams(4, 3, 13))) + "\n")
    code, out, err = run_cli(capsys, "props", "--corpus", str(corpus), "--node-cap", "1")
    assert code == 3
    assert err == "2 graphs: 0 failures, 1 indeterminate\n"
    small, large = json.loads(out)["results"]["rows"]
    assert small["oracle_agreement"] == {"3,3": None, "3,4": None, "4,3": None}
    assert large["oracle_agreement"] == "skipped: edge count above brute-force cap"


def test_percolate_budget_exit(capsys):
    # the max-red search runs out before a coloring is derived
    code, out, err = run_cli(
        capsys,
        "percolate", "--graph6", "L~GO?C?~~~f|N{", "--t", "4", "--k", "3", "--q", "3",
        "--node-cap", "1",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["inputs"] == {"graph6": "L~GO?C?~~~f|N{", "q": 3, "seed": None}
    assert doc["results"] == {"error": "maximization incomplete after 2 nodes"}
    assert list(doc["timings"]) == ["total_ms"]
    assert err == "indeterminate: maximization incomplete after 2 nodes\n"


def test_minsearch_bad_parameter_names_it(capsys):
    code, out, err = run_cli(capsys, "minsearch", "--t", "1", "--k", "3", "--n", "7")
    assert code == 2 and out == ""
    assert "t must be at least 2" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--complete", "4", "--t", "1", "--k", "3"), "t must be at least 2, got 1"),
        (("arrows", "--complete", "4", "--t", "3", "--k", "1"), "k must be at least 2, got 1"),
        (("percolate", "--graph6", "DN{", "--q", "1"), "error: --t and --k are required to derive a coloring"),
    ],
)
def test_bad_t_or_k_is_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_props(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("C~\nDN{\nBw\n")
    code, doc = run_json(capsys, "props", "--corpus", str(corpus))
    assert code == 0
    res = doc["results"]
    assert res["graphs"] == 3 and res["failures"] == 0
    assert all("hajnal" in row for row in res["rows"])


def test_props_rows_carry_the_emitted_graph6(capsys, tmp_path):
    # rows pass each line through, re-encoding only a long-form order prefix
    # on a small order, so they equal emit_graph6 of the parsed graph
    short = [emit_graph6(g) for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    long_form = ["~??DN{", "~??Bw", "~??@"]
    lines = short[:20] + long_form[:1] + short[20:] + long_form[1:]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(lines[:20] + [""] + lines[20:]) + "\r\n")
    code, doc = run_json(capsys, "props", "--corpus", str(corpus))
    assert code == 0
    assert [row["graph6"] for row in doc["results"]["rows"]] == [
        emit_graph6(parse_graph6(line)) for line in lines
    ]
    assert [emit_graph6(parse_graph6(line)) for line in long_form] == ["DN{", "Bw", "@"]


def props_as_dicts(path, out, budget=SearchBudget()):
    """The props report of the corpus at path built as dicts, rows and all,
    and encoded with one json.dumps; its timings are taken from out, the
    stdout of the run being checked."""
    lines = [line for line in path.read_text(encoding="latin-1").split("\n") if line.strip()]
    rows, failures, indeterminate = [], 0, 0
    for line in lines:
        row, ok, indet = cli._props_one(parse_graph6(line), line, budget)
        rows.append(row)
        failures += not ok
        indeterminate += indet
    report = {
        "command": "props",
        "inputs": {"corpus": str(path), "seed": 0},
        "results": {
            "graphs": len(lines),
            "failures": failures,
            "indeterminate": indeterminate,
            "rows": rows,
        },
        "timings": json.loads(out)["timings"],
        "version": __version__,
    }
    return json.dumps(report, indent=2) + "\n"


def props_pool():
    """Corpus lines that between them give every row shape: the oracle's
    dict and its "skipped" string, stable_intersection applicable and not,
    graph6 text with a backslash, and a long-form line re-encoded short."""
    short = [emit_graph6(g) for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    six = map(emit_graph6, nonisomorphic_graphs(6))
    backslash = [line for line in short + list(six) if "\\" in line]
    return short + backslash[:3] + ["~??DN{", emit_graph6(complete_graph(7)), "~??B?"]


def test_props_pool_has_every_row_shape(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(props_pool()) + "\n")
    code, doc = run_json(capsys, "props", "--corpus", str(corpus))
    rows = doc["results"]["rows"]
    assert code == 0
    assert {type(row["oracle_agreement"]) for row in rows} == {dict, str}
    assert {row["stable_intersection"]["applicable"] for row in rows} == {True, False}
    assert any("\\" in row["graph6"] for row in rows)
    assert "~??DN{" not in {row["graph6"] for row in rows}


B = cli.PROPS_BATCH


@pytest.mark.parametrize(
    "size", [0, 1, B - 1, B, B + 1, 2 * B + 1], ids=["0", "1", "B-1", "B", "B+1", "2B+1"]
)
def test_props_bytes_match_one_dumps_of_the_report(capsys, tmp_path, size):
    # the rows are encoded in batches of B = cli.PROPS_BATCH; the printed
    # bytes must be those of the report encoded at once
    pool = props_pool()
    lines = [pool[i % len(pool)] for i in range(size)]
    # the report's '"rows": []' cut must not be fooled by the same text in a path
    corpus = tmp_path / '"rows": [].g6'
    corpus.write_text("".join(line + "\n" for line in lines))
    code, out, _ = run_cli(capsys, "props", "--corpus", str(corpus))
    assert code == 0
    assert out == props_as_dicts(corpus, out)
    assert len(json.loads(out)["results"]["rows"]) == size


def test_props_bytes_match_with_blank_lines_and_an_indeterminate_row(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n\n")
    code, out, _ = run_cli(capsys, "props", "--corpus", str(corpus))
    assert code == 0 and '"rows": []' in out
    assert out == props_as_dicts(corpus, out)
    pool = props_pool()
    corpus.write_text("\n".join(pool[:30] + [""] + pool[30:]) + "\r\n")
    code, out, _ = run_cli(capsys, "props", "--corpus", str(corpus), "--node-cap", "1")
    assert code == 3
    assert out == props_as_dicts(corpus, out, SearchBudget(node_cap=1))


def test_props_drops_each_graph_once_its_row_is_built(capsys, tmp_path, monkeypatch):
    refs, alive = [], []
    props_one = cli._props_one

    def watched(g, line, budget):
        # the stable-set cache keeps the previous graph until this one's
        # family is asked for, so only the graphs before it must be gone
        alive.append(sum(ref() is not None for ref in refs[:-1]))
        refs.append(weakref.ref(g))
        return props_one(g, line, budget)

    monkeypatch.setattr(cli, "_props_one", watched)
    pool = props_pool()
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(line + "\n" for line in pool))
    code, _ = run_json(capsys, "props", "--corpus", str(corpus))
    assert code == 0
    assert alive == [0] * len(pool)


def test_props_memory_follows_the_output(capsys, tmp_path):
    # every row is held as encoded text and every graph dropped once its
    # row is built; holding every graph, every row dict and the encoder's
    # chunk list at once peaks near 11 times the output
    rng = random.Random(32)
    lines = []
    for _ in range(1000):
        n = rng.randint(12, 18)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = make_graph(n, rng.sample(pairs, rng.randint(21, len(pairs) // 2)))
        lines.append(emit_graph6(g))
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        code = main(["props", "--corpus", str(corpus)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["results"]["graphs"] == 1000
    assert peak < 5 * len(out), peak / len(out)


def test_props_enumerates_each_stable_family_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return max_stable_sets(g)

    stable.stable_family_stats.cache_clear()
    monkeypatch.setattr(stable, "max_stable_sets", counted)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("DN{\n")
    code, _ = run_json(capsys, "props", "--corpus", str(corpus))
    assert code == 0
    assert len(calls) == 1


def test_props_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "props", "--corpus", str(tmp_path / "nope.g6"))
    assert code == 2


def test_input_file_route(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(build(ConstructionParams(4, 3, 13))) + "\n")
    code, doc = run_json(
        capsys, "verify", "--input", str(path), "--t", "4", "--k", "3"
    )
    assert code == 0 and doc["results"]["verdict"] == "co-critical"


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--t", "3", "--k", "3")  # no graph
    assert code == 2 and "source" in err
    code, _, err = run_cli(
        capsys,
        "verify", "--complete", "4", "--graph6", "C~", "--t", "3", "--k", "3",
    )
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--graph6", "\x01bad", "--t", "3", "--k", "3")
    assert code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_nan_time_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--complete", "4", "--t", "3", "--k", "3", "--time-cap", "nan"
    )
    assert code == 2 and out == ""
    assert "time_cap must be positive, got nan" in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--node-cap", "0", "node_cap must be positive, got 0"),
        ("--time-cap", "-1", "time_cap must be positive, got -1.0"),
    ],
)
def test_nonpositive_budget_names_the_field(capsys, option, value, message):
    code, out, err = run_cli(
        capsys, "verify", "--complete", "4", "--t", "3", "--k", "3", option, value
    )
    assert code == 2 and out == ""
    assert message in err


def test_bad_construct_names_the_option(capsys):
    code, out, err = run_cli(capsys, "verify", "--construct", "4,x,13", "--t", "4", "--k", "3")
    assert code == 2 and out == ""
    assert "--construct" in err and "'4,x,13'" in err


@pytest.mark.parametrize("command", ["props", "verify"])
def test_non_ascii_byte_is_located(capsys, tmp_path, command):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"C~\nD\xffN\n")
    if command == "props":
        argv = ["props", "--corpus", str(path)]
    else:
        argv = ["verify", "--input", str(path), "--t", "3", "--k", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "line 2: byte 1:" in err


@pytest.mark.parametrize("command", ["props", "verify"])
@pytest.mark.parametrize("byte", [0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x85], ids=lambda b: f"{b:#04x}")
def test_control_byte_is_not_a_line_break(capsys, tmp_path, command, byte):
    # str.splitlines would split line 1 in two and accept the file
    path = tmp_path / "bad.g6"
    if command == "props":
        path.write_bytes(b"C~%cC~\nDN{\n" % byte)
        argv = ["props", "--corpus", str(path)]
    else:
        path.write_bytes(b"C~%cC~\n" % byte)
        argv = ["verify", "--input", str(path), "--t", "3", "--k", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: line 1: byte 2: character {byte} outside graph6 range\n"


def test_negative_complete_order(capsys):
    code, _, err = run_cli(capsys, "verify", "--complete", "-1", "--t", "3", "--k", "3")
    assert code == 2
    assert "graph order -1 outside" in err and "shift" not in err


def test_props_bad_line_is_located(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("C~\n\nDN{\n\x01bad\n")
    code, _, err = run_cli(capsys, "props", "--corpus", str(corpus))
    assert code == 2
    assert "line 4: byte 0:" in err


def test_props_suite_error_is_located(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("C~\n\n" + emit_graph6(build(ConstructionParams(4, 5, 28))) + "\n")
    code, out, err = run_cli(capsys, "props", "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert err == "error: line 3: stable-set enumeration guarded to n <= 24\n"


def test_percolate_empty_graph_is_named(capsys):
    code, out, err = run_cli(capsys, "percolate", "--graph6", "?", "--t", "3", "--k", "3", "--q", "1")
    assert code == 2 and out == ""
    assert err == "error: graph has no vertices: nothing to percolate\n"


def test_percolate_seed_out_of_range_is_named(capsys):
    code, out, err = run_cli(
        capsys, "percolate", "--construct", "4,3,13", "--q", "1", "--seed", "99"
    )
    assert code == 2 and out == ""
    assert err == "error: seed vertex 99 outside 0..12\n"


# what an exit-2 message must name, per boundary run
BOUNDARY_ERRORS = {
    ("percolate", "?"): "graph has no vertices",
    ("percolate", "@"): "minimum degree 0",
    ("props", "?"): "line 1: graph has no vertices",
}


@pytest.mark.parametrize("g6", ["?", "@"])
@pytest.mark.parametrize("command", ["verify", "arrows", "percolate", "props"])
def test_boundary_graphs_exit_cleanly(capsys, tmp_path, command, g6):
    if command == "props":
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(g6 + "\n")
        argv = ["props", "--corpus", str(corpus)]
    else:
        argv = [command, "--graph6", g6, "--t", "3", "--k", "3"]
        if command == "percolate":
            argv += ["--q", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert BOUNDARY_ERRORS[command, g6] in lines[0]
    else:
        json.loads(out)


def test_percolate_rejects_two_graph_sources(capsys):
    code, out, err = run_cli(
        capsys, "percolate", "--construct", "4,3,13", "--graph6", "C~", "--q", "3"
    )
    assert code == 2 and out == ""
    assert err == (
        "error: need exactly one graph source among --construct/--complete/--graph6/--input,"
        " got ['construct', 'graph6']\n"
    )


def test_percolate_progress_failure_aborts_with_trail(capsys):
    code, doc = run_json(
        capsys, "percolate", "--graph6", "E@Q?", "--t", "3", "--k", "2", "--q", "1"
    )
    assert code == 1
    res = doc["results"]
    assert res["error"] == "iteration 1: bad vertex 2 gained 0 < 1/2"
    assert len(res["trail"]) == 2


def test_percolate_without_progress_check_reports_violations(capsys):
    code, doc = run_json(
        capsys,
        "percolate", "--graph6", "E@Q?", "--t", "3", "--k", "2", "--q", "1",
        "--no-progress-check",
    )
    assert code == 1
    res = doc["results"]
    assert res["certified"] is False
    assert res["progress_violations"] == [
        "iteration 1: bad vertex 2 gained 0 < 1/2",
        "iteration 1: bad vertex 3 gained 0 < 1/2",
    ]
    assert res["iterations"] == 2 and len(res["trail"]) == 3


def test_percolate_bad_seed_names_the_option(capsys):
    code, _, err = run_cli(
        capsys, "percolate", "--construct", "4,3,13", "--q", "3", "--seed", "1,,2"
    )
    assert code == 2
    assert "--seed" in err and "'1,,2'" in err


# one case per exit of each subcommand that is not a usage error:
# (command line, exit code, timings keys, stderr line); CORPUS is a file
# holding DN{
VERIFY_MS = "parse_ms verify_ms walk_ms checks_ms"
CERT_MS = "derive_ms run_ms"
PROPS_MS = "parse_ms suite_ms"
REPORT_EXITS = {
    "construct-json": ("construct --t 4 --k 3 --n 13", 0, "build_ms", "built 13 vertices, 44 edges"),
    "construct-graph6": (
        "construct --t 4 --k 3 --n 13 --emit graph6", 0, "build_ms", "built 13 vertices, 44 edges"
    ),
    "verify-0": (
        "verify --construct 4,3,13 --t 4 --k 3 --checks", 0, VERIFY_MS, "verdict: co-critical"
    ),
    "verify-1": ("verify --complete 5 --t 3 --k 3", 1, VERIFY_MS, "verdict: not-co-critical"),
    "verify-3": (
        "verify --construct 4,3,13 --t 4 --k 3 --node-cap 10", 3, VERIFY_MS, "verdict: indeterminate"
    ),
    "arrows-0": ("arrows --complete 5 --t 3 --k 3", 0, "total_ms", "arrows: True"),
    "arrows-1": ("arrows --complete 4 --t 3 --k 3", 1, "total_ms", "arrows: False"),
    "arrows-3": (
        "arrows --complete 7 --t 4 --k 3 --node-cap 1", 3, "total_ms",
        "indeterminate: budget exhausted",
    ),
    "percolate-0-blueprint": (
        "percolate --construct 4,3,13 --q 3", 0, CERT_MS,
        "certified=True: e(H)=38 >= 3*(n-|seeds|)=27 after 3 iterations",
    ),
    "percolate-0-max-red": (
        "percolate --graph6 C~ --t 3 --k 3 --q 2", 0, CERT_MS,
        "certified=True: e(H)=4 >= 2*(n-|seeds|)=2 after 1 iterations",
    ),
    "percolate-1-no-coloring": (
        "percolate --complete 5 --t 3 --k 3 --q 2", 1, "total_ms",
        "no good coloring: nothing to percolate",
    ),
    "percolate-1-progress": (
        "percolate --graph6 E@Q? --t 3 --k 2 --q 1", 1, CERT_MS,
        "percolation failed: iteration 1: bad vertex 2 gained 0 < 1/2",
    ),
    "percolate-1-uncertified": (
        "percolate --graph6 E@Q? --t 3 --k 2 --q 1 --no-progress-check", 1, CERT_MS,
        "certified=False: e(H)=3 >= 1*(n-|seeds|)=3 after 2 iterations",
    ),
    "percolate-3": (
        "percolate --graph6 L~GO?C?~~~f|N{ --t 4 --k 3 --q 3 --node-cap 1", 3, "total_ms",
        "indeterminate: maximization incomplete after 2 nodes",
    ),
    "minsearch-0": (
        "minsearch --t 3 --k 3 --n 5", 0, "total_ms", "minimum edges: 8 (1 witnesses, complete=True)"
    ),
    "minsearch-1": (
        "minsearch --t 3 --k 3 --n 4", 1, "total_ms",
        "minimum edges: None (0 witnesses, complete=True)",
    ),
    "minsearch-3": (
        "minsearch --t 3 --k 3 --n 5 --node-cap 1", 3, "total_ms",
        "minimum edges: None (0 witnesses, complete=False)",
    ),
    "props-0": ("props --corpus CORPUS", 0, PROPS_MS, "1 graphs: 0 failures, 0 indeterminate"),
    "props-1": ("props --corpus CORPUS", 1, PROPS_MS, "1 graphs: 1 failures, 0 indeterminate"),
    "props-3": (
        "props --corpus CORPUS --node-cap 1", 3, PROPS_MS, "1 graphs: 0 failures, 1 indeterminate"
    ),
}


@pytest.mark.parametrize("line, code, timings, summary", REPORT_EXITS.values(), ids=REPORT_EXITS)
def test_every_report_exit_prints_one_report(
    capsys, tmp_path, monkeypatch, line, code, timings, summary
):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("DN{\n")
    argv = [str(corpus) if a == "CORPUS" else a for a in line.split()]
    if argv[0] == "props" and code == 1:
        # no graph fails a theorem, so a failed check is simulated
        monkeypatch.setattr(cli, "hajnal_check", lambda g: stable.HajnalResult(False, 0, 0, 0))
    got_code, out, err = run_cli(capsys, *argv)
    if "--emit" in argv:
        first, out = out.split("\n", 1)
        assert parse_graph6(first).n == 13
    doc = json.loads(out)
    assert (got_code, err) == (code, summary + "\n")
    assert list(doc) == ["command", "inputs", "results", "timings", "version"]
    assert doc["command"] == argv[0] and list(doc["timings"]) == timings.split()


# without the early checks these would run the max-red search first and end
# as it ends (exit 1 or 3), or ignore --t/--k under the blueprint (exit 0)
L_GRAPH = ("--graph6", "L~GO?C?~~~f|N{", "--t", "4", "--k", "3", "--node-cap", "1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--complete", "5", "--t", "3", "--k", "3", "--q", "2", "--seed", "x"), "--seed expects"),
        (("--complete", "5", "--t", "3", "--k", "3", "--q", "0"), "threshold q must be at least 1"),
        ((*L_GRAPH, "--q", "0"), "threshold q must be at least 1"),
        ((*L_GRAPH, "--q", "3", "--seed", "1,,2"), "--seed expects"),
        (
            ("--construct", "4,3,13", "--t", "9", "--k", "9", "--q", "2"),
            "--construct takes its blueprint coloring and cannot be combined with --t/--k",
        ),
        (
            ("--complete", "5", "--t", "3", "--k", "3", "--q", "2", "--seed", "9"),
            "seed vertex 9 outside 0..4",
        ),
        ((*L_GRAPH, "--q", "3", "--seed", "99"), "seed vertex 99 outside 0..12"),
        (
            ("--graph6", "?", "--t", "3", "--k", "3", "--q", "1", "--seed", "0"),
            "seed vertex 0 given, but the graph has no vertices",
        ),
    ],
)
def test_percolate_usage_error_precedes_the_coloring(capsys, argv, message):
    code, out, err = run_cli(capsys, "percolate", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_parser_is_built_once_per_process(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("C~\nDN{\n")
    run_cli(capsys, "construct", "--t", "4", "--k", "3", "--n", "13")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["construct", "--t", "4", "--k", "3", "--n", "13"],
        ["verify", "--complete", "5", "--t", "3", "--k", "3"],
        ["arrows", "--complete", "5", "--t", "3", "--k", "3"],
        ["percolate", "--construct", "4,3,13", "--q", "3"],
        ["minsearch", "--t", "3", "--k", "3", "--n", "4"],
        ["props", "--corpus", str(corpus)],
    ):
        assert run_json(capsys, *argv)[1]["command"] == argv[0]
    assert built == []


def answer(capsys, argv):
    """Exit code, stderr and the JSON report of one main call, with the
    report's timings removed."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the option
        code = exc.code
    out, err = capsys.readouterr()
    doc = json.loads(out) if out else None
    if doc is not None:
        del doc["timings"]
    return code, err, doc


def test_answers_do_not_depend_on_call_order(capsys):
    percolate = ["percolate", "--construct", "4,3,13", "--q", "3"]
    verify = ["verify", "--construct", "4,3,13", "--t", "4", "--k", "3"]
    argvs = [
        verify + ["--checks"],
        verify,
        percolate + ["--seed", "0"],
        percolate,
        ["verify", "--complete", "5", "--t", "x", "--k", "3"],
        ["verify", "--construct", "4,3", "--t", "4", "--k", "3"],
        ["minsearch", "--t", "3", "--k", "3", "--n", "5"],
    ]
    forwards = [answer(capsys, argv) for argv in argvs]
    backwards = [answer(capsys, argv) for argv in reversed(argvs)][::-1]
    assert forwards == backwards
    codes = [code for code, _, _ in forwards]
    assert codes == [0, 0, 0, 0, 2, 2, 0]
    assert "structure" in forwards[0][2]["results"] and "structure" not in forwards[1][2]["results"]
    assert forwards[2][2]["inputs"]["seed"] == "0" and forwards[3][2]["inputs"]["seed"] is None
    assert forwards[4][1].startswith("usage: cocritical verify") and forwards[4][2] is None
    assert forwards[5][1].startswith("error: --construct expects") and forwards[5][2] is None


def test_entry_point_subprocess():
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cocritical.cli", "arrows", "--complete", "5", "--t", "3", "--k", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["arrows"] is True
