"""Property-based fuzzing of the input boundary: the graph6 parser, the
command line options and the graph files that commands read.

Bad input must come back as a located ValueError from the parser, and as
exit code 2 with an `error:` line (never a traceback) and an empty stdout
from the command line; every other exit prints one JSON report.
Examples are derandomized so that the suite stays deterministic.
"""

import json
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from cocritical import cli  # noqa: E402
from cocritical.construction import min_order  # noqa: E402
from cocritical.graph6 import emit_graph6, parse_graph6  # noqa: E402
from cocritical.graphs import make_graph  # noqa: E402

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def near_graph6(draw, max_n=70):
    """The graph6 line of a graph on 0..max_n vertices (long form from 63
    on), then perhaps one byte replaced by any byte, the line cut, or a byte
    appended."""
    n = draw(st.integers(0, max_n))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.sets(st.tuples(ends, ends), max_size=30))
    line = bytearray(emit_graph6(make_graph(n, {(u, v) for u, v in pairs if u < v})).encode())
    change = draw(st.sampled_from(("none", "replace", "cut", "append")))
    if change == "replace":
        line[draw(st.integers(0, len(line) - 1))] = draw(st.integers(0, 255))
    elif change == "cut":
        del line[draw(st.integers(0, len(line) - 1)) :]
    elif change == "append":
        line.append(draw(st.integers(0, 255)))
    return bytes(line)


@FUZZ
@given(st.one_of(st.binary(max_size=40), near_graph6()))
def test_parse_graph6_parses_or_names_a_byte(data):
    text = data.decode("latin-1")
    try:
        g = parse_graph6(text)
    except ValueError as exc:
        assert re.match(r"byte \d+: ", str(exc)), str(exc)
    else:
        assert parse_graph6(emit_graph6(g)) == g


def joined(part):
    return st.lists(part, max_size=4).map(",".join)


SMALL_INT = st.integers(-2, 20).map(str)
NOISE = st.one_of(st.integers().map(str), st.floats().map(repr), st.text(max_size=12))
# near-valid values come up about as often as noise does: for --construct,
# T,K,N with N near the construction's smallest order (t, k = 2 included)
CONSTRUCT = st.one_of(
    st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(-2, 4)).map(
        lambda tkd: f"{tkd[0]},{tkd[1]},{min_order(*tkd[:2]) + tkd[2]}"
    ),
    joined(st.one_of(SMALL_INT, NOISE)),
)
SEED = st.one_of(joined(SMALL_INT), joined(NOISE))
NODE_CAP = st.one_of(st.integers(-3, 10**6).map(str), NOISE)
TIME_CAP = st.one_of(st.integers(-3, 100).map(str), NOISE)


def exit_code(capsys, argv):
    """Exit code of cli.main on argv, checking the usage-error contract and
    the stdout contract: one JSON report on exits 0, 1 and 3, nothing on 2."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the option itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert "error:" in err, (argv, err)
        assert out == "", argv
    else:
        assert json.loads(out)["command"] == argv[0], argv
    return code


@FUZZ
@given(CONSTRUCT)
def test_construct_option(capsys, text):
    # percolate builds the construction and its blueprint without a search
    exit_code(capsys, ["percolate", f"--construct={text}", "--q", "3"])


@FUZZ
@given(SEED)
def test_seed_option(capsys, text):
    exit_code(capsys, ["percolate", "--construct", "4,3,13", "--q", "3", f"--seed={text}"])
    # K_5 has no good (3,3) coloring, so a seed that reached the max-red
    # search would end with exit 1, which the generic contract allows
    argv = ["percolate", "--complete", "5", "--t", "3", "--k", "3", "--q", "2"]
    code = exit_code(capsys, [*argv, f"--seed={text}"])
    try:
        seeds = [int(p) for p in text.split(",")]
    except ValueError:
        return
    if any(not 0 <= v <= 4 for v in seeds):
        assert code == 2, text


@FUZZ
@given(NODE_CAP, TIME_CAP)
def test_budget_options(capsys, node_cap, time_cap):
    argv = ["arrows", "--complete", "6", "--t", "4", "--k", "3"]
    exit_code(capsys, [*argv, f"--node-cap={node_cap}", f"--time-cap={time_cap}"])


def not_order_8(text):
    """minsearch at order 8 takes seconds; every other order is quick or
    rejected."""
    try:
        return int(text) != 8
    except ValueError:
        return True


# valid values come up about as often as invalid ones
INT_OPTION = st.one_of(st.integers(1, 7).map(str), SMALL_INT, st.integers().map(str), NOISE)


@FUZZ
@given(st.sampled_from(("verify", "arrows", "percolate")), INT_OPTION, INT_OPTION, INT_OPTION)
def test_integer_options(capsys, command, t, k, q):
    argv = [command, "--complete", "5", f"--t={t}", f"--k={k}", "--node-cap", "2000"]
    exit_code(capsys, argv + [f"--q={q}"] if command == "percolate" else argv)


@FUZZ
@given(INT_OPTION.filter(not_order_8))
def test_minsearch_order(capsys, n):
    exit_code(capsys, ["minsearch", "--t", "3", "--k", "3", f"--n={n}", "--node-cap", "200"])


# file contents: a few lines, each a near-graph6 line of a small graph or
# short noise; small orders keep the searches and the brute-force oracle of
# props quick
LINES = st.lists(st.one_of(near_graph6(max_n=6), st.binary(max_size=4)), max_size=4).map(b"\n".join)


@FUZZ
@given(LINES)
def test_input_file(capsys, tmp_path, data):
    path = tmp_path / "graph.g6"
    path.write_bytes(data)
    exit_code(capsys, ["verify", "--input", str(path), "--t", "3", "--k", "3", "--node-cap", "2000"])


@FUZZ
@given(LINES)
def test_props_corpus(capsys, tmp_path, data):
    path = tmp_path / "corpus.g6"
    path.write_bytes(data)
    exit_code(capsys, ["props", "--corpus", str(path), "--node-cap", "2000"])
