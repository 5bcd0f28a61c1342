"""graph6 encoder/decoder, cross-checked against an independent bit-level
reference decoder written here from the format description."""

import random

import pytest
from graph_families import cycle_graph, empty_graph
from oracles import reference_parse_graph6

from cocritical.canon import nonisomorphic_graphs
from cocritical.graphs import complete_graph, make_graph
from cocritical.graph6 import (
    emit_graph6,
    graph6_lines,
    parse_graph6,
    parse_graph6_lines,
)


def reference_decode(line):
    """Separate route: expand every byte to a 6-bit string, then read the
    upper triangle column by column."""
    data = [ord(ch) - 63 for ch in line]
    assert all(0 <= b <= 63 for b in data)
    if data[0] <= 62:
        n, body = data[0], data[1:]
    else:
        assert data[0] == 63 and len(data) >= 4
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    bits = "".join(format(b, "06b") for b in body)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx] == "1":
                edges.append((u, v))
            idx += 1
    assert set(bits[idx:]) <= {"0"}  # padding must be zero
    return n, edges


def rand_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_known_encodings():
    assert emit_graph6(complete_graph(3)) == "Bw"
    assert emit_graph6(empty_graph(0)) == "?"
    assert emit_graph6(empty_graph(1)) == "@"
    assert emit_graph6(complete_graph(2)) == "A_"
    # 5-cycle: edges 01,04,12,23,34 -> columns give bits 10 010 10011
    n, edges = reference_decode(emit_graph6(cycle_graph(5)))
    assert n == 5 and sorted(edges) == cycle_graph(5).edges()


def test_roundtrip_small_exhaustive():
    for n in range(0, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = make_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert parse_graph6(emit_graph6(g)) == g


def test_roundtrip_against_reference_decoder():
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randrange(0, 20)
        g = rand_graph(rng, n, rng.random())
        line = emit_graph6(g)
        rn, redges = reference_decode(line)
        assert rn == g.n and sorted(redges) == g.edges()
        assert parse_graph6(line) == g


def test_long_form_order_prefix():
    # orders above 62 switch to the 126-prefixed 3-byte form
    g = empty_graph(63)
    line = emit_graph6(g)
    assert line[0] == "~"
    assert parse_graph6(line) == g
    rn, redges = reference_decode(line)
    assert rn == 63 and redges == []
    g = make_graph(100, [(0, 99)])
    assert parse_graph6(emit_graph6(g)) == g


REJECTIONS = [
    ("", "byte 0: empty graph6 string"),
    ("B\x1f", "byte 1: character 31 outside graph6 range"),  # below the range
    ("B\x7f", "byte 1: character 127 outside graph6 range"),  # above it
    ("B\xe9w", "byte 1: character 233 outside graph6 range"),  # not ASCII
    ("Bw\u20ac", "byte 2: character 8364 outside graph6 range"),
    ("B", "byte 1: expected 2 bytes for order 3, got 1"),  # truncated edge bits
    ("Bwx", "byte 3: expected 2 bytes for order 3, got 3"),  # trailing bytes
    ("B" + chr(63 + 0b111111), "byte 1: nonzero padding bit"),
    ("D?" + chr(63 + 0b000001), "byte 2: nonzero padding bit"),  # n = 5: 10 bits
    ("~", "byte 0: truncated long-form order prefix"),
    ("~??", "byte 0: truncated long-form order prefix"),
    ("~~???", "byte 1: 36-bit order form exceeds supported range"),
    ("~?A@", "byte 1: graph order 129 exceeds cap 128"),
]


def test_parse_rejects_garbage():
    for line, message in REJECTIONS:
        for parse in (parse_graph6, reference_parse_graph6):
            with pytest.raises(ValueError) as err:
                parse(line)
            assert str(err.value) == message, (parse.__name__, line)


def mutate(rng, line):
    """One seeded corruption of a graph6 line: a byte replaced, dropped or
    added, the line cut or extended, or the padding bits of the last byte
    set."""
    chars = list(line)
    kind = rng.randrange(6)
    at = rng.randrange(len(chars) + 1)
    byte = chr(rng.choice([rng.randrange(63, 127), rng.randrange(0, 63), rng.randrange(127, 300)]))
    if kind == 0 and chars:
        chars[min(at, len(chars) - 1)] = byte
    elif kind == 1 and chars:
        del chars[min(at, len(chars) - 1)]
    elif kind == 2:
        chars.insert(at, byte)
    elif kind == 3:
        del chars[at:]
    elif kind == 4:
        chars += [chr(rng.randrange(63, 127)) for _ in range(rng.randrange(1, 4))]
    elif chars:
        chars[-1] = chr(63 + (ord(chars[-1]) - 63 | rng.randrange(1, 64)))
    return "".join(chars)


def test_parse_matches_the_bit_by_bit_oracle_on_mutated_lines():
    # corpus-shaped lines (G(n, m) on 12..24 vertices), small classes and
    # long-form orders, each decoded as it is and after seeded corruption:
    # the result must be the same Graph or the same "byte N: ..." message
    rng = random.Random(29)
    lines = [emit_graph6(g) for n in range(1, 6) for g in nonisomorphic_graphs(n)]
    for _ in range(300):
        n = rng.randint(12, 24)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        lines.append(emit_graph6(make_graph(n, rng.sample(pairs, rng.randint(21, len(pairs) // 2)))))
    lines += [emit_graph6(rand_graph(rng, n, rng.random())) for n in (62, 63, 64, 100, 128)]
    lines += ["~?A~", "~~", "~?B?", "~?A" + chr(rng.randrange(63, 127))]
    outcomes = set()
    for line in lines:
        for text in [line, line + "\n"] + [mutate(rng, line) for _ in range(12)]:
            try:
                want = reference_parse_graph6(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    parse_graph6(text)
                assert str(err.value) == str(exc), repr(text)
                outcomes.add(str(exc).split(":")[1].split()[0])
            else:
                assert parse_graph6(text) == want, repr(text)
                outcomes.add("ok")
    # every kind of failure was met
    assert outcomes == {"ok", "empty", "character", "expected", "nonzero", "truncated", "36-bit", "graph"}


def test_parse_lines():
    lines = "\n".join(
        [emit_graph6(complete_graph(3)), "", emit_graph6(cycle_graph(4)), ""]
    )
    graphs = parse_graph6_lines(lines)
    assert graphs == [complete_graph(3), cycle_graph(4)]


# str.splitlines breaks at each of these too; latin-1 decoding makes them
# of stray bytes
SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85"


@pytest.mark.parametrize("ch", SPLITLINES_BREAKS, ids=lambda ch: f"{ord(ch):#04x}")
def test_lines_break_at_newline_only(ch):
    text = f"C~{ch}C~\nDN{{\n"
    assert list(graph6_lines(text)) == [(1, f"C~{ch}C~"), (2, "DN{")]
    with pytest.raises(ValueError) as err:
        parse_graph6_lines(text)
    assert str(err.value) == f"line 1: byte 2: character {ord(ch)} outside graph6 range"
    # a line holding only such characters is blank, and numbers stay in step
    text = f"C~\n{ch}\n\nDN{{\nC{ch}\n"
    assert [number for number, _ in graph6_lines(text)] == [1, 4, 5]
    with pytest.raises(ValueError) as err:
        parse_graph6_lines(text)
    assert str(err.value) == f"line 5: byte 1: character {ord(ch)} outside graph6 range"


def test_lines_keep_a_trailing_carriage_return_out_of_the_graph():
    assert parse_graph6_lines("C~\r\n\r\nDN{\r") == [complete_graph(4), parse_graph6("DN{")]
    assert [number for number, _ in graph6_lines("C~\r\n\r\nDN{\r")] == [1, 3]


def test_codec_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(6)
    graphs = [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
    graphs += [rand_graph(rng, n, rng.random()) for n in (0, 1, 62, 63, 64, 128) for _ in range(3)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        line = emit_graph6(g)
        assert line.encode() == nx.to_graph6_bytes(h, header=False).strip()
        back = nx.from_graph6_bytes(line.encode())
        assert parse_graph6(line) == make_graph(back.number_of_nodes(), list(back.edges()))
