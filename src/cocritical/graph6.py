"""graph6 serialization.

graph6 is the compact ASCII format for undirected graphs: a length prefix
followed by the upper triangle of the adjacency matrix read column by column
(x01, x02, x12, x03, ...), packed big-endian into 6-bit groups, each group
printed as its value plus 63.  This module implements the header-free variant
and rejects malformed input with the byte offset of the problem.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graphs import Graph, MAX_ORDER


def emit_graph6(g: Graph) -> str:
    chars = _emit_order(g.n)
    bits: list[int] = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append(g.adj[row] >> col & 1)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = group << 1 | b
        chars.append(group + 63)
    return "".join(chr(c) for c in chars)


def _emit_order(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    # three 6-bit groups after a 126 marker cover orders up to 258047;
    # MAX_ORDER is far below that, so no longer form is ever needed
    return [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; a malformed one raises ValueError naming the
    offending byte.

    The body is read as one integer, six bits per byte, first byte
    highest, so its low bits are the padding and, above them, the columns
    of the upper triangle from the last one down.  Each column is peeled
    off the low end in turn and only its set bits are visited.  The byte
    range is tested with min and max; only a string that fails is scanned
    character by character, to name the first offending byte.
    """
    s = text.rstrip("\r\n")
    if not s:
        raise ValueError("byte 0: empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        # some character lies outside chr(63)..chr(126), so this loop raises
        for off, ch in enumerate(s):
            if not 63 <= ord(ch) <= 126:
                raise ValueError(f"byte {off}: character {ord(ch)!r} outside graph6 range")
    data = s.encode()
    n, body_start = _parse_order(data)
    if n > MAX_ORDER:
        raise ValueError(f"byte 1: graph order {n} exceeds cap {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    expect = body_start + (nbits + 5) // 6
    if len(data) != expect:
        raise ValueError(f"byte {len(s)}: expected {expect} bytes for order {n}, got {len(data)}")
    body = 0
    for c in data[body_start:]:
        body = body << 6 | c - 63
    # padding bits beyond the triangle must be zero; they all sit in the last byte
    pad = (expect - body_start) * 6 - nbits
    if body & ((1 << pad) - 1):
        raise ValueError(f"byte {expect - 1}: nonzero padding bit")
    body >>= pad
    rows = [0] * n
    for col in range(n - 1, 0, -1):
        # bit col-1-row of this column's chunk is the pair (row, col)
        chunk = body & ((1 << col) - 1)
        body >>= col
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            row = col - low.bit_length()
            rows[row] |= 1 << col
            rows[col] |= 1 << row
    return Graph(n, tuple(rows))


def _parse_order(data: bytes) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 4:
        raise ValueError("byte 0: truncated long-form order prefix")
    if data[1] == 126:
        raise ValueError("byte 1: 36-bit order form exceeds supported range")
    n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
    return n, 4


def graph6_lines(text: str) -> Iterator[tuple[int, str]]:
    r"""(1-based number, line) for each nonblank line of text.

    Lines end at "\n" only.  str.splitlines would also break at \x0b,
    \x0c, \x1c-\x1e and \x85, which latin-1 decoding makes of stray
    bytes, and so would split one bad line into graphs.  A universal-newline
    read has already turned "\r\n" and "\r" into "\n", and parse_graph6
    strips a trailing "\r".
    """
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            yield number, line


def parse_graph6_lines(text: str) -> list[Graph]:
    """Parse one graph per line of graph6_lines; errors name its number."""
    graphs = []
    for number, line in graph6_lines(text):
        try:
            graphs.append(parse_graph6(line))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return graphs

