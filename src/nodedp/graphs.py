"""Labeled simple graphs and the vertex-rewiring metric.

Graphs are undirected, loop-free, on vertex set {0, ..., n-1}.  The distance
between two graphs of equal order is the minimum number of vertices whose
incident edge sets must be replaced to turn one into the other; it equals the
size of a minimum vertex cover of their symmetric-difference graph.

Two exact routes compute it.  ``node_distance`` deepens a bounded search
tree over cover sizes for one pair of graphs of any order.  The enumerated
spaces (n <= MAX_ENUMERATION_N) read it from ``cover_table(n)``: graph
indices are edge bitmasks, the difference of two graphs is their XOR, so
d(G, H) = cover_table(n)[index(G) ^ index(H)] for every pair at once,
``rewiring_pairs(n)`` lists the pairs at distance 1, and
``group_distances(n, groups)`` gives every graph's distance to the nearest
member of each of several groups by BFS over those pairs, and
``group_distance_row`` one graph's, from the table.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import count
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError

MAX_ENUMERATION_N = 7

# Largest order ``from_edges`` builds, and with it the edge-list parser: the
# n x n bool adjacency, the one n x n array built, stays at most 256 MiB.
# Without it a header alone sizes the allocation (``60000 0`` asks for
# 3.35 GiB).
EDGE_LIST_MAX_N = 2**14

# Digits one edge-list number may have, leading zeros included, so that its
# value fits an int64 (10**18 - 1 < 2**63) and numpy's fixed-width sum
# cannot wrap.
_EDGE_LIST_DIGITS = 18


def triangular_slots(n: int) -> list[tuple[int, int]]:
    """Upper-triangle vertex pairs in row-major order: (0,1), (0,2), ..."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def upper_slots(matrix: np.ndarray) -> np.ndarray:
    """Strict upper triangle of an [n, n] matrix in slot order, the
    row-major order of ``triangular_slots``: the one slot layout."""
    n = matrix.shape[0]
    return matrix[np.arange(n)[:, None] < np.arange(n)]


def slot_adjacency(n: int, bits) -> np.ndarray:
    """Inverse of ``upper_slots``: the symmetric, loop-free bool adjacency
    [n, n] or [B, n, n] whose slots hold bits [C(n,2)] or [B, C(n,2)]."""
    upper = np.arange(n)[:, None] < np.arange(n)
    adj = np.zeros(np.shape(bits)[:-1] + (n, n), dtype=bool)
    # a mask after a batch axis is ten times slower than one over every
    # axis at n = 512, so only batches of small graphs take it
    adj[(upper,) if adj.ndim == 2 else (slice(None), upper)] = bits
    adj |= np.swapaxes(adj, -1, -2)
    return adj


class LabeledGraph:
    """Immutable simple undirected graph on n labeled vertices."""

    __slots__ = ("n", "_adj", "_key")

    def __init__(self, adjacency) -> None:
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.flags.writeable = False
        self.n = adj.shape[0]
        self._adj = adj
        self._key: bytes | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "LabeledGraph":
        """Graph on n vertices with the given (u, v) pairs: a list of pairs or
        an [m, 2] integer array, placed by one scatter."""
        if n > EDGE_LIST_MAX_N:
            raise ResourceLimitError(
                f"edge-list graphs limited to n <= {EDGE_LIST_MAX_N}, got n = {n}"
            )
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        # one max finds both faults: a negative vertex wraps high as uint64
        if pairs.size and pairs.view(np.uint64).max() >= n:
            raise _edge_fault(n, pairs)
        adj = np.zeros((n, n), dtype=bool)
        adj[pairs[:, 0], pairs[:, 1]] = True
        if adj.diagonal().any():
            raise _edge_fault(n, pairs)
        adj[pairs[:, 1], pairs[:, 0]] = True
        return cls._wrap(adj)

    @classmethod
    def from_slots(cls, n: int, bits) -> "LabeledGraph":
        """Graph on n vertices whose slot t holds an edge iff bits[t]."""
        return cls._wrap(slot_adjacency(n, bits))

    @classmethod
    def _wrap(cls, adj: np.ndarray) -> "LabeledGraph":
        """Take ownership of a bool adjacency built square, symmetric and
        loop-free, without the copy and transpose check of ``__init__``, so
        building a graph peaks at one adjacency."""
        g = cls.__new__(cls)
        adj.flags.writeable = False
        g.n = adj.shape[0]
        g._adj = adj
        g._key = None
        return g

    @classmethod
    def empty(cls, n: int) -> "LabeledGraph":
        return cls.from_slots(n, np.zeros(n * (n - 1) // 2))

    @classmethod
    def complete(cls, n: int) -> "LabeledGraph":
        return cls.from_slots(n, np.ones(n * (n - 1) // 2))

    # -- basic queries -----------------------------------------------------

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._adj)) // 2

    @property
    def degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1).astype(int)

    @property
    def max_degree(self) -> int:
        return 0 if self.n == 0 else int(self._adj.sum(axis=1).max())

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self._adj[v])

    def edges(self) -> np.ndarray:
        """[m, 2] int64 array of the edges (u, v), u < v, in row-major order."""
        return np.argwhere(np.triu(self._adj, 1))

    @property
    def key(self) -> bytes:
        """Canonical hashable key: packed upper-triangle bits."""
        if self._key is None:
            self._key = np.packbits(upper_slots(self._adj)).tobytes()
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledGraph)
            and self.n == other.n
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.n, self.key))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={self.edge_count})"

    # -- rewiring ----------------------------------------------------------

    def rewire(self, v: int, neighborhood: Iterable[int]) -> "LabeledGraph":
        """Replace the neighborhood of v; the result is at node distance <= 1."""
        members = frozenset(int(u) for u in neighborhood)
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")
        if v in members:
            raise ValueError(f"vertex {v} cannot neighbor itself")
        if not all(0 <= u < self.n for u in members):
            raise ValueError("neighborhood out of range")
        adj = self._adj.copy()
        adj[v, :] = False
        adj[:, v] = False
        for u in members:
            adj[v, u] = adj[u, v] = True
        return LabeledGraph(adj)

    # -- wire formats --------------------------------------------------------

    def to_edge_list_text(self) -> str:
        """Header ``n m``, then one ``u v`` line per edge in row-major order.

        Numbers are written in numpy: one byte column per digit position,
        filled by repeated division, with leading zeros masked out."""
        pairs = self.edges()
        width = len(str(max(self.n - 1, 0)))
        cells = np.empty(pairs.shape + (width + 1,), dtype=np.uint8)
        cells[:, 0, width] = ord(" ")
        cells[:, 1, width] = ord("\n")
        keep = np.ones(cells.shape, dtype=bool)
        rest = pairs
        for j in range(width - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            cells[..., j] = digit + ord("0")
            if j:
                keep[..., j - 1] = rest > 0
        return f"{self.n} {len(pairs)}\n" + cells[keep].tobytes().decode("ascii")

    @classmethod
    def from_edge_list_text(cls, text: str) -> "LabeledGraph":
        """Parse a header line ``n m`` and exactly m lines ``u v``.

        The text holds ASCII digits, spaces, tabs, CR and LF only; blank
        lines are ignored.  Refuses a number longer than 18 digits, n >
        EDGE_LIST_MAX_N before allocating the adjacency, and a repeated
        edge, in either orientation, by its edge count.
        """
        rows = _edge_list_rows(text)
        n, m = rows[0].tolist()
        if rows.shape[0] - 1 != m:
            raise ValueError(f"expected {m} edge lines, found {rows.shape[0] - 1}")
        g = cls.from_edges(n, rows[1:])
        if g.edge_count != m:
            raise ValueError(f"duplicate edges: {m} lines give {g.edge_count} edges")
        return g

    def to_hex(self) -> str:
        """Upper-triangle bits (row-major) packed big-endian, as hex."""
        return self.key.hex()

    @classmethod
    def from_hex(cls, n: int, text: str) -> "LabeledGraph":
        """Inverse of ``to_hex``; nonzero padding bits are refused."""
        nbits = n * (n - 1) // 2
        raw = bytes.fromhex(text.strip())
        if len(raw) != (nbits + 7) // 8:
            raise ValueError(f"expected {(nbits + 7) // 8} bytes for n={n}")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        if bits[nbits:].any():
            raise ValueError(f"padding bits after slot {nbits} must be zero")
        return cls.from_slots(n, bits[:nbits])


def _edge_fault(n: int, pairs: np.ndarray) -> ValueError:
    """The first self-loop, else the first edge out of range for n."""
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        u, v = pairs[loops.argmax()].tolist()
        return ValueError(f"self-loop ({u},{v})")
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    u, v = pairs[outside.argmax()].tolist()
    return ValueError(f"edge ({u},{v}) out of range for n={n}")


def _line_number(text: str, offset: int) -> int:
    """Line of ``text[offset]`` when LF, CR and CRLF each end one line."""
    head = text[:offset]
    return head.count("\n") + head.count("\r") - head.count("\r\n") + 1


def _edge_list_rows(text: str) -> np.ndarray:
    """The two numbers of every nonblank line, as an [L, 2] int64 array.

    A number is a maximal run of ASCII digits; a line ends at LF or CR, so
    CRLF leaves a blank line, which is ignored.  ``_number_bounds`` finds
    and checks the numbers; the header's two are then read by ``int``, and
    the edge numbers are summed right to left, one vectorised step per digit
    position of the widest edge number.
    """
    # errors="replace" keeps one byte per character, so offsets match the text
    raw = np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)
    # digit values behind zeros, so that reading a number's digit positions
    # right to left never runs off the front
    places = np.zeros(_EDGE_LIST_DIGITS + raw.size, dtype=np.uint8)
    digits = places[_EDGE_LIST_DIGITS:]
    np.subtract(raw, np.uint8(ord("0")), out=digits)  # wraps to >= 10 below "0"
    padded = np.zeros(raw.size + 2, dtype=bool)  # digit mask, False at both ends
    digit = padded[1:-1]
    np.less(digits, 10, out=digit)
    starts, ends = _number_bounds(text, raw, padded)
    lengths = ends - starts
    if int(lengths.max()) > _EDGE_LIST_DIGITS:
        first = int(starts[np.argmax(lengths > _EDGE_LIST_DIGITS)])
        raise ValueError(
            f"line {_line_number(text, first)}: a number with more than"
            f" {_EDGE_LIST_DIGITS} digits"
        )
    rows = np.empty((starts.size // 2, 2), dtype=np.int64)
    # the header apart, so that m does not widen the edges' digit loop
    rows[0] = [int(text[a:b]) for a, b in zip(starts[:2].tolist(), ends[:2].tolist())]
    if rows.shape[0] == 1:
        return rows
    last, width = ends[2:], lengths[2:]
    widest = int(width.max())
    # the sum stays below 10**widest: uint16 holds 4 digits, uint32 9
    dtype = np.uint16 if widest <= 4 else np.uint32 if widest <= 9 else np.int64
    digits *= digit  # zero outside numbers
    values = places[_EDGE_LIST_DIGITS - 1 :][last].astype(dtype)
    for k in range(2, widest + 1):
        place = places[_EDGE_LIST_DIGITS - k :][last]  # k-th digit from the right
        if k > 2:  # past the blank before a number of fewer than k - 1 digits
            place *= width >= k
        # multiply in dtype: under numpy 1.x value-based casting a uint8
        # digit times a small scalar stays uint8 and wraps
        values += np.multiply(place, 10 ** (k - 1), dtype=dtype)
    rows[1:] = values.reshape(-1, 2)
    return rows


def _number_bounds(
    text: str, raw: np.ndarray, padded: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and one-past-last offsets of every number, after checking the
    characters, that there is a number, and that every line holds 0 or 2.

    ``padded`` is the digit mask of ``raw`` with False at both ends.  Two
    position passes do it: the rises and falls of the digit mask bound the
    numbers, and the events, number starts and line breaks in text order,
    give the lines.  Every run of numbers between two breaks must be two
    long, so no three numbers are in a row and no one stands alone.  The
    byte masks and event arrays are freed on return, before decoding.
    """
    digit = padded[1:-1]
    breaks = raw == ord("\n")
    breaks |= raw == ord("\r")
    allowed = raw == ord(" ")
    allowed |= raw == ord("\t")
    allowed |= breaks
    allowed |= digit
    if not allowed.all():
        at = int(allowed.argmin())
        raise ValueError(
            f"line {_line_number(text, at)}: unexpected character {text[at]!r};"
            " edge lists hold ASCII digits, spaces, tabs, CR and LF only"
        )
    # a number starts where the digit mask rises and ends where it falls
    bounds = np.flatnonzero(padded[1:] != padded[:-1])
    if bounds.size == 0:
        raise ValueError("empty graph text")
    events = np.greater(digit, padded[:-2], out=allowed)  # number starts
    events |= breaks
    at = np.flatnonzero(events)
    number = np.zeros(at.size + 2, dtype=bool)  # False beyond both ends
    np.take(digit, at, out=number[1:-1])
    before, this, after = number[:-2], number[1:-1], number[2:]
    if (before & this & after).any() or (this > (before | after)).any():
        # a number's line is the count of breaks before it: its event index
        # less its index among the numbers
        index = np.flatnonzero(this)
        line = index - np.arange(index.size)
        counts = np.bincount(line)
        wrong = int(np.flatnonzero((counts != 0) & (counts != 2))[0])
        first = int(at[index[np.searchsorted(line, wrong)]])
        raise ValueError(
            f"line {_line_number(text, first)}: {counts[wrong]} numbers, expected 2"
        )
    return bounds[0::2], bounds[1::2]


# -- edge statistics ---------------------------------------------------------


def edge_density(g: LabeledGraph) -> float:
    """Edges divided by n(n-1)/2."""
    if g.n < 2:
        raise ValueError("edge density needs n >= 2")
    return g.edge_count / (g.n * (g.n - 1) / 2)


def degree_cap(g, d: int):
    """Canonical projection onto the graphs of maximum degree at most d, of
    one LabeledGraph or of every graph in a bool adjacency stack [B, n, n].

    While some vertex exceeds d, take the offender with the highest current
    degree (ties to the lower index) and drop its incident edge whose other
    endpoint has the highest current degree (ties to the higher index).
    Deterministic.  Every graph of a stack still over the cap takes one
    such step per pass, so a stack costs as many passes as its graph with
    the most edges to drop, and is returned as a new array.  A LabeledGraph
    is capped as the one-graph stack, and returned itself when its maximum
    degree is already <= d.
    """
    d = int(d)
    if d < 0:
        raise ValueError("degree cap must be nonnegative")
    if isinstance(g, LabeledGraph):
        if g.max_degree <= d:
            return g
        return LabeledGraph._wrap(degree_cap(g.adjacency[None], d)[0])
    adj = np.array(g, dtype=bool)
    n = adj.shape[-1]
    degs = adj.sum(axis=2)
    over = np.flatnonzero(degs.max(axis=1, initial=0) > d)  # graphs still over the cap
    degs = degs[over]  # their degrees, row r of graph over[r]
    rows = np.arange(over.size)
    rows = np.concatenate((rows, rows))  # each row twice, for both ends of its edge
    while over.size:
        v = degs.argmax(axis=1)  # a highest degree, the first is the lowest index
        # among v's neighbours, the highest degree, then the highest index:
        # the first maximum with the vertices reversed
        u = (n - 1) - np.where(adj[over, v, ::-1], degs[:, ::-1], -1).argmax(axis=1)
        adj[over, v, u] = adj[over, u, v] = False
        np.subtract.at(degs, (rows, np.concatenate((v, u))), 1)
        still = degs.max(axis=1) > d
        if not still.all():
            over, degs = over[still], degs[still]
            rows = np.concatenate((rows[: over.size], rows[: over.size]))
    return adj


# -- node distance (rewiring metric) ----------------------------------------

# Most search nodes one node_distance call may explore, over every cover
# size it tries, before it refuses with a ResourceLimitError.
NODE_DISTANCE_BUDGET = 10**6


def node_distance(g1: LabeledGraph, g2: LabeledGraph) -> int:
    """Minimum number of vertices of g1 to rewire to obtain g2.

    Equals the exact minimum vertex cover of the symmetric-difference graph:
    the untouched vertices must induce identical edges, so every differing
    edge needs a rewired endpoint.  Cover sizes k = 0, 1, ... are tried in
    turn by the bounded search tree: a vertex v of largest degree joins the
    cover, or all its neighbours do, and a branch fails once k * deg(v) is
    below the number of edges left.
    """
    if g1.n != g2.n:
        raise ValueError(f"graphs have different orders ({g1.n} vs {g2.n})")
    nbrs: dict[int, int] = {}  # neighbour bitmask of every touched vertex
    # flat: a 2-d nonzero takes 40 times longer at n = 2,000
    for uv in np.flatnonzero(g1.adjacency ^ g2.adjacency).tolist():
        u, v = divmod(uv, g1.n)
        nbrs[u] = nbrs.get(u, 0) | 1 << v
    nodes = 0
    for k in count():
        stack = [(0, k)]  # (bitmask of the vertices taken, cover size left)
        while stack:
            taken, left = stack.pop()
            nodes += 1
            if nodes > NODE_DISTANCE_BUDGET:
                raise ResourceLimitError(
                    f"vertex-cover search exceeded budget of {NODE_DISTANCE_BUDGET} nodes"
                )
            degree = {u: (m & ~taken).bit_count() for u, m in nbrs.items() if not taken >> u & 1}
            edges = sum(degree.values()) // 2
            if not edges:
                return k
            v = max(degree, key=degree.__getitem__)
            if left * degree[v] < edges:
                continue
            if degree[v] <= left:  # popped second: every neighbour of v joins
                stack.append((taken | nbrs[v], left - degree[v]))
            stack.append((taken | 1 << v, left - 1))


# -- tiny-scale enumeration --------------------------------------------------


def graph_from_index(n: int, index: int) -> LabeledGraph:
    """Graph whose upper-triangle bits are the binary digits of ``index``.

    Bit t (least significant first) is the t-th slot of ``triangular_slots``.
    """
    nbits = n * (n - 1) // 2
    index = operator.index(index)  # numpy integers too
    if not 0 <= index < (1 << nbits):
        raise ValueError("index out of range")
    raw = np.frombuffer(index.to_bytes((nbits + 7) // 8, "little"), dtype=np.uint8)
    return LabeledGraph.from_slots(n, np.unpackbits(raw, count=nbits, bitorder="little"))


# Largest order whose graph indices fit an int64: C(11, 2) = 55 bits.
INT64_INDEX_MAX_N = 11


@lru_cache(maxsize=None)
def _slot_weights(n: int) -> np.ndarray:
    """Flat [n * n] int64 weights whose product with a flattened adjacency
    is its graph index: 2^t at slot t of the upper triangle, 0 elsewhere.
    Read-only."""
    weights = np.zeros((n, n), dtype=np.int64)
    weights[np.triu_indices(n, 1)] = 1 << np.arange(n * (n - 1) // 2)
    weights.flags.writeable = False
    return weights.ravel()


def graph_indices(adjacency: np.ndarray):
    """Graph index (``graph_from_index`` order) of an [n, n] bool adjacency,
    or of every one in a stack [..., n, n], as int64: one product of the
    slot bits with powers of two.  Refuses n > INT64_INDEX_MAX_N."""
    n = adjacency.shape[-1]
    if n > INT64_INDEX_MAX_N:
        raise ValueError(f"int64 graph indices limited to n <= {INT64_INDEX_MAX_N}, got {n}")
    return adjacency.reshape(adjacency.shape[:-2] + (n * n,)) @ _slot_weights(n)


def graph_index(g: LabeledGraph) -> int:
    """Index of g in ``graph_from_index`` order, its inverse: bit t is the
    t-th slot of ``triangular_slots``.  Exact at every order: above
    INT64_INDEX_MAX_N the slots are packed into bytes that int.from_bytes
    weighs, with no table of powers."""
    if g.n <= INT64_INDEX_MAX_N:
        return int(graph_indices(g.adjacency))
    bits = np.packbits(upper_slots(g.adjacency), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


def _check_enumeration(n: int) -> None:
    if n > MAX_ENUMERATION_N:
        raise ResourceLimitError(
            f"graph-space enumeration limited to n <= {MAX_ENUMERATION_N}, got {n}"
        )


def _index_adjacencies(n: int, ids: np.ndarray) -> np.ndarray:
    """Bool adjacency [len(ids), n, n] of the graphs with these indices."""
    return slot_adjacency(n, (ids[:, None] >> np.arange(n * (n - 1) // 2)) & 1)


def all_graphs(n: int) -> Iterator[LabeledGraph]:
    """All 2^(n(n-1)/2) labeled graphs, each exactly once, in index order,
    decoded 4,096 at a time (200 KiB of adjacency at n = 7).  Refuses n > 7."""
    _check_enumeration(n)
    size = graph_space_size(n)
    for lo in range(0, size, 1 << 12):
        ids = np.arange(lo, min(lo + (1 << 12), size))
        yield from map(LabeledGraph._wrap, _index_adjacencies(n, ids))


def all_adjacencies(n: int) -> np.ndarray:
    """Bool adjacency of every graph on n vertices, [2^C(n,2), n, n], in
    index order: the graphs of ``all_graphs(n)`` in one array."""
    _check_enumeration(n)
    return _index_adjacencies(n, np.arange(graph_space_size(n)))


@lru_cache(maxsize=None)
def cover_table(n: int) -> np.ndarray:
    """Minimum-vertex-cover size of every graph index on n vertices, read-only.

    Entry e is the node distance of any two graphs whose indices differ by
    e (``graph_from_index`` order), so the rewiring metric on all graphs of
    order n is one table lookup per pair.  Built in two steps: the edge mask
    each vertex subset covers, then a minimum over supersets, one pass per
    edge bit.
    """
    _check_enumeration(n)
    nbits = n * (n - 1) // 2
    vertex_masks = np.zeros(n, dtype=np.int64)
    for t, (u, v) in enumerate(triangular_slots(n)):
        vertex_masks[u] |= 1 << t
        vertex_masks[v] |= 1 << t
    subsets = np.arange(1 << n)
    members = (subsets[:, None] >> np.arange(n)) & 1
    covered = np.bitwise_or.reduce(members * vertex_masks, axis=1)
    table = np.full(1 << nbits, n, dtype=np.int8)
    np.minimum.at(table, covered, members.sum(axis=1).astype(np.int8))
    # after the pass for bit t, table[e] is the minimum over the supersets
    # of e that differ from it in bits 0..t only
    for t in range(nbits):
        view = table.reshape(-1, 2, 1 << t)
        np.minimum(view[:, 0], view[:, 1], out=view[:, 0])
    table.flags.writeable = False
    return table


# Largest order rewiring_pairs lists: 32,768 graphs x 171 rewirings, 5.6 M
# pairs, at n = 6; n = 7 would give 880 M.
REWIRING_PAIRS_MAX_N = 6


def rewiring_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered index pairs (i, j) of the graphs of order n one rewiring
    apart, sorted row-major: j = i ^ f over the edge masks f that one vertex
    covers (cover size 1).  Node distance is the shortest-path metric of
    these pairs, so a bound eps on each of them implies eps * d on every
    pair of graphs."""
    if n > REWIRING_PAIRS_MAX_N:
        raise ResourceLimitError(
            f"rewiring pairs limited to n <= {REWIRING_PAIRS_MAX_N}, got {n}"
        )
    flips = np.flatnonzero(cover_table(n) == 1)
    ids = np.arange(graph_space_size(n))
    second = np.sort(ids[:, None] ^ flips, axis=1)
    return np.repeat(ids, flips.size), second.ravel()


def _check_groups(n: int, groups) -> tuple[np.ndarray, np.ndarray]:
    """groups as an array, and each group's member count [G], once groups
    gives every graph index of order n <= REWIRING_PAIRS_MAX_N a group in
    0..G-1, G <= 64, or -1, and every group has a member."""
    if n > REWIRING_PAIRS_MAX_N:
        raise ResourceLimitError(
            f"group distances limited to n <= {REWIRING_PAIRS_MAX_N}, got {n}"
        )
    groups = np.asarray(groups)
    size = graph_space_size(n)
    if groups.shape != (size,):
        raise ValueError(f"need one group per graph index, {size} at n = {n}")
    sizes = np.bincount(groups[groups >= 0])
    if sizes.size > 64 or (sizes == 0).any():
        raise ValueError("groups must be 0..G-1 for G <= 64, each with a member")
    return groups, sizes


def group_distances(n: int, groups) -> np.ndarray:
    """Node distance from each graph of order n to the nearest member of
    each group, [2^C(n,2), G] int8.  groups[x] is the group of graph index
    x, one of 0..G-1, or -1 for a graph in none; each group needs a member.

    A multi-source BFS over single-vertex rewirings, one source set per
    group: the groups a graph has reached are the bits of one unsigned
    integer, and each level ORs in its rewiring neighbours' bits in one
    gather over the ``rewiring_pairs`` masks.  Node distance is the
    shortest-path metric of rewirings, so entry [x, j] is the minimum of
    ``cover_table(n)[x ^ m]`` over the members m of group j.  The gather is
    [graphs, rewirings], like ``rewiring_pairs``, so n <= 6."""
    groups, sizes = _check_groups(n, groups)
    size = groups.size
    inside = groups >= 0
    bits = np.min_scalar_type((1 << sizes.size) - 1)
    reached = np.zeros(size, dtype=bits)
    reached[inside] = np.left_shift(1, groups[inside]).astype(bits)
    shifts = np.arange(sizes.size, dtype=bits)
    neighbours = np.arange(size)[:, None] ^ np.flatnonzero(cover_table(n) == 1)
    distances = np.zeros((size, sizes.size), dtype=np.int8)
    while True:
        # each level adds one to every (graph, group) not reached yet
        missing = ((~reached[:, None] >> shifts) & 1).astype(bool)
        if not missing.any():
            return distances
        distances += missing
        reached |= np.bitwise_or.reduce(reached[neighbours], axis=1)


def group_distance_row(n: int, groups, index: int) -> np.ndarray:
    """Row ``index`` of ``group_distances(n, groups)``, [G] int8, from that
    graph alone: the minimum of ``cover_table(n)[index ^ m]`` over the
    members m of each group, one lookup per member."""
    groups, sizes = _check_groups(n, groups)
    if not 0 <= index < groups.size:
        raise ValueError(f"graph index {index} out of range at n = {n}")
    members = np.flatnonzero(groups >= 0)
    row = np.full(sizes.size, n, dtype=np.int8)  # no distance exceeds n
    np.minimum.at(row, groups[members], cover_table(n)[index ^ members])
    return row


def adjacent_graphs(g: LabeledGraph) -> Iterator[LabeledGraph]:
    """Exactly the set of graphs at node distance <= 1 from g (including g):
    index(g) ^ f over the edge masks f of cover size at most 1, the
    neighbour relation of ``rewiring_pairs``.  Refuses n > 7, as
    ``cover_table`` does."""
    flips = np.flatnonzero(cover_table(g.n) <= 1)
    yield from map(LabeledGraph._wrap, _index_adjacencies(g.n, graph_index(g) ^ flips))


def graph_space_size(n: int) -> int:
    return 1 << (n * (n - 1) // 2)
