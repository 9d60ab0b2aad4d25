"""Labeled simple graphs and the vertex-rewiring metric.

Graphs are undirected, loop-free, on vertex set {0, ..., n-1}.  The distance
between two graphs of equal order is the minimum number of vertices whose
incident edge sets must be replaced to turn one into the other; it equals the
size of a minimum vertex cover of their symmetric-difference graph.

Two exact routes compute it.  ``node_distance`` runs branch and bound on one
pair of graphs of any order.  The enumerated spaces (n <= MAX_ENUMERATION_N)
read it from ``cover_table(n)``: graph indices are edge bitmasks, the
difference of two graphs is the XOR of their indices, so
d(G, H) = cover_table(n)[index(G) ^ index(H)] for every pair at once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError

MAX_ENUMERATION_N = 7


def triangular_slots(n: int) -> list[tuple[int, int]]:
    """Upper-triangle vertex pairs in row-major order: (0,1), (0,2), ..."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


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
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u, v] = adj[v, u] = True
        return cls(adj)

    @classmethod
    def empty(cls, n: int) -> "LabeledGraph":
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def complete(cls, n: int) -> "LabeledGraph":
        adj = np.ones((n, n), dtype=bool)
        np.fill_diagonal(adj, False)
        return cls(adj)

    # -- basic queries -----------------------------------------------------

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix."""
        return self._adj

    @property
    def edge_count(self) -> int:
        return int(self._adj.sum()) // 2

    @property
    def degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1).astype(int)

    @property
    def max_degree(self) -> int:
        return 0 if self.n == 0 else int(self._adj.sum(axis=1).max())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u, v])

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self._adj[v])

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self._adj, 1))
        return list(zip(us.tolist(), vs.tolist()))

    @property
    def key(self) -> bytes:
        """Canonical hashable key: packed upper-triangle bits."""
        if self._key is None:
            iu = np.triu_indices(self.n, 1)
            self._key = np.packbits(self._adj[iu]).tobytes()
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
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "LabeledGraph":
        rows = [ln for ln in text.splitlines() if ln.strip()]
        if not rows:
            raise ValueError("empty graph text")
        n, m = (int(x) for x in rows[0].split())
        if len(rows) - 1 != m:
            raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
        g = cls.from_edges(n, [tuple(int(x) for x in ln.split()) for ln in rows[1:]])
        if g.edge_count != m:  # a repeated edge, in either orientation, collapses
            raise ValueError(f"duplicate edges: {m} lines give {g.edge_count} edges")
        return g

    def to_hex(self) -> str:
        """Upper-triangle bits (row-major) packed big-endian, as hex."""
        return self.key.hex()

    @classmethod
    def from_hex(cls, n: int, text: str) -> "LabeledGraph":
        nbits = n * (n - 1) // 2
        raw = bytes.fromhex(text.strip())
        if len(raw) != (nbits + 7) // 8:
            raise ValueError(f"expected {(nbits + 7) // 8} bytes for n={n}")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:nbits]
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        adj[iu] = bits.astype(bool)
        return cls(adj | adj.T)


# -- edge statistics ---------------------------------------------------------


def edge_density(g: LabeledGraph) -> float:
    """Edges divided by n(n-1)/2."""
    if g.n < 2:
        raise ValueError("edge density needs n >= 2")
    return g.edge_count / (g.n * (g.n - 1) / 2)


def boundary_edge_count(g: LabeledGraph, members: Iterable[int]) -> int:
    """Number of edges with at least one endpoint in the given vertex set."""
    s = frozenset(int(v) for v in members)
    if not s:
        raise ValueError("vertex set must be nonempty")
    if not all(0 <= v < g.n for v in s):
        raise ValueError("vertex set out of range")
    mask = np.zeros(g.n, dtype=bool)
    mask[list(s)] = True
    outside = ~mask
    inside_complement = int(g.adjacency[np.ix_(outside, outside)].sum()) // 2
    return g.edge_count - inside_complement


def degree_cap(g: LabeledGraph, d: int) -> LabeledGraph:
    """Canonical projection onto the graphs of maximum degree at most d.

    While some vertex exceeds d, take the offender with the highest current
    degree (ties to the lower index) and drop its incident edge whose other
    endpoint has the highest current degree (ties to the higher index).
    Deterministic, and the identity whenever max degree is already <= d.
    """
    d = int(d)
    if d < 0:
        raise ValueError("degree cap must be nonnegative")
    if g.max_degree <= d:
        return g
    adj = g.adjacency.copy()
    degs = adj.sum(axis=1).astype(int)
    while True:
        over = np.flatnonzero(degs > d)
        if over.size == 0:
            break
        v = min(over.tolist(), key=lambda u: (-degs[u], u))
        nbrs = np.flatnonzero(adj[v]).tolist()
        u = max(nbrs, key=lambda w: (degs[w], w))
        adj[v, u] = adj[u, v] = False
        degs[v] -= 1
        degs[u] -= 1
    return LabeledGraph(adj)


# -- node distance (rewiring metric) ----------------------------------------


def _greedy_cover_bound(adj: dict[int, set[int]]) -> int:
    """Size of a greedy max-degree cover; cheap upper bound."""
    work = {v: set(nb) for v, nb in adj.items() if nb}
    size = 0
    while work:
        v = min(work, key=lambda u: (-len(work[u]), u))
        size += 1
        for u in work[v]:
            work[u].discard(v)
        del work[v]
        work = {u: nb for u, nb in work.items() if nb}
    return size


def _matching_lower_bound(adj: dict[int, set[int]]) -> int:
    """Size of a greedy maximal matching; every cover hits each matched edge."""
    used: set[int] = set()
    count = 0
    for v in sorted(adj):
        if v in used:
            continue
        for u in sorted(adj[v]):
            if u not in used and u != v:
                used.add(v)
                used.add(u)
                count += 1
                break
    return count


def _min_vertex_cover_size(adj: dict[int, set[int]], budget: int) -> int:
    """Exact minimum vertex cover by branch and bound with degree-0/1 kernels."""
    nodes = 0
    best = _greedy_cover_bound(adj)

    def explore(work: dict[int, set[int]], acc: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(
                f"vertex-cover search exceeded budget of {budget} nodes"
            )
        # kernelize: drop isolated vertices, resolve degree-1 vertices
        while True:
            isolated = [v for v, nb in work.items() if not nb]
            for v in isolated:
                del work[v]
            leaf = next((v for v in sorted(work) if len(work[v]) == 1), None)
            if leaf is None:
                break
            u = next(iter(work[leaf]))
            acc += 1
            for w in work[u]:
                work[w].discard(u)
            del work[u]
        if not work:
            best = min(best, acc)
            return
        if acc + _matching_lower_bound(work) >= best:
            return
        v = min(work, key=lambda u: (-len(work[u]), u))
        # branch 1: v joins the cover
        sub = {x: set(nb) for x, nb in work.items() if x != v}
        for u in work[v]:
            sub[u].discard(v)
        explore(sub, acc + 1)
        # branch 2: every neighbor of v joins the cover
        taken = set(work[v])
        sub = {x: set(nb - taken) for x, nb in work.items() if x not in taken and x != v}
        explore(sub, acc + len(taken))

    explore({v: set(nb) for v, nb in adj.items()}, 0)
    return best


def node_distance(g1: LabeledGraph, g2: LabeledGraph, budget: int = 10**6) -> int:
    """Minimum number of vertices of g1 to rewire to obtain g2.

    Equals the exact minimum vertex cover of the symmetric-difference graph:
    the untouched vertices must induce identical edges, so every differing
    edge needs a rewired endpoint.
    """
    if g1.n != g2.n:
        raise ValueError(f"graphs have different orders ({g1.n} vs {g2.n})")
    diff = g1.adjacency ^ g2.adjacency
    if not diff.any():
        return 0
    adj: dict[int, set[int]] = {}
    us, vs = np.nonzero(np.triu(diff, 1))
    for u, v in zip(us.tolist(), vs.tolist()):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return _min_vertex_cover_size(adj, budget)


# -- tiny-scale enumeration --------------------------------------------------


def graph_from_index(n: int, index: int) -> LabeledGraph:
    """Graph whose upper-triangle bits are the binary digits of ``index``.

    Bit t (least significant first) is the t-th slot of ``triangular_slots``.
    """
    nbits = n * (n - 1) // 2
    if not 0 <= index < (1 << nbits):
        raise ValueError("index out of range")
    adj = np.zeros((n, n), dtype=bool)
    for t, (u, v) in enumerate(triangular_slots(n)):
        if (index >> t) & 1:
            adj[u, v] = adj[v, u] = True
    return LabeledGraph(adj)


def all_graphs(n: int) -> Iterator[LabeledGraph]:
    """All 2^(n(n-1)/2) labeled graphs, each exactly once. Refuses n > 7."""
    if n > MAX_ENUMERATION_N:
        raise ResourceLimitError(
            f"graph-space enumeration limited to n <= {MAX_ENUMERATION_N}, got {n}"
        )
    for index in range(1 << (n * (n - 1) // 2)):
        yield graph_from_index(n, index)


@lru_cache(maxsize=None)
def cover_table(n: int) -> np.ndarray:
    """Minimum-vertex-cover size of every graph index on n vertices, read-only.

    Entry e is the node distance of any two graphs whose indices differ by
    e (``graph_from_index`` order), so the rewiring metric on all graphs of
    order n is one table lookup per pair.  Built in two steps: the edge mask
    each vertex subset covers, then a minimum over supersets, one pass per
    edge bit.
    """
    if n > MAX_ENUMERATION_N:
        raise ResourceLimitError(
            f"cover table limited to n <= {MAX_ENUMERATION_N}, got {n}"
        )
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


def adjacent_graphs(g: LabeledGraph) -> Iterator[LabeledGraph]:
    """Exactly the set of graphs at node distance <= 1 from g (including g)."""
    if g.n > MAX_ENUMERATION_N:
        raise ResourceLimitError(
            f"rewiring enumeration limited to n <= {MAX_ENUMERATION_N}, got {g.n}"
        )
    seen: set[bytes] = set()
    for v in range(g.n):
        others = [u for u in range(g.n) if u != v]
        for mask in range(1 << len(others)):
            nbhd = [others[i] for i in range(len(others)) if (mask >> i) & 1]
            h = g.rewire(v, nbhd)
            if h.key not in seen:
                seen.add(h.key)
                yield h


def graph_space_size(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def binom2(n: int) -> int:
    return math.comb(n, 2)
