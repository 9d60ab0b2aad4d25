import hashlib
import tracemalloc

import numpy as np
import pytest

from nodedp.errors import ResourceLimitError
from nodedp.graphons import sample_gnm_rewired_coupled
from nodedp.graphs import (
    LabeledGraph,
    _edge_list_rows,
    adjacent_graphs,
    all_adjacencies,
    all_graphs,
    cover_table,
    degree_cap,
    edge_density,
    graph_from_index,
    graph_index,
    node_distance,
    rewiring_pairs,
    triangular_slots,
)
from nodedp.rng import substream

# -- independent oracle: BFS over single-vertex rewirings, graphs as bitmask ints


def slot_masks(n):
    """For each vertex v, the bitmask of triangle slots touching v."""
    masks = [0] * n
    for t, (u, v) in enumerate(triangular_slots(n)):
        masks[u] |= 1 << t
        masks[v] |= 1 << t
    return masks


def rewiring_neighbors(n):
    """Adjacency lists of the rewiring graph over all 2^C(n,2) graphs."""
    vmasks = slot_masks(n)
    total = 1 << (n * (n - 1) // 2)
    neighbors = [set() for _ in range(total)]
    for g in range(total):
        for vm in vmasks:
            base = g & ~vm
            sub = vm
            # iterate all subsets of vm, including empty
            while True:
                h = base | sub
                if h != g:
                    neighbors[g].add(h)
                if sub == 0:
                    break
                sub = (sub - 1) & vm
    return neighbors


def bfs_distance(neighbors, source, target):
    if source == target:
        return 0
    seen = {source}
    frontier = [source]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for g in frontier:
            for h in neighbors[g]:
                if h == target:
                    return dist
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    raise AssertionError("rewiring graph is connected; unreachable")


# -- construction and wire formats ------------------------------------------------


def test_constructor_rejects_self_loops_and_asymmetry():
    with pytest.raises(ValueError):
        LabeledGraph(np.eye(3, dtype=bool))
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True
    with pytest.raises(ValueError):
        LabeledGraph(bad)


def test_edge_list_round_trip():
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
    assert LabeledGraph.from_edge_list_text(g.to_edge_list_text()) == g


@pytest.mark.parametrize(
    "text",
    [
        "4 2\n0 1\n1 2\n2 3\n0 3\n",  # lines beyond the declared edge count
        "4 3\n0 1\n1 0\n0 1\n",  # one edge three times, in both orientations
        "4 2\n0 1\n",  # fewer lines than declared
    ],
)
def test_edge_list_rejects_a_count_that_disagrees_with_the_edges(text):
    with pytest.raises(ValueError):
        LabeledGraph.from_edge_list_text(text)


# -- differential oracle: the per-line parser and writer the numpy ones replaced


def per_line_parse(text):
    """One Python tuple per line; builds the adjacency edge by edge."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ValueError("empty graph text")
    n, m = (int(x) for x in rows[0].split())
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    adj = np.zeros((n, n), dtype=bool)
    for ln in rows[1:]:
        u, v = (int(x) for x in ln.split())
        if u == v:
            raise ValueError(f"self-loop ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u, v] = adj[v, u] = True
    g = LabeledGraph(adj)
    if g.edge_count != m:
        raise ValueError(f"duplicate edges: {m} lines give {g.edge_count} edges")
    return g


def per_line_text(g):
    us, vs = np.nonzero(np.triu(g.adjacency, 1))
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist()))
    return "\n".join(lines) + "\n"


VALID_EDGE_LISTS = [
    "4 2\n0 1\n2 3\n",
    "4 2\n\n0 1\n\n\n2 3\n\n",  # blank lines
    "4 2\r\n0 1\r\n2 3\r\n",  # CRLF
    "4 2\r0 1\r2 3\r",  # CR alone
    "4\t2\n0\t1\n  2 \t 3  \n",  # tabs and runs of blanks
    "  \n \t\n4 2\n0 1\n2 3\n",  # blank-only lines before the header
    "04 002\n000 1\n2 03\n",  # leading zeros
    "4 2\n0 1\n2 3",  # no trailing newline
    "5 0",
    "5 0\n",
    "0 0\n",
    "1 0\n",
    "12 3\n11 10\n0 11\n10 9\n",  # multi-digit, unsorted, either orientation
]

INVALID_EDGE_LISTS = [
    "4 2\n0 1 2\n3\n",  # 3 + 1 tokens: the total count is still even
    "4 2\n0 1 2\n2 3\n",  # a 3-token line
    "4 2\n0\n2 3\n",  # a 1-token line
    "4\n0 1\n",  # a 1-token header
    "4 1 0\n0 1\n",  # a 3-token header
    "4 1\n-1 2\n",
    "4 1\n0 x\n",
    "4 1\n0 1x\n",
    "4 1\n0 1.0\n",
    "4 1\n0 é\n",  # non-ASCII
    "4 1\n2 2\n",  # self-loop
    "4 1\n0 4\n",  # out of range
    "4 1\n7 1\n",
    "3 1\n0 " + "9" * 20 + "\n",  # beyond int64
    "4 2\n0 1\n0 1\n",  # duplicate
    "4 2\n0 1\n1 0\n",  # duplicate, reversed
    "4 2\n0 1\n",  # too few lines
    "4 1\n0 1\n2 3\n",  # too many lines
    "4 0\n0 1\n",
    "",
    "\n\n",
    " \t\r\n",
]

# Texts the per-line parser accepted and the numpy parser refuses: int()
# takes a sign, underscores, non-ASCII digits and any number of leading
# zeros, str.split more blanks and str.splitlines more line breaks.
TIGHTENED_EDGE_LISTS = [
    "4 1\n+0 1\n",
    "12 1\n0 1_0\n",
    "4 1\n0 \u0663\n",  # ARABIC-INDIC DIGIT THREE
    "4 1\n0\u00a01\n",  # NO-BREAK SPACE
    "4 1\x0c0 1\n",  # form feed as a line break
    "4 1\x0b0 1\n",  # vertical tab as a line break
    "4 1\u20280 1\n",  # LINE SEPARATOR
    "5 1\n" + "0" * 30 + "1 4\n",  # more digits than an int64 holds, all but one zeros
]


@pytest.mark.parametrize("text", VALID_EDGE_LISTS + INVALID_EDGE_LISTS)
def test_parser_matches_per_line_oracle(text):
    """The same graph, or a ValueError on both sides."""
    try:
        want = per_line_parse(text)
    except ValueError:
        with pytest.raises(ValueError):
            LabeledGraph.from_edge_list_text(text)
    else:
        assert LabeledGraph.from_edge_list_text(text) == want


def test_corpus_is_split_as_labelled():
    for text in VALID_EDGE_LISTS:
        per_line_parse(text)
    for text in INVALID_EDGE_LISTS:
        with pytest.raises(ValueError):
            per_line_parse(text)


@pytest.mark.parametrize("text", TIGHTENED_EDGE_LISTS)
def test_parser_refuses_what_int_and_split_used_to_accept(text):
    per_line_parse(text)
    with pytest.raises(ValueError):
        LabeledGraph.from_edge_list_text(text)


def test_edge_list_round_trip_matches_per_line_writer_on_all_n4_graphs():
    for g in all_graphs(4):
        text = g.to_edge_list_text()
        assert text == per_line_text(g)
        assert LabeledGraph.from_edge_list_text(text) == g == per_line_parse(text)


# n = 600 has 3-digit vertices with every leading digit
@pytest.mark.parametrize("n, p", [(64, 0.3), (600, 0.02)])
def test_edge_list_round_trip_matches_per_line_writer_on_seeded_graphs(n, p):
    rng = substream(5, "edge-list-round-trip", n)
    upper = np.triu(rng.random((n, n)) < p, 1)
    g = LabeledGraph(upper | upper.T)
    text = g.to_edge_list_text()
    assert text == per_line_text(g)
    assert LabeledGraph.from_edge_list_text(text) == g == per_line_parse(text)


def test_edge_list_numbers_of_every_width_parse_exactly():
    numbers = [int("987654321098765432"[:w]) for w in range(1, 19)]
    numbers += [255, 256, 512, 999, 1000, 4096, 16383, 65535, 65536, 10**18 - 1]
    text = "\n".join(f"{a}\t{b}" for a, b in zip(numbers[::2], numbers[1::2]))
    assert _edge_list_rows(text).ravel().tolist() == numbers
    with pytest.raises(ValueError, match="line 2: a number with more than 18 digits"):
        _edge_list_rows("1 1\n0 " + "0" * 19 + "\n")


# -- differential oracle: the first numpy parser, a running count of line
# breaks over every byte and one masked Horner step per digit position of the
# widest number, header included


def first_numpy_line_number(text, offset):
    head = text[:offset]
    return head.count("\n") + head.count("\r") - head.count("\r\n") + 1


def first_numpy_rows(text):
    raw = np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)
    digits = raw - np.uint8(ord("0"))
    padded = np.zeros(raw.size + 2, dtype=bool)
    digit = padded[1:-1]
    np.less(digits, 10, out=digit)
    breaks = (raw == ord("\n")) | (raw == ord("\r"))
    bad = np.flatnonzero(~(digit | breaks | (raw == ord(" ")) | (raw == ord("\t"))))
    if bad.size:
        at = int(bad[0])
        raise ValueError(
            f"line {first_numpy_line_number(text, at)}: unexpected character {text[at]!r};"
            " edge lists hold ASCII digits, spaces, tabs, CR and LF only"
        )
    bounds = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    if starts.size == 0:
        raise ValueError("empty graph text")
    line = np.cumsum(breaks, dtype=np.int64)[starts]
    counts = np.bincount(line)
    wrong = np.flatnonzero((counts != 0) & (counts != 2))
    if wrong.size:
        first = int(starts[np.searchsorted(line, wrong[0])])
        raise ValueError(
            f"line {first_numpy_line_number(text, first)}: {counts[wrong[0]]} numbers,"
            " expected 2"
        )
    lengths = ends - starts
    longest = int(lengths.max())
    if longest > 18:
        at = int(starts[np.argmax(lengths > 18)])
        raise ValueError(
            f"line {first_numpy_line_number(text, at)}: a number with more than 18 digits"
        )
    values = digits[ends - 1].astype(np.int64)
    for k in range(2, longest + 1):
        scaled = np.multiply(digits[ends - k], 10 ** (k - 1), dtype=np.int64)
        np.add(values, scaled, out=values, where=lengths >= k)
    return values.reshape(-1, 2)


def release_shaped_text():
    """The n = 512 edge list of the release benchmark at seed 1: half of
    the vertex pairs, 65,408 edges, 495,043 bytes."""
    n = 512
    slots = n * (n - 1) // 2
    bits = np.zeros(slots, dtype=bool)
    bits[np.random.default_rng(1).choice(slots, size=slots // 2, replace=False)] = True
    return LabeledGraph.from_slots(n, bits).to_edge_list_text()


def short_edge_list_texts(count, seed):
    """Texts of up to 15 pieces over digits, blanks, line breaks and 'x':
    most break a rule, many break several, so the order of the checks shows."""
    pieces = ["0", "1", "7", "10", "42", "999", "0" * 18, "9" * 19,
              " ", "\t", "\n", "\r", "\r\n", "x"]
    weights = np.array([6, 6, 4, 4, 3, 2, 0.3, 0.3, 8, 2, 5, 1.5, 1.5, 0.3])
    rng = substream(seed, "edge-list-corpus")
    for size in rng.integers(0, 16, size=count).tolist():
        chosen = rng.choice(len(pieces), size=size, p=weights / weights.sum())
        yield "".join(pieces[i] for i in chosen.tolist())


def rows_or_message(parse, text):
    try:
        rows = parse(text)
    except ValueError as err:
        return "error", str(err)
    return "rows", rows.dtype.str, rows.shape, rows.tobytes()


def test_parser_matches_the_first_numpy_parser_row_for_row_and_message_for_message():
    texts = list(short_edge_list_texts(20_000, 18))
    texts += VALID_EDGE_LISTS + INVALID_EDGE_LISTS + TIGHTENED_EDGE_LISTS
    texts.append(release_shaped_text())
    outcomes = []
    for text in texts:
        want = rows_or_message(first_numpy_rows, text)
        assert rows_or_message(_edge_list_rows, text) == want, repr(text)
        outcomes.append(want[1] if want[0] == "error" else "rows")
    # every outcome is well represented, so no check goes unexercised
    for part in ["rows", "empty graph text", "unexpected character 'x'",
                 ": 1 numbers", ": 3 numbers", "more than 18 digits"]:
        assert sum(part in outcome for outcome in outcomes) >= 100, part


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_edge_list_errors_name_the_line_under_every_line_break(brk):
    with pytest.raises(ValueError, match="line 3: unexpected character 'x'"):
        LabeledGraph.from_edge_list_text(brk.join(["4 2", "0 1", "2 x", ""]))
    with pytest.raises(ValueError, match="line 4: 3 numbers"):
        LabeledGraph.from_edge_list_text(brk.join(["4 2", "0 1", "", "2 3 1", ""]))


def test_building_from_an_edge_list_peaks_at_one_adjacency():
    n = 2048
    tracemalloc.start()
    try:
        g = LabeledGraph.from_edge_list_text(f"{n} 1\n0 {n - 1}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 1
    assert peak < 1.1 * n * n, peak


def test_parsing_a_release_shaped_edge_list_peaks_below_16_bytes_a_text_byte():
    # the first numpy parser peaked at 11.44 MiB here, 24.2 bytes a text byte
    text = release_shaped_text()
    assert len(text) == 495_043
    tracemalloc.start()
    try:
        g = LabeledGraph.from_edge_list_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 65_408
    assert peak < 16 * len(text), peak


@pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 101])
def test_writer_matches_per_line_writer_at_digit_boundaries(n):
    assert LabeledGraph.complete(n).to_edge_list_text() == per_line_text(LabeledGraph.complete(n))
    assert LabeledGraph.empty(n).to_edge_list_text() == f"{n} 0\n"


def test_edge_list_header_order_is_capped_before_allocating(monkeypatch):
    with pytest.raises(ResourceLimitError, match="n = 60000"):
        LabeledGraph.from_edge_list_text("60000 0\n")
    monkeypatch.setattr("nodedp.graphs.EDGE_LIST_MAX_N", 8)
    assert LabeledGraph.from_edge_list_text("8 1\n0 7\n").n == 8
    with pytest.raises(ResourceLimitError, match="n <= 8, got n = 9"):
        LabeledGraph.from_edge_list_text("9 1\n0 1\n")
    with pytest.raises(ResourceLimitError):
        LabeledGraph.from_edges(9, [])


def test_from_edges_takes_pairs_or_an_index_array():
    want = LabeledGraph.from_edges(5, [(0, 1), (4, 2)])
    assert LabeledGraph.from_edges(5, np.array([[0, 1], [4, 2]])) == want
    assert want.edges().tolist() == [[0, 1], [2, 4]]
    assert LabeledGraph.from_edges(5, []) == LabeledGraph.empty(5)
    assert LabeledGraph.empty(5).edges().shape == (0, 2)
    for bad in ([(0, 1, 2)], [0, 1], [(1, 1)], [(0, 5)], [(-1, 2)]):
        with pytest.raises(ValueError):
            LabeledGraph.from_edges(5, bad)


def test_hex_round_trip_all_n4():
    for g in all_graphs(4):
        assert LabeledGraph.from_hex(4, g.to_hex()) == g


def test_graph_index_inverts_graph_from_index_at_every_index():
    for n in range(2, 6):
        stack = all_adjacencies(n)
        for i in range(1 << (n * (n - 1) // 2)):
            g = graph_from_index(n, i)
            assert graph_index(g) == i
            assert np.array_equal(stack[i], g.adjacency)
    g = LabeledGraph.from_edges(40, [(0, 39), (38, 39)])  # past 64 index bits
    assert graph_from_index(40, graph_index(g)) == g
    assert graph_index(graph_from_index(5, np.int64(700))) == 700


def test_graph_from_index_bijection():
    seen = {g.key for g in all_graphs(3)}
    assert len(seen) == 8


def test_all_graphs_yields_index_order():
    for n in range(1, 6):
        got = [graph_index(g) for g in all_graphs(n)]
        assert got == list(range(1 << (n * (n - 1) // 2)))


def test_enumeration_bytes_are_pinned():
    """SHA-256 over the keys of all_graphs(n) and the all_adjacencies(n)
    stack for n = 1..5, recorded before both moved to one slot decoder."""
    digest = hashlib.sha256()
    for n in range(1, 6):
        for g in all_graphs(n):
            digest.update(g.key)
        digest.update(all_adjacencies(n).tobytes())
    assert digest.hexdigest() == (
        "480a1e41d292789b44f0ea74fa75be78018bf246e36b2a2ac6a5740bcca5eb30"
    )


def test_all_graphs_decodes_in_bounded_chunks():
    graphs = all_graphs(7)  # 2,097,152 graphs, 98 MiB as one adjacency stack
    tracemalloc.start()
    try:
        first = [next(graphs) for _ in range(10_000)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert [graph_index(g) for g in first] == list(range(10_000))


def test_from_hex_refuses_padding_bits():
    assert LabeledGraph.from_hex(3, "e0") == LabeledGraph.complete(3)
    assert LabeledGraph.complete(3).to_hex() == "e0"
    for text in ("ff", "e1", "10"):
        with pytest.raises(ValueError, match="padding"):
            LabeledGraph.from_hex(3, text)


# -- edge density ------------------------------------------------------------------


def test_edge_density_examples():
    assert edge_density(LabeledGraph.complete(4)) == 1.0
    assert edge_density(LabeledGraph.empty(5)) == 0.0
    cycle = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert edge_density(cycle) == pytest.approx(2.0 / 3.0)


def test_edge_density_rejects_small_n():
    with pytest.raises(ValueError):
        edge_density(LabeledGraph.empty(1))


# -- node distance ------------------------------------------------------------------


def test_node_distance_zero_on_equal_graphs():
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 3)])
    assert node_distance(g, g) == 0


def test_node_distance_empty_vs_complete():
    for n in range(3, 8):
        d = node_distance(LabeledGraph.empty(n), LabeledGraph.complete(n))
        assert d == n - 1


def test_node_distance_single_edge_difference_is_one():
    g1 = LabeledGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    g2 = LabeledGraph.from_edges(6, [(0, 1), (2, 3), (4, 5), (1, 4)])
    assert node_distance(g1, g2) == 1


def test_node_distance_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        node_distance(LabeledGraph.empty(3), LabeledGraph.empty(4))


def test_node_distance_budget_exhaustion(monkeypatch):
    g1 = LabeledGraph.empty(7)
    g2 = LabeledGraph.complete(7)
    monkeypatch.setattr("nodedp.graphs.NODE_DISTANCE_BUDGET", 2)
    with pytest.raises(ResourceLimitError, match="budget of 2 nodes"):
        node_distance(g1, g2)


def test_node_distance_matches_bfs_on_sampled_n4_pairs():
    # full-pair equivalence is acceptance criterion 1; spot-check here
    neighbors = rewiring_neighbors(4)
    rng = substream(11, "graphs-bfs-spot")
    for _ in range(60):
        i, j = rng.integers(0, 64, size=2)
        d_lib = node_distance(graph_from_index(4, int(i)), graph_from_index(4, int(j)))
        assert d_lib == bfs_distance(neighbors, int(i), int(j))


def test_node_distance_matches_cover_table_on_every_n5_graph():
    empty = LabeledGraph.empty(5)
    table = cover_table(5)
    for e in range(1 << 10):
        assert node_distance(graph_from_index(5, e), empty) == table[e]


def test_node_distance_of_a_large_coupled_pair_is_one():
    stage1, final = sample_gnm_rewired_coupled(2000, 20000, 30, substream(3, "nd-large"))
    assert stage1 != final
    assert node_distance(stage1, final) == 1


def test_node_distance_is_a_metric_at_n4():
    graphs = [graph_from_index(4, i) for i in range(64)]
    dist = np.zeros((64, 64), dtype=int)
    for i in range(64):
        for j in range(i + 1, 64):
            dist[i, j] = dist[j, i] = node_distance(graphs[i], graphs[j])
    assert (dist.diagonal() == 0).all()
    assert (dist[~np.eye(64, dtype=bool)] > 0).all()  # identity of indiscernibles
    d = dist.astype(float)
    # triangle inequality over all ordered triples at once
    assert (d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-9).all()


# -- rewiring ------------------------------------------------------------------------


def test_rewire_builds_star():
    star = LabeledGraph.empty(3).rewire(0, {1, 2})
    assert star == LabeledGraph.from_edges(3, [(0, 1), (0, 2)])


def test_rewire_identity_on_current_neighborhood():
    g = LabeledGraph.from_edges(5, [(0, 1), (0, 3), (2, 4)])
    assert g.rewire(0, g.neighbors(0)) == g


def test_rewire_detach_vertex_distance_one():
    k4 = LabeledGraph.complete(4)
    detached = k4.rewire(0, [])
    assert detached.degrees[0] == 0
    assert node_distance(k4, detached) == 1


def test_rewire_rejects_self_loop():
    with pytest.raises(ValueError):
        LabeledGraph.empty(3).rewire(0, {0, 1})


# -- adjacency enumeration ------------------------------------------------------------


def test_adjacent_graphs_n3_matches_distance_filter():
    g = LabeledGraph.from_edges(3, [(0, 1)])
    got = {h.key for h in adjacent_graphs(g)}
    want = {h.key for h in all_graphs(3) if node_distance(g, h) <= 1}
    assert got == want
    assert len(got) == 7


def test_adjacent_graphs_matches_distance_filter_for_every_n4_graph():
    graphs = list(all_graphs(4))
    for g in graphs:
        got = [h.key for h in adjacent_graphs(g)]
        assert len(got) == len(set(got))
        assert set(got) == {h.key for h in graphs if node_distance(g, h) <= 1}


def test_adjacent_graphs_n2():
    got = {h.key for h in adjacent_graphs(LabeledGraph.empty(2))}
    assert got == {h.key for h in all_graphs(2)}


def test_adjacent_graphs_all_within_distance_one():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for h in adjacent_graphs(g):
        assert node_distance(g, h) <= 1


def test_adjacent_graphs_guard():
    with pytest.raises(ResourceLimitError):
        list(adjacent_graphs(LabeledGraph.empty(8)))


def test_rewiring_pairs_guard():
    with pytest.raises(ResourceLimitError, match="n <= 6"):
        rewiring_pairs(7)


# -- degree cap ---------------------------------------------------------------------------


def test_degree_cap_identity_under_cap():
    g = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert degree_cap(g, 2) is g


def test_degree_cap_star_keeps_lowest_indexed_leaves():
    star = LabeledGraph.from_edges(6, [(0, leaf) for leaf in range(1, 6)])
    capped = degree_cap(star, 2)
    assert sorted(capped.neighbors(0).tolist()) == [1, 2]
    assert capped.edge_count == 2


def test_degree_cap_zero_empties():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert degree_cap(g, 0) == LabeledGraph.empty(4)


def test_degree_cap_random_graphs_obey_cap():
    rng = substream(7, "degree-cap")
    for _ in range(25):
        n = int(rng.integers(3, 9))
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        adj[iu] = rng.random(len(iu[0])) < 0.5
        g = LabeledGraph(adj | adj.T)
        d = int(rng.integers(0, n))
        capped = degree_cap(g, d)
        assert capped.max_degree <= d
        assert degree_cap(capped, d) == capped


# -- density Lipschitz bound (exhaustive at n = 5) -----------------------------------------


def test_density_lipschitz_bound_n5_exhaustive():
    n = 5
    for g in all_graphs(n):
        e_g = edge_density(g)
        for h in adjacent_graphs(g):
            assert abs(e_g - edge_density(h)) <= 4.0 / n + 1e-12


# -- cover table ------------------------------------------------------------------------


def test_cover_table_matches_bfs_on_every_n4_pair():
    neighbors = rewiring_neighbors(4)
    table = cover_table(4)
    for i in range(64):
        for j in range(i + 1, 64):
            assert table[i ^ j] == bfs_distance(neighbors, i, j)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_cover_table_matches_node_distance_on_random_pairs(n):
    rng = substream(20260810, "cover-table", n)
    table = cover_table(n)
    for i, j in rng.integers(0, 1 << (n * (n - 1) // 2), size=(200, 2)).tolist():
        assert table[i ^ j] == node_distance(graph_from_index(n, i), graph_from_index(n, j))


def test_cover_table_is_read_only_and_guarded():
    assert cover_table(7).shape == (1 << 21,)
    with pytest.raises(ValueError):
        cover_table(4)[1] = 0
    with pytest.raises(ResourceLimitError):
        cover_table(8)
