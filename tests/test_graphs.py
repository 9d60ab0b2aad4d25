import numpy as np
import pytest

from nodedp.errors import ResourceLimitError
from nodedp.graphs import (
    LabeledGraph,
    adjacent_graphs,
    all_graphs,
    boundary_edge_count,
    cover_table,
    degree_cap,
    edge_density,
    graph_from_index,
    node_distance,
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


def test_hex_round_trip_all_n4():
    for g in all_graphs(4):
        assert LabeledGraph.from_hex(4, g.to_hex()) == g


def test_graph_from_index_bijection():
    seen = {g.key for g in all_graphs(3)}
    assert len(seen) == 8


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


def test_node_distance_budget_exhaustion():
    g1 = LabeledGraph.empty(7)
    g2 = LabeledGraph.complete(7)
    with pytest.raises(ResourceLimitError):
        node_distance(g1, g2, budget=2)


def test_node_distance_matches_bfs_on_sampled_n4_pairs():
    # full-pair equivalence is acceptance criterion 1; spot-check here
    neighbors = rewiring_neighbors(4)
    rng = substream(11, "graphs-bfs-spot")
    for _ in range(60):
        i, j = rng.integers(0, 64, size=2)
        d_lib = node_distance(graph_from_index(4, int(i)), graph_from_index(4, int(j)))
        assert d_lib == bfs_distance(neighbors, int(i), int(j))


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


# -- boundary edges ---------------------------------------------------------------------


def test_boundary_edge_count_full_set_is_total():
    g = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert boundary_edge_count(g, range(5)) == 3


def test_boundary_edge_count_singleton_is_degree():
    g = LabeledGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert boundary_edge_count(g, {0}) == 3


def test_boundary_edge_count_k4_pair():
    # |S| = 2 on K4: k(n-k) + C(k,2) = 2*2 + 1 = 5 slots, all present
    assert boundary_edge_count(LabeledGraph.complete(4), {0, 1}) == 5


def test_boundary_edge_count_rejects_empty_set():
    with pytest.raises(ValueError):
        boundary_edge_count(LabeledGraph.empty(3), [])


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
def test_cover_table_matches_branch_and_bound_on_random_pairs(n):
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
