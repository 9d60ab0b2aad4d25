import itertools
import math
import tracemalloc

import numpy as np
import pytest

import nodedp.block_estimator as block_estimator
from nodedp.block_estimator import (
    BlockEstimate,
    EstimatorConfig,
    _best_scores_bulk,
    best_score,
    block_mechanism,
    candidate_count,
    candidate_matrices,
    estimate_blocks,
    lipschitz_score,
    measured_score_sensitivity,
    private_density,
    score,
    score_extension_gap,
    theoretical_sensitivity,
)
from nodedp.errors import ResourceLimitError
from nodedp.graphs import LabeledGraph, all_graphs, degree_cap, edge_density, node_distance
from nodedp.graphons import (
    BlockMatrix,
    Equipartition,
    canonical_sizes,
    delta2_hat_blocks,
    enumerate_equipartitions,
    equipartition_array,
    equipartition_count,
)
from nodedp.rng import substream


# -- private density step ----------------------------------------------------------


def test_private_density_huge_epsilon_returns_density():
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 3), (1, 4)])
    rho = private_density(g, 1e9, substream(0, "pd"))
    assert rho.value == pytest.approx(edge_density(g), abs=1e-6)


def test_private_density_clamps_empty_graph_to_floor():
    g = LabeledGraph.empty(6)
    rho = private_density(g, 1e9, substream(1, "pd"))
    assert rho.value == pytest.approx(1.0 / 36.0)
    assert abs(rho.raw) <= 1e-6


def test_private_density_raw_value_is_unbiased():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2)])
    rng = substream(2, "pd-bias")
    trials = 10**5
    raws = np.array([private_density(g, 1.0, rng).raw for t in range(trials)])
    scale = 4.0 / (4 * 1.0)
    sigma = math.sqrt(2 * scale**2 / trials)
    assert abs(raws.mean() - edge_density(g)) <= 3 * sigma


# -- Score -----------------------------------------------------------------------------


def _score_by_definition(b_vals, assignment, a):
    n = a.shape[0]
    expanded = b_vals[np.ix_(assignment, assignment)]
    return (np.sum(a**2) - np.sum((a - expanded) ** 2)) / n**2


def test_score_zero_matrix_scores_zero():
    g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
    pi = Equipartition(np.array([0, 0, 1, 1]))
    assert score(np.zeros((2, 2)), pi, g) == 0.0


def test_score_exact_fit_attains_norm_squared():
    # complete bipartite graph matches its 0/1 block matrix exactly
    g = LabeledGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    pi = Equipartition(np.array([0, 0, 1, 1]))
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = g.adjacency.astype(float)
    assert score(b, pi, g) == pytest.approx(np.sum(a**2) / 16)


def test_score_matches_direct_formula_on_random_inputs():
    rng = substream(4, "score-random")
    for _ in range(25):
        n, k = 6, 2
        adj = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        adj[iu] = rng.random(len(iu[0])) < 0.5
        adj = adj + adj.T
        raw = rng.random((k, k))
        b = (raw + raw.T) / 2
        assignment = rng.permutation(np.repeat(np.arange(k), n // k))
        got = score(b, assignment, adj)
        assert got == pytest.approx(_score_by_definition(b, assignment, adj))


def test_score_scaling_identity():
    # ||cA||^2 - ||cA - B_pi||^2 computed through the same code path obeys
    # the algebraic expansion; guards the norm normalization
    rng = substream(5, "score-scale")
    n = 4
    a = LabeledGraph.from_edges(n, [(0, 1), (1, 2), (2, 3)]).adjacency.astype(float)
    b = np.array([[0.4, 0.1], [0.1, 0.6]])
    assignment = np.array([0, 1, 0, 1])
    for c in (0.5, 2.0, 3.7):
        lhs = score(b, assignment, c * a)
        expanded = b[np.ix_(assignment, assignment)]
        rhs = (c**2 * np.sum(a**2) - np.sum((c * a - expanded) ** 2)) / n**2
        assert lhs == pytest.approx(rhs)


# -- best score ------------------------------------------------------------------------


def test_best_score_k1_uses_single_partition():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2)])
    b = np.array([[0.25]])
    got = best_score(b, g)
    assert got.exact
    assert got.value == pytest.approx(score(b, np.zeros(4, dtype=int), g))


def test_best_score_zero_matrix():
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 3)])
    assert best_score(np.zeros((2, 2)), g).value == pytest.approx(0.0)


def test_best_score_two_triangles_groups_them():
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = best_score(b, g)
    brute = max(
        score(b, a, g) for a in enumerate_equipartitions(6, 2)
    )
    assert got.exact and got.value == pytest.approx(brute)
    classes = [frozenset(np.flatnonzero(got.assignment == c).tolist()) for c in (0, 1)]
    assert frozenset({0, 1, 2}) in classes and frozenset({3, 4, 5}) in classes


def test_best_score_greedy_is_lower_bound():
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    exact = best_score(b, g)
    greedy = best_score(b, g, budget=1, rng=substream(7, "greedy"))
    assert not greedy.exact
    assert greedy.value <= exact.value + 1e-12


# -- exactness of the deduplicated, chunked scoring ------------------------------------


def _recursive_equipartitions(n, k):
    """Canonical-profile assignments by depth-first recursion, lex order."""
    remaining = canonical_sizes(n, k)
    prefix = []

    def rec():
        if len(prefix) == n:
            yield np.array(prefix)
            return
        for c in range(k):
            if remaining[c] > 0:
                remaining[c] -= 1
                prefix.append(c)
                yield from rec()
                prefix.pop()
                remaining[c] += 1

    yield from rec()


def _one_hot_table_scores(cands, a, n, k):
    """Independent oracle: the full partitions x candidates score table over a
    float one-hot tensor [P, n, k].  Its size is P x C, so small inputs only."""
    assignments = np.stack(list(_recursive_equipartitions(n, k)))
    onehot = np.zeros((len(assignments), n, k))
    onehot[np.arange(len(assignments))[:, None], np.arange(n), assignments] = 1.0
    counts = np.einsum("pnk,pnl->pkl", onehot, np.einsum("nm,pmk->pnk", a, onehot))
    sizes = np.array(canonical_sizes(n, k), dtype=float)
    cross = np.einsum("pkl,ckl->pc", counts, cands)
    penalty = np.einsum("kl,ckl->c", np.outer(sizes, sizes), cands**2)
    table = (2.0 * cross - penalty[None, :]) / n**2
    best = table.argmax(axis=0)
    return table[best, np.arange(cands.shape[0])], best, assignments


def _random_graph(n, rng):
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, 1)
    adj[iu] = rng.random(len(iu[0])) < rng.random()
    return LabeledGraph(adj | adj.T)


@pytest.mark.parametrize("chunk_bytes", [None, 1, 4096])
def test_bulk_scores_match_one_hot_table_on_random_capped_graphs(chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(block_estimator, "_SCORE_CHUNK_BYTES", chunk_bytes)
    rng = substream(13, "bulk-exactness", chunk_bytes or 0)
    for n in range(4, 11):
        for k in (2, 3):
            for _ in range(2):
                capped = degree_cap(_random_graph(n, rng), int(rng.integers(0, n)))
                a = capped.adjacency.astype(float)
                mu = 1.0
                while candidate_count(n, k, mu) * equipartition_count(n, k) > 10**6:
                    mu /= 2
                cands = candidate_matrices(n, k, mu)
                want, want_p, _ = _one_hot_table_scores(cands, a, n, k)
                got = _best_scores_bulk(cands, a, n, k)
                assert np.allclose(got.values, want, rtol=0.0, atol=1e-12)
                assert np.array_equal(got.argmax, want_p)
                assert 1 <= got.distinct_rows <= equipartition_count(n, k)


def test_best_score_assignment_matches_one_hot_table():
    rng = substream(14, "best-score-assignment")
    for n, k in ((5, 2), (6, 3), (8, 2), (9, 3)):
        for _ in range(4):
            g = degree_cap(_random_graph(n, rng), int(rng.integers(1, n)))
            raw = rng.random((k, k))
            b = (raw + raw.T) / 2
            want, want_p, assignments = _one_hot_table_scores(
                b[None], g.adjacency.astype(float), n, k
            )
            got = best_score(b, g)
            assert got.exact
            assert got.value == pytest.approx(want[0], abs=1e-12)
            assert np.array_equal(got.assignment, assignments[want_p[0]])


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (9, 3), (10, 4), (16, 2)])
def test_equipartition_array_matches_recursive_enumeration(n, k):
    want = np.stack(list(_recursive_equipartitions(n, k)))
    assert np.array_equal(equipartition_array(n, k), want)
    assert np.array_equal(np.stack(list(enumerate_equipartitions(n, k))), want)


@pytest.mark.parametrize("n,k,mu", [(4, 2, 0.5), (5, 3, 0.4), (6, 1, 1.0), (3, 4, 0.34)])
def test_candidate_matrices_follow_product_order(n, k, mu):
    levels = np.arange(int(math.floor(n * mu + 1e-9)) + 1) / n
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    want = []
    for combo in itertools.product(levels, repeat=len(pairs)):
        m = np.zeros((k, k))
        for (i, j), v in zip(pairs, combo):
            m[i, j] = m[j, i] = v
        want.append(m)
    assert np.array_equal(candidate_matrices(n, k, mu), np.stack(want))


def test_block_mechanism_scores_a_million_candidates_in_bounded_memory():
    # n=9, k=3, rho_hat=0.5, lambda=2: mu=1 gives 10 levels on 6 entries,
    # 10^6 candidates; a partitions x candidates table would be
    # 1680 x 10^6 float64 entries, 13.4 GB.
    g = LabeledGraph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=3)
    tracemalloc.start()
    try:
        mech, cands, delta, diag = block_mechanism(g, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag["candidate_count"] == len(mech.candidates) == 10**6
    assert diag["equipartitions"] == 1680
    assert diag["exact_search"]
    assert peak < 256 * 2**20


# -- Lipschitz-extended score --------------------------------------------------------------


def test_lipschitz_score_identity_under_cap():
    g = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    b = np.array([[0.5, 0.2], [0.2, 0.5]])
    assert lipschitz_score(b, g, d=4) == pytest.approx(best_score(b, g).value)


def test_lipschitz_score_equals_best_score_on_capped_space_n5():
    d = 4  # = n - 1: every graph already satisfies the cap
    b = np.array([[0.6, 0.2], [0.2, 0.4]])
    for idx, g in enumerate(all_graphs(5)):
        if idx % 37:  # representative slice, keeps the test quick
            continue
        assert lipschitz_score(b, g, d) == pytest.approx(best_score(b, g).value)


def test_lipschitz_score_zero_cap_scores_empty_graph():
    g = LabeledGraph.complete(5)
    b = np.array([[0.5, 0.1], [0.1, 0.3]])
    got = lipschitz_score(b, g, d=0)
    want = best_score(b, LabeledGraph.empty(5)).value
    assert got == pytest.approx(want)
    assert want == pytest.approx(
        max(-score_by_def_norm(b, a, 5) for a in enumerate_equipartitions(5, 2))
    )


def score_by_def_norm(b, assignment, n):
    expanded = b[np.ix_(assignment, assignment)]
    return float(np.sum(expanded**2)) / n**2


def test_lipschitz_score_star_composes_with_degree_cap():
    star = LabeledGraph.from_edges(6, [(0, leaf) for leaf in range(1, 6)])
    b = np.array([[0.4, 0.2], [0.2, 0.4]])
    got = lipschitz_score(b, star, d=2)
    assert got == pytest.approx(best_score(b, degree_cap(star, 2)).value)
    capped, raw = score_extension_gap(b, star, d=2)
    assert capped == pytest.approx(got)
    assert raw == pytest.approx(best_score(b, star).value)


# -- candidate grid ----------------------------------------------------------------------


def test_candidate_matrices_count_and_symmetry():
    cands = candidate_matrices(4, 2, 0.5)
    assert cands.shape[0] == candidate_count(4, 2, 0.5) == 27
    assert np.allclose(cands, np.swapaxes(cands, 1, 2))
    flat = {tuple(c.ravel()) for c in cands}
    assert len(flat) == 27


def test_candidate_matrices_budget_error_names_count():
    with pytest.raises(ResourceLimitError) as err:
        candidate_matrices(100, 3, 1.0, budget=10)
    assert str(candidate_count(100, 3, 1.0)) in str(err.value)


def test_best_score_monotone_in_mu():
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    prev = -math.inf
    for mu in (0.2, 0.4, 0.8, 1.0):
        cands = candidate_matrices(6, 2, mu)
        top = max(best_score(c, g).value for c in cands)
        assert top >= prev - 1e-12
        prev = top


# -- sensitivity --------------------------------------------------------------------------


def test_measured_sensitivity_zero_cap_is_zero():
    assert measured_score_sensitivity(4, 2, 0.5, 0) == 0.0


def test_measured_sensitivity_positive_and_reported(  ):
    measured = measured_score_sensitivity(4, 2, 0.5, 2)
    assert measured > 0.0
    # the closed-form 4 d mu / n^2 calibration is the reference point
    assert theoretical_sensitivity(4, 2.0, 0.5) == pytest.approx(0.25)


def test_measured_sensitivity_guard():
    with pytest.raises(ResourceLimitError):
        measured_score_sensitivity(7, 2, 0.5, 2)


# -- full pipeline -------------------------------------------------------------------------


def test_estimate_blocks_k1_near_nonprivate_picks_grid_argmax():
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cfg = EstimatorConfig(epsilon=10**6, lam=2.0, k=1)
    est = estimate_blocks(g, cfg, substream(8, "k1"))
    n, m = 6, g.edge_count
    # Score(b) = 4 m b / n^2 - b^2, maximized on the grid nearest 2m/n^2
    target = 2 * m / n**2
    grid = np.arange(math.floor(n * est.mu + 1e-9) + 1) / n
    want = grid[np.argmax(4 * m * grid / n**2 - grid**2)]
    assert est.b_hat.values[0, 0] == pytest.approx(want)
    assert abs(est.b_hat.values[0, 0] - target) <= 1.0 / n


def test_estimate_blocks_degenerate_empty_graph_runs():
    g = LabeledGraph.empty(5)
    cfg = EstimatorConfig(epsilon=0.05, lam=1.0, k=2)
    est = estimate_blocks(g, cfg, substream(9, "empty"))
    assert est.b_hat.k == 2
    assert (est.b_hat.values <= est.mu + 1e-12).all()
    assert est.diagnostics["candidate_count"] >= 1


def test_estimate_blocks_recovers_exact_block_graph():
    # two cliques on 12 vertices, huge budget: the argmax dominates.
    # Norms run over all index pairs, so the best value for a diagonal
    # block of size s is the cell mean b(s-1)/s, here 5/6; the recovery
    # error is that bias plus grid rounding.
    n = 12
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u < 6) == (v < 6)]
    g = LabeledGraph.from_edges(n, edges)
    cfg = EstimatorConfig(epsilon=10**4, lam=3.0, k=2)
    est = estimate_blocks(g, cfg, substream(10, "block-recovery"))
    assert np.allclose(est.b_hat.values, [[10 / 12, 0.0], [0.0, 10 / 12]])
    target = BlockMatrix([[1.0, 0.0], [0.0, 1.0]])
    assert delta2_hat_blocks(est.b_hat, target) <= 2.0 / n + 1e-9


def test_estimate_blocks_candidate_budget_error():
    g = LabeledGraph.complete(30)
    cfg = EstimatorConfig(epsilon=100.0, lam=2.0, k=3, candidate_budget=100)
    with pytest.raises(ResourceLimitError):
        estimate_blocks(g, cfg, substream(11, "budget"))


def test_block_mechanism_audited_mode_uses_measured_delta():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2)])
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    mech, cands, delta, diag = block_mechanism(g, 0.5, cfg)
    assert delta == pytest.approx(measured_score_sensitivity(4, 2, 1.0, 4))
    assert len(mech.candidates) == cands.shape[0]


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=1.0, lam=0.5, k=2)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=-1.0, lam=2.0, k=2)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="guess")


def test_normalized_estimate_divides_by_rho_hat():
    est = BlockEstimate(
        rho_hat=0.5,
        raw_rho=0.5,
        b_hat=BlockMatrix([[0.25, 0.0], [0.0, 0.25]]),
        mu=1.0,
        delta=0.1,
    )
    assert np.allclose(est.normalized().values, [[0.5, 0.0], [0.0, 0.5]])


def test_block_mechanism_greedy_fallback_over_budget():
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    cfg = EstimatorConfig(epsilon=5.0, lam=1.0, k=2, equipartition_budget=3)
    est = estimate_blocks(g, cfg, substream(12, "greedy-path"))
    assert est.diagnostics["exact_search"] is False
    assert est.b_hat.k == 2


# -- where the epsilon of a block release holds ---------------------------------------


def test_theoretical_delta_is_exceeded_on_a_capped_pair():
    """Two graphs one rewiring apart whose degree-capped images are four
    rewirings apart: the capped score moves 1.71 Delta, which is why
    theoretical mode carries a qualified dp_domain."""
    g = LabeledGraph.from_hex(9, "0096200090")
    h = g.rewire(0, [2, 3, 5, 8])
    assert node_distance(g, h) == 1
    assert node_distance(degree_cap(g, 1), degree_cap(h, 1)) == 4
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2)
    _, _, delta, diag_g = block_mechanism(g, 0.06, cfg)
    _, _, _, diag_h = block_mechanism(h, 0.06, cfg)
    assert diag_g["degree_cap"] == 1
    assert delta == pytest.approx(theoretical_sensitivity(9, 2.0 * 0.06 * 9, 0.12))
    assert float(np.abs(diag_g["scores"] - diag_h["scores"]).max()) > 1.7 * delta
    est = estimate_blocks(g, cfg, substream(3, "dp-domain"))
    assert "degree_cap is stable under one rewiring" in est.dp_domain
    assert "unproven" in est.dp_domain


def test_dp_domain_of_audited_and_hill_climb_releases():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    audited = EstimatorConfig(epsilon=2.0, lam=2.0, k=2, sensitivity_mode="audited")
    assert estimate_blocks(g, audited, substream(4, "dp")).dp_domain == "all graphs on 4 vertices"
    g6 = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    cfg = EstimatorConfig(epsilon=5.0, lam=1.0, k=2, equipartition_budget=3)
    est = estimate_blocks(g6, cfg, substream(12, "greedy-path"))
    assert est.diagnostics["exact_search"] is False
    assert "data-dependent" in est.dp_domain
    # an audited sensitivity does not cover the hill-climb's path either
    assert block_estimator._dp_domain(6, False, "audited") == est.dp_domain
