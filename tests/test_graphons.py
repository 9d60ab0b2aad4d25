import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from nodedp.errors import ResourceLimitError
from nodedp.graphs import LabeledGraph, all_graphs
from nodedp.graphons import (
    PERMUTATION_SEARCH_MAX_K,
    BlockMatrix,
    StepGraphon,
    canonical_sizes,
    delta2_hat_blocks,
    equipartition_array,
    equipartition_count,
    normalized_l2,
    rewired_model_pmf,
    sample_gnm,
    sample_gnm_rewired,
    sample_gnm_rewired_coupled,
    sample_gnp,
    sample_w_random,
    two_clique_graphon,
)
from nodedp.rng import substream

CONSTANT_ONE = StepGraphon.equal_blocks([[1.0]])


# -- types and serialization -----------------------------------------------------


def test_block_matrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        BlockMatrix(np.array([[0.1, 0.2], [0.3, 0.1]]))


def test_step_graphon_requires_increasing_boundaries():
    with pytest.raises(ValueError):
        StepGraphon(np.array([0.0, 0.7, 0.4, 1.0]), np.zeros((3, 3)))


def test_serialization_round_trips():
    # the block-matrix text the CLI prints: k, then k rows of %.17g, which
    # read back to the same floats
    b = BlockMatrix(np.array([[0.5, 0.1], [0.1, 1.0 / 3.0]]))
    lines = b.to_text().splitlines()
    assert lines == ["2", "0.5 0.10000000000000001", "0.10000000000000001 0.33333333333333331"]
    back = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
    assert np.array_equal(back, b.values)


def test_equipartition_enumeration_count():
    # one assignment per orbit of swapping the two classes of size 2
    parts = equipartition_array(4, 2)
    assert 2 * len(parts) == equipartition_count(4, 2) == 6
    assert canonical_sizes(5, 2) == [3, 2]
    assert equipartition_count(5, 2) == 10


# -- norms and permutation distances -----------------------------------------------


def test_normalized_l2_examples():
    a = np.ones((3, 3))
    assert normalized_l2(a, a) == 0.0
    assert normalized_l2(a, np.zeros((3, 3))) == pytest.approx(1.0)
    assert normalized_l2(np.array([[0, 1], [1, 0]]), np.zeros((2, 2))) == pytest.approx(
        math.sqrt(0.5)
    )
    with pytest.raises(ValueError):
        normalized_l2(np.zeros((2, 2)), np.zeros((3, 3)))


def test_delta2_hat_blocks_examples():
    b = BlockMatrix(np.array([[0.7, 0.2], [0.2, 0.4]]))
    assert delta2_hat_blocks(b, b) == 0.0
    swapped = BlockMatrix(np.array([[0.4, 0.2], [0.2, 0.7]]))
    assert delta2_hat_blocks(b, swapped) == pytest.approx(0.0, abs=1e-15)
    eye = BlockMatrix(np.eye(2))
    zero = BlockMatrix(np.zeros((2, 2)))
    assert delta2_hat_blocks(eye, zero) == pytest.approx(math.sqrt(0.5))
    big = BlockMatrix(np.eye(PERMUTATION_SEARCH_MAX_K + 1))
    with pytest.raises(ResourceLimitError):
        delta2_hat_blocks(big, big)


def test_delta2_hat_blocks_is_a_pseudometric_on_random_triples():
    rng = substream(3, "pseudometric")
    for k in (2, 3):
        for _ in range(20):
            mats = []
            for _ in range(3):
                raw = rng.random((k, k))
                mats.append(BlockMatrix((raw + raw.T) / 2))
            a, b, c = mats
            assert delta2_hat_blocks(a, b) == pytest.approx(delta2_hat_blocks(b, a))
            assert delta2_hat_blocks(a, c) <= (
                delta2_hat_blocks(a, b) + delta2_hat_blocks(b, c) + 1e-12
            )


# -- step graphons ----------------------------------------------------------------------


def _integral(w: StepGraphon) -> float:
    """Integral of W over [0,1]^2, from its block lengths."""
    lens = np.diff(w.boundaries)
    return float(lens @ w.values @ lens)


def test_two_clique_density():
    assert _integral(two_clique_graphon(0.5)) == pytest.approx(0.5)
    assert _integral(two_clique_graphon(0.25)) == pytest.approx(5.0 / 8.0)
    with pytest.raises(ValueError):
        two_clique_graphon(1.0)


def _step_l2(w1: StepGraphon, w2: StepGraphon) -> float:
    """Exact L2([0,1]^2) distance of two step graphons on their common
    refinement."""
    cuts = np.unique(np.concatenate([w1.boundaries, w2.boundaries]))
    lens = np.diff(cuts)
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    b1, b2 = w1.block_of(mids), w2.block_of(mids)
    diff = w1.values[np.ix_(b1, b1)] - w2.values[np.ix_(b2, b2)]
    return math.sqrt(float(lens @ diff**2 @ lens))


def test_step_l2_distance_on_common_refinement():
    # the distance to the best constant is the sqrt of a 0/1 function's variance
    w = two_clique_graphon(0.25)
    mean = _integral(w)
    assert _step_l2(w, StepGraphon.equal_blocks([[mean]])) == pytest.approx(
        math.sqrt(mean - mean**2)
    )


def test_grid_embedding_inequality():
    # embedding a k-block matrix on the n-grid moves it by at most
    # sqrt(10(k-1)/n) * ||B||_2
    rng = substream(9, "grid-embedding")
    for _ in range(40):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 33))
        raw = rng.random((k, k))
        b = (raw + raw.T) / 2
        assignment = np.repeat(np.arange(k), canonical_sizes(n, k))
        expanded = b[np.ix_(assignment, assignment)]
        lhs = _step_l2(StepGraphon.equal_blocks(expanded), StepGraphon.equal_blocks(b))
        norm_b = math.sqrt(float((b**2).sum()) / k**2)
        assert lhs <= math.sqrt(10.0 * (k - 1) / n) * norm_b + 1e-12


# -- samplers ---------------------------------------------------------------------------


def test_w_random_constant_graphon_edge_probability_n2():
    p = 0.35
    trials = 10**5
    rng = substream(2, "wrandom-n2")
    hits = sum(
        sample_w_random(CONSTANT_ONE, p, 2, rng).graph.edge_count for _ in range(trials)
    )
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 3 * sigma


def test_w_random_zero_rho_gives_empty_graphs():
    rng = substream(2, "wrandom-zero")
    for _ in range(10):
        assert sample_w_random(CONSTANT_ONE, 0.0, 6, rng).graph.edge_count == 0


def test_w_random_rejects_rho_sup_above_one():
    with pytest.raises(ValueError):
        sample_w_random(StepGraphon.equal_blocks([[2.0]]), 0.6, 4, substream(0, "x"))


def test_w_random_two_clique_splits_by_labels():
    rng = substream(8, "two-clique")
    w = two_clique_graphon(0.25)
    for _ in range(10):
        sample = sample_w_random(w, 1.0, 10, rng)
        side = w.block_of(sample.labels)
        for i in range(10):
            for j in range(i + 1, 10):
                assert sample.graph.adjacency[i, j] == (side[i] == side[j])


def test_w_random_edge_count_binomial_chi_square_n5():
    p = 0.4
    n, trials = 5, 10**5
    rng = substream(12, "wrandom-binom")
    counts = np.bincount(
        [sample_w_random(CONSTANT_ONE, p, n, rng).graph.edge_count for _ in range(trials)],
        minlength=11,
    )
    expected = np.array([stats.binom.pmf(k, 10, p) * trials for k in range(11)])
    keep = expected >= 5
    obs, exp = counts[keep].astype(float), expected[keep]
    if (~keep).any():
        obs = np.append(obs, counts[~keep].sum())
        exp = np.append(exp, expected[~keep].sum())
    pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue
    assert pvalue > 0.001


def test_sampler_draws_are_pinned():
    """SHA-256 over the keys of 800 graphs from the four samplers at
    n = 2..39, recorded before the samplers moved to the shared slot
    builder: the same rng calls must give the same graphs."""
    w = StepGraphon.equal_blocks([[0.9, 0.2], [0.2, 0.6]])
    digest = hashlib.sha256()
    for i in range(200):
        n = 2 + i % 38
        slots = n * (n - 1) // 2
        rng = np.random.default_rng(i)
        m = (i * 7) % slots
        for g in (
            sample_gnp(n, 0.3, rng),
            sample_gnm(n, i % (slots + 1), rng),
            sample_w_random(w, 0.8, n, rng).graph,
            sample_gnm_rewired(n, m, min(2, slots - m), rng),
        ):
            digest.update(g.n.to_bytes(2, "little"))
            digest.update(g.key)
    assert digest.hexdigest() == (
        "81882341383aa54b34011beca6ccecfbb4a42f49457ec63df77a38a058ba039f"
    )


def test_gnm_degenerate_cases():
    rng = substream(1, "gnm")
    assert sample_gnm(4, 6, rng) == LabeledGraph.complete(4)
    assert sample_gnm(4, 0, rng) == LabeledGraph.empty(4)
    with pytest.raises(ValueError):
        sample_gnm(4, 7, rng)


def test_gnm_uniform_over_three_edge_graphs_n4():
    trials = 10**5
    rng = substream(14, "gnm-uniform")
    counts: dict[bytes, int] = {}
    for _ in range(trials):
        g = sample_gnm(4, 3, rng)
        counts[g.key] = counts.get(g.key, 0) + 1
    assert len(counts) == 20
    expect = trials / 20
    sigma = math.sqrt(trials * (1 / 20) * (19 / 20))
    for c in counts.values():
        assert abs(c - expect) <= 3.5 * sigma


def test_gnm_rewired_full_deletion_isolates_vertex():
    # stage one is forced to K5, and k >= n-1 deletes a full neighborhood
    rng = substream(6, "rewired-k5")
    for _ in range(20):
        stage1, final = sample_gnm_rewired_coupled(5, 6, 4, rng)
        assert stage1 == LabeledGraph.complete(5)
        assert (final.degrees == 0).sum() == 1


# -- rewired model pmf ---------------------------------------------------------------------


def test_rewired_pmf_hand_example():
    empty = LabeledGraph.empty(4)
    assert rewired_model_pmf(empty, 0, 1) == pytest.approx(3.0 / 6.0)


def test_rewired_pmf_rejects_unreachable_edge_counts():
    with pytest.raises(ValueError):
        rewired_model_pmf(LabeledGraph.complete(4), 0, 1)


def test_rewired_pmf_total_mass_one_exhaustive_n4():
    for m, k in [(0, 1), (2, 1), (2, 2), (3, 2), (5, 1)]:
        total = sum(
            rewired_model_pmf(g, m, k)
            for g in all_graphs(4)
            if m <= g.edge_count <= m + k
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_rewired_pmf_matches_simulation_n4():
    n, m, k, trials = 4, 2, 1, 30000
    rng = substream(17, "rewired-mc")
    counts: dict[bytes, int] = {}
    for _ in range(trials):
        g = sample_gnm_rewired_coupled(n, m, k, rng)[1]
        counts[g.key] = counts.get(g.key, 0) + 1
    for g in all_graphs(n):
        if not m <= g.edge_count <= m + k:
            assert g.key not in counts
            continue
        p = rewired_model_pmf(g, m, k)
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(counts.get(g.key, 0) - trials * p) <= 4 * sigma
