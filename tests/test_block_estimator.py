import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nodedp.block_estimator as block_estimator
from nodedp.block_estimator import (
    EQUIPARTITION_BUDGET,
    BlockEstimate,
    EstimatorConfig,
    _best_scores_bulk,
    _distinct_count_rows,
    _level_layout,
    _level_matrix,
    _partition_tensors,
    block_mechanism,
    candidate_count,
    candidate_matrices,
    estimate_blocks,
    measured_score_sensitivity,
    theoretical_sensitivity,
)
from nodedp.density import laplace_density_mechanism
from nodedp.errors import ResourceLimitError
from nodedp.graphs import LabeledGraph, all_graphs, degree_cap, edge_density, node_distance
from nodedp.graphons import (
    BlockMatrix,
    canonical_sizes,
    delta2_hat_blocks,
    equipartition_array,
    equipartition_count,
    relabellings,
)
from nodedp.rng import substream


# -- density stage ------------------------------------------------------------------


def test_estimate_blocks_huge_epsilon_releases_the_density():
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 3), (1, 4)])
    est = estimate_blocks(g, EstimatorConfig(epsilon=1e9, lam=1.0, k=1), substream(0, "pd"))
    assert est.rho_hat == pytest.approx(edge_density(g), abs=1e-6)


def test_estimate_blocks_clamps_empty_graph_density_to_floor():
    g = LabeledGraph.empty(6)
    est = estimate_blocks(g, EstimatorConfig(epsilon=1e9, lam=1.0, k=1), substream(1, "pd"))
    assert est.rho_hat == pytest.approx(1.0 / 36.0)
    assert abs(est.raw_rho) <= 1e-6


def test_laplace_density_mechanism_raw_value_is_unbiased():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2)])
    trials = 10**5
    raws = laplace_density_mechanism(g, 1.0).sample(substream(2, "pd-bias"), size=trials)
    scale = 4.0 / (4 * 1.0)
    sigma = math.sqrt(2 * scale**2 / trials)
    assert abs(raws.mean() - edge_density(g)) <= 3 * sigma


@pytest.mark.parametrize("eps", [0.3, 1.0, 7.0])
def test_estimate_blocks_raw_rho_is_a_draw_of_the_laplace_mechanism(eps):
    # stage 1 samples the very law the Laplace audits certify
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    est = estimate_blocks(g, EstimatorConfig(epsilon=eps, lam=1.0, k=2), substream(13, "s1"))
    want = float(laplace_density_mechanism(g, eps).sample(substream(13, "s1")))
    assert est.raw_rho.hex() == want.hex()
    assert est.rho_hat == min(max(want, 1.0 / 36.0), 1.0)


# -- Score -----------------------------------------------------------------------------


def _score_by_definition(b_vals, assignment, a):
    n = a.shape[0]
    expanded = b_vals[np.ix_(assignment, assignment)]
    return (np.sum(a**2) - np.sum((a - expanded) ** 2)) / n**2


def _levels(b, n):
    """Integer levels rint(n B) on the upper-triangle coordinates, [..., T],
    of grid matrices b [..., k, k]: the scorer's candidate format."""
    rows, cols = np.triu_indices(np.shape(b)[-1])
    return np.rint(n * np.asarray(b))[..., rows, cols].astype(np.int64)


def _best(b, a):
    """Exact best score of grid matrix b on adjacency a over equipartitions,
    from the bulk scorer over the smallest candidate grid that holds b, and a
    maximizing assignment by brute force over the scores by definition of
    every equipartition."""
    b, a = np.asarray(b, dtype=float), np.asarray(a, dtype=float)
    n, k = a.shape[0], b.shape[0]
    levels = _levels(b, n)
    count = int(levels.max()) + 1
    index = np.ravel_multi_index(tuple(levels), (count,) * levels.size)
    grid = candidate_matrices(n, k, (count - 1) / n)
    value = float(_best_scores_bulk(grid, a[None], n, k).values[0, index])
    assignments = _all_equipartitions(n, k)
    scores = [_score_by_definition(b, p, a) for p in assignments]
    return value, assignments[int(np.argmax(scores))]


def _random_grid_matrices(rng, n, k, size=None):
    """Symmetric k x k matrices with entries drawn from {0, 1/n, ..., 1}."""
    shape = (k, k) if size is None else (size, k, k)
    upper = np.triu(rng.integers(0, n + 1, shape)) / n
    return upper + np.triu(upper, 1).swapaxes(-1, -2)


def test_score_zero_matrix_scores_zero():
    a = LabeledGraph.from_edges(4, [(0, 1), (2, 3)]).adjacency.astype(float)
    value, assignment = _best(np.zeros((2, 2)), a)
    assert value == 0.0
    assert _score_by_definition(np.zeros((2, 2)), assignment, a) == 0.0


def test_score_exact_fit_attains_norm_squared():
    # complete bipartite graph matches its 0/1 block matrix exactly
    g = LabeledGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = g.adjacency.astype(float)
    value, assignment = _best(b, a)
    assert value == pytest.approx(np.sum(a**2) / 16)
    assert list(assignment) == [0, 0, 1, 1]


def test_score_matches_direct_formula_on_random_inputs():
    rng = substream(4, "score-random")
    for _ in range(25):
        n, k = 6, 2
        adj = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        adj[iu] = rng.random(len(iu[0])) < 0.5
        adj = adj + adj.T
        b = _random_grid_matrices(rng, n, k)
        value, assignment = _best(b, adj)
        assert value == pytest.approx(_score_by_definition(b, assignment, adj))
        other = rng.permutation(np.repeat(np.arange(k), n // k))
        assert value >= _score_by_definition(b, other, adj) - 1e-12


def test_score_scaling_identity():
    # ||A||^2 - ||A - B_pi||^2 computed by the bulk scorer obeys the
    # algebraic expansion at its maximizer; guards the norm normalization.
    # The scorer takes 0/1 adjacencies only, so a scaled cA is refused.
    n = 4
    a = LabeledGraph.from_edges(n, [(0, 1), (1, 2), (2, 3)]).adjacency.astype(float)
    b = np.array([[0.5, 0.0], [0.0, 0.5]])
    value, assignment = _best(b, a)
    expanded = b[np.ix_(assignment, assignment)]
    assert value == pytest.approx((np.sum(a**2) - np.sum((a - expanded) ** 2)) / n**2)
    for c in (0.5, 2.0, 3.7):
        with pytest.raises(ValueError, match="0/1"):
            _best(b, c * a)


# -- best score ------------------------------------------------------------------------


def test_best_score_k1_uses_single_partition():
    a = LabeledGraph.from_edges(4, [(0, 1), (1, 2)]).adjacency.astype(float)
    b = np.array([[0.25]])
    value, assignment = _best(b, a)
    assert list(assignment) == [0, 0, 0, 0]
    assert value == pytest.approx(_score_by_definition(b, assignment, a))


def test_best_score_zero_matrix():
    a = LabeledGraph.from_edges(5, [(0, 1), (2, 3)]).adjacency
    assert _best(np.zeros((2, 2)), a)[0] == pytest.approx(0.0)


def test_best_score_two_triangles_groups_them():
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    a = g.adjacency.astype(float)
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, assignment = _best(b, a)
    brute = max(_score_by_definition(b, p, a) for p in _all_equipartitions(6, 2))
    assert value == pytest.approx(brute)
    assert _score_by_definition(b, assignment, a) == pytest.approx(value)
    classes = [frozenset(np.flatnonzero(assignment == c).tolist()) for c in (0, 1)]
    assert frozenset({0, 1, 2}) in classes and frozenset({3, 4, 5}) in classes


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


def _all_equipartitions(n, k):
    """Every canonical-profile assignment [P, n], lex order: the oracles'
    enumeration, where equipartition_array keeps one per relabelling orbit."""
    return np.stack(list(_recursive_equipartitions(n, k)))


def _one_hot_table_scores(cands, a, n, k):
    """Independent oracle: the full partitions x candidates table of
    n^4 x score, 2n <E, L> - <cc, L^2> in the k x k integer levels L of the
    candidate levels cands [C, T], over an int64 one-hot tensor [P, n, k].
    Exact for a 0/1 adjacency.  Its size is P x C, so small inputs only."""
    assignments = np.stack(list(_recursive_equipartitions(n, k)))
    onehot = np.zeros((len(assignments), n, k), dtype=np.int64)
    onehot[np.arange(len(assignments))[:, None], np.arange(n), assignments] = 1
    a = np.asarray(a).astype(np.int64)
    counts = np.einsum("pnk,pnl->pkl", onehot, np.einsum("nm,pmk->pnk", a, onehot))
    levels = np.zeros((len(cands), k, k), dtype=np.int64)
    rows, cols = np.triu_indices(k)
    levels[:, rows, cols] = levels[:, cols, rows] = cands
    sizes = np.array(canonical_sizes(n, k), dtype=np.int64)
    cross = np.einsum("pkl,ckl->pc", counts, levels)
    penalty = np.einsum("kl,ckl->c", np.outer(sizes, sizes), levels**2)
    table = 2 * n * cross - penalty[None, :]
    return table.max(axis=0) / n**4


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
                want = _one_hot_table_scores(cands, a, n, k)
                got = _best_scores_bulk(cands, a[None], n, k)
                assert got.values.tobytes() == want.tobytes()
                assert 1 <= got.distinct_rows[0] <= equipartition_count(n, k)


def test_best_score_assignment_matches_one_hot_table():
    rng = substream(14, "best-score-assignment")
    for n, k in ((5, 2), (6, 3), (8, 2), (9, 3)):
        for _ in range(4):
            g = degree_cap(_random_graph(n, rng), int(rng.integers(1, n)))
            b = _random_grid_matrices(rng, n, k)
            want = _one_hot_table_scores(_levels(b[None], n), g.adjacency.astype(float), n, k)
            value, assignment = _best(b, g.adjacency)
            assert value == pytest.approx(want[0], abs=1e-12)
            assert _score_by_definition(b, assignment, g.adjacency) == pytest.approx(value)


def test_bulk_values_are_exact_rationals_at_the_first_maximizer():
    # every value is the exact score (2n <E, L> - <cc, L^2>) / n^4 of a
    # maximizing equipartition, correctly rounded once
    rng = substream(15, "bulk-exact-rationals")
    for n in range(4, 11):
        for k in (2, 3):
            a = _random_graph(n, rng).adjacency.astype(np.int64)
            assignments = _all_equipartitions(n, k).astype(np.intp)
            onehot = (assignments[:, :, None] == np.arange(k)).astype(np.int64)
            counts = onehot.transpose(0, 2, 1) @ a @ onehot
            sizes = canonical_sizes(n, k)
            grid = candidate_matrices(n, k, min(1.0, 9 / n))  # at most 10^6 candidates
            picks = rng.integers(0, len(grid), 30)
            got = _best_scores_bulk(grid, a[None].astype(float), n, k).values[0, picks]
            for cand, value in zip(grid[picks], got):
                levels = np.round(n * _level_matrix(cand, n, k)).astype(int).tolist()
                penalty = sum(
                    sizes[i] * sizes[j] * levels[i][j] ** 2 for i in range(k) for j in range(k)
                )
                numerators = [
                    2 * n * sum(int(e[i, j]) * levels[i][j] for i in range(k) for j in range(k))
                    - penalty
                    for e in counts
                ]
                assert value == float(Fraction(max(numerators), n**4))


# -- distinct count rows and their integer keys -------------------------------------------


def _one_hot_count_rows(a, n, k):
    """Independent oracle: every partition's count row in int64, in lex
    order, from E = onehot^T A onehot: E_aa on the diagonal and
    E_ab + E_ba above it, in np.triu_indices(k) order."""
    assignments = np.stack(list(_recursive_equipartitions(n, k)))
    onehot = (assignments[:, :, None] == np.arange(k)).astype(np.int64)
    counts = onehot.transpose(0, 2, 1) @ np.asarray(a).astype(np.int64) @ onehot
    rows, cols = np.triu_indices(k)
    return counts[:, rows, cols] + (rows != cols) * counts[:, cols, rows]


def _count_row_cases(rng):
    """Random 0/1 graphs for k = 1..4, each with at most 30,000 partitions;
    scoring's group is all of _relabellings."""
    for k in range(1, 5):
        for n in range(max(k, 2), 11):
            if equipartition_count(n, k) <= 30_000:
                yield n, k, _random_graph(n, rng).adjacency


def _relabellings(n, k):
    """Every size-preserving permutation of the k classes, as index arrays."""
    sizes = canonical_sizes(n, k)
    return [
        np.array(p) for p in itertools.permutations(range(k))
        if all(sizes[c] == sizes[p[c]] for c in range(k))
    ]


def _relabel_rows(rows, perm, k):
    """The count rows [m, T] of the partitions whose class c is renamed
    perm[c]: coordinate (a, b) moves to the sorted (perm[a], perm[b])."""
    rows_, cols_ = np.triu_indices(k)
    coordinate = np.empty((k, k), dtype=int)
    coordinate[rows_, cols_] = coordinate[cols_, rows_] = np.arange(rows_.size)
    out = np.empty_like(rows)
    out[:, coordinate[perm[rows_], perm[cols_]]] = rows
    return out


# 4096 bytes hold at most a few dozen partitions here, so most cases run
# several partition chunks and the merge of their orbit keys
@pytest.mark.parametrize("chunk_bytes", [None, 4096])
def test_count_rows_match_int64_one_hot_product(chunk_bytes, monkeypatch):
    # one row per orbit, and the orbits' rows are exactly every partition's
    if chunk_bytes is not None:
        monkeypatch.setattr(block_estimator, "_SCORE_CHUNK_BYTES", chunk_bytes)
    rng = substream(16, "count-rows", chunk_bytes or 0)
    for n, k, a in _count_row_cases(rng):
        want = {tuple(r) for r in _one_hot_count_rows(a, n, k).tolist()}
        rows, starts, (distinct,) = _distinct_count_rows(a[None].astype(float), n, k)
        assert rows.dtype == np.float64 and starts.tolist() == [0]
        closure = {
            tuple(r) for p in _relabellings(n, k) for r in _relabel_rows(rows, p, k).tolist()
        }
        assert closure == want
        assert distinct == len(want)


@pytest.mark.parametrize("chunk_bytes", [None, 4096])
def test_orbit_rows_are_pairwise_inequivalent(chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(block_estimator, "_SCORE_CHUNK_BYTES", chunk_bytes)
    rng = substream(17, "count-row-order", chunk_bytes or 0)
    for n, k, a in _count_row_cases(rng):
        rows = _distinct_count_rows(a[None].astype(float), n, k)[0]
        group = _relabellings(n, k)
        orbits = [
            {tuple(r) for p in group for r in _relabel_rows(row[None], p, k).tolist()}
            for row in rows
        ]
        assert sum(len(o) for o in orbits) == len(set().union(*orbits))
        every = _one_hot_count_rows(a, n, k)
        cands = candidate_matrices(n, k, 1.0 / n)
        want = len(np.unique(every, axis=0))
        assert _best_scores_bulk(cands, a[None].astype(float), n, k).distinct_rows[0] == want


def test_integer_keys_stay_below_2_63_wherever_the_budget_admits():
    # a count row's key is below the product of its radices; that product
    # passes 2^63 at four admitted (n, k), all with k >= 6, whose grids
    # hold one candidate and are released unscored, and there count rows
    # are refused rather than keyed with wrapped keys
    admitted, wrapping = 0, set()
    for n in range(2, 40):
        for k in range(2, n + 1):
            p = equipartition_count(n, k)
            if p > EQUIPARTITION_BUDGET:
                continue
            admitted += 1
            sizes = canonical_sizes(n, k)
            want = tuple(
                sizes[i] * (sizes[i] - 1) + 1 if i == j else 2 * sizes[i] * sizes[j] + 1
                for i in range(k)
                for j in range(i, k)
            )
            radix = _level_layout(n, k)[-1]
            assert radix == want
            if math.prod(radix) > 2**63:
                wrapping.add((n, k))
    assert admitted == 79
    assert wrapping == {(10, 9), (10, 10), (11, 8), (11, 9)}
    for n, k in wrapping:
        assert candidate_count(n, k, 1.0 / n) > block_estimator.CANDIDATE_BUDGET
        with pytest.raises(ValueError, match="2\\^63"):
            _distinct_count_rows(np.zeros((1, n, n)), n, k)


@pytest.mark.parametrize("n,k", [(5, 1), (7, 2), (8, 3), (9, 4)])
def test_complete_graph_count_rows_reach_radix_minus_one(n, k):
    a = np.ones((n, n)) - np.eye(n)
    rows, _, (distinct,) = _distinct_count_rows(a[None], n, k)
    assert rows.tolist() == [[r - 1 for r in _level_layout(n, k)[-1]]]
    assert distinct == 1


@pytest.mark.parametrize(
    "a",
    [
        np.eye(3),
        np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
        -(np.ones((3, 3)) - np.eye(3)),
        2 * (np.ones((3, 3)) - np.eye(3)),
    ],
    ids=["self-loops", "two-weights", "negative", "scaled"],
)
def test_count_rows_refuse_other_matrices(a):
    with pytest.raises(ValueError, match="zero diagonal"):
        _distinct_count_rows(np.asarray(a, dtype=float)[None], 3, 2)


def test_bulk_scoring_peak_memory_at_n20_k2():
    # n=20, k=2: 184,756 equipartitions.  The parent commit, which built a
    # [P, k, k] count table by scatters, peaked at 22.2 MiB on this input.
    rng = substream(16, "bulk-memory")
    a = _random_graph(20, rng).adjacency.astype(float)
    cands = candidate_matrices(20, 2, 0.5)
    block_estimator._partition_tensors.cache_clear()
    tracemalloc.start()
    try:
        bulk = _best_scores_bulk(cands, a[None], 20, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bulk.distinct_rows.tolist() == [211]
    assert peak <= 22.2 * 2**20


def test_bulk_scoring_peak_memory_at_n9_k3():
    # 10^6 candidates against 1,680 equipartitions.  Scoring every distinct
    # count row, before orbit scoring, peaked at 24.22 MiB on this input; the
    # orbit gather must not add to the score table's chunk.
    a = _random_graph(9, substream(19, "bulk-memory-k3")).adjacency.astype(float)
    cands = candidate_matrices(9, 3, 1.0)
    block_estimator._partition_tensors.cache_clear()
    tracemalloc.start()
    try:
        bulk = _best_scores_bulk(cands, a[None], 9, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bulk.values.size == 10**6 and bulk.distinct_rows.tolist() == [46]
    assert peak <= 24.22 * 2**20


def _canonical(assignment, sizes):
    """The member of the assignment's relabelling orbit whose classes of
    equal size first appear in increasing order."""
    rename, opened = {}, {}
    for c in assignment.tolist():
        if c not in rename:
            same = [d for d in range(len(sizes)) if sizes[d] == sizes[c]]
            rename[c] = same[opened.setdefault(sizes[c], 0)]
            opened[sizes[c]] += 1
    return tuple(rename[c] for c in assignment.tolist())


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (9, 3), (10, 4), (16, 2)])
def test_equipartition_array_matches_recursive_enumeration(n, k):
    # one member per orbit of relabelling equal-size classes: the
    # recursive enumeration's partitions that are their orbit's canonical
    # member, in the same lex order
    every = _all_equipartitions(n, k)
    sizes = canonical_sizes(n, k)
    canonical = [_canonical(p, sizes) for p in every]
    got = equipartition_array(n, k)
    want = every[[c == tuple(p.tolist()) for c, p in zip(canonical, every)]]
    assert np.array_equal(got, want)
    r = n % k
    assert len(got) * math.factorial(r) * math.factorial(k - r) == equipartition_count(n, k)
    assert {tuple(p) for p in got.tolist()} == set(canonical)


@pytest.mark.parametrize("n,k", [(5, 1), (7, 2), (8, 2), (7, 3), (9, 3), (8, 4), (7, 5)])
def test_equipartition_array_holds_one_assignment_per_relabelling_orbit(n, k):
    # the group is every size-preserving permutation in lex order, so the
    # identity first, and its images of the rows are every equipartition, once
    group = relabellings(n, k)
    assert group.tolist() == [p.tolist() for p in _relabellings(n, k)]
    images = [tuple(p) for sigma in group for p in sigma[equipartition_array(n, k)].tolist()]
    assert sorted(images) == [tuple(p) for p in _all_equipartitions(n, k).tolist()]


# (n, k) with mixed size profiles, k = 1..5, and one-element groups: S = 1
# at (5, 1), (5, 2) and (7, 2)
ORBIT_CASES = [
    (5, 1), (5, 2), (7, 2), (8, 2), (12, 2), (6, 3), (7, 3), (9, 3), (11, 3), (8, 4),
    (10, 4), (7, 5),
]


@pytest.mark.parametrize("n,k", ORBIT_CASES)
def test_orbit_scores_match_brute_force_over_every_equipartition(n, k):
    # the maximum over every equipartition, over its distinct int64
    # one-hot count rows: 2n <row, L> - <w cc, L^2>, divided by n^4 once
    rng = substream(20, "orbit-oracle", n, k)
    rows_, cols_ = np.triu_indices(k)
    sizes = np.array(canonical_sizes(n, k))
    penalty = np.where(rows_ == cols_, 1, 2) * sizes[rows_] * sizes[cols_]
    mu = 1.0
    while candidate_count(n, k, mu) > 5000:
        mu /= 2
    cands = candidate_matrices(n, k, mu)
    levels = cands.astype(np.int64)
    for _ in range(3):
        a = _random_graph(n, rng).adjacency
        distinct = np.unique(_one_hot_count_rows(a, n, k), axis=0)
        numerators = 2 * n * distinct @ levels.T - levels**2 @ penalty
        want = numerators.max(axis=0) / n**4
        got = _best_scores_bulk(cands, a[None].astype(float), n, k)
        assert got.values.tobytes() == want.tobytes()
        assert got.distinct_rows.tolist() == [len(distinct)]


def test_relabelling_group_is_bounded_and_exact_past_the_bound():
    # the group is every size-preserving relabelling, S = r! (k - r)! with
    # r = n mod k; scoring reaches only k <= 5, where S <= 5! = 120, since
    # a grid at k >= 6 holds one candidate.  Past that bound the group
    # grows, and the scores over it stay exact
    for n, k, s in ((8, 4, 24), (10, 5, 120), (12, 6, 720), (7, 6, 120), (11, 5, 24)):
        assert len(_partition_tensors(n, k)[1]) == s
    n, k = 7, 6  # sizes 2, 1, 1, 1, 1, 1
    assert len(_partition_tensors(n, k)[0]) * 120 == equipartition_count(n, k)
    a = _random_graph(n, substream(21, "bounded-group")).adjacency
    cands = candidate_matrices(n, k, 0.0)
    distinct = np.unique(_one_hot_count_rows(a, n, k), axis=0)
    got = _best_scores_bulk(cands, a[None].astype(float), n, k)
    assert got.values.tolist() == [[0.0]]
    assert got.distinct_rows.tolist() == [len(distinct)]


@pytest.mark.parametrize(
    "levels",
    [
        candidate_matrices(4, 2, 0.5)[::-1],  # the grid, reordered
        candidate_matrices(4, 2, 0.5)[:26],  # part of it
        candidate_matrices(4, 2, 0.5).astype(np.int64),  # signed
        candidate_matrices(4, 3, 0.5),  # another k's grid
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0],
                  [1, 1, 0]], dtype=np.uint8),  # 2^3 rows, one twice
    ],
    ids=["reordered", "partial", "signed", "other-k", "repeated-row"],
)
def test_bulk_scores_refuse_anything_but_the_full_grid(levels):
    a = LabeledGraph.from_edges(4, [(0, 1), (1, 2)]).adjacency.astype(float)
    with pytest.raises(ValueError, match="full grid"):
        _best_scores_bulk(levels, a[None], 4, 2)


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
    assert np.array_equal(candidate_matrices(n, k, mu), _levels(np.stack(want), n))


def test_block_mechanism_scores_a_million_candidates_in_bounded_memory():
    # n=9, k=3, rho_hat=0.5, lambda=2: mu=1 gives 10 levels on 6 entries,
    # 10^6 candidates; a partitions x candidates table would be
    # 1680 x 10^6 float64 entries, 13.4 GB.  The grid is 6 MB of uint8
    # levels; as 10^6 float64 3 x 3 matrices it was 72 MB, a 114 MiB peak.
    g = LabeledGraph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=3)
    tracemalloc.start()
    try:
        mech, cands, delta, diag = block_mechanism(g, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag["candidate_count"] == mech.log_probs.size == 10**6
    assert diag["equipartitions"] == 1680
    assert peak < 64 * 2**20


# -- Lipschitz-extended score: the best score of the degree-capped graph -------------------


def test_lipschitz_score_identity_under_cap():
    g = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    b = np.array([[0.6, 0.2], [0.2, 0.6]])
    got = _best(b, degree_cap(g, 4).adjacency)[0]
    assert got == pytest.approx(_best(b, g.adjacency)[0])


def test_lipschitz_score_equals_best_score_on_capped_space_n5():
    d = 4  # = n - 1: every graph already satisfies the cap
    b = np.array([[0.6, 0.2], [0.2, 0.4]])
    for idx, g in enumerate(all_graphs(5)):
        if idx % 37:  # representative slice, keeps the test quick
            continue
        got = _best(b, degree_cap(g, d).adjacency)[0]
        assert got == pytest.approx(_best(b, g.adjacency)[0])


def test_lipschitz_score_zero_cap_scores_empty_graph():
    g = LabeledGraph.complete(5)
    b = np.array([[0.6, 0.2], [0.2, 0.4]])
    got = _best(b, degree_cap(g, 0).adjacency)[0]
    want = _best(b, LabeledGraph.empty(5).adjacency)[0]
    assert got == pytest.approx(want)
    assert want == pytest.approx(
        max(-score_by_def_norm(b, a, 5) for a in _all_equipartitions(5, 2))
    )


def score_by_def_norm(b, assignment, n):
    expanded = b[np.ix_(assignment, assignment)]
    return float(np.sum(expanded**2)) / n**2


def test_lipschitz_score_star_composes_with_degree_cap():
    star = LabeledGraph.from_edges(6, [(0, leaf) for leaf in range(1, 6)])
    b = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6
    capped = degree_cap(star, 2)
    assert capped.degrees.max() <= 2 and capped != star
    a = capped.adjacency.astype(float)
    value, assignment = _best(b, a)
    assert value == pytest.approx(
        max(_score_by_definition(b, p, a) for p in _all_equipartitions(6, 2))
    )
    assert _score_by_definition(b, assignment, a) == pytest.approx(value)


# -- candidate grid ----------------------------------------------------------------------


def test_candidate_matrices_count_and_symmetry():
    cands = candidate_matrices(4, 2, 0.5)
    assert cands.shape[0] == candidate_count(4, 2, 0.5) == 27
    matrices = np.stack([_level_matrix(c, 4, 2) for c in cands])
    assert np.allclose(matrices, np.swapaxes(matrices, 1, 2))
    assert set(matrices.ravel().tolist()) == {0.0, 0.25, 0.5}
    flat = {tuple(c.ravel()) for c in matrices}
    assert len(flat) == 27


def test_candidate_matrices_budget_error_names_count():
    with pytest.raises(ResourceLimitError) as err:
        candidate_matrices(100, 3, 1.0)
    assert str(candidate_count(100, 3, 1.0)) in str(err.value)
    assert str(block_estimator.CANDIDATE_BUDGET) in str(err.value)


def test_best_score_monotone_in_mu():
    a = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]).adjacency.astype(float)
    prev = -math.inf
    for mu in (0.2, 0.4, 0.8, 1.0):
        cands = candidate_matrices(6, 2, mu)
        top = float(_best_scores_bulk(cands, a[None], 6, 2).values.max())
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
    # 34,650 equipartitions fit; about 25^6 candidates at mu near 2 do not
    g = LabeledGraph.complete(12)
    cfg = EstimatorConfig(epsilon=100.0, lam=2.0, k=3)
    assert equipartition_count(12, 3) == 34650 <= block_estimator.EQUIPARTITION_BUDGET
    with pytest.raises(ResourceLimitError, match="candidate set has"):
        estimate_blocks(g, cfg, substream(11, "budget"))


def test_block_mechanism_audited_mode_uses_measured_delta():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2)])
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    mech, cands, delta, diag = block_mechanism(g, 0.5, cfg)
    assert delta == pytest.approx(measured_score_sensitivity(4, 2, 1.0, 4))
    assert mech.log_probs.size == cands.shape[0]


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


def test_block_mechanism_refuses_over_equipartition_budget(monkeypatch):
    # the maximum must be exact for Delta to cover it, in either mode
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    monkeypatch.setattr(block_estimator, "EQUIPARTITION_BUDGET", 3)
    for mode in ("theoretical", "audited"):
        cfg = EstimatorConfig(epsilon=5.0, lam=1.0, k=2, sensitivity_mode=mode)
        with pytest.raises(ResourceLimitError, match="20 equipartitions"):
            block_mechanism(g, 0.5, cfg)
        with pytest.raises(ResourceLimitError, match="20 equipartitions"):
            estimate_blocks(g, cfg, substream(12, "refused"))


def test_estimate_blocks_refuses_before_capping_or_building_candidates(monkeypatch):
    def unreachable(*args):
        raise AssertionError("reached a request the equipartition check refuses")

    monkeypatch.setattr(block_estimator, "degree_cap", unreachable)
    monkeypatch.setattr(block_estimator, "candidate_matrices", unreachable)
    g = LabeledGraph.complete(40)
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=str(math.comb(40, 20))):
        estimate_blocks(g, cfg, substream(15, "refused-n40"))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode", ["theoretical", "audited"])
@pytest.mark.parametrize("n,k", [(40, 2), (12, 7), (30, 30), (4, 2)])
def test_a_one_candidate_grid_is_released_unscored(n, k, mode, monkeypatch):
    # floor(n mu) = 0: the zero matrix alone, whose score is 0 on every
    # graph, so the law is constant; it is released past the equipartition
    # budget (all but n = 4 here) and the audited order, without capping
    # or scoring, and with the diagnostics a scored zero grid would give
    def unreachable(*args):
        raise AssertionError("capped or scored a one-candidate grid")

    for name in ("degree_cap", "_best_scores_bulk", "measured_score_sensitivity"):
        monkeypatch.setattr(block_estimator, name, unreachable)
    rho_hat = 0.9 / (2.0 * n)  # n lam rho_hat = 0.9
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=k, sensitivity_mode=mode)
    g = LabeledGraph.complete(n)
    mech, cands, delta, diag = block_mechanism(g, rho_hat, cfg)
    assert cands.tolist() == [[0] * (k * (k + 1) // 2)] and cands.dtype == np.uint8
    assert mech.log_probs.tolist() == [0.0] and diag["scores"].tolist() == [0.0]
    assert (diag["candidate_count"], diag["degree_cap"], diag["distinct_count_rows"]) == (1, 0, 1)
    assert diag["equipartitions"] == equipartition_count(n, k)
    if mode == "audited":
        assert delta == 0.0 and diag["coefficient"] == math.inf
    else:
        mu = 2.0 * rho_hat
        assert delta == theoretical_sensitivity(n, mu * n, mu) > 0.0
    quiet = EstimatorConfig(epsilon=1e9, lam=2.0, k=k, sensitivity_mode=mode)
    est = estimate_blocks(LabeledGraph.empty(n), quiet, substream(22, "one-candidate", n, k))
    assert est.rho_hat == 1.0 / n**2  # the floor: n lam rho_hat = 2 / n < 1
    assert (est.b_hat.values == 0.0).all() and est.diagnostics["chosen_score"] == 0.0


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
    assert "disproved" in est.dp_domain and "1.71 Delta" in est.dp_domain


def test_dp_domain_of_audited_releases():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    audited = EstimatorConfig(epsilon=2.0, lam=2.0, k=2, sensitivity_mode="audited")
    assert estimate_blocks(g, audited, substream(4, "dp")).dp_domain == "all graphs on 4 vertices"
