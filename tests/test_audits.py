import math
import time
import tracemalloc

import numpy as np
import pytest

from nodedp.audits import (
    audit_bitstring_reduction,
    audit_block_mechanism,
    audit_density_mechanism,
    audit_finite_mechanism,
    audit_score_sensitivity,
    bernoulli_reduction_graph,
)
from nodedp.block_estimator import (
    EstimatorConfig,
    _best_scores_bulk,
    block_mechanism,
    candidate_matrices,
    measured_score_sensitivity,
)
from nodedp.density import laplace_density_mechanism
from nodedp.errors import ResourceLimitError
from nodedp.graphs import (
    LabeledGraph,
    all_graphs,
    degree_cap,
    node_distance,
    triangular_slots,
)
from nodedp.mechanisms import LaplaceDensity


GRID = np.linspace(-1.0, 2.0, 401)


def test_audit_laplace_baseline_passes():
    eps = 1.0
    report = audit_density_mechanism(
        lambda g: laplace_density_mechanism(g, eps), 4, eps, GRID, name="laplace"
    )
    assert report.passed()
    assert report.pairs_checked == 64 * 63


def test_audit_detects_intentionally_broken_scale():
    eps, n = 1.0, 4
    # the 4/n calibration is 2x loose (true sensitivity is 2/n), so only
    # a quarter of the scale decisively violates
    broken = lambda g: LaplaceDensity(g.edge_count / 6.0, 1.0 / (n * eps))
    report = audit_density_mechanism(broken, n, eps, GRID, name="broken")
    assert not report.passed()
    assert report.max_violation > 0.0
    assert report.witness is not None


def test_audit_density_guard():
    with pytest.raises(ResourceLimitError):
        audit_density_mechanism(
            lambda g: laplace_density_mechanism(g, 1.0), 6, 1.0, GRID
        )


def test_audit_block_mechanism_audited_mode_passes_at_half_epsilon():
    eps = 1.0
    cfg = EstimatorConfig(epsilon=eps, lam=2.0, k=2, sensitivity_mode="audited")
    report = audit_block_mechanism(4, 0.5, cfg, eps / 2.0)
    assert report.passed()


def test_audit_finite_mechanism_flags_miscalibration():
    eps = 1.0
    cfg = EstimatorConfig(epsilon=eps, lam=2.0, k=2, sensitivity_mode="audited")

    def overconfident(g):
        mech, _, _, _ = block_mechanism(g, 0.5, cfg)
        return mech

    # claiming a 100x smaller epsilon must fail somewhere
    report = audit_finite_mechanism(overconfident, 4, eps / 200.0)
    assert not report.passed()


def test_audit_score_sensitivity_zero_cap():
    report = audit_score_sensitivity(4, 2, d=0, mu=0.5)
    assert report.measured == 0.0
    assert report.within_theory


def test_audit_score_sensitivity_n5_reports_comparison():
    report = audit_score_sensitivity(5, 2, d=4, mu=0.4)
    assert report.measured > 0.0
    assert report.theoretical == pytest.approx(4 * 4 * 0.4 / 25)
    # recorded either way; the theoretical value is a reference point, not
    # an assumed bound for the capped score
    assert isinstance(report.within_theory, bool)


# -- bit-string reduction -----------------------------------------------------------


def test_reduction_all_ones_is_complete_graph():
    assert bernoulli_reduction_graph([1, 1, 1, 1]) == LabeledGraph.complete(4)


def test_reduction_alternating_gives_two_disjoint_edges():
    g = bernoulli_reduction_graph([1, 0, 1, 0])
    assert g == LabeledGraph.from_edges(4, [(0, 2), (1, 3)])


def test_reduction_bit_flip_rewires_one_vertex():
    bits = [1, 0, 1, 1, 0]
    g = bernoulli_reduction_graph(bits)
    for i in range(5):
        flipped = list(bits)
        flipped[i] = 1 - flipped[i]
        assert node_distance(g, bernoulli_reduction_graph(flipped)) == 1


def test_reduction_composed_mechanism_is_dp_on_bitstrings():
    eps = 1.0
    report = audit_bitstring_reduction(
        lambda g: laplace_density_mechanism(g, eps), 4, eps, GRID
    )
    assert report.passed()
    assert report.pairs_checked == 16 * 15


# -- the pair kernel against the pair loops it replaced -------------------------------
#
# Each oracle below is the loop the audit ran before the cover table and
# max_violation: distances from node_distance (or Hamming), pairs in
# row-major order, the first strictly larger gap kept as the witness.


def _loop_density_audit(mechanism, n, epsilon, grid):
    points = list(all_graphs(n))
    logs = np.stack([np.asarray(mechanism(g).log_pdf(grid)) for g in points])
    worst, witness, pairs, rows = -math.inf, None, 0, []
    for i in range(len(points)):
        for j in range(len(points)):
            if i == j:
                continue
            pairs += 1
            d = float(node_distance(points[i], points[j]))
            ratios = logs[i] - logs[j]
            t = int((ratios - epsilon * d).argmax())
            gap = float(ratios[t]) - epsilon * d
            if gap > worst:
                worst, witness = gap, (i, j, float(grid[t]))
            rows.append((i, j, d, float(grid[t]), float(ratios[t]), epsilon * d, gap))
    return worst, pairs, witness, tuple(rows)


@pytest.mark.parametrize(
    "mechanism",
    [
        lambda g: laplace_density_mechanism(g, 1.0),
        lambda g: LaplaceDensity(g.edge_count / 6.0, 0.25),  # violates
    ],
    ids=["laplace", "broken"],
)
def test_density_audit_matches_pair_loop(mechanism):
    report = audit_density_mechanism(mechanism, 4, 1.0, GRID, collect_rows=True)
    worst, pairs, witness, rows = _loop_density_audit(mechanism, 4, 1.0, GRID)
    assert report.max_violation == worst
    assert report.pairs_checked == pairs
    assert report.witness == witness
    assert report.rows == rows


def _star_flips(n):
    """Nonempty edge sets that one vertex covers: XOR with one of them is a
    rewiring of that vertex (bitmask oracle, independent of the cover table)."""
    masks = [0] * n
    for t, (u, v) in enumerate(triangular_slots(n)):
        masks[u] |= 1 << t
        masks[v] |= 1 << t
    flips = set()
    for vm in masks:
        sub = vm
        while sub:
            flips.add(sub)
            sub = (sub - 1) & vm
    return flips


def _loop_finite_audit(mechanism, n, epsilon, adjacent_only):
    """Pairs in row-major order (the neighbours of i by increasing index), so
    the witness is the first largest gap in (i, j, t) order."""
    graphs = list(all_graphs(n))
    logs = np.stack([np.asarray(mechanism(g).log_probs) for g in graphs])
    flips = _star_flips(n)
    worst, witness, pairs = -math.inf, None, 0
    for i in range(len(graphs)):
        for j in range(len(graphs)):
            if i == j or (adjacent_only and (i ^ j) not in flips):
                continue
            pairs += 1
            d = 1.0 if adjacent_only else float(node_distance(graphs[i], graphs[j]))
            gaps = logs[i] - logs[j] - epsilon * d
            t = int(gaps.argmax())
            if gaps[t] > worst:
                worst, witness = float(gaps[t]), (i, j, t)
    return worst, pairs, witness


@pytest.mark.parametrize("adjacent_only", [True, False])
@pytest.mark.parametrize("epsilon", [0.5, 1.0 / 200.0])
def test_finite_audit_matches_pair_loop(adjacent_only, epsilon):
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    mechanism = lambda g: block_mechanism(g, 0.5, cfg)[0]
    report = audit_finite_mechanism(mechanism, 4, epsilon, adjacent_only=adjacent_only)
    worst, pairs, witness = _loop_finite_audit(mechanism, 4, epsilon, adjacent_only)
    assert report.max_violation == worst
    assert report.pairs_checked == pairs == (1408 if adjacent_only else 64 * 63)
    assert report.witness == witness


@pytest.mark.parametrize(
    "mechanism",
    [
        lambda g: laplace_density_mechanism(g, 1.0),
        lambda g: LaplaceDensity(g.edge_count / 6.0, 0.05),  # violates
    ],
    ids=["laplace", "broken"],
)
def test_bitstring_audit_matches_pair_loop(mechanism):
    n_bits = 4
    report = audit_bitstring_reduction(mechanism, n_bits, 1.0, GRID)
    strings = [tuple((i >> t) & 1 for t in range(n_bits)) for i in range(1 << n_bits)]
    logs = np.stack(
        [np.asarray(mechanism(bernoulli_reduction_graph(s)).log_pdf(GRID)) for s in strings]
    )
    worst, witness, pairs = -math.inf, None, 0
    for i, si in enumerate(strings):
        for j, sj in enumerate(strings):
            if i == j:
                continue
            pairs += 1
            hamming = sum(a != b for a, b in zip(si, sj))
            gaps = logs[i] - logs[j] - 1.0 * hamming
            t = int(gaps.argmax())
            if gaps[t] > worst:
                worst, witness = float(gaps[t]), (i, j, float(GRID[t]))
    assert report.max_violation == worst
    assert report.pairs_checked == pairs
    assert report.witness == witness


@pytest.mark.parametrize("n,k,d,mu", [(4, 2, 4, 0.4), (5, 2, 4, 0.4), (4, 3, 3, 0.5)])
def test_measured_sensitivity_matches_pair_loop(n, k, d, mu):
    cands = candidate_matrices(n, k, mu)
    graphs = list(all_graphs(n))
    rows = {}
    capped = []
    for g in graphs:
        h = degree_cap(g, d)
        capped.append(h.key)
        if h.key not in rows:
            rows[h.key] = _best_scores_bulk(cands, h.adjacency.astype(float), n, k).values
    worst = 0.0
    flips = _star_flips(n)
    for i in range(len(graphs)):
        for f in flips:
            j = i ^ f
            if j > i:
                gap = float(np.abs(rows[capped[i]] - rows[capped[j]]).max())
                worst = max(worst, gap)
    measured_score_sensitivity.cache_clear()
    assert measured_score_sensitivity(n, k, mu, d) == worst


def test_pairwise_audits_refuse_n6():
    with pytest.raises(ResourceLimitError):
        audit_density_mechanism(
            lambda g: laplace_density_mechanism(g, 1.0), 6, 1.0, GRID, max_n=6
        )


def test_laplace_certificate_n5_in_bounded_memory():
    """The n = 5 certificate: 1,047,552 ordered pairs on a 200-point grid."""
    grid = np.linspace(-1.0, 2.0, 200)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        report = audit_density_mechanism(
            lambda g: laplace_density_mechanism(g, 1.0), 5, 1.0, grid, name="laplace-n5"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    print(f"laplace n=5 audit: {elapsed:.2f}s, tracemalloc peak {peak / 2**20:.1f} MiB")
    assert report.passed()
    assert report.pairs_checked == 1024 * 1023
    assert peak < 64 * 2**20
