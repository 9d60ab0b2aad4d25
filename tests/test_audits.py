import functools
import math
import time
import tracemalloc

import numpy as np
import pytest

import nodedp.audits as audits
import nodedp.block_estimator as block_estimator
from nodedp.audits import (
    AUDIT_TOLERANCE,
    _law_table,
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
    _top_level,
    block_laws,
    block_mechanism,
    candidate_matrices,
    measured_score_sensitivity,
)
from nodedp.density import (
    HomogeneityConfig,
    extended_density_mechanism,
    laplace_density_mechanism,
)
from nodedp.errors import ResourceLimitError
from nodedp.graphs import (
    LabeledGraph,
    all_adjacencies,
    all_graphs,
    degree_cap,
    node_distance,
    rewiring_pairs,
    triangular_slots,
)
from nodedp.mechanisms import (
    AUDIT_TABLE_BYTES,
    FiniteMechanism,
    LawTable,
    LaplaceDensity,
    PiecewiseExpDensity,
)


GRID = np.linspace(-1.0, 2.0, 401)


def test_audit_laplace_baseline_passes():
    eps = 1.0
    report = audit_density_mechanism(
        lambda g: laplace_density_mechanism(g, eps), 4, eps, GRID, name="laplace"
    )
    assert report.passed()
    assert report.pairs_checked == 64 * len(_star_flips(4)) == 1408


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
            lambda g: laplace_density_mechanism(g, 1.0), 7, 1.0, GRID
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
    assert report.pairs_checked == 16 * 4  # each string and its four one-bit flips


# -- the pair kernel against pair loops ------------------------------------------------
#
# The oracle is the loop the audits ran before they compared neighbours
# only: every ordered pair in row-major order, at its node_distance (or
# Hamming) distance, the first strictly larger gap kept as the witness.
# Restricted to the pairs at distance 1 it is the audits' own pair set.


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


@pytest.mark.parametrize("n,count", [(3, 48), (4, 1408), (5, 66560)])
def test_rewiring_pairs_are_the_star_flips_in_row_major_order(n, count):
    flips = _star_flips(n)
    graphs = range(1 << len(triangular_slots(n)))
    want = [(i, j) for i in graphs for j in sorted(i ^ f for f in flips)]
    first, second = rewiring_pairs(n)
    assert list(zip(first.tolist(), second.tolist())) == want
    assert len(want) == count


def _loop_audit(logs, distance, epsilon, neighbours_only):
    """Worst gap, pair count, witness (i, j, t) and per-pair rows over the
    ordered pairs of rows of logs: those at distance 1 with neighbours_only,
    else every pair at its distance."""
    worst, witness, pairs, rows = -math.inf, None, 0, []
    for i in range(len(logs)):
        for j in range(len(logs)):
            if i == j:
                continue
            d = float(distance(i, j))
            if neighbours_only and d != 1.0:
                continue
            pairs += 1
            ratios = logs[i] - logs[j]
            t = int((ratios - epsilon * d).argmax())
            gap = float(ratios[t]) - epsilon * d
            if gap > worst:
                worst, witness = gap, (i, j, t)
            rows.append((i, j, t, float(ratios[t]), epsilon * d, gap))
    return worst, pairs, witness, rows


@functools.lru_cache(maxsize=None)
def _node_distances(n):
    """[P, P] node_distance of every ordered pair of graphs of order n."""
    graphs = list(all_graphs(n))
    return np.array([[node_distance(g, h) for h in graphs] for g in graphs])


def _graph_distance(n):
    table = _node_distances(n)
    return lambda i, j: table[i, j]


def _hamming(i, j):
    return bin(i ^ j).count("1")


def _density_logs(mechanism, n, grid):
    return np.stack([np.asarray(mechanism(g).log_pdf(grid)) for g in all_graphs(n)])


def _bitstring_logs(mechanism, n_bits, grid):
    strings = [tuple((i >> t) & 1 for t in range(n_bits)) for i in range(1 << n_bits)]
    return np.stack(
        [np.asarray(mechanism(bernoulli_reduction_graph(s)).log_pdf(grid)) for s in strings]
    )


# Three law objects, shared by the graphs of each edge count mod 3: graphs
# 1 and 2 (one edge each) share one, and 0 and 3 differ.
_SHARED_LAWS = [LaplaceDensity(c, 0.25) for c in (0.2, 0.5, 0.8)]


@pytest.mark.parametrize(
    "mechanism",
    [
        lambda g: laplace_density_mechanism(g, 1.0),
        lambda g: LaplaceDensity(g.edge_count / 6.0, 0.25),  # violates
        lambda g: _SHARED_LAWS[g.edge_count % 3],  # violates
    ],
    ids=["laplace", "broken", "shared"],
)
def test_density_audit_matches_pair_loop(mechanism):
    report = audit_density_mechanism(mechanism, 4, 1.0, GRID, collect_rows=True)
    logs = _density_logs(mechanism, 4, GRID)
    worst, pairs, (i, j, t), rows = _loop_audit(logs, _graph_distance(4), 1.0, True)
    assert report.max_violation == worst
    assert report.pairs_checked == pairs == 1408
    assert report.witness == (i, j, float(GRID[t]))
    assert report.rows == tuple((i, j, float(GRID[t]), r, b, g) for i, j, t, r, b, g in rows)


def test_density_audit_fills_one_row_per_law_object(monkeypatch):
    filled = []
    log_pdf = PiecewiseExpDensity.log_pdf
    monkeypatch.setattr(
        PiecewiseExpDensity, "log_pdf", lambda law, q: filled.append(id(law)) or log_pdf(law, q)
    )
    extended = extended_density_mechanism(5, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=5))
    report = audit_density_mechanism(extended, 5, 1.0, np.linspace(0.0, 1.0, 201))
    # 1,024 graphs, 22 distinct law objects, one row each
    assert len(filled) == len(set(filled)) == 22
    assert report.pairs_checked == 66560 and report.passed()


def _all_pairs_panel():
    """(report, logs, distance, epsilon) for calibrated and broken Laplace
    laws at n = 3 and 4, the n = 4 extension and 4-bit strings."""
    panel = []
    for n in (3, 4):
        for scale, eps in ((4.0 / n, 1.0), (2.0 / n, 1.0), (1.0 / n, 1.0), (0.5 / n, 2.0)):
            mech = lambda g, s=scale, n=n: LaplaceDensity(g.edge_count / math.comb(n, 2), s)
            report = audit_density_mechanism(mech, n, eps, GRID)
            panel.append((report, _density_logs(mech, n, GRID), _graph_distance(n), eps))
    extended = extended_density_mechanism(4, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=4))
    unit = np.linspace(0.0, 1.0, 201)
    for claim in (0.5, 1.0, 2.0, 4.0):
        report = audit_density_mechanism(extended, 4, claim, unit)
        panel.append((report, _density_logs(extended, 4, unit), _graph_distance(4), claim))
    for scale in (None, 0.05, 0.5):
        mech = (
            (lambda g: laplace_density_mechanism(g, 1.0)) if scale is None
            else (lambda g, s=scale: LaplaceDensity(g.edge_count / 6.0, s))
        )
        report = audit_bitstring_reduction(mech, 4, 1.0, GRID)
        panel.append((report, _bitstring_logs(mech, 4, GRID), _hamming, 1.0))
    return panel


def test_neighbour_audits_keep_the_all_pairs_verdict():
    """Node distance and Hamming distance are path metrics, so the bound on
    pairs one step apart decides the bound on every pair: same verdict, and
    a worst gap no larger than over all pairs (equal when the audit passes)."""
    verdicts = set()
    for report, logs, distance, eps in _all_pairs_panel():
        worst, pairs, _, _ = _loop_audit(logs, distance, eps, False)
        assert pairs == len(logs) * (len(logs) - 1)
        assert report.passed() == (worst <= AUDIT_TOLERANCE)
        assert report.max_violation <= worst
        if report.passed():
            assert report.max_violation == worst
        verdicts.add(report.passed())
    assert verdicts == {True, False}  # the panel holds both outcomes


@pytest.mark.parametrize("neighbours_only", [True, False])
@pytest.mark.parametrize("epsilon", [0.5, 1.0 / 200.0])
def test_finite_audit_matches_pair_loop(neighbours_only, epsilon):
    """With neighbours_only the loop is the audit's own pair set, and every
    reported value matches; over all pairs the verdict matches."""
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    mechanism = lambda g: block_mechanism(g, 0.5, cfg)[0]
    report = audit_finite_mechanism(mechanism, 4, epsilon)
    logs = np.stack([mechanism(g).log_probs for g in all_graphs(4)])
    worst, pairs, witness, _ = _loop_audit(logs, _graph_distance(4), epsilon, neighbours_only)
    assert report.pairs_checked == 1408
    assert report.passed() == (worst <= AUDIT_TOLERANCE)
    if neighbours_only:
        assert report.max_violation == worst
        assert pairs == 1408
        assert report.witness == witness
    else:
        assert pairs == 64 * 63
        assert report.max_violation <= worst


@pytest.mark.parametrize(
    "mechanism",
    [
        lambda g: laplace_density_mechanism(g, 1.0),
        lambda g: LaplaceDensity(g.edge_count / 6.0, 0.05),  # violates
    ],
    ids=["laplace", "broken"],
)
def test_bitstring_audit_matches_pair_loop(mechanism):
    report = audit_bitstring_reduction(mechanism, 4, 1.0, GRID)
    logs = _bitstring_logs(mechanism, 4, GRID)
    worst, pairs, (i, j, t), _ = _loop_audit(logs, _hamming, 1.0, True)
    assert report.max_violation == worst
    assert report.pairs_checked == pairs == 64
    assert report.witness == (i, j, float(GRID[t]))


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
            rows[h.key] = _best_scores_bulk(cands, h.adjacency[None].astype(float), n, k).values
    worst = 0.0
    flips = _star_flips(n)
    for i in range(len(graphs)):
        for f in flips:
            j = i ^ f
            if j > i:
                gap = float(np.abs(rows[capped[i]] - rows[capped[j]]).max())
                worst = max(worst, gap)
    measured_score_sensitivity.cache_clear()
    assert measured_score_sensitivity(n, k, mu, d).delta == worst


# rho_hat values whose k = 2 grids hold 1, 8, 27, 64 and 125 candidates
# at n = 4 (1, 8, 27, 27 and 64 at n = 3) with lambda = 2
BATCH_RHO_HATS = (0.1, 0.2, 0.34, 0.4, 0.5)


@pytest.mark.parametrize("mode", ["audited", "theoretical"])
@pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_batched_block_laws_match_the_per_graph_mechanisms(n, k, mode):
    # the batched log-pmf table, read through its law_of, is the per-graph
    # mechanisms' log pmfs byte for byte, on every piece tried, the
    # one-candidate grid among them; theoretical mode gives a row per graph
    # off that grid, and audited mode the score table's rows
    graphs = list(all_graphs(n))
    for rho_hat in BATCH_RHO_HATS:
        cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=k, sensitivity_mode=mode)
        laws = block_laws(all_adjacencies(n), rho_hat, cfg)
        logs = laws.log_probs()
        want = np.stack([block_mechanism(g, rho_hat, cfg)[0].log_probs for g in graphs])
        assert logs.rows[logs.law_of].tobytes() == want.tobytes()
        assert logs.law_of.tolist() == laws.scores.law_of.tolist()
        assert logs.rows.flags.c_contiguous and laws.scores.rows.flags.c_contiguous
        assert laws.scores.rows.shape == logs.rows.shape
        assert logs.rows.shape[1] == laws.levels.shape[0]
        if laws.degree_cap == 0:
            assert logs.rows.shape[0] == 1
        elif mode == "theoretical":
            assert logs.law_of.tolist() == list(range(len(graphs)))
        else:
            table = measured_score_sensitivity(n, k, 2.0 * rho_hat, laws.degree_cap)
            assert laws.scores.rows is table.scores.rows


@pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_block_audit_reports_what_the_per_graph_audit_reports(n, k):
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=k, sensitivity_mode="audited")
    for rho_hat in BATCH_RHO_HATS:
        for epsilon in (0.5, 0.01):
            got = audit_block_mechanism(n, rho_hat, cfg, epsilon, collect_rows=True)
            want = audit_finite_mechanism(
                lambda g: block_mechanism(g, rho_hat, cfg)[0], n, epsilon, collect_rows=True
            )
            assert got.mechanism == f"block-mechanism(rho_hat={rho_hat})"
            assert (got.max_violation, got.pairs_checked, got.witness, got.column) == (
                want.max_violation, want.pairs_checked, want.witness, want.column
            )
            assert got.rows == want.rows


# 1 byte: one graph, one partition and one candidate per chunk
@pytest.mark.parametrize("chunk_bytes", [None, 1, 4096])
@pytest.mark.parametrize("k,mu", [(2, 1.0), (3, 0.5)])
def test_batched_scores_are_c_contiguous_graph_rows(k, mu, chunk_bytes, monkeypatch):
    graphs = np.stack([g.adjacency for g in all_graphs(4)]).astype(float)
    cands = candidate_matrices(4, k, mu)
    want = [_best_scores_bulk(cands, a[None], 4, k) for a in graphs]
    if chunk_bytes is not None:
        monkeypatch.setattr(block_estimator, "_SCORE_CHUNK_BYTES", chunk_bytes)
    got = _best_scores_bulk(cands, graphs, 4, k)
    assert got.values.flags.c_contiguous and got.values.shape == (64, cands.shape[0])
    assert got.values.tobytes() == np.concatenate([w.values for w in want]).tobytes()
    assert got.distinct_rows.tolist() == [w.distinct_rows[0] for w in want]


@pytest.mark.parametrize(
    "n,k,mu,d,want",
    [
        (3, 2, 1.0, 2, 0.8888888888888888),
        (4, 2, 0.4, 4, 0.1875),
        (4, 2, 1.0, 4, 0.75),
        (4, 3, 0.5, 3, 0.375),
        (5, 2, 0.4, 4, 0.256),
        (5, 3, 0.4, 2, 0.128),
        (5, 1, 1.0, 3, 0.48000000000000004),
        (5, 2, 1.0, 2, 0.32000000000000006),
        (6, 2, 0.6, 2, 0.16666666666666669),
    ],
)
def test_measured_sensitivity_values_are_pinned(n, k, mu, d, want):
    measured_score_sensitivity.cache_clear()
    assert measured_score_sensitivity(n, k, mu, d).delta == want


def _piece_ends(n, lam, pieces):
    """Both ends of each of the first pieces of constant top level
    L = _top_level(n, lam rho_hat) over the released densities
    [1/n^2, 1], in order: stage 1 releases rho_hat anywhere there, and the
    selection law depends on rho_hat only through L."""

    def first(j):
        """The least rho_hat whose top level is j."""
        x = (j - 1e-9) / (lam * n)
        while _top_level(n, lam * x) >= j:
            x = math.nextafter(x, 0.0)
        while _top_level(n, lam * x) < j:
            x = math.nextafter(x, 1.0)
        return x

    assert _top_level(n, lam / n**2) == 0 and _top_level(n, lam) == int(lam * n)
    ends = [1.0 / n**2]
    for j in range(1, pieces):
        ends += [math.nextafter(first(j), 0.0), first(j)]  # the last of piece j - 1, the first of j
    ends.append(1.0 if pieces == int(lam * n) + 1 else math.nextafter(first(pieces), 0.0))
    return ends


# every piece at k = 2; at n = 4, k = 3 the pieces up to 5^6 = 15,625
# candidates, L <= 4 (the L = 8 piece is refused, as tested below)
DENSITY_PIECES = [(3, 2, 7), (4, 2, 9), (3, 3, 7), (4, 3, 5)]


@pytest.mark.parametrize("n,k,pieces", DENSITY_PIECES)
def test_block_selection_is_certified_at_every_density_piece(n, k, pieces):
    # each piece of constant L fixes the grid, the cap and the measured
    # Delta, so auditing both sides of every breakpoint certifies stage 2 at
    # every density
    eps, lam = 1.0, 2.0
    cfg = EstimatorConfig(epsilon=eps, lam=lam, k=k, sensitivity_mode="audited")
    probe = LabeledGraph.empty(n)
    caps = []
    for rho_hat in _piece_ends(n, lam, pieces):
        report = audit_block_mechanism(n, rho_hat, cfg, eps / 2.0)
        assert report.passed(), (rho_hat, report.max_violation)
        caps.append(block_mechanism(probe, rho_hat, cfg)[3]["degree_cap"])
    assert caps == [j for j in range(pieces) for _ in range(2)]


@pytest.mark.parametrize("n,k,pieces", DENSITY_PIECES)
def test_audited_block_laws_read_the_scored_route_from_the_score_table(n, k, pieces):
    # audited block_laws reads each graph's row of measured_score_sensitivity's
    # table; capping and scoring the stack itself gives the same bytes, and
    # the exhaustive Delta over its rows is the table's
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=k, sensitivity_mode="audited")
    stack = all_adjacencies(n)
    first, second = rewiring_pairs(n)
    for rho_hat in _piece_ends(n, 2.0, pieces):
        measured_score_sensitivity.cache_clear()
        laws = block_laws(stack, rho_hat, cfg)
        scores = laws.scores.rows[laws.scores.law_of]
        if laws.degree_cap == 0:  # the one-candidate grid, never scored
            assert scores.tolist() == [[0.0]] * len(stack) and laws.delta == 0.0
            continue
        levels = candidate_matrices(n, k, 2.0 * rho_hat)
        capped = degree_cap(stack, laws.degree_cap).astype(float)
        want = _best_scores_bulk(levels, capped, n, k)
        delta = max(0.0, float(np.abs(want.values[first] - want.values[second]).max()))
        assert laws.levels.tobytes() == levels.tobytes()
        assert scores.tobytes() == want.values.tobytes()
        assert laws.distinct_rows.tolist() == want.distinct_rows.tolist()
        assert laws.delta == delta
        coefficient = math.inf if delta <= 0.0 else 1.0 / (4.0 * delta)
        scored = laws._replace(
            scores=LawTable(want.values, np.arange(len(stack))), delta=delta,
            coefficient=coefficient,
        )
        logs, scored_logs = laws.log_probs(), scored.log_probs()
        assert logs.rows[logs.law_of].tobytes() == scored_logs.rows.tobytes()


def test_an_audited_block_audit_scores_once(monkeypatch):
    calls = []
    score = block_estimator._best_scores_bulk

    def counted(*args):
        calls.append(args[1].shape[0])
        return score(*args)

    monkeypatch.setattr(block_estimator, "_best_scores_bulk", counted)
    measured_score_sensitivity.cache_clear()
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    assert audit_block_mechanism(4, 0.5, cfg, 0.5).passed()
    assert calls == [64]  # the 64 capped graphs at d = 4 are all distinct


def test_block_audit_refuses_an_oversized_table_before_scoring(monkeypatch):
    # 64 graphs x 9^6 = 531,441 candidates at n = 4, k = 3, mu = 2: 272 MB;
    # 1,024 graphs x 6^6 = 46,656 at n = 5, k = 3, mu = 1: 382 MB
    def unreachable(*args):
        raise AssertionError("scored a table the audit cap refuses")

    monkeypatch.setattr(block_estimator, "_best_scores_bulk", unreachable)
    monkeypatch.setattr(block_estimator, "measured_score_sensitivity", unreachable)
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=3, sensitivity_mode="audited")
    with pytest.raises(ResourceLimitError, match="64 rows x 531441 candidates"):
        audit_block_mechanism(4, 1.0, cfg, 0.5)
    with pytest.raises(ResourceLimitError, match="1024 rows x 46656 candidates"):
        audit_block_mechanism(5, 0.5, cfg, 0.5)


@pytest.mark.parametrize("n,k,mu,d", [(3, 2, 1.0, 1), (4, 2, 1.0, 4), (4, 2, 0.4, 2),
                                       (4, 3, 0.5, 3), (5, 2, 0.4, 4), (5, 2, 1.0, 2)])
def test_score_table_names_each_law_by_its_score_row(n, k, mu, d):
    # the producer's laws: rows pairwise byte-distinct, each one some graph's,
    # and every graph's row, read through law_of, the bytes of its capped
    # graph scored on its own; distinct_rows is kept per graph index
    measured_score_sensitivity.cache_clear()
    table = measured_score_sensitivity(n, k, mu, d)
    rows, law_of = table.scores
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert sorted(set(law_of.tolist())) == list(range(len(rows)))
    assert law_of.shape == table.distinct_rows.shape == (2 ** math.comb(n, 2),)
    for array in (rows, law_of, table.distinct_rows, table.levels):
        assert not array.flags.writeable
    for index, g in enumerate(all_graphs(n)):
        alone = _best_scores_bulk(table.levels, degree_cap(g, d).adjacency[None].astype(float),
                                  n, k)
        assert rows[law_of[index]].tobytes() == alone.values[0].tobytes()
        assert table.distinct_rows[index] == alone.distinct_rows[0]


def test_block_audit_at_n5_reports_what_the_per_graph_audit_reports():
    # the command line's defaults at n = 5: 1,024 graphs and 66,560 pairs,
    # against the per-graph reference of block_mechanism's own laws
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    got = audit_block_mechanism(5, 0.5, cfg, 0.5, collect_rows=True)
    want = audit_finite_mechanism(
        lambda g: block_mechanism(g, 0.5, cfg)[0], 5, 0.5, collect_rows=True
    )
    assert got.passed() and want.passed()
    assert (got.max_violation, got.pairs_checked, got.witness) == (
        want.max_violation, want.pairs_checked, want.witness
    )
    assert got.pairs_checked == 66560
    assert got.rows == want.rows


def test_pairwise_audits_refuse_n7(monkeypatch):
    with pytest.raises(ResourceLimitError, match="pairwise audits"):
        audit_density_mechanism(
            lambda g: laplace_density_mechanism(g, 1.0), 7, 1.0, GRID
        )

    def unreachable(*args):
        raise AssertionError("built a law the audit refuses")

    # the block audit, before its graph stack or any score
    monkeypatch.setattr(audits, "all_adjacencies", unreachable)
    monkeypatch.setattr(block_estimator, "measured_score_sensitivity", unreachable)
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    with pytest.raises(ResourceLimitError, match="pairwise audits limited to n <= 6"):
        audit_block_mechanism(7, 0.5, cfg, 0.5)


def test_finite_and_bitstring_audits_refuse_above_their_limits():
    def never_called(g):
        raise AssertionError("mechanism built before the size guard")

    with pytest.raises(ResourceLimitError, match="pairwise audits limited to n <= 6"):
        audit_finite_mechanism(never_called, 7, 1.0)
    with pytest.raises(ResourceLimitError, match="6 bits"):
        audit_bitstring_reduction(never_called, 7, 1.0, GRID)


def test_an_oversized_audit_table_is_refused_after_its_first_row():
    # 1,024 graphs, each given its own law object, x 40,000 grid points: a
    # 328 MB law table, over the cap
    filled = []

    class Law:
        def __init__(self, g):
            self.base = laplace_density_mechanism(g, 1.0)

        def log_pdf(self, q):
            filled.append(self)
            return self.base.log_pdf(q)

    grid = np.linspace(-1.0, 2.0, 40_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="1024 rows x 40000 grid points take a "
                                                     "327680000-byte table"):
            audit_density_mechanism(Law, 5, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(filled) == 1
    assert peak < AUDIT_TABLE_BYTES / 64


def test_laplace_and_extension_certificates_n6_in_bounded_memory():
    """n = 6: 32,768 graphs and 5,603,328 ordered rewiring pairs on the
    command line's 1,000-point grids, each audit a table of its laws."""
    laplace_grid, unit = np.linspace(-1.0, 2.0, 1000), np.linspace(0.0, 1.0, 1000)
    tracemalloc.start()
    try:
        laplace = audit_density_mechanism(
            lambda g: laplace_density_mechanism(g, 1.0), 6, 1.0, laplace_grid
        )
        extended = extended_density_mechanism(6, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=6))
        extension = audit_density_mechanism(extended, 6, 1.0, unit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert laplace.passed() and extension.passed()
    assert laplace.pairs_checked == extension.pairs_checked == 5603328
    assert abs(laplace.max_violation + 0.5) <= 1e-12
    assert laplace.witness == (1, 3619, float(laplace_grid[1]))
    assert round(extension.max_violation, 5) == -0.99195
    assert peak < 256 * 2**20


def test_per_pair_rows_are_refused_at_n6_before_any_law():
    def never_called(g):
        raise AssertionError("mechanism built before the row guard")

    with pytest.raises(ResourceLimitError, match="per-pair audit rows limited to n <= 5"):
        audit_density_mechanism(never_called, 6, 1.0, GRID, collect_rows=True)


def test_value_keyed_laws_give_every_graph_its_own_row_bytes():
    # LaplaceDensity is keyed by value, so the graphs of one edge count share
    # a row, and that row holds each one's own log density, bit for bit
    for n in (2, 3, 4, 5):
        for epsilon in (1.0, 0.25):
            laws = [laplace_density_mechanism(g, epsilon) for g in all_graphs(n)]
            table = _law_table(laws, GRID)
            assert len(table.rows) == math.comb(n, 2) + 1
            for law, row in zip(laws, table.law_of.tolist()):
                assert law.log_pdf(GRID).tobytes() == table.rows[row].tobytes()


def test_finite_audit_refuses_candidate_lists_of_unequal_length():
    with pytest.raises(ValueError, match="candidate lists differ across inputs"):
        audit_finite_mechanism(lambda g: FiniteMechanism(np.zeros(1 + g.edge_count)), 3, 1.0)


def test_laplace_certificate_n5_in_bounded_memory():
    """The n = 5 certificate: 66,560 ordered rewiring pairs on a 200-point grid."""
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
    assert report.pairs_checked == 1024 * len(_star_flips(5)) == 66560
    assert peak < 64 * 2**20
