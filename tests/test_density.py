import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import special

from nodedp.density import (
    HomogeneityConfig,
    _extension_groups,
    _homogeneity_and_counts,
    _lower_gamma_3,
    extended_density_estimator,
    extended_density_law,
    extended_density_mechanism,
    homogeneity_membership,
    laplace_density_estimator,
    laplace_density_mechanism,
    predicted_baseline_mse,
    predicted_restricted_mse,
    restricted_density_estimator,
    restricted_density_mechanism,
)
from nodedp.errors import ResourceLimitError
from nodedp.graphs import (
    REWIRING_PAIRS_MAX_N,
    LabeledGraph,
    all_graphs,
    edge_density,
    group_distance_row,
    group_distances,
    node_distance,
)
from nodedp.graphons import sample_gnp
from nodedp.audits import audit_density_mechanism
from nodedp.mechanisms import sample_laplace, truncation_rate
from nodedp.rng import substream


# -- Laplace baseline ------------------------------------------------------------


def test_baseline_huge_epsilon_returns_density():
    g = LabeledGraph.from_edges(5, [(0, 1), (1, 2)])
    est = laplace_density_estimator(g, 1e9, substream(0, "base"))
    assert est.value == pytest.approx(edge_density(g), abs=1e-6)
    assert est.mode == "baseline" and est.dp_domain == "all graphs"


def test_baseline_clamps_to_unit_interval():
    g = LabeledGraph.empty(4)
    values = [
        laplace_density_estimator(g, 0.01, substream(1, "clamp", t)).value
        for t in range(200)
    ]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_baseline_raw_mse_matches_analytic_oracle():
    # e(G) for G(n,p) is Binomial(C(n,2), p)/C(n,2); simulate at the
    # distribution level and compare against the closed form
    n, p, eps, trials = 128, 0.5, 1.0, 10**5
    rng = substream(2, "base-mse")
    nslots = n * (n - 1) // 2
    e = rng.binomial(nslots, p, size=trials) / nslots
    raw = e + sample_laplace(4.0 / (n * eps), rng, size=trials)
    mse = float(((raw - p) ** 2).mean())
    assert abs(mse - predicted_baseline_mse(n, p, eps)) <= 0.15 * predicted_baseline_mse(
        n, p, eps
    )


def test_baseline_dp_audit_n4():
    eps, n = 1.0, 4
    mech = lambda g: laplace_density_mechanism(g, eps)
    grid = np.linspace(-1.0, 2.0, 501)
    assert audit_density_mechanism(mech, n, eps, grid).max_violation <= 1e-9


# -- homogeneity set -----------------------------------------------------------------


def _brute_force_membership(g, cfg):
    # independent reimplementation: plain loops over subsets
    if edge_density(g) > cfg.rho + 1e-12:
        return False
    n = g.n
    e = edge_density(g)
    adj = g.adjacency
    for size in range(1, n + 1):
        for members in itertools.combinations(range(n), size):
            s = set(members)
            boundary = sum(
                1 for u in range(n) for v in range(u + 1, n)
                if adj[u, v] and (u in s or v in s)
            )
            slots = size * (n - size) + size * (size - 1) / 2.0
            if abs(boundary - e * slots) > float(cfg.tolerance(size)) + 1e-9:
                return False
    return True


def test_homogeneity_complete_and_empty_graphs_belong():
    cfg = HomogeneityConfig(rho=1.0, C=49.0, n=8)
    assert homogeneity_membership(LabeledGraph.complete(8), cfg)
    assert homogeneity_membership(LabeledGraph.empty(8), cfg)
    # the complete graph's deviations vanish identically
    assert _mask_margin(LabeledGraph.complete(8), cfg) < 0


def test_homogeneity_density_cap_excludes():
    cfg = HomogeneityConfig(rho=0.2, C=49.0, n=6)
    assert not homogeneity_membership(LabeledGraph.complete(6), cfg)


def test_homogeneity_matches_brute_force_reimplementation():
    cfg = HomogeneityConfig(rho=1.0, C=49.0, n=12)
    clique_plus_isolated = LabeledGraph.from_edges(
        12, [(u, v) for u in range(6) for v in range(u + 1, 6)]
    )
    assert homogeneity_membership(clique_plus_isolated, cfg) == _brute_force_membership(
        clique_plus_isolated, cfg
    )
    rng = substream(3, "homog-brute")
    for t in range(5):
        g = sample_gnp(9, 0.4, rng)
        cfg9 = HomogeneityConfig(rho=1.0, C=49.0, n=9)
        assert homogeneity_membership(g, cfg9) == _brute_force_membership(g, cfg9)


def test_homogeneity_tight_tolerance_detects_violation():
    # a low-C-like regime via tiny rho: the star's hub subset deviates
    cfg = HomogeneityConfig(rho=1.0, C=48.5, n=12)
    # margin computation agrees with brute force on a structured graph
    star = LabeledGraph.from_edges(12, [(0, leaf) for leaf in range(1, 12)])
    assert homogeneity_membership(star, cfg) == _brute_force_membership(star, cfg)


def test_homogeneity_membership_refuses_where_the_tolerance_may_bind():
    # a graph under the density cap is in H only where every subset passes,
    # which check_density_cap decides; elsewhere membership is refused, and
    # no sampled audit stands in for it.  At n = 300, rho = 0.01, C = 49,
    # tolerance(1) is 279.5 < 300
    g = sample_gnp(300, 0.001, substream(4, "homog-large"))
    cfg = HomogeneityConfig(rho=0.01, C=49.0, n=300)
    assert edge_density(g) <= cfg.rho
    with pytest.raises(ResourceLimitError, match=r"tolerance\(1\) = 279.5 < n = 300"):
        homogeneity_membership(g, cfg)
    with pytest.raises(ResourceLimitError, match=r"tolerance\(1\) >= n"):
        cfg.check_density_cap()
    # over the density cap, the answer needs no subset at any n
    dense = sample_gnp(300, 0.05, substream(4, "homog-large-dense"))
    assert not homogeneity_membership(dense, cfg)
    # at n = 18 the check passes, so a graph under the cap is in H
    g18 = sample_gnp(18, 0.5, substream(4, "homog-18"))
    assert homogeneity_membership(g18, HomogeneityConfig(rho=1.0, C=49.0, n=18))
    assert not homogeneity_membership(g18, HomogeneityConfig(rho=0.1, C=49.0, n=18))


def test_membership_at_n17_is_the_mask_scan():
    rng = substream(29, "homog-17")
    for p in (0.1, 0.5, 0.9):
        g = sample_gnp(17, p, rng)
        for rho in (0.3, 1.0):
            cfg = HomogeneityConfig(rho=rho, C=49.0, n=17)
            expected = edge_density(g) <= rho and _mask_margin(g, cfg) <= 1e-9
            assert homogeneity_membership(g, cfg) == expected


def test_homogeneity_config_of_another_order_is_refused():
    """The tolerance and the promise law are calibrated for cfg.n, so a
    graph of another order must not be checked or released against them."""
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=5)
    g = sample_gnp(12, 0.3, substream(6, "order-guard"))
    rng = substream(6, "order-guard-release")
    calls = [
        lambda: restricted_density_mechanism(g, 1.0, cfg),
        lambda: restricted_density_estimator(g, 1.0, cfg, rng),
        lambda: homogeneity_membership(g, cfg),
        lambda: extended_density_mechanism(4, 1.0, cfg),
        lambda: extended_density_estimator(LabeledGraph.empty(4), 1.0, cfg, rng),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="homogeneity config is for n = 5"):
            call()


def _mask_margin(g, cfg):
    """max over nonempty S of |boundary(S) - e(G) slots(S)| - tolerance(|S|),
    through a [subsets, edges] boundary mask: the exact 2^n - 1 subset scan,
    nonpositive iff every subset passes, which the density-cap membership
    is checked against."""
    n = g.n
    ids = np.arange(1, 1 << n)
    masks = (ids[:, None] >> np.arange(n)) & 1 == 1
    sizes = masks.sum(axis=1)
    slots = sizes * (n - sizes) + sizes * (sizes - 1) / 2.0
    us, vs = g.edges().T
    boundary = (masks[:, us] | masks[:, vs]).sum(axis=1)
    deviation = np.abs(boundary - edge_density(g) * slots)
    return float((deviation - cfg.tolerance(sizes)).max())


# rho = 0.05 admits the empty graph alone at n = 3..5 and rho = 1.0 every
# graph; rho = 0.5 falls on an edge count at n = 4 and 5 and between two at
# n = 3; rho = 1/3 falls on one at n = 3 and 4 (1/3 == 2/6) and between two
# at n = 5
@pytest.mark.parametrize(
    "rho, C",
    [(rho, C) for rho in (0.05, 0.5, 1.0) for C in (48.001, 49.0, 200.0)]
    + [(1.0 / 3.0, 60.0)],
)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_batched_scan_matches_the_per_graph_scan_on_every_graph(n, rho, C):
    # the extension's edge-count membership and the per-graph membership
    # are the plain-loop subset scan's answer on every graph
    cfg = HomogeneityConfig(rho=rho, C=C, n=n)
    in_h, counts = _homogeneity_and_counts(n, cfg)
    graphs = list(all_graphs(n))
    assert in_h.dtype == bool and in_h.shape == (len(graphs),)
    assert counts.tolist() == [g.edge_count for g in graphs]
    assert in_h.tolist() == [homogeneity_membership(g, cfg) for g in graphs]
    assert in_h.tolist() == [_brute_force_membership(g, cfg) for g in graphs]


def test_every_subset_passes_at_the_orders_read_from_edge_counts():
    # tolerance(1) >= n bounds every deviation (below s n for |S| = s), so
    # only the density cap can exclude a graph: for any C > 48 this holds
    # through n = 268, the last n with 48 log n >= n
    for n in range(3, 269):
        cfg = HomogeneityConfig(rho=1e-9, C=48.0 + 1e-9, n=n)
        assert cfg.tolerance(1) >= n
        cfg.check_density_cap()
    assert 48 * math.log(269) < 269
    with pytest.raises(ResourceLimitError):
        HomogeneityConfig(rho=1e-9, C=48.0 + 1e-9, n=269).check_density_cap()
    for n in range(3, 17):
        cfg = HomogeneityConfig(rho=1.0, C=48.0 + 1e-9, n=n)
        assert _mask_margin(LabeledGraph.complete(n), cfg) < 0
        star = LabeledGraph.from_edges(n, [(0, v) for v in range(1, n)])
        assert _mask_margin(star, cfg) < 0


# -- restricted estimator ----------------------------------------------------------------


def test_restricted_mean_tracks_center_when_tail_negligible():
    # the flat tail carries weight exp(-n * eps / (16 C)); it only becomes
    # negligible for n well beyond 16 C / eps, so test the law there
    from nodedp.mechanisms import truncated_laplace_density

    n, eps, C, rho, center = 20000, 1.0, 49.0, 0.5, 0.45
    dens = truncated_laplace_density(center, eps, C, rho, n)
    draws = dens.sample(substream(6, "restricted-mean"), size=10**5)
    sigma = math.sqrt(2 * (16 * C / (eps * truncation_rate(n, rho))) ** 2 / 10**5)
    assert abs(draws.mean() - center) <= 3 * sigma


def test_restricted_mse_within_analytic_bound():
    n, eps, C, rho = 256, 1.0, 49.0, 0.5
    predicted = predicted_restricted_mse(n, rho, eps, C)
    bound = 3 * (8 * C) ** 2 * 2 / (eps**2 * truncation_rate(n, rho) ** 2)
    assert predicted <= bound
    # Monte Carlo cross-check of the quadrature oracle
    from nodedp.mechanisms import truncated_laplace_density

    dens = truncated_laplace_density(0.5, eps, C, rho, n)
    draws = dens.sample(substream(7, "restricted-mse"), size=10**5)
    mc = float(((draws - 0.5) ** 2).mean())
    assert abs(mc - predicted) <= 0.05 * predicted


def test_restricted_pairwise_ratio_bound_on_h_pairs_n8():
    n, eps, C, rho = 8, 1.0, 49.0, 1.0
    cfg = HomogeneityConfig(rho=rho, C=C, n=n)
    rng = substream(8, "h-pairs")
    grid = np.linspace(0.0, 1.0, 1000)
    pairs = 0
    while pairs < 60:
        g1, g2 = sample_gnp(n, 0.5, rng), sample_gnp(n, 0.5, rng)
        if not (homogeneity_membership(g1, cfg) and homogeneity_membership(g2, cfg)):
            continue
        pairs += 1
        d1 = restricted_density_mechanism(g1, eps, cfg)
        d2 = restricted_density_mechanism(g2, eps, cfg)
        gap = float(np.max(d1.log_pdf(grid) - d2.log_pdf(grid)))
        assert gap <= (eps / 2.0) * node_distance(g1, g2) + 1e-9


def test_restricted_estimate_record_fields():
    g = LabeledGraph.from_edges(6, [(0, 1), (2, 3)])
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=6)
    est = restricted_density_estimator(g, 1.0, cfg, substream(9, "rest"))
    assert est.mode == "promise"
    assert est.epsilon == 0.5
    assert "H(" in est.dp_domain
    assert 0.0 <= est.value <= 1.0


# -- extension ----------------------------------------------------------------------------


def test_extended_exact_agrees_with_restricted_on_h():
    n, eps = 4, 1.0
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=n)
    mech = extended_density_mechanism(n, eps, cfg)
    grid = np.linspace(0.0, 1.0, 801)
    checked = 0
    for g in all_graphs(n):
        if homogeneity_membership(g, cfg):
            base = restricted_density_mechanism(g, eps, cfg)
            gap = np.abs(mech(g).log_pdf(grid) - base.log_pdf(grid))
            assert float(gap.max()) <= 1e-9
            checked += 1
    assert checked > 0


# SHA-256 over the xs, ys and log_normalizer bytes of the extended law at
# every n = 5 input in index order (rho 0.5, C 49, eps 1), recorded from the
# per-graph build (one LabeledGraph and one membership scan per input, one
# base law per H member, shapes grouped by their bytes) that the index-based
# build replaced.
EXTENDED_N5_SHA256 = "025cc1aa47eea9b2d892812d04bfd54114ba9fb31a63981e6d8e06c303d4b813"


def test_extended_law_bytes_are_pinned_at_every_n5_input():
    mech = extended_density_mechanism(5, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=5))
    digest = hashlib.sha256()
    for g in all_graphs(5):
        dens = mech(g)
        digest.update(dens.shape.xs.tobytes())
        digest.update(dens.shape.ys.tobytes())
        digest.update(np.float64(dens.log_normalizer).tobytes())
    assert digest.hexdigest() == EXTENDED_N5_SHA256


# SHA-256 over the _h0, _beta and _cum bytes of the same laws, recorded
# from the build that made each law on first use, one piecewise_min and one
# PiecewiseExpDensity per distinct distance row.
EXTENDED_N5_TABLES_SHA256 = "674c45c0361a167b3a19cb0b281a90651716b56609dd4136848eb1995a284b3a"


def test_extended_law_tables_are_pinned_at_every_n5_input():
    mech = extended_density_mechanism(5, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=5))
    digest = hashlib.sha256()
    for g in all_graphs(5):
        dens = mech(g)
        for a in (dens._h0, dens._beta, dens._cum):
            digest.update(a.tobytes())
    assert digest.hexdigest() == EXTENDED_N5_TABLES_SHA256


# SHA-256 over the same bytes, as the two digests above, at every n = 6
# input (rho 0.5, C 49, eps 1): 51 laws.  Recorded when the exact range
# reached n = 6; the build before it, with its cap lifted, gives the same
# digests.
EXTENDED_N6_SHA256 = "ff92d7301c80ae92dd1b7434e38b3b868e3cc1b6f1152600a0f1850ce863cd49"
EXTENDED_N6_TABLES_SHA256 = "7d3dd3c2d3866eba6d6eb5f5134524965fdbb6806d31ced5654f17df30a9772f"


def test_extended_law_bytes_and_tables_are_pinned_at_every_n6_input():
    mech = extended_density_mechanism(6, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=6))
    shapes, tables = hashlib.sha256(), hashlib.sha256()
    laws = set()
    for g in all_graphs(6):
        dens = mech(g)
        laws.add(id(dens))
        shapes.update(dens.shape.xs.tobytes())
        shapes.update(dens.shape.ys.tobytes())
        shapes.update(np.float64(dens.log_normalizer).tobytes())
        for a in (dens._h0, dens._beta, dens._cum):
            tables.update(a.tobytes())
    assert len(laws) == 51
    assert shapes.hexdigest() == EXTENDED_N6_SHA256
    assert tables.hexdigest() == EXTENDED_N6_TABLES_SHA256


def _law_bytes(dens):
    arrays = (dens.shape.xs, dens.shape.ys, dens._h0, dens._beta, dens._cum)
    return [a.tobytes() for a in arrays] + [np.float64(dens.log_normalizer).tobytes()]


def test_one_input_law_is_the_table_law_at_every_n5_input():
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=5)
    mech = extended_density_mechanism(5, 1.0, cfg)
    for g in all_graphs(5):
        assert _law_bytes(extended_density_law(g, 1.0, cfg)) == _law_bytes(mech(g))


@pytest.mark.parametrize("rho,C", [(0.5, 49.0), (0.3, 55.0), (1.0, 49.0), (0.15, 60.0)])
def test_one_input_distance_row_is_its_row_of_the_table(rho, C):
    # a one-shot extended release reads its input's distances from
    # group_distance_row, not from the BFS table over every input
    rng = substream(28, "one-row", repr(rho))
    for n in (3, 4, 5, 6):
        cfg = HomogeneityConfig(rho=rho, C=C, n=n)
        _, groups = _extension_groups(n, *_homogeneity_and_counts(n, cfg))
        table = group_distances(n, groups)
        inputs = range(len(table)) if n < 6 else rng.choice(len(table), 200, replace=False)
        for x in inputs:
            row = group_distance_row(n, groups, int(x))
            assert row.dtype == table.dtype and row.tobytes() == table[x].tobytes()


def test_extended_mechanism_refuses_another_order():
    mech = extended_density_mechanism(4, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=4))
    with pytest.raises(ValueError, match="order 4"):
        mech(LabeledGraph.empty(3))


def test_extended_exact_estimator_runs_and_labels():
    g = LabeledGraph.from_edges(4, [(0, 1)])
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=4)
    est = extended_density_estimator(g, 1.0, cfg, substream(10, "ext"))
    assert est.mode == "extended-exact"
    assert est.dp_domain == "all graphs"
    assert est.epsilon == 1.0


def test_extended_exact_guard_directs_to_promise():
    g = LabeledGraph.empty(REWIRING_PAIRS_MAX_N + 1)
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=g.n)
    with pytest.raises(ResourceLimitError) as err:
        extended_density_estimator(g, 1.0, cfg, substream(11, "ext"))
    assert "promise" in str(err.value)
    est = restricted_density_estimator(g, 1.0, cfg, substream(11, "ext"))
    assert est.mode == "promise" and "H(" in est.dp_domain


# -- analytic oracles -----------------------------------------------------------------------


def test_predicted_baseline_limits():
    assert predicted_baseline_mse(100, 0.0, 1.0) == pytest.approx(0.0032)
    huge = predicted_baseline_mse(64, 0.3, 1e9)
    assert huge == pytest.approx(0.3 * 0.7 / math.comb(64, 2), rel=1e-6)


def test_predicted_restricted_mse_decreasing_in_n():
    grid = (64, 256, 1024, 4096, 2**16, 2**18, 2**20, 2**22, 2**24)
    values = [predicted_restricted_mse(n, 0.5, 1.0, 49.0) for n in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_predicted_restricted_mse_is_two_b_squared_at_large_n():
    # once the clip mass exp(-eps n / (16 C)) is below 1e-18 the law is a
    # Laplace peak of scale b = 16 C / (eps r_n), whose second moment is 2 b^2;
    # adaptive quadrature lost this peak from n ~ 2^17 on
    eps, C, rho = 1.0, 49.0, 0.5
    for k in range(15, 24):
        n = 2**k
        b = 16.0 * C / (eps * truncation_rate(n, rho))
        assert predicted_restricted_mse(n, rho, eps, C) == pytest.approx(2 * b * b, rel=1e-6)


def test_lower_gamma_terms_match_scipy():
    # P(1, x) = -expm1(-x); P(3, x) by series below x = 1, closed form above
    x = np.logspace(-12, 3, 3001)
    p1 = np.array([-math.expm1(-v) for v in x])
    p3 = np.array([_lower_gamma_3(v) for v in x])
    assert np.abs(p1 / special.gammainc(1, x) - 1.0).max() <= 1e-13
    assert np.abs(p3 / special.gammainc(3, x) - 1.0).max() <= 1e-13
    assert _lower_gamma_3(0.0) == 0.0


def test_predicted_restricted_mse_matches_the_scipy_closed_form():
    def reference(n, rho, eps, C, center):
        rate = truncation_rate(n, rho)
        a, radius = eps * rate / (16.0 * C), n / rate
        z = m2 = 0.0
        for side in (center, 1.0 - center):
            peak = min(side, radius)
            z += special.gammainc(1, a * peak) / a
            m2 += 2.0 * special.gammainc(3, a * peak) / a**3
            if side > radius:
                tail = math.exp(-a * radius)
                z += tail * (side - radius)
                m2 += tail * (side**3 - radius**3) / 3.0
        return m2 / z

    for n in (8, 64, 512, 4096, 2**16, 2**22):
        for eps in (0.1, 1.0, 10.0):
            for center in (0.0, 0.3, 0.5):
                want = reference(n, 0.5, eps, 49.0, center)
                got = predicted_restricted_mse(n, 0.5, eps, 49.0, center)
                assert got == pytest.approx(want, rel=1e-13)
