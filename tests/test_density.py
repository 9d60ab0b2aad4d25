import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from nodedp.density import (
    EXACT_EXTENSION_MAX_N,
    HomogeneityConfig,
    _lower_gamma_3,
    extended_density_estimator,
    extended_density_mechanism,
    homogeneity_by_index,
    homogeneity_membership,
    homogeneity_worst_margin,
    laplace_density_estimator,
    laplace_density_mechanism,
    predicted_baseline_mse,
    predicted_restricted_mse,
    restricted_density_estimator,
    restricted_density_mechanism,
)
from nodedp.errors import ResourceLimitError
from nodedp.graphs import LabeledGraph, all_graphs, edge_density, node_distance
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
    assert homogeneity_worst_margin(LabeledGraph.complete(8), cfg) < 0


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


def test_homogeneity_membership_refuses_beyond_the_exact_scan():
    # a graph under the density cap reaches the subset scan, which is exact
    # or refused: no sampled audit stands in for it
    g = sample_gnp(18, 0.5, substream(4, "homog-large"))
    cfg = HomogeneityConfig(rho=1.0, C=49.0, n=18)
    assert edge_density(g) <= cfg.rho
    with pytest.raises(ResourceLimitError):
        homogeneity_membership(g, cfg)
    # over the density cap, the answer needs no scan
    assert not homogeneity_membership(g, HomogeneityConfig(rho=0.1, C=49.0, n=18))


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
        lambda: homogeneity_worst_margin(g, cfg),
        lambda: homogeneity_by_index(4, cfg),
        lambda: extended_density_mechanism(4, 1.0, cfg),
        lambda: extended_density_estimator(LabeledGraph.empty(4), 1.0, cfg, rng),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="homogeneity config is for n = 5"):
            call()


def _mask_margin(g, cfg):
    """The worst margin through a [subsets, edges] boundary mask: another
    route to homogeneity_worst_margin, in the same float operations."""
    n = g.n
    ids = np.arange(1, 1 << n)
    masks = (ids[:, None] >> np.arange(n)) & 1 == 1
    sizes = masks.sum(axis=1)
    slots = sizes * (n - sizes) + sizes * (sizes - 1) / 2.0
    us, vs = g.edges().T
    boundary = (masks[:, us] | masks[:, vs]).sum(axis=1)
    deviation = np.abs(boundary - edge_density(g) * slots)
    return float((deviation - cfg.tolerance(sizes)).max())


# rho = 0.5 falls on an edge count at n = 4 and 5 and between two at n = 3;
# rho = 1/3 falls on one at n = 3 and 4 (1/3 == 2/6) and between two at n = 5
@pytest.mark.parametrize("rho, C", [(0.5, 49.0), (1.0 / 3.0, 60.0)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_batched_scan_matches_the_per_graph_scan_on_every_graph(n, rho, C):
    cfg = HomogeneityConfig(rho=rho, C=C, n=n)
    in_h, margins = homogeneity_by_index(n, cfg)
    graphs = list(all_graphs(n))
    assert 0 < in_h.sum() < len(graphs)  # H is a strict subset
    assert in_h.tolist() == [homogeneity_membership(g, cfg) for g in graphs]
    assert in_h.tolist() == [_brute_force_membership(g, cfg) for g in graphs]
    assert margins.tolist() == [homogeneity_worst_margin(g, cfg) for g in graphs]
    assert margins.tolist() == [_mask_margin(g, cfg) for g in graphs]


def test_worst_margin_matches_the_mask_scan_on_random_graphs():
    rng = substream(6, "margin-mask")
    for n in range(6, 14):
        for p in (0.1, 0.5, 0.9):
            g = sample_gnp(n, p, rng)
            for C in (48.01, 49.0):
                cfg = HomogeneityConfig(rho=1.0, C=C, n=n)
                assert homogeneity_worst_margin(g, cfg) == _mask_margin(g, cfg)


def test_single_graph_scan_at_n16_peaks_below_the_mask():
    g = LabeledGraph.complete(16)
    cfg = HomogeneityConfig(rho=1.0, C=49.0, n=16)
    tracemalloc.start()
    try:
        homogeneity_worst_margin(g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 16) * g.edge_count  # one byte per subset and edge


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
    g = LabeledGraph.empty(EXACT_EXTENSION_MAX_N + 1)
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
