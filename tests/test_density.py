import itertools
import math

import numpy as np
import pytest

from nodedp.density import (
    EXACT_EXTENSION_MAX_N,
    HomogeneityConfig,
    extended_density_estimator,
    extended_density_mechanism,
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
