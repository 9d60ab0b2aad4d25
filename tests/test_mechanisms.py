import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp as scipy_logsumexp

from nodedp import mechanisms
from nodedp.audits import audit_density_mechanism
from nodedp.density import (
    HomogeneityConfig,
    extend_over_graphs,
    extended_density_mechanism,
    homogeneity_membership,
    restricted_density_mechanism,
)
from nodedp.errors import ResourceLimitError
from nodedp.graphs import all_graphs, cover_table, edge_density
from nodedp.mechanisms import (
    FiniteMechanism,
    LaplaceDensity,
    LawTable,
    PiecewiseExpDensity,
    PiecewiseLinear,
    exponential_mechanism_distribution,
    extend_mechanism,
    logsumexp,
    max_violation,
    normalized_log_weights,
    piecewise_min,
    sample_laplace,
    truncated_laplace_density,
    truncation_rate,
    unit_laplace_density,
)
from nodedp.rng import substream

# -- Laplace sampling -------------------------------------------------------------


def test_laplace_moments():
    rng = substream(0, "laplace-moments")
    draws = sample_laplace(1.0, rng, size=10**6)
    assert abs(draws.var() - 2.0) <= 0.02
    assert abs(np.median(draws)) <= 0.01


def test_laplace_deterministic_replay():
    a = sample_laplace(0.5, substream(3, "replay"), size=8)
    b = sample_laplace(0.5, substream(3, "replay"), size=8)
    assert np.array_equal(a, b)


def test_laplace_rejects_bad_scale():
    with pytest.raises(ValueError):
        sample_laplace(0.0, substream(0, "x"))


def test_laplace_density_normalizes():
    d = LaplaceDensity(0.3, 0.25)
    total, _ = integrate.quad(lambda x: math.exp(d.log_pdf(x)), -6, 6)
    assert total == pytest.approx(1.0, abs=1e-9)


# -- exponential mechanism -----------------------------------------------------------


def test_exponential_mechanism_uniform_when_scores_equal():
    mech = exponential_mechanism_distribution([7.0] * 10, 3.0)
    rng = substream(5, "expmech-uniform")
    counts = np.bincount([mech.sample(rng) for _ in range(10**5)], minlength=10)
    expect = 10**4
    sigma = math.sqrt(10**5 * 0.1 * 0.9)
    assert (np.abs(counts - expect) <= 4 * sigma).all()


def test_exponential_mechanism_zero_coefficient_is_uniform():
    mech = exponential_mechanism_distribution([0.0, 5.0, -2.0], 0.0)
    assert np.allclose(mech.probabilities(), 1.0 / 3.0)


def test_exponential_mechanism_two_candidate_closed_form():
    gamma, s = 2.0, 0.5  # gamma * s = 1
    mech = exponential_mechanism_distribution([0.0, s], gamma)
    p_second = 1.0 / (1.0 + math.exp(-gamma * s))
    assert mech.probabilities()[1] == pytest.approx(p_second)
    rng = substream(6, "expmech-two")
    hits = sum(mech.sample(rng) for _ in range(10**5))
    sigma = math.sqrt(10**5 * p_second * (1 - p_second))
    assert abs(hits - 10**5 * p_second) <= 3 * sigma


def test_exponential_mechanism_shift_invariance():
    scores = np.array([0.1, 1.4, -0.3, 0.9])
    a = exponential_mechanism_distribution(scores, 2.5)
    b = exponential_mechanism_distribution(scores + 100.0, 2.5)
    assert np.allclose(a.probabilities(), b.probabilities(), rtol=1e-12, atol=0.0)


def test_exponential_mechanism_input_validation():
    with pytest.raises(ValueError):
        exponential_mechanism_distribution([], 1.0)
    with pytest.raises(ValueError):
        exponential_mechanism_distribution([math.nan], 1.0)


def test_exponential_mechanism_infinite_coefficient_is_uniform_over_the_maxima():
    mech = exponential_mechanism_distribution([0.0, 1.0, 1.0 - 1e-13, 0.5], math.inf)
    assert mech.probabilities().tolist() == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-300)
    with pytest.raises(ValueError, match="coefficient"):
        exponential_mechanism_distribution([0.0, 1.0], math.nan)


def test_normalized_rows_are_the_one_law_normalizations_bit_for_bit():
    # each row of a stack is normalized as FiniteMechanism normalizes it alone
    rng = substream(20261020, "normalized-rows")
    for shape in ((1, 1), (3, 7), (64, 125), (5, 4096)):
        lw = rng.normal(scale=rng.choice([1e-3, 1.0, 50.0, 700.0]), size=shape)
        lw[0, 0] = lw[0].max()  # a tie at the top of one row
        log_probs, probs = normalized_log_weights(lw)
        for row, got_log, got in zip(lw, log_probs, probs):
            one = FiniteMechanism(row)
            assert got_log.tobytes() == one.log_probs.tobytes()
            assert abs(got.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="finite"):
        normalized_log_weights([[0.0, 1.0], [0.0, math.inf]])


def test_finite_mechanism_probabilities_sum_to_one():
    mech = FiniteMechanism([0.0, -300.0, 2.0, 700.0, 699.0])
    assert abs(mech.probabilities().sum() - 1.0) <= 1e-12


# -- piecewise-linear shapes -----------------------------------------------------------


def test_piecewise_min_matches_dense_evaluation():
    rng = substream(13, "plf-min")
    for _ in range(20):
        funcs = []
        for _ in range(4):
            knots = np.unique(np.concatenate([[0.0, 1.0], rng.random(3)]))
            funcs.append(PiecewiseLinear(knots, rng.normal(size=knots.size)))
        merged = piecewise_min(funcs)
        grid = np.linspace(0, 1, 2001)
        dense = np.min([f(grid) for f in funcs], axis=0)
        assert np.max(np.abs(merged(grid) - dense)) <= 1e-10


def _min2_pairwise(f, g):
    """The pairwise envelope the batched fold replaced, kept as its oracle:
    np.unique of the knots, np.interp, the crossing formula, np.minimum."""
    knots = np.unique(np.concatenate([f.xs, g.xs]))
    diff = f(knots) - g(knots)
    cross = diff[:-1] * diff[1:] < 0
    if cross.any():
        d0, d1 = diff[:-1][cross], diff[1:][cross]
        left = knots[:-1][cross]
        extra = left + d0 / (d0 - d1) * (knots[1:][cross] - left)
        knots = np.unique(np.concatenate([knots, extra]))
    return PiecewiseLinear(knots, np.minimum(f(knots), g(knots)))


def test_batched_envelopes_equal_the_pairwise_fold_bit_for_bit():
    rng = substream(20261020, "batched-envelopes")
    for trial in range(40):
        rows = int(rng.integers(1, 12))
        layers = []
        for _ in range(int(rng.integers(1, 6))):
            # shared knots from a coarse lattice, so knots coincide across
            # layers and values tie at knots and crossings
            inner = np.unique(rng.integers(1, 8, size=int(rng.integers(0, 5))) / 8.0)
            xs = np.concatenate([[0.0], inner, [1.0]])
            base = rng.integers(-3, 4, size=xs.size) * rng.choice([0.5, 1.0, 0.3])
            shift = rng.integers(0, 4, size=(rows, 1)) * 0.7
            layers.append((xs, base + shift))
        xs, ys, counts = mechanisms._lower_envelopes(layers)
        for r in range(rows):
            want = PiecewiseLinear(layers[0][0], layers[0][1][r])
            for gx, gy in layers[1:]:
                want = _min2_pairwise(want, PiecewiseLinear(gx, gy[r]))
            k = counts[r]
            assert xs[r, :k].tobytes() == want.xs.tobytes(), trial
            assert ys[r, :k].tobytes() == want.ys.tobytes(), trial
            assert (xs[r, k:] == np.inf).all()


def test_piecewise_min_refuses_other_domains():
    with pytest.raises(ValueError, match="domains must agree"):
        piecewise_min([PiecewiseLinear([0, 1], [0, 1]), PiecewiseLinear([0, 2], [1, 0])])
    with pytest.raises(ValueError, match="at least one"):
        piecewise_min([])


def test_table_laws_equal_per_row_envelopes_and_densities():
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=5)
    extended = extended_density_mechanism(5, 1.0, cfg)
    graphs = list(all_graphs(5))
    members = [m for m, g in enumerate(graphs) if homogeneity_membership(g, cfg)]
    # the groups of H: edge counts in order of their first member
    firsts = {}
    for m in members:
        firsts.setdefault(graphs[m].edge_count, m)
    bases = {e: restricted_density_mechanism(graphs[m], 1.0, cfg) for e, m in firsts.items()}
    table = cover_table(5)
    seen = set()
    for x, g in enumerate(graphs):
        law = extended(g)
        if id(law) in seen:
            continue
        seen.add(id(law))
        # the same law from one row alone: piecewise_min and __init__
        parts = []
        for e, base in bases.items():
            d = min(int(table[x ^ m]) for m in members if graphs[m].edge_count == e)
            ys = base.shape.ys - base.log_normalizer + 0.5 * d
            parts.append(PiecewiseLinear(base.shape.xs, ys))
        want = PiecewiseExpDensity(piecewise_min(parts))
        got = (law.shape.xs, law.shape.ys, law._h0, law._beta, law._cum)
        for a, b in zip(got, (want.shape.xs, want.shape.ys, want._h0, want._beta, want._cum)):
            assert a.tobytes() == b.tobytes()
        assert law.log_normalizer == want.log_normalizer
    assert len(seen) == 22


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "bad", [[0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.4, 1.0], [0.0, np.nan, 0.5, 1.0]],
    ids=["repeated", "decreasing", "nan"],
)
def test_read_only_stack_refuses_a_row_of_knots_out_of_order(bad):
    # the stack's one test refuses what PiecewiseLinear refuses in each row
    xs = np.array([[0.0, 0.25, 0.5, 1.0], bad, [0.0, 0.1, 0.2, 0.3]])
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseLinear(xs[1], np.zeros(4))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseExpDensity._read_only_stack(xs, np.zeros_like(xs))


# -- piecewise-exponential densities ------------------------------------------------------


def _random_density(rng) -> PiecewiseExpDensity:
    knots = np.unique(np.concatenate([[0.0, 1.0], rng.random(4)]))
    return PiecewiseExpDensity(PiecewiseLinear(knots, rng.normal(scale=3.0, size=knots.size)))


def test_density_integrates_to_one_against_quadrature():
    rng = substream(20, "pexp-quad")
    for _ in range(10):
        dens = _random_density(rng)
        total, _ = integrate.quad(
            lambda q: math.exp(dens.log_pdf(q)), 0, 1, points=dens.shape.xs, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_density_cdf_and_inverse_agree():
    rng = substream(22, "pexp-cdf")
    dens = _random_density(rng)
    us = np.linspace(1e-6, 1 - 1e-6, 101)
    xs = dens.inverse_cdf(us)
    assert np.max(np.abs(dens.cdf(xs) - us)) <= 1e-9
    assert dens.cdf(0.0) == pytest.approx(0.0, abs=1e-12)
    assert dens.cdf(1.0) == pytest.approx(1.0, abs=1e-12)


def test_density_sampling_matches_cdf():
    rng = substream(23, "pexp-sample")
    dens = _random_density(rng)
    draws = dens.sample(substream(24, "pexp-draws"), size=20000)
    for q in (0.2, 0.5, 0.8):
        expect = float(dens.cdf(q))
        sigma = math.sqrt(expect * (1 - expect) / 20000)
        assert abs((draws <= q).mean() - expect) <= 4 * sigma + 1e-9



def test_density_steep_rising_piece_does_not_collapse():
    # the left piece climbs 3000 log-units: exp(-h0) overflows and exp(h0)
    # underflows, which once sent every draw there onto the peak knot
    dens = unit_laplace_density(0.3, 1e-4)
    left = float(dens.cdf(0.3 - 1e-4))
    assert math.isfinite(left)
    assert left == pytest.approx(0.5 * math.exp(-1.0), rel=1e-9)
    assert dens.inverse_cdf(0.25) == pytest.approx(0.3 + 1e-4 * math.log(0.5), abs=1e-15)
    # the same overflow in the restricted estimator's law (eps n / (16 C) > 709)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trunc = truncated_laplace_density(0.5, 100.0, 49.0, 0.5, 8192)
        draws = trunc.sample(substream(25, "steep-rise"), size=20000)
    assert not (draws == 0.5).any()
    assert (draws < 0.5).mean() == pytest.approx(0.5, abs=0.02)

INVERSE_CDF_SHA256 = "d8f8e0c1e7f3a1cc6f68ab8df77bf9cdecb7f09bddec6f9d2e815c88c15bc144"


def test_inverse_cdf_bytes_are_pinned():
    laws = [
        _random_density(substream(22, "pexp-cdf")),
        _random_density(substream(23, "pexp-sample")),
        unit_laplace_density(0.3, 1e-4),
        truncated_laplace_density(0.5, 100.0, 49.0, 0.5, 8192),
        truncated_laplace_density(0.5, 1.0, 49.0, 0.5, 64),
        truncated_laplace_density(0.0, 1.3, 50.0, 0.25, 40),
        truncated_laplace_density(0.17, 1.3, 50.0, 0.25, 40),
        truncated_laplace_density(1.0, 1.3, 50.0, 0.25, 40),
        truncated_laplace_density(0.1, 2.0, 49.0, 0.3, 50),
    ]
    # two laws have a piece that climbs more than 709 log-units, where
    # beta tau exp(-h0) overflows and the draw is solved in log space
    assert sum(np.abs(np.diff(law.shape.ys)).max() > 709 for law in laws) == 2
    u = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, 1e-300, 1e-17, 1 - 2**-53]])
    digest = hashlib.sha256()
    for law in laws:
        x = law.inverse_cdf(u)
        assert [law.inverse_cdf(float(v)) for v in u[::50]] == x[::50].tolist()
        digest.update(x.tobytes())
    assert digest.hexdigest() == INVERSE_CDF_SHA256


# -- truncated Laplace density ---------------------------------------------------------------


def test_truncated_laplace_symmetry():
    dens = truncated_laplace_density(0.5, 1.0, 49.0, 0.5, 64)
    for delta in (0.01, 0.1, 0.3):
        assert dens.log_pdf(0.5 + delta) == pytest.approx(dens.log_pdf(0.5 - delta))


def test_truncated_laplace_normalization_quadrature():
    for center in (0.0, 0.17, 0.5, 1.0):
        dens = truncated_laplace_density(center, 1.3, 50.0, 0.25, 40)
        total, _ = integrate.quad(
            lambda q: math.exp(dens.log_pdf(q)), 0, 1, points=dens.shape.xs, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_truncated_laplace_flat_tail():
    n, rho = 50, 0.3
    center = 0.1
    radius = n / truncation_rate(n, rho)
    dens = truncated_laplace_density(center, 2.0, 49.0, rho, n)
    q1, q2 = center + radius + 0.1, center + radius + 0.3
    assert dens.log_pdf(q1) == pytest.approx(dens.log_pdf(q2))


def test_truncated_laplace_parameter_validation():
    with pytest.raises(ValueError):
        truncated_laplace_density(0.5, 1.0, 48.0, 0.5, 10)
    with pytest.raises(ValueError):
        truncated_laplace_density(0.5, 1.0, 49.0, 0.5, 2)


def test_truncated_laplace_shape_ratio_bound():
    """The clipped-penalty difference between two centers is bounded by the
    clipped penalty of the center gap: the inequality behind calibrating the
    mechanism to rewiring distance.  (Shapes only: the normalizers are
    covered by the full audits, and cancel for interior centers.)"""
    eps, C, rho, n = 1.0, 49.0, 0.5, 30
    rate = truncation_rate(n, rho)
    coef = eps / (16.0 * C)
    rng = substream(30, "tl-shape")
    grid = np.linspace(0, 1, 501)
    for _ in range(200):
        e1, e2 = rng.random(2)
        s1 = -coef * np.minimum(rate * np.abs(grid - e1), n)
        s2 = -coef * np.minimum(rate * np.abs(grid - e2), n)
        bound = coef * min(rate * abs(e1 - e2), n)
        assert float(np.max(s1 - s2)) <= bound + 1e-12


def test_truncated_laplace_full_ratio_interior_centers():
    # with both centers interior, normalizers cancel exactly
    eps, C, rho, n = 1.0, 49.0, 0.5, 30
    rate = truncation_rate(n, rho)
    coef = eps / (16.0 * C)
    radius = n / rate
    grid = np.linspace(0, 1, 2001)
    rng = substream(31, "tl-full")
    for _ in range(50):
        e1, e2 = radius + (1 - 2 * radius) * rng.random(2)
        d1 = truncated_laplace_density(e1, eps, C, rho, n)
        d2 = truncated_laplace_density(e2, eps, C, rho, n)
        bound = coef * min(rate * abs(e1 - e2), n)
        assert float(np.max(d1.log_pdf(grid) - d2.log_pdf(grid))) <= bound + 1e-9


def test_clipped_penalty_subadditive():
    rng = substream(32, "clip-subadd")
    a, b = rng.random(10**4) * 10, rng.random(10**4) * 10
    x, y = rng.normal(size=10**4) * 5, rng.normal(size=10**4) * 5
    f = lambda t: np.minimum(a * np.abs(t), b)
    assert (f(x + y) <= f(x) + f(y) + 1e-12).all()


# -- extension ------------------------------------------------------------------------------


def _line_base(point):
    centers = {0: 0.25, 2: 0.75}
    return unit_laplace_density(centers[point], 1.0)


# The line 0 - 1 - 2 with H = {0, 2}: the base laws of the H points, and
# each point's distance to each of them.
_LINE_BASES = [_line_base(0), _line_base(2)]
_LINE_DISTANCES = np.array([[0, 2], [1, 1], [2, 0]])


def _line_violation(points, extended, bound, grid):
    """Worst audit gap of the extension over ordered pairs of consecutive
    given line points, against the bound."""
    logs = np.stack([extended(p).log_pdf(grid) for p in points])
    left = np.arange(len(points) - 1)
    return max_violation(logs, np.r_[left, left + 1], np.r_[left + 1, left], bound).worst


def test_extension_agrees_with_base_on_h():
    extended = extend_mechanism(_LINE_BASES, _LINE_DISTANCES, 1.0)
    grid = np.linspace(0, 1, 1001)
    for p in (0, 2):
        gap = np.abs(extended(p).log_pdf(grid) - _line_base(p).log_pdf(grid))
        assert float(gap.max()) <= 1e-9


def test_extension_middle_point_is_renormalized_min():
    eps = 1.0
    extended = extend_mechanism(_LINE_BASES, _LINE_DISTANCES, eps)
    grid = np.linspace(0, 1, 1001)
    f0 = np.exp(_line_base(0).log_pdf(grid)) * math.exp(eps)
    f2 = np.exp(_line_base(2).log_pdf(grid)) * math.exp(eps)
    raw = np.minimum(f0, f2)
    want = np.log(raw) - math.log(np.trapezoid(raw, grid))
    got = extended(1).log_pdf(grid)
    assert float(np.max(np.abs(got - want))) <= 1e-3  # trapezoid-limited


def test_extension_with_full_h_reproduces_base():
    points = np.arange(3)
    base = lambda p: unit_laplace_density(0.25 + 0.25 * p, 1.0)  # 1-DP on the line
    distances = np.abs(points[:, None] - points)  # H is every point
    extended = extend_mechanism([base(p) for p in points], distances, 1.0)
    grid = np.linspace(0, 1, 501)
    for p in (0, 1, 2):
        gap = np.abs(extended(p).log_pdf(grid) - base(p).log_pdf(grid))
        assert float(gap.max()) <= 1e-9


def test_extension_is_twice_epsilon_dp():
    eps = 0.7
    extended = extend_mechanism(_LINE_BASES, _LINE_DISTANCES, eps)
    grid = np.linspace(0, 1, 1001)
    # line neighbours at the extension's budget 2 eps
    assert _line_violation([0, 1, 2], extended, 2 * eps, grid) <= 1e-9


def test_extension_promise_mode_and_guards():
    # past the exact range the extension is refused before any table exists
    with pytest.raises(ResourceLimitError, match="promise mode"):
        extended_density_mechanism(7, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=7))
    with pytest.raises(ValueError):  # H empty: no base law, no column
        extend_mechanism([], np.zeros((2, 0), dtype=int), 1.0)
    with pytest.raises(ValueError):  # one column per base law
        extend_mechanism(_LINE_BASES, _LINE_DISTANCES[:, :1], 1.0)


def test_extension_builds_each_law_once_and_shares_it_read_only():
    distances = np.array([[0, 2], [1, 1], [2, 0], [1, 1]])
    extended = extend_mechanism(_LINE_BASES, distances, 1.0)
    law = extended(1)
    assert extended(3) is law and extended(1) is law  # equal rows, one law
    assert extended(0) is not law
    arrays = (law.shape.xs, law.shape.ys, law._h0, law._beta, law._cum)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # the memo is this extension's own, and no base is frozen with a law,
    # though one group's envelope keeps its knots
    assert extend_mechanism(_LINE_BASES, distances, 1.0)(1) is not law
    base = unit_laplace_density(0.5, 1.0)
    assert not extend_mechanism([base], np.array([[0], [1]]), 1.0)(1).shape.xs.flags.writeable
    assert base.shape.xs.flags.writeable


def test_extension_runs_one_envelope_per_distinct_distance_row(monkeypatch):
    rows = []
    fold = mechanisms._lower_envelopes

    def counted(layers):
        rows.append(layers[0][1].shape[0])
        return fold(layers)

    monkeypatch.setattr(mechanisms, "_lower_envelopes", counted)
    extended = extended_density_mechanism(5, 1.0, HomogeneityConfig(rho=0.5, C=49.0, n=5))
    laws = [extended(g) for g in all_graphs(5)]
    # 1,024 inputs, 22 distinct distance rows to the 6 edge-count groups of
    # H, all folded in one batch when the extension is built
    assert rows == [22]
    assert len({id(law) for law in laws}) == 22
    assert [extended(g) for g in all_graphs(5)] == laws and rows == [22]


# -- density-ratio audits -----------------------------------------------------------------


def test_dp_audit_laplace_on_edge_density_passes():
    eps, n = 1.0, 4
    mech = lambda g: LaplaceDensity(edge_density(g), 4.0 / (n * eps))
    grid = np.linspace(-1, 2, 601)
    assert audit_density_mechanism(mech, n, eps, grid).max_violation <= 1e-9


def test_dp_audit_constant_mechanism_never_violates():
    mech = lambda g: LaplaceDensity(0.5, 1.0)
    report = audit_density_mechanism(mech, 4, 0.5, np.linspace(-1, 2, 101))
    assert report.max_violation <= 0.0


def test_dp_audit_detects_broken_scale():
    eps, n = 1.0, 4
    mech = lambda g: LaplaceDensity(edge_density(g), 1.0 / (n * eps))  # quartered
    report = audit_density_mechanism(mech, n, eps, np.linspace(-1, 2, 601))
    assert report.max_violation > 0.0


def test_extension_is_epsilon_dominated_between_h_points():
    eps = 0.7
    extended = extend_mechanism(_LINE_BASES, _LINE_DISTANCES, eps)
    grid = np.linspace(0, 1, 1001)
    # the H points 0 and 2 are two apart: the base's bound eps * 2
    assert _line_violation([0, 2], extended, 2 * eps, grid) <= 1e-9


# -- logsumexp ------------------------------------------------------------------------


def test_logsumexp_is_bit_identical_to_scipy():
    rng = substream(20260810, "logsumexp")
    for trial in range(3000):
        size = int(rng.integers(1, 40))
        kind = trial % 4
        if kind == 0:
            a = rng.normal(size=size) * rng.choice([1e-3, 1.0, 1e3])
        elif kind == 1:  # ties at the maximum and elsewhere
            a = rng.integers(-3, 3, size=size).astype(float)
        elif kind == 2:  # spans above 700: exp underflows below the top
            a = rng.uniform(-1500.0, 10.0, size=size)
        else:
            a = np.concatenate([rng.uniform(-800.0, 0.0, size=size), [0.0, 0.0]])
        assert logsumexp(a) == float(scipy_logsumexp(a))
    for edge in ([-np.inf, -np.inf], [np.inf, 1.0], [0.0], [5.0, -np.inf]):
        assert logsumexp(edge) == float(scipy_logsumexp(np.array(edge)))
    assert math.isnan(logsumexp([np.nan, 1.0]))


def test_logsumexp_along_the_last_axis_is_bit_identical_to_scipy():
    rng = substream(20261019, "logsumexp-rows")
    for trial in range(3000):
        rows, size = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        kind = trial % 4
        if kind == 0:
            a = rng.normal(size=(rows, size)) * rng.choice([1e-3, 1.0, 1e3])
        elif kind == 1:  # ties at the maximum and elsewhere
            a = rng.integers(-3, 3, size=(rows, size)).astype(float)
        elif kind == 2:  # spans above 700, with -inf entries
            a = rng.uniform(-1500.0, 10.0, size=(rows, size))
            a[rng.random(a.shape) < 0.2] = -np.inf
        else:
            a = np.concatenate([rng.uniform(-800.0, 0.0, size=(rows, size)),
                                np.zeros((rows, 2))], axis=1)
        want = scipy_logsumexp(a, axis=-1)
        assert logsumexp(a).tobytes() == want.tobytes()
        assert [logsumexp(row) for row in a] == want.tolist()
    edges = np.array([[-np.inf, -np.inf, -np.inf], [np.nan, 1.0, 0.0], [2.0, 2.0, -np.inf],
                      [np.inf, 1.0, 0.0], [0.0, -np.inf, 0.0]])
    with np.errstate(invalid="ignore"):
        want = scipy_logsumexp(edges, axis=-1)
    got = logsumexp(edges)
    assert got.tobytes() == want.tobytes()
    assert got[0] == -np.inf and math.isnan(got[1])
    stack = rng.normal(size=(2, 3, 5))
    assert logsumexp(stack).tobytes() == scipy_logsumexp(stack, axis=-1).tobytes()


# -- the pair kernel ------------------------------------------------------------------


def test_max_violation_witness_is_first_maximum_in_row_major_order():
    logs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    first, second = [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]
    # pairs (0,1), (1,0), (1,2) and (2,1) all reach gap 0; (0,2), (2,0) -1
    v = max_violation(logs, first, second, 1.0)
    assert (v.worst, v.pairs, v.witness) == (0.0, 6, (0, 1, 1))
    v = max_violation(logs, first[1:], second[1:], 1.0, collect_rows=True)  # (0,1) dropped
    assert (v.worst, v.pairs, v.witness) == (0.0, 5, (1, 0, 0))
    assert [row[:2] for row in v.rows] == [(0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert v.rows[1] == (1, 0, 0, 1.0, 1.0, 0.0)
    # the given order decides, not the indices
    v = max_violation(logs, [2, 0], [1, 1], 1.0)
    assert (v.worst, v.pairs, v.witness) == (0.0, 2, (2, 1, 1))


def test_max_violation_ignores_nan_gaps_and_empty_pair_sets():
    # inf - inf is NaN at t = 0; argmax takes the first NaN, so both pairs
    # report a NaN gap, which is never a witness
    logs = np.array([[np.inf, 0.0], [np.inf, 0.5]])
    with np.errstate(invalid="ignore"):
        v = max_violation(logs, [0, 1], [1, 0], 1.0)
    assert (v.worst, v.pairs, v.witness) == (-math.inf, 2, None)
    v = max_violation(logs, [], [], 1.0)
    assert (v.worst, v.pairs, v.witness) == (-math.inf, 0, None)


@pytest.mark.parametrize("chunk_bytes", [None, 1, 4096])
def test_max_violation_matches_pair_loop_at_any_chunk_size(chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(mechanisms, "_AUDIT_CHUNK_BYTES", chunk_bytes)
    rng = substream(20260810, "max-violation", str(chunk_bytes))
    p, width, eps = 23, 17, 0.7
    logs = np.round(rng.normal(size=(p, width)), 1)  # rounding makes ties
    first = rng.integers(0, p, size=300)
    second = (first + rng.integers(1, p, size=300)) % p  # never first
    worst, witness, rows = -math.inf, None, []
    for i, j in zip(first.tolist(), second.tolist()):
        ratios = logs[i] - logs[j]
        t = int((ratios - eps).argmax())
        gap = float(ratios[t]) - eps
        if gap > worst:
            worst, witness = gap, (i, j, t)
        rows.append((i, j, t, float(ratios[t]), eps, gap))
    v = max_violation(logs, first, second, eps, collect_rows=True)
    assert (v.worst, v.pairs, v.witness, v.rows) == (worst, 300, witness, tuple(rows))


def _pair_loop(logs, first, second, eps):
    """max_violation's (worst, witness, rows), one pair at a time in order."""
    worst, witness, rows = -math.inf, None, []
    for i, j in zip(first.tolist(), second.tolist()):
        ratios = logs[i] - logs[j]
        t = int((ratios - eps).argmax())
        gap = float(ratios[t]) - eps
        if gap > worst:
            worst, witness = gap, (i, j, t)
        rows.append((i, j, t, float(ratios[t]), eps, gap))
    return worst, witness, rows


def _bits(rows):
    """Rows with every float as its bytes: a zero's sign and a NaN's payload
    count."""
    return [tuple(struct.pack("<d", x) if isinstance(x, float) else x for x in r) for r in rows]


@pytest.mark.parametrize("chunk_bytes", [None, 1, 4096])
def test_max_violation_over_repeated_rows_matches_pair_loop(chunk_bytes, monkeypatch):
    # a table of 5 distinct rows, as an audit over many graphs with few laws
    # gives: each pair of laws is compared once and reported for every pair
    if chunk_bytes is not None:
        monkeypatch.setattr(mechanisms, "_AUDIT_CHUNK_BYTES", chunk_bytes)
    rng = substream(20261020, "max-violation-laws", str(chunk_bytes))
    width, eps = 13, 0.5
    base = rng.integers(0, 2, size=(3, width)) / 2.0  # halves: exact sums, ties
    # rows 3 and 4 are rows 0 and 1 lifted by 1: several law pairs reach the
    # worst gap
    law = rng.integers(0, 5, size=40)
    logs = np.concatenate([base, base[:2] + 1.0])[law]
    first = rng.integers(0, 40, size=500)
    second = rng.integers(0, 40, size=500)  # may equal first
    worst, witness, rows = _pair_loop(logs, first, second, eps)
    assert len({(law[i], law[j]) for i, j, *_, gap in rows if gap == worst}) >= 2
    # the raw table, and LawTables of the same inputs: one row per law; two
    # copies of each law, each input taking either; one row per input.  Ids
    # finer than the bytes give the same audit; the last one's 1,600 law
    # pairs outnumber the pairs, so its law pairs are found by a sort
    laws = np.concatenate([base, base[:2] + 1.0])
    copy = rng.integers(0, 2, size=40)
    tables = [logs, LawTable(laws, law), LawTable(np.concatenate([laws, laws]), law + 5 * copy),
              LawTable(logs, np.arange(40))]
    for table in tables:
        v = max_violation(table, first, second, eps, collect_rows=True)
        assert (v.worst, v.pairs, v.witness) == (worst, 500, witness)
        assert _bits(v.rows) == _bits(rows)
        assert max_violation(table, first, second, eps)[:3] == (worst, 500, witness)


def test_rows_differing_in_a_zero_sign_or_a_nan_payload_are_different_laws(monkeypatch):
    payload = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)
    logs = np.array(
        [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [payload[0], 1.0], [payload[1], 1.0],
         [payload[0], 1.0]]
    )
    # merging equal-as-float rows would change the bits reported for a pair;
    # the raw table, a compact LawTable that names rows 0, 1, 3 and 4 as its
    # laws by their bytes, and one with a row per input agree
    first = np.array([0, 1, 0, 2, 3, 4, 5, 4])
    second = np.array([1, 0, 2, 0, 4, 3, 4, 0])
    _, _, rows = _pair_loop(logs, first, second, 0.0)
    tables = [logs, LawTable(logs[[0, 1, 3, 4]], np.array([0, 1, 0, 2, 3, 2])),
              LawTable(logs, np.arange(6))]
    for chunk_bytes in (None, 1, 4096):
        if chunk_bytes is not None:
            monkeypatch.setattr(mechanisms, "_AUDIT_CHUNK_BYTES", chunk_bytes)
        for table in tables:
            with np.errstate(invalid="ignore"):
                v = max_violation(table, first, second, 0.0, collect_rows=True)
            assert _bits(v.rows) == _bits(rows)
            assert _bits([v.rows[0][3:4], v.rows[1][3:4]]) == _bits([(0.0,), (-0.0,)])


def test_max_violation_makes_no_copy_of_its_table():
    # distinct rows, so a dedup that kept a copy of each row, or sorted a
    # copy of the table, would hold one as large as the table
    rng = substream(20261020, "max-violation-memory")
    logs = rng.normal(size=(8192, 256))  # 16 MiB
    first = rng.integers(0, 8192, size=300)
    second = rng.integers(0, 8192, size=300)
    tracemalloc.start()
    try:
        max_violation(logs, first, second, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < logs.nbytes // 4  # about 1.3 MiB: two 300-row gathers


# -- the deduplicated extension against the pointwise fold over all of H -------------


def _fold_over_h(shapes, shifts):
    """The extension before deduplication: every H point's normalized shape,
    shifted by its own distance, folded pair by pair in H order."""
    xs, ys = shapes[0][0], shapes[0][1] + shifts[0]
    for (gx, gy), c in zip(shapes[1:], shifts[1:]):
        gy = gy + c
        knots = np.unique(np.concatenate([xs, gx]))
        fk, gk = np.interp(knots, xs, ys), np.interp(knots, gx, gy)
        extra = []
        for i in range(knots.size - 1):
            d0 = fk[i] - gk[i]
            d1 = fk[i + 1] - gk[i + 1]
            if d0 * d1 < 0:
                t = d0 / (d0 - d1)
                extra.append(knots[i] + t * (knots[i + 1] - knots[i]))
        if extra:
            knots = np.unique(np.concatenate([knots, np.array(extra)]))
        ys = np.minimum(np.interp(knots, xs, ys), np.interp(knots, gx, gy))
        xs = knots
    return PiecewiseExpDensity(PiecewiseLinear(xs, ys))


def _assert_extension_matches_fold(n, contains, base, eps, extended, grid):
    """The extension against _fold_over_h at every graph of order n: H from
    the per-graph predicate contains, distances from cover_table.  Each
    input folds every distinct (shape, shift) pair of H once, in H order:
    the minimum over H's multiset of shifted shapes is the one over its
    set.  Shapes are told apart by their bytes, not by any grouping of H."""
    graphs = list(all_graphs(n))
    table = cover_table(n)
    h_points = [i for i, g in enumerate(graphs) if contains(g)]
    shapes = []
    for i in h_points:
        dens = base(graphs[i])
        shapes.append((dens.shape.xs, dens.shape.ys - dens.log_normalizer))
    keys = [(xs.tobytes(), ys.tobytes()) for xs, ys in shapes]
    worst = 0.0
    for x, g in enumerate(graphs):
        pairs = {}
        for key, shape, i in zip(keys, shapes, h_points):
            shift = eps * float(table[x ^ i])
            pairs.setdefault((key, shift), (shape, shift))
        want = _fold_over_h(*zip(*pairs.values()))
        worst = max(worst, float(np.abs(extended(g).log_pdf(grid) - want.log_pdf(grid)).max()))
    assert worst <= 1e-12
    return len(h_points)


def test_extension_matches_fold_over_h_for_every_n5_input():
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=5)
    contains = lambda g: homogeneity_membership(g, cfg)
    base = lambda g: restricted_density_mechanism(g, 1.0, cfg)
    extended = extended_density_mechanism(5, 1.0, cfg)
    grid = np.linspace(0.0, 1.0, 201)
    h_size = _assert_extension_matches_fold(5, contains, base, 0.5, extended, grid)
    assert h_size == 638


def test_extension_matches_fold_over_h_on_the_criterion_3_space():
    contains = lambda g: g.max_degree <= 2
    base = lambda e: unit_laplace_density(e, 2.0)
    extended = extend_over_graphs(4, [contains(g) for g in all_graphs(4)], base, 0.5)
    grid = np.linspace(0.0, 1.0, 1000)
    _assert_extension_matches_fold(
        4, contains, lambda g: base(edge_density(g)), 0.5, extended, grid
    )
