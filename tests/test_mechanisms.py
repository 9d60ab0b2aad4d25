import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp as scipy_logsumexp

from nodedp import mechanisms
from nodedp.density import (
    HomogeneityConfig,
    graph_space_oracle,
    homogeneity_membership,
    restricted_density_mechanism,
)
from nodedp.errors import ResourceLimitError
from nodedp.graphs import all_graphs, edge_density, node_distance
from nodedp.mechanisms import (
    FiniteMechanism,
    LaplaceDensity,
    MetricSpaceOracle,
    PiecewiseExpDensity,
    PiecewiseLinear,
    dp_audit_densities,
    exponential_mechanism,
    exponential_mechanism_distribution,
    extend_mechanism,
    logsumexp,
    max_violation,
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
    mech = exponential_mechanism_distribution(list(range(10)), [7.0] * 10, 3.0)
    rng = substream(5, "expmech-uniform")
    counts = np.bincount(mech.sample_indices(rng, 10**5), minlength=10)
    expect = 10**4
    sigma = math.sqrt(10**5 * 0.1 * 0.9)
    assert (np.abs(counts - expect) <= 4 * sigma).all()


def test_exponential_mechanism_zero_coefficient_is_uniform():
    mech = exponential_mechanism_distribution([0, 1, 2], [0.0, 5.0, -2.0], 0.0)
    assert np.allclose(mech.probabilities(), 1.0 / 3.0)


def test_exponential_mechanism_two_candidate_closed_form():
    gamma, s = 2.0, 0.5  # gamma * s = 1
    mech = exponential_mechanism_distribution([0, 1], [0.0, s], gamma)
    p_second = 1.0 / (1.0 + math.exp(-gamma * s))
    assert mech.probabilities()[1] == pytest.approx(p_second)
    rng = substream(6, "expmech-two")
    hits = mech.sample_indices(rng, 10**5).sum()
    sigma = math.sqrt(10**5 * p_second * (1 - p_second))
    assert abs(hits - 10**5 * p_second) <= 3 * sigma


def test_exponential_mechanism_shift_invariance():
    scores = [0.1, 1.4, -0.3, 0.9]
    a = exponential_mechanism(list(range(4)), lambda c: scores[c], 2.5, substream(9, "s"))
    b = exponential_mechanism(
        list(range(4)), lambda c: scores[c] + 100.0, 2.5, substream(9, "s")
    )
    assert a == b


def test_exponential_mechanism_input_validation():
    with pytest.raises(ValueError):
        exponential_mechanism_distribution([], [], 1.0)
    with pytest.raises(ValueError):
        exponential_mechanism_distribution([0], [math.nan], 1.0)


def test_finite_mechanism_probabilities_sum_to_one():
    mech = FiniteMechanism(list(range(5)), [0.0, -300.0, 2.0, 700.0, 699.0])
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


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


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


def _line_space():
    points = [0, 1, 2]
    return MetricSpaceOracle(
        points=points,
        distance=lambda i, j: float(abs(i - j)),
        contains=lambda i: i in (0, 2),
    )


def _line_base(point):
    centers = {0: 0.25, 2: 0.75}
    return unit_laplace_density(centers[point], 1.0)


def test_extension_agrees_with_base_on_h():
    extended = extend_mechanism(_line_space(), _line_base, 1.0)
    grid = np.linspace(0, 1, 1001)
    for p in (0, 2):
        gap = np.abs(extended(p).log_pdf(grid) - _line_base(p).log_pdf(grid))
        assert float(gap.max()) <= 1e-9


def test_extension_middle_point_is_renormalized_min():
    eps = 1.0
    extended = extend_mechanism(_line_space(), _line_base, eps)
    grid = np.linspace(0, 1, 1001)
    f0 = np.exp(_line_base(0).log_pdf(grid)) * math.exp(eps)
    f2 = np.exp(_line_base(2).log_pdf(grid)) * math.exp(eps)
    raw = np.minimum(f0, f2)
    want = np.log(raw) - math.log(np.trapezoid(raw, grid))
    got = extended(1).log_pdf(grid)
    assert float(np.max(np.abs(got - want))) <= 1e-3  # trapezoid-limited


def test_extension_with_full_h_reproduces_base():
    space = MetricSpaceOracle(
        points=[0, 1, 2], distance=lambda i, j: float(abs(i - j))
    )
    base = lambda p: unit_laplace_density(0.25 + 0.25 * p, 1.0)  # 1-DP on the line
    extended = extend_mechanism(space, base, 1.0)
    grid = np.linspace(0, 1, 501)
    for p in (0, 1, 2):
        gap = np.abs(extended(p).log_pdf(grid) - base(p).log_pdf(grid))
        assert float(gap.max()) <= 1e-9


def test_extension_is_twice_epsilon_dp():
    eps = 0.7
    space = _line_space()
    extended = extend_mechanism(space, _line_base, eps)
    grid = np.linspace(0, 1, 1001)
    violation = dp_audit_densities(space, extended, 2 * eps, grid)
    assert violation <= 1e-9


def test_extension_promise_mode_and_guards():
    space = _line_space()
    promise = extend_mechanism(space, _line_base, 1.0, promise_in_h=True)
    grid = np.linspace(0, 1, 101)
    assert np.allclose(promise(0).log_pdf(grid), _line_base(0).log_pdf(grid))
    with pytest.raises(ResourceLimitError):
        extend_mechanism(space, _line_base, 1.0, budget=1)
    empty_h = MetricSpaceOracle(
        points=[0, 1], distance=lambda i, j: 1.0, contains=lambda _: False
    )
    with pytest.raises(ValueError):
        extend_mechanism(empty_h, _line_base, 1.0)


# -- density-ratio audits -----------------------------------------------------------------


def _graph_space_n4():
    points = list(all_graphs(4))
    cache = {}

    def distance(a, b):
        key = (a.key, b.key) if a.key <= b.key else (b.key, a.key)
        if key not in cache:
            cache[key] = node_distance(a, b)
        return float(cache[key])

    return MetricSpaceOracle(points=points, distance=distance)


def test_dp_audit_laplace_on_edge_density_passes():
    eps, n = 1.0, 4
    space = _graph_space_n4()
    mech = lambda g: LaplaceDensity(edge_density(g), 4.0 / (n * eps))
    grid = np.linspace(-1, 2, 601)
    assert dp_audit_densities(space, mech, eps, grid) <= 1e-9


def test_dp_audit_constant_mechanism_never_violates():
    space = _graph_space_n4()
    mech = lambda g: LaplaceDensity(0.5, 1.0)
    assert dp_audit_densities(space, mech, 0.5, np.linspace(-1, 2, 101)) <= 0.0


def test_dp_audit_detects_broken_scale():
    eps, n = 1.0, 4
    space = _graph_space_n4()
    mech = lambda g: LaplaceDensity(edge_density(g), 1.0 / (n * eps))  # quartered
    violation = dp_audit_densities(space, mech, eps, np.linspace(-1, 2, 601))
    assert violation > 0.0


def test_density_evaluate_alias():
    dens = unit_laplace_density(0.5, 1.0)
    grid = np.linspace(0, 1, 11)
    assert np.allclose(dens.evaluate(grid), dens.pdf(grid))


def test_extension_is_epsilon_dominated_between_h_points():
    eps = 0.7
    space = _line_space()
    extended = extend_mechanism(space, _line_base, eps)
    grid = np.linspace(0, 1, 1001)
    h_only = MetricSpaceOracle(
        points=[0, 2], distance=space.distance, contains=space.contains
    )
    assert dp_audit_densities(h_only, extended, eps, grid) <= 1e-9


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


# -- the pair kernel ------------------------------------------------------------------


def test_max_violation_witness_is_first_maximum_in_row_major_order():
    logs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    inf = math.inf
    dist = np.array([[inf, 1.0, 2.0], [1.0, inf, 1.0], [2.0, 1.0, inf]])
    # pairs (0,1), (1,0), (1,2) and (2,1) all reach gap 0
    v = max_violation(logs, dist, 1.0)
    assert (v.worst, v.pairs, v.witness) == (0.0, 6, (0, 1, 1))
    dist[0, 1] = inf  # no longer compared
    v = max_violation(logs, dist, 1.0, collect_rows=True)
    assert (v.worst, v.pairs, v.witness) == (0.0, 5, (1, 0, 0))
    assert [row[:2] for row in v.rows] == [(0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert v.rows[1] == (1, 0, 1.0, 0, 1.0, 1.0, 0.0)


def test_max_violation_ignores_nan_gaps_and_empty_pair_sets():
    # inf - inf is NaN at t = 0; argmax takes the first NaN, so both pairs
    # report a NaN gap, which is never a witness
    logs = np.array([[np.inf, 0.0], [np.inf, 0.5]])
    with np.errstate(invalid="ignore"):
        v = max_violation(logs, np.array([[math.inf, 0.0], [0.0, math.inf]]), 1.0)
        assert (v.worst, v.pairs, v.witness) == (-math.inf, 2, None)
        v = max_violation(logs, np.full((2, 2), math.inf), 1.0)
    assert (v.worst, v.pairs, v.witness) == (-math.inf, 0, None)


@pytest.mark.parametrize("chunk_bytes", [None, 1, 4096])
def test_max_violation_matches_pair_loop_at_any_chunk_size(chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(mechanisms, "_AUDIT_CHUNK_BYTES", chunk_bytes)
    rng = substream(20260810, "max-violation", str(chunk_bytes))
    p, width, eps = 23, 17, 0.7
    logs = np.round(rng.normal(size=(p, width)), 1)  # rounding makes ties
    dist = rng.integers(0, 4, size=(p, p)).astype(float)
    dist[rng.random((p, p)) < 0.3] = math.inf
    np.fill_diagonal(dist, math.inf)
    worst, witness, pairs, rows = -math.inf, None, 0, []
    for i in range(p):
        for j in range(p):
            if dist[i, j] == math.inf:
                continue
            pairs += 1
            ratios = logs[i] - logs[j]
            t = int((ratios - eps * dist[i, j]).argmax())
            gap = float(ratios[t]) - eps * dist[i, j]
            if gap > worst:
                worst, witness = gap, (i, j, t)
            rows.append((i, j, dist[i, j], t, float(ratios[t]), eps * dist[i, j], gap))
    v = max_violation(logs, dist, eps, collect_rows=True)
    assert (v.worst, v.pairs, v.witness, v.rows) == (worst, pairs, witness, tuple(rows))


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


def _assert_extension_matches_fold(space, base, eps, grid):
    extended = extend_mechanism(space, base, eps, budget=10**7)
    h_points = [p for p in space.points if space.contains(p)]
    shapes = []
    for p in h_points:
        dens = base(p)
        shapes.append((dens.shape.xs, dens.shape.ys - dens.log_normalizer))
    worst = 0.0
    for x in space.points:
        want = _fold_over_h(shapes, [eps * space.distance(x, p) for p in h_points])
        worst = max(worst, float(np.abs(extended(x).log_pdf(grid) - want.log_pdf(grid)).max()))
    assert worst <= 1e-12
    return len(h_points)


def test_extension_matches_fold_over_h_for_every_n5_input():
    cfg = HomogeneityConfig(rho=0.5, C=49.0, n=5)
    space = graph_space_oracle(5, contains=lambda g: homogeneity_membership(g, cfg))
    base = lambda g: restricted_density_mechanism(g, 1.0, cfg)
    h_size = _assert_extension_matches_fold(space, base, 0.5, np.linspace(0.0, 1.0, 201))
    assert h_size == 638


def test_extension_matches_fold_over_h_on_the_criterion_3_space():
    space = graph_space_oracle(4, contains=lambda g: g.max_degree <= 2)
    base = lambda g: unit_laplace_density(edge_density(g), 2.0)
    _assert_extension_matches_fold(space, base, 0.5, np.linspace(0.0, 1.0, 1000))
