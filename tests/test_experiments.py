import hashlib
import math

import numpy as np
import pytest
from scipy import stats

import nodedp.experiments as experiments
from nodedp.density import (
    HomogeneityConfig,
    laplace_density_estimator,
    laplace_density_mechanism,
    predicted_baseline_mse,
    restricted_density_estimator,
    restricted_density_mechanism,
)
from nodedp.experiments import (
    CSV_SCHEMA,
    ExperimentConfig,
    ExperimentRecord,
    _edge_densities,
    bootstrap_halfwidth,
    chi2_sf,
    exact_rewired_tv,
    homogeneity_probability,
    records_to_csv,
    run_distinguishability_experiment,
    run_mse_experiment,
    slope_fit,
)
from nodedp.graphons import sample_gnp
from nodedp.graphs import LabeledGraph, edge_density, triangular_slots
from nodedp.mechanisms import LaplaceDensity, truncated_laplace_density
from nodedp.rng import substream


def _record(n, mse, estimator="baseline", epsilon=1.0):
    return ExperimentRecord(
        estimator=estimator,
        model="gnp",
        n=n,
        epsilon=epsilon,
        rho=0.5,
        C=49.0,
        p=0.5,
        m=-1,
        k=1,
        lam=0.0,
        trials=10,
        mse=mse,
        ci_halfwidth=0.0,
        wall_time=0.0,
    )


def test_slope_fit_recovers_synthetic_exponents():
    ns = [64, 128, 256, 512]
    quad = [_record(n, 3.0 / n**2) for n in ns]
    cubic = [_record(n, 5.0 / n**3) for n in ns]
    s2, err2 = slope_fit(quad)
    s3, _ = slope_fit(cubic)
    assert s2 == pytest.approx(-2.0, abs=1e-9)
    assert s3 == pytest.approx(-3.0, abs=1e-9)
    assert err2 == pytest.approx(0.0, abs=1e-9)


def test_slope_fit_matches_linregress():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(3, 9))
        ns = np.sort(rng.choice(np.arange(8, 5000), size=k, replace=False))
        mses = np.exp(rng.normal(-5.0, 2.0, size=k))
        slope, stderr = slope_fit([_record(int(n), float(v)) for n, v in zip(ns, mses)])
        fit = stats.linregress(np.log(ns.astype(float)), np.log(mses))
        assert slope == pytest.approx(fit.slope, rel=1e-12, abs=1e-12)
        assert stderr == pytest.approx(fit.stderr, rel=1e-12, abs=1e-12)


def test_chi2_sf_matches_scipy():
    rng = np.random.default_rng(3)
    for df in list(range(1, 40)) + [99, 100, 499, 998, 999]:
        points = np.concatenate(
            [[1e-9, 0.5, float(df)], rng.uniform(0.0, 3.0 * df + 20.0, 10),
             np.geomspace(1e-3, 1e4, 12)]
        )
        for x in points.tolist():
            assert abs(chi2_sf(x, df) - stats.chi2.sf(x, df)) <= 1e-12
    assert chi2_sf(0.0, 3) == 1.0


def test_slope_fit_needs_three_points():
    with pytest.raises(ValueError):
        slope_fit([_record(64, 1e-3), _record(128, 1e-4)])


def test_slope_fit_refuses_records_of_several_epsilons():
    records = [_record(n, 1.0 / n**2, epsilon=eps) for eps in (2.0, 0.5) for n in (64, 128, 256)]
    with pytest.raises(ValueError, match=r"several epsilons \[0\.5, 2\.0\]"):
        slope_fit(records)


def test_mse_experiment_smoke_single_trial():
    cfg = ExperimentConfig(
        estimator="baseline",
        model="gnp",
        n_grid=(16,),
        epsilon_grid=(1.0,),
        trials=1,
        seed=7,
        p=0.5,
    )
    records = run_mse_experiment(cfg)
    assert len(records) == 1
    assert records[0].mse >= 0.0


def test_mse_experiment_huge_epsilon_matches_sampling_variance():
    n, p = 32, 0.5
    cfg = ExperimentConfig(
        estimator="baseline",
        model="gnp",
        n_grid=(n,),
        epsilon_grid=(1e6,),
        trials=3000,
        seed=11,
        p=p,
    )
    rec = run_mse_experiment(cfg)[0]
    want = predicted_baseline_mse(n, p, 1e6)
    assert abs(rec.mse - want) <= 0.15 * want


def test_mse_experiment_csv_is_byte_stable():
    cfg = ExperimentConfig(
        estimator="promise",
        model="gnm",
        n_grid=(16, 24),
        epsilon_grid=(1.0,),
        trials=5,
        seed=3,
        m_fraction=0.5,
    )
    a = records_to_csv(run_mse_experiment(cfg))
    b = records_to_csv(run_mse_experiment(cfg))
    assert a == b
    assert a.startswith(CSV_SCHEMA + "\n")
    assert _sha256(a) == "b6c9d59d545603b10a307c54d762dad8d365ed412920df5532f37f8a713f6a45"


def test_mse_experiment_blocks_cell_runs():
    cfg = ExperimentConfig(
        estimator="blocks",
        model="wrandom",
        n_grid=(8,),
        epsilon_grid=(10.0,),
        trials=2,
        seed=5,
        rho=1.0,
        k=2,
        lam=2.0,
        b_diag=0.8,
        b_off=0.2,
    )
    rec = run_mse_experiment(cfg)[0]
    assert rec.mse >= 0.0
    assert rec.k == 2


def test_homogeneity_probability_smoke():
    rate = homogeneity_probability(10, 0.25, 0.5, 49.0, samples=50, seed=1)
    assert 0.0 <= rate <= 0.1


def test_exact_rewired_tv_n4():
    tv, mass = exact_rewired_tv(4, 2, 1)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < tv < 1.0


def test_distinguishability_experiment_smoke():
    report = run_distinguishability_experiment(4, 2, 1, trials=4000, seed=9)
    assert report.structural_violations == 0
    assert report.pmf_total_mass == pytest.approx(1.0, abs=1e-12)
    assert report.chisq_pvalue is not None and report.chisq_pvalue > 0.001
    assert report.tv_exact < 1.0
    assert not report.regime_warning


def test_distinguishability_warns_outside_regime():
    with pytest.warns(UserWarning):
        run_distinguishability_experiment(4, 1, 3, trials=100, seed=9)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _config(**overrides):
    kwargs = dict(
        estimator="baseline",
        model="gnp",
        n_grid=(8,),
        epsilon_grid=(1.0,),
        trials=1,
        seed=0,
        p=0.5,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


_BLOCKS = dict(estimator="blocks", model="wrandom", p=None, k=2, lam=2.0, b_diag=0.8, b_off=0.2)


def test_experiment_config_validation():
    _config()
    _config(model="gnm", p=None, m_fraction=0.5)
    _config(**_BLOCKS)
    for overrides in (
        dict(estimator="nope"),
        dict(estimator="restricted"),  # the promise release goes by "promise" only
        dict(n_grid=()),
        dict(p=None),  # gnp needs p
        dict(p=1.5),
        dict(p=-0.1),
        dict(model="gnm", p=None),  # gnm needs m_fraction
        dict(model="gnm", p=None, m_fraction=1.5),
        dict(model="gnm", p=0.5, m_fraction=0.5),  # gnm takes m_fraction, not p
        dict(model="wrandom", p=None),  # baseline on wrandom
        dict(_BLOCKS, model="gnp", p=0.5),  # blocks on gnp
        dict(_BLOCKS, b_off=None),  # blocks cells need the whole truth
        dict(_BLOCKS, k=None),
        dict(_BLOCKS, lam=None),
    ):
        with pytest.raises(ValueError):
            _config(**overrides)


# -- e(G) cells --------------------------------------------------------------------


def test_density_estimators_read_only_the_edge_count():
    star = LabeledGraph.from_edges(8, [(0, v) for v in range(1, 8)])
    path = LabeledGraph.from_edges(8, [(v, v + 1) for v in range(7)])
    assert star.edge_count == path.edge_count and star != path
    hcfg = HomogeneityConfig(rho=0.5, C=49.0, n=8)
    for estimate in (
        lambda g, rng: laplace_density_estimator(g, 1.0, rng),
        lambda g, rng: restricted_density_estimator(g, 1.0, hcfg, rng),
    ):
        a = estimate(star, substream(5, "only-e"))
        b = estimate(path, substream(5, "only-e"))
        assert a.value == b.value


def test_edge_count_cell_samples_the_restricted_mechanism():
    n, p, eps = 12, 0.3, 1.0
    cfg = _config(estimator="promise", n_grid=(n,), p=p, trials=40, seed=4)
    hcfg = HomogeneityConfig(rho=cfg.rho, C=cfg.C, n=n)
    tags = (cfg.seed, "mse", cfg.estimator, cfg.model, n, repr(eps))
    counts = substream(*tags).binomial(math.comb(n, 2), p, size=cfg.trials)
    centres = _edge_densities(cfg, n, p, 0, substream(*tags))
    slots = triangular_slots(n)
    for count, centre in zip(counts.tolist(), centres.tolist()):
        g = LabeledGraph.from_edges(n, slots[:count])
        assert edge_density(g) == centre
        law = truncated_laplace_density(centre, eps, cfg.C, cfg.rho, n)
        mech = restricted_density_mechanism(g, eps, hcfg)
        assert law.shape.xs.tobytes() == mech.shape.xs.tobytes()
        assert law.shape.ys.tobytes() == mech.shape.ys.tobytes()


def test_edge_count_cell_samples_the_laplace_mechanism():
    # the baseline cell's one copy of the scale is the mechanism's scale: its
    # mse replays exactly from the cell's stream through LaplaceDensity
    n, p, eps = 12, 0.3, 0.7
    cfg = _config(n_grid=(n,), epsilon_grid=(eps,), p=p, trials=40, seed=4)
    rng = substream(cfg.seed, "mse", cfg.estimator, cfg.model, n, repr(eps))
    centres = _edge_densities(cfg, n, p, 0, rng)
    scale = laplace_density_mechanism(LabeledGraph.empty(n), eps).scale
    values = LaplaceDensity(centres, scale).sample(rng, size=cfg.trials)
    want = float(((np.clip(values, 0.0, 1.0) - p) ** 2).mean())
    (rec,) = run_mse_experiment(cfg)
    assert rec.mse.hex() == want.hex()


def test_gnp_edge_count_is_binomial():
    n, p, samples = 12, 0.3, 4000
    counts = np.array(
        [sample_gnp(n, p, substream(8, "gnp-count", t)).edge_count for t in range(samples)],
        dtype=float,
    )
    slots = math.comb(n, 2)
    mean, var = slots * p, slots * p * (1 - p)
    mu4 = var * (1 + 3 * (slots - 2) * p * (1 - p))  # fourth central moment
    assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / samples)
    assert abs(counts.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var**2) / samples)


def test_gnp_promise_cell_with_many_centres_is_byte_stable():
    n, p = 64, 0.5
    cfg = _config(estimator="promise", n_grid=(n,), p=p, trials=200, seed=6)
    tags = (cfg.seed, "mse", cfg.estimator, cfg.model, n, repr(1.0))
    assert np.unique(_edge_densities(cfg, n, p, 0, substream(*tags))).size > 50
    csv = records_to_csv(run_mse_experiment(cfg))
    assert csv == records_to_csv(run_mse_experiment(cfg))
    assert _sha256(csv) == "7849a49d0eed6c5ed6b58426e71723dffc02fa006e09662882bc459b1a243ccb"


def test_small_gnp_promise_cells_are_pinned():
    # n = 3..8 with p = 0 and 1 (centres exactly 0 and 1), p = 0.01 and 0.99
    # (a few centres off the edge) and p = 0.5: 3-, 4- and 5-knot laws
    cfgs = [
        _config(estimator="promise", n_grid=(3, 4, 5, 8), epsilon_grid=(0.1, 1.0, 1e3),
                p=p, trials=60, seed=9)
        for p in (0.0, 0.01, 0.5, 0.99, 1.0)
    ]
    knots = set()
    for cfg in cfgs:
        for n in cfg.n_grid:
            tags = (cfg.seed, "mse", cfg.estimator, cfg.model, n, repr(1.0))
            for centre in np.unique(_edge_densities(cfg, n, cfg.p, 0, substream(*tags))):
                law = truncated_laplace_density(float(centre), 1.0, cfg.C, cfg.rho, n)
                knots.add(law.shape.xs.size)
    assert knots == {3, 4, 5}
    csv = "".join(records_to_csv(run_mse_experiment(cfg)) for cfg in cfgs)
    assert _sha256(csv) == "8ca4d379f19fea84f0943bdf319baec3d8b5dcc704edcec75f2483673c49107f"


def _per_centre_promise_errors(cfg, n, eps, p, m):
    """The promise cell by its definition: one law per distinct centre, each
    sampled in sorted-centre order from the cell's stream."""
    rng = substream(cfg.seed, "mse", cfg.estimator, cfg.model, n, repr(eps))
    centres = _edge_densities(cfg, n, p, m, rng)
    values = np.empty(cfg.trials)
    for centre in np.unique(centres).tolist():
        idx = np.flatnonzero(centres == centre)
        law = truncated_laplace_density(centre, eps, cfg.C, cfg.rho, n)
        values[idx] = law.sample(rng, size=idx.size)
    return (values - p) ** 2


@pytest.mark.parametrize("model", ["gnp", "gnm"])
@pytest.mark.parametrize("seed", [0, 1])
def test_batched_promise_cell_matches_the_per_centre_loop(model, seed):
    fractions = (0.0, 0.01, 0.5, 0.99, 1.0) if model == "gnp" else (0.0, 0.5, 1.0)
    for n in (3, 4, 5, 8, 64, 512, 2**19):
        slots = math.comb(n, 2)
        for eps in (0.1, 1.0, 1e3):
            for fraction in fractions:
                rho = (0.1, 1.0)[seed]
                if model == "gnp":
                    cfg = _config(estimator="promise", p=fraction, trials=100, seed=seed, rho=rho)
                    p, m = fraction, 0
                else:
                    cfg = _config(estimator="promise", model="gnm", p=None, m_fraction=fraction,
                                  trials=100, seed=seed, rho=rho)
                    m = math.floor(fraction * slots)
                    p = m / slots
                got = experiments._edge_count_cell(cfg, n, eps, p, m)
                want = _per_centre_promise_errors(cfg, n, eps, p, m)
                assert got.tobytes() == want.tobytes(), (n, eps, fraction)


@pytest.mark.parametrize("estimator", ["baseline", "promise"])
def test_gnp_edge_count_cell_runs_one_trial(estimator):
    (rec,) = run_mse_experiment(_config(estimator=estimator, n_grid=(16,), trials=1))
    assert rec.trials == 1 and 0.0 <= rec.mse <= 1.0


class _Sampled(Exception):
    pass


def test_only_graph_cells_build_graphs(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Sampled

    for attr in ("sample_gnp", "sample_gnm", "sample_w_random"):
        monkeypatch.setattr(experiments, attr, refuse)
    gnm = dict(model="gnm", p=None, m_fraction=0.5)
    for estimator in ("baseline", "promise"):
        run_mse_experiment(_config(estimator=estimator, trials=3))
        run_mse_experiment(_config(estimator=estimator, trials=3, **gnm))
    with pytest.raises(_Sampled):
        run_mse_experiment(_config(estimator="extended", n_grid=(4,), **gnm))
    with pytest.raises(_Sampled):
        run_mse_experiment(_config(**_BLOCKS))


def test_bootstrap_halfwidth_chunks_reproduce_the_one_piece_draw(monkeypatch):
    errors = substream(3, "errors").random(101)
    idx = substream(3, "bootstrap").integers(0, errors.size, size=(1000, errors.size))
    lo, hi = np.percentile(errors[idx].mean(axis=1), [2.5, 97.5])
    want = float(hi - lo) / 2.0
    # seven rows per chunk: 143 chunks, the last one short
    monkeypatch.setattr(experiments, "_BOOTSTRAP_CHUNK_BYTES", 8 * errors.size * 7 + 5)
    got = bootstrap_halfwidth(errors, substream(3, "bootstrap"))
    assert got.hex() == want.hex()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_blocks_cell_truth_has_b_diag_on_and_b_off_off_the_diagonal(k, monkeypatch):
    seen = []

    def capture(w, *args, **kwargs):
        seen.append(w.values)
        raise _Sampled

    monkeypatch.setattr(experiments, "sample_w_random", capture)
    with pytest.raises(_Sampled):
        run_mse_experiment(_config(**dict(_BLOCKS, k=k, b_diag=0.7, b_off=0.1)))
    want = np.full((k, k), 0.1)
    np.fill_diagonal(want, 0.7)
    assert np.array_equal(seen[0], want)
