"""Monte Carlo experiment harness: MSE grids, the rewired-coupling checks,
and homogeneity membership rates.

The baseline and promise estimators read a graph only through
its edge density e(G), so their cells draw the sufficient statistic instead
of the graph: m edges in every trial under G(n,m), Binomial(C(n,2), p) edges
under G(n,p).  Such a cell takes one stream from (master seed, cell
coordinates).  The estimators that read more than e(G) (the exact extension,
the block estimator) build a graph per trial, each from (master seed, cell
coordinates, trial index).  Runs are bit-reproducible and cells could execute
in any order.  CSV output is byte-stable: records are written in cell order
with fixed float formatting, and timing is reported separately from the
data file.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import (
    HomogeneityConfig,
    extended_density_estimator,
    homogeneity_membership,
)
from .density import (  # noqa: F401  (wrapped here by perfbench/tracing.py)
    laplace_density_estimator,
    restricted_density_estimator,
)
from .block_estimator import EstimatorConfig, estimate_blocks
from .graphons import (
    StepGraphon,
    delta2_hat_blocks,
    BlockMatrix,
    rewired_model_pmf,
    sample_gnm,
    sample_gnm_rewired_coupled,
    sample_gnp,
    sample_w_random,
)
from .graphs import all_graphs, node_distance
from .mechanisms import _check_epsilon, sample_laplace, truncated_laplace_quantiles
from .rng import substream

DENSITY_ESTIMATORS = ("baseline", "promise", "extended")
# Estimators whose output law depends on the graph only through e(G).
EDGE_COUNT_ESTIMATORS = ("baseline", "promise")
# Resamples behind every bootstrap interval.
BOOTSTRAP_RESAMPLES = 1000
# Bytes one chunk of bootstrap_halfwidth's [rows, trials] resample index may
# take (a single row may exceed it at more than 2^21 trials).
_BOOTSTRAP_CHUNK_BYTES = 16 * 2**20
CSV_SCHEMA = "# schema=1"
CSV_COLUMNS = (
    "estimator",
    "model",
    "n",
    "epsilon",
    "rho",
    "C",
    "p",
    "m",
    "k",
    "lam",
    "trials",
    "mse",
    "ci_halfwidth",
)


@dataclass(frozen=True)
class ExperimentConfig:
    estimator: str  # baseline | promise | extended | blocks
    model: str  # gnp | gnm | wrandom
    n_grid: tuple[int, ...]
    epsilon_grid: tuple[float, ...]
    trials: int
    seed: int
    p: float | None = None  # gnp edge probability
    m_fraction: float | None = None  # gnm: m = floor(fraction * C(n,2))
    rho: float = 0.5
    C: float = 49.0
    k: int | None = None  # blocks only
    lam: float | None = None
    b_diag: float | None = None  # blocks: k x k truth, b_diag on the diagonal
    b_off: float | None = None  # and b_off off it

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_grid or not self.epsilon_grid:
            raise ValueError("grids must be nonempty")
        if self.estimator not in DENSITY_ESTIMATORS + ("blocks",):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.model not in ("gnp", "gnm", "wrandom"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "gnp" and not (self.p is not None and 0.0 <= self.p <= 1.0):
            raise ValueError("gnp cells need p in [0, 1]")
        if self.model == "gnm":
            if not (self.m_fraction is not None and 0.0 <= self.m_fraction <= 1.0):
                raise ValueError("gnm cells need m_fraction in [0, 1]")
            if self.p is not None:
                raise ValueError("gnm cells take m_fraction, not p")
        if (self.estimator == "blocks") != (self.model == "wrandom"):
            raise ValueError("the blocks estimator runs on wrandom and only there")
        if self.estimator == "blocks" and None in (self.k, self.lam, self.b_diag, self.b_off):
            raise ValueError("blocks cells need k, lam, b_diag, b_off")


@dataclass(frozen=True)
class ExperimentRecord:
    estimator: str
    model: str
    n: int
    epsilon: float
    rho: float
    C: float
    p: float
    m: int
    k: int
    lam: float
    trials: int
    mse: float
    ci_halfwidth: float
    wall_time: float  # seconds; excluded from the CSV to keep bytes stable


def bootstrap_halfwidth(errors: np.ndarray, rng: np.random.Generator) -> float:
    """Half-width of a 95% percentile bootstrap interval for the mean.

    The resample rows are drawn and averaged in chunks of at most
    _BOOTSTRAP_CHUNK_BYTES (or one row); the stream and each row's mean are
    those of the one-piece [BOOTSTRAP_RESAMPLES, trials] draw."""
    errors = np.asarray(errors, dtype=float)
    rows = max(1, _BOOTSTRAP_CHUNK_BYTES // (8 * errors.size))
    means = np.empty(BOOTSTRAP_RESAMPLES)
    for first in range(0, BOOTSTRAP_RESAMPLES, rows):
        size = (min(rows, BOOTSTRAP_RESAMPLES - first), errors.size)
        idx = rng.integers(0, errors.size, size=size)
        means[first : first + idx.shape[0]] = errors[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(hi - lo) / 2.0


def _edge_densities(
    cfg: ExperimentConfig, n: int, p: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """e(G) of every trial's graph, drawn without the graph: m / C(n,2) under
    G(n,m), Binomial(C(n,2), p) / C(n,2) under G(n,p).  The division is
    edge_density's own expression, so each value is the one it returns."""
    if cfg.model == "gnm":
        counts = np.full(cfg.trials, m)
    else:
        counts = rng.binomial(math.comb(n, 2), p, size=cfg.trials)
    return counts / (n * (n - 1) / 2)


def _edge_count_cell(
    cfg: ExperimentConfig, n: int, eps: float, p: float, m: int
) -> np.ndarray:
    """Squared errors of a baseline or promise cell, all from one stream.
    The baseline adds Lap(4/(n eps)) and clamps to [0, 1], as
    laplace_density_estimator does; the promise cell samples the law that
    restricted_density_mechanism builds at each trial's centre.  Its
    uniforms are drawn at once and taken in sorted-centre order, the stream
    of one law.sample(rng, size=k) per distinct centre, and inverted in one
    batched pass over the distinct laws (truncated_laplace_quantiles)."""
    hcfg = HomogeneityConfig(rho=cfg.rho, C=cfg.C, n=n)  # rejects rho, C, n out of range
    rng = substream(cfg.seed, "mse", cfg.estimator, cfg.model, n, repr(eps))
    centres = _edge_densities(cfg, n, p, m, rng)
    if cfg.estimator == "baseline":
        noise = sample_laplace(4.0 / (n * _check_epsilon(eps)), rng, size=cfg.trials)
        values = np.clip(centres + noise, 0.0, 1.0)
    else:
        unique, inverse = np.unique(centres, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        values = np.empty(cfg.trials)
        values[order] = truncated_laplace_quantiles(
            unique, inverse[order], rng.random(cfg.trials), eps, hcfg.C, hcfg.rho, n
        )
    return (values - p) ** 2


def _graph_cell(cfg: ExperimentConfig, n: int, eps: float, p: float, m: int) -> np.ndarray:
    """Squared errors of an extended or blocks cell, the estimators that read
    more of G than e(G): one graph per trial, each from its own stream."""
    if cfg.estimator == "blocks":
        truth_graphon = StepGraphon.equal_blocks(
            np.where(np.eye(cfg.k, dtype=bool), cfg.b_diag, cfg.b_off)
        )
        target = BlockMatrix(cfg.rho * truth_graphon.values)
    else:
        hcfg = HomogeneityConfig(rho=cfg.rho, C=cfg.C, n=n)
    errors = np.empty(cfg.trials)
    for t in range(cfg.trials):
        rng = substream(cfg.seed, "mse", cfg.estimator, cfg.model, n, repr(eps), t)
        if cfg.estimator == "blocks":
            g = sample_w_random(truth_graphon, cfg.rho, n, rng).graph
            est = estimate_blocks(
                g, EstimatorConfig(epsilon=eps, lam=cfg.lam, k=cfg.k), rng
            )
            errors[t] = delta2_hat_blocks(est.b_hat, target) ** 2
        else:
            g = sample_gnp(n, p, rng) if cfg.model == "gnp" else sample_gnm(n, m, rng)
            est = extended_density_estimator(g, eps, hcfg, rng)
            errors[t] = (est.value - p) ** 2
    return errors


def _run_cell(cfg: ExperimentConfig, n: int, eps: float) -> ExperimentRecord:
    start = time.perf_counter()
    nslots = math.comb(n, 2)
    m = int(math.floor((cfg.m_fraction or 0.0) * nslots))
    p = cfg.p if cfg.p is not None else (m / nslots if cfg.model == "gnm" else 0.0)
    cell = _edge_count_cell if cfg.estimator in EDGE_COUNT_ESTIMATORS else _graph_cell
    errors = cell(cfg, n, eps, p, m)
    hw = bootstrap_halfwidth(
        errors, substream(cfg.seed, "bootstrap", cfg.estimator, cfg.model, n, repr(eps))
    )
    return ExperimentRecord(
        estimator=cfg.estimator,
        model=cfg.model,
        n=n,
        epsilon=eps,
        rho=cfg.rho,
        C=cfg.C,
        p=p,
        m=m if cfg.model == "gnm" else -1,
        k=cfg.k or 1,
        lam=cfg.lam or 0.0,
        trials=cfg.trials,
        mse=float(errors.mean()),
        ci_halfwidth=hw,
        wall_time=time.perf_counter() - start,
    )


def run_mse_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """One record per (n, epsilon) cell, in grid order."""
    return [_run_cell(cfg, n, eps) for n in cfg.n_grid for eps in cfg.epsilon_grid]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def records_to_csv(records: Sequence[ExperimentRecord]) -> str:
    lines = [CSV_SCHEMA, ",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


# -- rate-exponent extraction ------------------------------------------------------


def slope_fit(records: Sequence[ExperimentRecord]) -> tuple[float, float]:
    """OLS slope and standard error of log MSE on log n.

    Accepts records of one estimator and one epsilon with at least three distinct n.
    """
    epsilons = sorted(set(r.epsilon for r in records))
    if len(epsilons) > 1:
        raise ValueError(f"records of several epsilons {epsilons}; fit one epsilon at a time")
    ns = np.array([r.n for r in records], dtype=float)
    mses = np.array([r.mse for r in records], dtype=float)
    if len(set(ns.tolist())) < 3:
        raise ValueError("need at least three distinct n values")
    if (mses <= 0).any():
        raise ValueError("MSE values must be positive for a log fit")
    ssxm, ssxym, _, ssym = np.cov(np.log(ns), np.log(mses), bias=True).flat
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)  # as scipy's linregress
    return float(ssxym / ssxm), float(np.sqrt((1 - r**2) * ssym / ssxm / (len(ns) - 2)))


def chi2_sf(stat: float, df: int) -> float:
    """P[chi^2_df >= stat] = Q(df/2, x), x = stat/2, as a finite sum at integer
    or half-integer shape: e^-x x^s / Gamma(s+1), each term from its log, over
    s = 0, 1, ... < df/2 for even df; erfc(sqrt x) plus s = 1/2, 3/2, ... for odd df."""
    if stat <= 0.0:
        return 1.0
    x, half = stat / 2.0, 0.5 * (df % 2)
    total = math.erfc(math.sqrt(x)) if half else 0.0
    for i in range(df // 2):
        total += math.exp((i + half) * math.log(x) - x - math.lgamma(i + half + 1.0))
    return min(total, 1.0)


# -- homogeneity rate ---------------------------------------------------------------


def homogeneity_probability(
    n: int, p: float, rho: float, C: float, samples: int, seed: int
) -> float:
    """Monte Carlo estimate of P[G(n,p) outside the homogeneity set],
    with exact membership scans."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    cfg = HomogeneityConfig(rho=rho, C=C, n=n)
    outside = 0
    for t in range(samples):
        rng = substream(seed, "homogeneity", n, repr(p), t)
        if not homogeneity_membership(sample_gnp(n, p, rng), cfg):
            outside += 1
    return outside / samples


# -- rewired-coupling experiment ------------------------------------------------------


@dataclass(frozen=True)
class CouplingReport:
    n: int
    m: int
    k: int
    trials: int
    structural_violations: int  # coupled pairs at node distance > 1
    chisq_pvalue: float | None  # empirical law vs exact pmf (n <= 5)
    tv_exact: float | None  # exact TV between G(n,m) and the rewired model
    pmf_total_mass: float | None  # exact pmf summed over the full support
    regime_warning: bool  # k not << sqrt(n)


def exact_rewired_tv(n: int, m: int, k: int) -> tuple[float, float]:
    """(TV distance between G(n,m) and the rewired model, total pmf mass),
    both by exhaustive enumeration at n <= 5."""
    nslots = math.comb(n, 2)
    uniform = 1.0 / math.comb(nslots, m)
    tv = 0.0
    mass = 0.0
    for g in all_graphs(n):
        e = g.edge_count
        p2 = rewired_model_pmf(g, m, k) if m <= e <= m + k else 0.0
        p1 = uniform if e == m else 0.0
        tv += abs(p1 - p2)
        mass += p2
    return tv / 2.0, mass


def run_distinguishability_experiment(
    n: int, m: int, k: int, trials: int, seed: int
) -> CouplingReport:
    """Structural and distributional validation of the rewired coupling."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    regime_warning = k >= math.sqrt(n)
    if regime_warning:
        warnings.warn(
            f"k={k} is not small next to sqrt(n)={math.sqrt(n):.2f}; "
            "the coupling argument degrades in this regime"
        )
    enumerable = n <= 5
    counts: dict[bytes, int] = {}
    violations = 0
    for t in range(trials):
        rng = substream(seed, "coupling", n, m, k, t)
        stage1, final = sample_gnm_rewired_coupled(n, m, k, rng)
        if node_distance(stage1, final) > 1:
            violations += 1
        if enumerable:
            counts[final.key] = counts.get(final.key, 0) + 1
    pvalue = None
    tv = None
    mass = None
    if enumerable:
        tv, mass = exact_rewired_tv(n, m, k)
        observed, expected = [], []
        for g in all_graphs(n):
            if m <= g.edge_count <= m + k:
                observed.append(counts.get(g.key, 0))
                expected.append(rewired_model_pmf(g, m, k) * trials)
        observed, expected = np.array(observed, float), np.array(expected, float)
        # pool cells in order of expectation until each expects >= 5, so the
        # chi-square approximation is valid; an unfilled last cell joins the
        # one before it
        obs_p, exp_p = [0.0], [0.0]
        for idx in np.argsort(expected):
            if exp_p[-1] >= 5.0:
                obs_p.append(0.0)
                exp_p.append(0.0)
            obs_p[-1] += observed[idx]
            exp_p[-1] += expected[idx]
        if len(exp_p) > 1 and exp_p[-1] < 5.0:
            tail_o, tail_e = obs_p.pop(), exp_p.pop()
            obs_p[-1] += tail_o
            exp_p[-1] += tail_e
        exp_arr = np.array(exp_p) * (sum(obs_p) / sum(exp_p))
        if len(obs_p) < 2:
            pvalue = 1.0
        else:
            stat = float(((np.array(obs_p) - exp_arr) ** 2 / exp_arr).sum())
            pvalue = chi2_sf(stat, len(obs_p) - 1)
    return CouplingReport(
        n=n,
        m=m,
        k=k,
        trials=trials,
        structural_violations=violations,
        chisq_pvalue=pvalue,
        tv_exact=tv,
        pmf_total_mass=mass,
        regime_warning=regime_warning,
    )
