"""Private edge-density estimation for G(n,p) and G(n,m).

Three routes: the Laplace baseline calibrated to worst-case sensitivity over
all graphs, a truncated-noise mechanism calibrated to the much smaller
density sensitivity that holds on the homogeneity set (the promise release:
any n, DP guaranteed on the homogeneity set only), and the exact extension
of the latter to the whole graph space (tiny n).  Each release samples the
one mechanism object its audit certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import ResourceLimitError
from .graphs import LabeledGraph, all_graphs, cover_table, edge_density
from .graphs import node_distance  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .mechanisms import (
    LaplaceDensity,
    MetricSpaceOracle,
    PiecewiseExpDensity,
    _check_epsilon,
    extend_mechanism,
    truncated_laplace_density,
    truncation_rate,
)

EXACT_SUBSET_SCAN_MAX_N = 16
EXACT_EXTENSION_MAX_N = 5


@dataclass(frozen=True)
class HomogeneityConfig:
    rho: float
    C: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if not self.C > 48:
            raise ValueError("C must exceed 48")
        if self.n < 3:
            raise ValueError("n must be at least 3")

    def tolerance(self, subset_size) -> np.ndarray:
        """C * max(sqrt(rho), sqrt(log n / n)) * s * sqrt(n log n)."""
        s = np.asarray(subset_size, dtype=float)
        logn = math.log(self.n)
        c0 = max(math.sqrt(self.rho), math.sqrt(logn / self.n))
        return self.C * c0 * s * math.sqrt(self.n * logn)


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    mode: str  # baseline | promise | extended-exact
    epsilon: float
    dp_domain: str  # where the stated epsilon is guaranteed
    raw: float | None = None  # pre-clamp value where applicable


# -- Laplace baseline ---------------------------------------------------------


def laplace_density_mechanism(g: LabeledGraph, epsilon: float) -> LaplaceDensity:
    """e(G) + Lap(4/(n eps)) before clamping: the law the audits certify, and
    the one the baseline and the block estimator's first stage sample."""
    eps = _check_epsilon(epsilon)
    return LaplaceDensity(edge_density(g), 4.0 / (g.n * eps))


def laplace_density_estimator(
    g: LabeledGraph, epsilon: float, rng: np.random.Generator
) -> DensityEstimate:
    """A draw of laplace_density_mechanism clamped to [0,1]; eps-node-DP on
    every graph."""
    eps = _check_epsilon(epsilon)
    raw = float(laplace_density_mechanism(g, eps).sample(rng))
    return DensityEstimate(
        value=min(max(raw, 0.0), 1.0),
        mode="baseline",
        epsilon=eps,
        dp_domain="all graphs",
        raw=raw,
    )


# -- homogeneity set ------------------------------------------------------------


def _subset_masks(n: int) -> np.ndarray:
    ids = np.arange(1, 1 << n, dtype=np.uint32)
    return (ids[:, None] >> np.arange(n)[None, :]) & 1 == 1


def homogeneity_worst_margin(g: LabeledGraph, cfg: HomogeneityConfig) -> float:
    """max over nonempty S of |boundary(S) - e(G) * slots(S)| - tolerance(|S|).

    Exact 2^n - 1 scan; nonpositive means every subset passes.
    """
    n = g.n
    if n > EXACT_SUBSET_SCAN_MAX_N:
        raise ResourceLimitError(
            f"exact subset scan limited to n <= {EXACT_SUBSET_SCAN_MAX_N}"
        )
    masks = _subset_masks(n)
    sizes = masks.sum(axis=1)
    slots = sizes * (n - sizes) + sizes * (sizes - 1) / 2.0
    e = edge_density(g)
    us, vs = g.edges().T
    boundary = (masks[:, us] | masks[:, vs]).sum(axis=1)
    deviation = np.abs(boundary - e * slots)
    return float((deviation - cfg.tolerance(sizes)).max())


def homogeneity_membership(g: LabeledGraph, cfg: HomogeneityConfig) -> bool:
    """True iff e(G) <= rho and every nonempty subset's boundary edge count is
    within tolerance of the count its own density predicts.

    Always exact: a graph over the density cap is rejected first, and the
    subset scan refuses n > EXACT_SUBSET_SCAN_MAX_N.
    """
    if edge_density(g) > cfg.rho + 1e-12:
        return False
    return homogeneity_worst_margin(g, cfg) <= 1e-9


# -- restricted (truncated-noise) estimator: the promise release -----------------


def restricted_density_mechanism(
    g: LabeledGraph, epsilon: float, cfg: HomogeneityConfig
) -> PiecewiseExpDensity:
    return truncated_laplace_density(edge_density(g), epsilon, cfg.C, cfg.rho, cfg.n)


def restricted_density_estimator(
    g: LabeledGraph,
    epsilon: float,
    cfg: HomogeneityConfig,
    rng: np.random.Generator,
) -> DensityEstimate:
    """Sample the truncated-noise law centered at e(G): the promise release.

    (eps/2)-node-DP between inputs in the homogeneity set; the caller is
    responsible for the membership promise, and dp_domain says so.
    """
    eps = _check_epsilon(epsilon)
    value = float(restricted_density_mechanism(g, eps, cfg).sample(rng))
    return DensityEstimate(
        value=value,
        mode="promise",
        epsilon=eps / 2.0,
        dp_domain=f"H(rho={cfg.rho}, C={cfg.C}) only",
    )


# -- extension to the whole space ---------------------------------------------------


def graph_space_oracle(
    n: int, contains: Callable[[LabeledGraph], bool] | None = None
) -> MetricSpaceOracle:
    """All graphs on n vertices under the rewiring metric, read from the
    cover table: the points come in index order, so a graph's key gives its
    index and two indices give the distance."""
    points = list(all_graphs(n))
    index = {g.key: i for i, g in enumerate(points)}
    table = cover_table(n)

    def distance(a: LabeledGraph, b: LabeledGraph) -> float:
        return float(table[index[a.key] ^ index[b.key]])

    return MetricSpaceOracle(
        points=points,
        distance=distance,
        contains=contains if contains is not None else (lambda _: True),
    )


def extended_density_mechanism(
    n: int, epsilon: float, cfg: HomogeneityConfig
) -> Callable[[LabeledGraph], PiecewiseExpDensity]:
    """Exact extension of the restricted mechanism to every graph on n vertices.

    The base spends eps/2 on the homogeneity set; extending at distance cost
    eps/2 yields an eps-node-DP mechanism agreeing with the base on the set.
    Enumerates the full graph space, so n <= 5.
    """
    eps = _check_epsilon(epsilon)
    if n > EXACT_EXTENSION_MAX_N:
        raise ResourceLimitError(
            f"exact extension enumerates all graphs; limited to n <= "
            f"{EXACT_EXTENSION_MAX_N}. Use promise mode for larger n."
        )
    space = graph_space_oracle(n, contains=lambda g: homogeneity_membership(g, cfg))
    base = lambda g: restricted_density_mechanism(g, eps, cfg)
    return extend_mechanism(space, base, eps / 2.0)


def extended_density_estimator(
    g: LabeledGraph,
    epsilon: float,
    cfg: HomogeneityConfig,
    rng: np.random.Generator,
) -> DensityEstimate:
    """Sample the materialized extension: eps-node-DP on every graph, n <= 5.
    Larger n takes the promise release, restricted_density_estimator."""
    eps = _check_epsilon(epsilon)
    mech = extended_density_mechanism(g.n, eps, cfg)
    return DensityEstimate(
        value=float(mech(g).sample(rng)),
        mode="extended-exact",
        epsilon=eps,
        dp_domain="all graphs",
    )


# -- analytic oracles ----------------------------------------------------------------


def predicted_baseline_mse(n: int, p: float, epsilon: float) -> float:
    """Exact MSE of the unclamped baseline on G(n,p):
    Var(Lap(4/(n eps))) + Var(e(G)) = 32/(n^2 eps^2) + p(1-p)/C(n,2).

    The model is G(n,p), where e(G) varies.  Under G(n,m) every graph has
    e(G) = m/C(n,2) and the exact MSE is the Laplace term alone: pass p = 0."""
    eps = _check_epsilon(epsilon)
    return 32.0 / (n**2 * eps**2) + p * (1.0 - p) / math.comb(n, 2)


def predicted_restricted_mse(
    n: int, rho: float, epsilon: float, C: float, center: float = 0.5
) -> float:
    """Exact second moment about the center of the truncated-noise law.

    In x = q - center the law is proportional to exp(-a * min(|x|, R)) on
    [-center, 1 - center], with a = eps * r_n / (16 C) and R = n / r_n.  Each
    side integrates in closed form: the peak through regularized lower
    incomplete gamma functions, the flat tail as a polynomial.  Independent
    of the piecewise-exponential sampling path, and exact at every n (the
    peak has width 1/a, far below what adaptive quadrature resolves at large n).
    """
    eps = _check_epsilon(epsilon)
    rate = truncation_rate(n, rho)
    a = eps * rate / (16.0 * C)
    radius = n / rate
    z = m2 = 0.0
    for side in (center, 1.0 - center):
        peak = min(side, radius)
        # int_0^peak x^j exp(-a x) dx = j! P(j+1, a peak) / a^(j+1)
        z += special.gammainc(1, a * peak) / a
        m2 += 2.0 * special.gammainc(3, a * peak) / a**3
        if side > radius:
            tail = math.exp(-a * radius)
            z += tail * (side - radius)
            m2 += tail * (side**3 - radius**3) / 3.0
    return m2 / z
