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

from .errors import ResourceLimitError
from .graphs import LabeledGraph, all_adjacencies, cover_table, edge_density, graph_index
from .graphs import all_graphs, node_distance  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .mechanisms import (
    LaplaceDensity,
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

    def check_order(self, n: int) -> None:
        """Refuse graphs of another order than the one calibrated for."""
        if n != self.n:
            raise ValueError(f"homogeneity config is for n = {self.n}, got n = {n}")

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


def _worst_margins(
    adjacency: np.ndarray, cfg: HomogeneityConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Edge density and worst homogeneity margin of each graph in a
    [B, n, n] bool adjacency stack: the one subset-scan kernel.

    Boundary edge counts of all 2^n subsets S (bit v of S is vertex v) are
    built by doubling, boundary(S + v) = boundary(S) + deg(v) - |N(v) & S|
    for S below v, so B graphs take [B, 2^n] integers and no
    [subsets, edges] mask: one graph at n = 16 in about 3 ms with a 4 MiB
    tracemalloc peak, all 1,024 graphs at n = 5 in about 1 ms (one core of
    a 2-core Xeon, numpy 2.4).
    """
    b, n = adjacency.shape[:2]
    cfg.check_order(n)
    if n > EXACT_SUBSET_SCAN_MAX_N:
        raise ResourceLimitError(
            f"exact subset scan limited to n <= {EXACT_SUBSET_SCAN_MAX_N}"
        )
    subsets = np.arange(1 << n)
    sizes = np.zeros(1 << n, dtype=np.int64)  # popcount of each subset
    for v in range(n):
        sizes[1 << v : 2 << v] = sizes[: 1 << v] + 1
    neighbours = adjacency @ (1 << np.arange(n))  # [B, n] vertex bitmasks
    degrees = adjacency.sum(axis=2)
    boundary = np.zeros((b, 1 << n), dtype=np.int64)
    for v in range(n):
        inside = sizes[subsets[: 1 << v] & neighbours[:, v, None]]
        boundary[:, 1 << v : 2 << v] = boundary[:, : 1 << v] + degrees[:, v, None] - inside
    sizes, boundary = sizes[1:], boundary[:, 1:]  # nonempty subsets
    slots = sizes * (n - sizes) + sizes * (sizes - 1) / 2.0
    e = (degrees.sum(axis=1) // 2) / (n * (n - 1) / 2)  # edge_density of each graph
    deviation = np.abs(boundary - e[:, None] * slots)
    return e, (deviation - cfg.tolerance(sizes)).max(axis=1)


def homogeneity_worst_margin(g: LabeledGraph, cfg: HomogeneityConfig) -> float:
    """max over nonempty S of |boundary(S) - e(G) * slots(S)| - tolerance(|S|).

    Exact 2^n - 1 scan; nonpositive means every subset passes.
    """
    return float(_worst_margins(g.adjacency[None], cfg)[1][0])


def homogeneity_membership(g: LabeledGraph, cfg: HomogeneityConfig) -> bool:
    """True iff e(G) <= rho and every nonempty subset's boundary edge count is
    within tolerance of the count its own density predicts.

    Always exact: a graph over the density cap is rejected first, and the
    subset scan refuses n > EXACT_SUBSET_SCAN_MAX_N.
    """
    cfg.check_order(g.n)
    if edge_density(g) > cfg.rho + 1e-12:
        return False
    return homogeneity_worst_margin(g, cfg) <= 1e-9


def _check_exact_extension(n: int) -> None:
    if n > EXACT_EXTENSION_MAX_N:
        raise ResourceLimitError(
            f"exact extension enumerates all graphs; limited to n <= "
            f"{EXACT_EXTENSION_MAX_N}. Use promise mode for larger n."
        )


def homogeneity_by_index(n: int, cfg: HomogeneityConfig) -> tuple[np.ndarray, np.ndarray]:
    """H membership and worst margin of every graph index on n vertices, in
    one batched subset scan: the same test, in the same float operations, as
    homogeneity_membership and homogeneity_worst_margin on each graph."""
    _check_exact_extension(n)
    e, margins = _worst_margins(all_adjacencies(n), cfg)
    return (e <= cfg.rho + 1e-12) & (margins <= 1e-9), margins


# -- restricted (truncated-noise) estimator: the promise release -----------------


def restricted_density_mechanism(
    g: LabeledGraph, epsilon: float, cfg: HomogeneityConfig
) -> PiecewiseExpDensity:
    cfg.check_order(g.n)
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


# A hook name only: perfbench/tracing.py wraps graph_space_oracle here and
# in audits.  Nothing calls it; the extension reads cover_table directly.
graph_space_oracle = None  # noqa: F401  (wrapped here by perfbench/tracing.py)


def extend_over_graphs(
    n: int,
    in_h,
    base: Callable[[float], PiecewiseExpDensity],
    epsilon: float,
) -> Callable[[LabeledGraph], PiecewiseExpDensity]:
    """Exact extension, at distance cost epsilon, of a base law on the graphs
    of order n whose indices in_h marks (a bool per graph index) to every
    graph of order n.

    The base law of G in H is base(e(G)): one law per distinct edge count
    in H, groups in order of their first index.  The distance from input x
    to a group is cover_table(n)[x ^ members].min().  Enumerates the full
    graph space, so n <= EXACT_EXTENSION_MAX_N.
    """
    _check_exact_extension(n)
    table = cover_table(n)
    in_h = np.asarray(in_h, dtype=bool)
    if in_h.shape != table.shape:
        raise ValueError(f"in_h needs one bool per graph index, {table.size} at n = {n}")
    members = np.flatnonzero(in_h)
    counts = ((members[:, None] >> np.arange(n * (n - 1) // 2)) & 1).sum(axis=1)
    _, first = np.unique(counts, return_index=True)
    first.sort()
    ids = np.arange(table.size)
    distances = np.empty((ids.size, first.size), dtype=np.int8)
    for j, i in enumerate(first):
        group = members[counts == counts[i]]
        distances[:, j] = table[ids[:, None] ^ group].min(axis=1)
    bases = [base(int(counts[i]) / (n * (n - 1) / 2)) for i in first]
    extended = extend_mechanism(bases, distances, epsilon)

    def mechanism(g: LabeledGraph) -> PiecewiseExpDensity:
        if g.n != n:
            raise ValueError(f"extension is over graphs of order {n}, got n = {g.n}")
        return extended(graph_index(g))

    return mechanism


def extended_density_mechanism(
    n: int, epsilon: float, cfg: HomogeneityConfig
) -> Callable[[LabeledGraph], PiecewiseExpDensity]:
    """Exact extension of the restricted mechanism to every graph on n vertices.

    The base spends eps/2 on the homogeneity set; extending at distance cost
    eps/2 yields an eps-node-DP mechanism agreeing with the base on the set.
    Enumerates the full graph space, so n <= 5.  At n = 5 (638 graphs in H,
    6 base laws) it builds in about 5 ms, and its 1,024 inputs share 22
    laws, each built on first use in about 0.3 ms: evaluating every input
    takes about 10 ms on one core of a 2-core Xeon.
    """
    eps = _check_epsilon(epsilon)
    in_h, _ = homogeneity_by_index(n, cfg)
    # restricted_density_mechanism's law, as a function of e(G)
    base = lambda e: truncated_laplace_density(e, eps, cfg.C, cfg.rho, cfg.n)
    return extend_over_graphs(n, in_h, base, eps / 2.0)


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


def _lower_gamma_3(x: float) -> float:
    """Regularized lower incomplete gamma P(3, x) = 1 - e^-x (1 + x + x^2/2).

    Below x = 1 the closed form cancels, so the tail of the exponential
    series, e^-x * sum_{k >= 3} x^k / k!, is summed instead."""
    if x >= 1.0:
        return 1.0 - math.exp(-x) * (1.0 + x + x * x / 2.0)
    term = x**3 / 6.0
    total, k = 0.0, 3
    while total + term != total:
        total += term
        k += 1
        term *= x / k
    return math.exp(-x) * total


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
        z += -math.expm1(-a * peak) / a
        m2 += 2.0 * _lower_gamma_3(a * peak) / a**3
        if side > radius:
            tail = math.exp(-a * radius)
            z += tail * (side - radius)
            m2 += tail * (side**3 - radius**3) / 3.0
    return m2 / z
