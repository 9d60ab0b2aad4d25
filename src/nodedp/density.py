"""Private edge-density estimation for G(n,p) and G(n,m).

Three routes: the Laplace baseline calibrated to worst-case sensitivity over
all graphs, a truncated-noise mechanism calibrated to the much smaller
density sensitivity that holds on the homogeneity set (the promise release:
any n, DP guaranteed on the homogeneity set only), and the exact extension
of the latter to the whole graph space (tiny n).  Wherever
HomogeneityConfig.check_density_cap passes, the homogeneity set is the
density cap e(G) <= rho, so membership is one edge count.  Each release
samples the one mechanism object its audit certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ResourceLimitError
from .graphs import (
    REWIRING_PAIRS_MAX_N,
    LabeledGraph,
    edge_density,
    graph_index,
    graph_space_size,
    group_distance_row,
    group_distances,
)
from .graphs import all_graphs, node_distance  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .mechanisms import (
    LaplaceDensity,
    PiecewiseExpDensity,
    _check_epsilon,
    extend_mechanism,
    truncated_laplace_density,
    truncated_laplace_laws,
    truncation_rate,
)


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

    def check_density_cap(self) -> None:
        """Refuse an order at which H may be more than the density cap.

        Where tolerance(1) >= n, every subset passes, so G is in H iff
        e(G) <= rho.  tolerance(s) = s tolerance(1).  A subset S of s
        vertices has slots(S) = s(n - s) + s(s - 1)/2 < s n boundary slots,
        and its deviation, the gap between boundary(S) and e(G) slots(S),
        both in [0, slots(S)], is below s n <= tolerance(s).  c0 >=
        sqrt(log n / n), so tolerance(1) >= C log n > 48 log n, which is at
        least n for 3 <= n <= 268: the check passes there at any C > 48, and
        further at larger rho (through n = 802 at rho = 0.05, 11,192 at
        rho = 0.5, with C = 49)."""
        bound = float(self.tolerance(1))
        if not bound >= self.n:
            raise ResourceLimitError(
                f"membership in H(rho={self.rho}, C={self.C}) is decided only where "
                f"tolerance(1) >= n, which makes H the density cap; "
                f"tolerance(1) = {bound:.4g} < n = {self.n}"
            )

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


def laplace_scale(n: int, epsilon: float) -> float:
    """4/(n eps), the baseline's Laplace scale at order n: twice what eps
    needs, since one rewiring moves the edge density by at most 2/n."""
    return 4.0 / (n * _check_epsilon(epsilon))


def laplace_density_mechanism(g: LabeledGraph, epsilon: float) -> LaplaceDensity:
    """e(G) + Lap(laplace_scale) before clamping: the law the audits certify,
    and the one the baseline and the block estimator's first stage sample."""
    return LaplaceDensity(edge_density(g), laplace_scale(g.n, epsilon))


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


def homogeneity_membership(g: LabeledGraph, cfg: HomogeneityConfig) -> bool:
    """True iff e(G) <= rho and every nonempty subset's boundary edge count is
    within tolerance of the count its own density predicts.

    Always exact: a graph over the density cap is outside H at any n, and
    under it every subset passes wherever cfg.check_density_cap does, which
    refuses the other orders.
    """
    cfg.check_order(g.n)
    if edge_density(g) > cfg.rho + 1e-12:
        return False
    cfg.check_density_cap()
    return True


def _check_exact_extension(n: int) -> None:
    if n > REWIRING_PAIRS_MAX_N:
        raise ResourceLimitError(
            f"exact extension enumerates all graphs; limited to n <= "
            f"{REWIRING_PAIRS_MAX_N}. Use promise mode for larger n."
        )


def _index_edge_counts(n: int) -> np.ndarray:
    """Edge count of every graph index on n vertices: its number of set
    bits, by doubling."""
    counts = np.zeros(graph_space_size(n), dtype=np.int64)
    for t in range(n * (n - 1) // 2):
        counts[1 << t : 2 << t] = counts[: 1 << t] + 1
    return counts


def _homogeneity_and_counts(n: int, cfg: HomogeneityConfig) -> tuple[np.ndarray, np.ndarray]:
    """H membership of every graph index on n vertices, what
    homogeneity_membership answers for each graph, read from its edge count
    (cfg.check_density_cap), and the edge count of every graph index, from
    one _index_edge_counts table."""
    _check_exact_extension(n)
    cfg.check_order(n)
    cfg.check_density_cap()
    counts = _index_edge_counts(n)
    return counts / (n * (n - 1) / 2) <= cfg.rho + 1e-12, counts


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
        dp_domain=_promise_domain(cfg),
    )


def _promise_domain(cfg: HomogeneityConfig) -> str:
    """The set the promise release's epsilon holds on: H, and the density
    cap that H is at cfg.n wherever cfg.check_density_cap decides it."""
    domain = f"H(rho={cfg.rho}, C={cfg.C}) only"
    try:
        cfg.check_density_cap()
    except ResourceLimitError:
        return domain
    return f"{domain}, = e(G) <= {cfg.rho} at n = {cfg.n}"


# -- extension to the whole space ---------------------------------------------------


# A hook name only: perfbench/tracing.py wraps graph_space_oracle here and
# in audits.  Nothing calls it; the extension reads group_distances directly.
graph_space_oracle = None  # noqa: F401  (wrapped here by perfbench/tracing.py)


def _extension_groups(n: int, in_h, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The groups of the extension from the graphs of order n that in_h
    marks (a bool per graph index), given every graph index's edge count:
    one group per distinct edge count in H, in order of its first index.
    Returns (centres, groups): each group's edge density, the centre of its
    base law, and the group of every graph index, -1 outside H."""
    in_h = np.asarray(in_h, dtype=bool)
    if in_h.shape != (graph_space_size(n),):
        raise ValueError(f"in_h needs one bool per graph index, {graph_space_size(n)} at n = {n}")
    members = np.flatnonzero(in_h)
    _, first, by_count = np.unique(counts[members], return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    groups = np.full(in_h.size, -1)
    groups[members] = rank[by_count]
    return counts[members[np.sort(first)]] / (n * (n - 1) / 2), groups


def _extend_over_groups(
    n: int, bases: list[PiecewiseExpDensity], groups: np.ndarray, epsilon: float
) -> Callable[[LabeledGraph], PiecewiseExpDensity]:
    """The extension at distance cost epsilon of bases[j] on the members of
    group j (groups gives each graph index of order n its group, or -1), as
    a function of the graph: every input's distances from one
    group_distances table, and every distinct row's law built at once by
    extend_mechanism."""
    extended = extend_mechanism(bases, group_distances(n, groups), epsilon)

    def mechanism(g: LabeledGraph) -> PiecewiseExpDensity:
        if g.n != n:
            raise ValueError(f"extension is over graphs of order {n}, got n = {g.n}")
        return extended(graph_index(g))

    return mechanism


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
    in H, groups in order of their first index.  The distance from every
    input to every group is one multi-source BFS, graphs.group_distances,
    and extend_mechanism builds the law of every distinct distance row at
    once.  Enumerates the full graph space, so n <= REWIRING_PAIRS_MAX_N.
    """
    _check_exact_extension(n)
    centres, groups = _extension_groups(n, in_h, _index_edge_counts(n))
    return _extend_over_groups(n, [base(c) for c in centres.tolist()], groups, epsilon)


def _restricted_groups(
    n: int, eps: float, cfg: HomogeneityConfig
) -> tuple[list[PiecewiseExpDensity], np.ndarray]:
    """The base laws and groups (_extension_groups) of the extension of
    restricted_density_mechanism at eps from H (_homogeneity_and_counts), from
    one edge-count table, the base laws by one truncated_laplace_laws
    call."""
    in_h, counts = _homogeneity_and_counts(n, cfg)
    centres, groups = _extension_groups(n, in_h, counts)
    return truncated_laplace_laws(centres, eps, cfg.C, cfg.rho, cfg.n), groups


def extended_density_mechanism(
    n: int, epsilon: float, cfg: HomogeneityConfig
) -> Callable[[LabeledGraph], PiecewiseExpDensity]:
    """Exact extension of the restricted mechanism to every graph on n vertices.

    The base spends eps/2 on the homogeneity set; extending at distance cost
    eps/2 yields an eps-node-DP mechanism agreeing with the base on the set.
    Enumerates the full graph space, so n <= REWIRING_PAIRS_MAX_N = 6.  H
    comes from each graph index's edge count (_homogeneity_and_counts), and
    the base laws of all groups from one table build per knot count.  At
    n = 5 (638 graphs in H, 6 base laws) its 1,024 inputs have 22 distinct
    distance rows, and it builds all 22 laws when it is built, in about
    2.5 ms on one core of a 2-core Xeon; at n = 6 (16,384 in H, 8 base
    laws) 32,768 inputs share 51 laws, built in about 55 ms, mostly the
    distance table.  Evaluating an input is then a graph index, one product
    with the order's slot weights, and a table lookup, about 2.2 us.
    """
    eps = _check_epsilon(epsilon)
    return _extend_over_groups(n, *_restricted_groups(n, eps, cfg), eps / 2.0)


def extended_density_law(
    g: LabeledGraph, epsilon: float, cfg: HomogeneityConfig
) -> PiecewiseExpDensity:
    """extended_density_mechanism(g.n, epsilon, cfg)(g), bit for bit, with
    only g's law built: its row of the distance table alone
    (graphs.group_distance_row), through the same batched envelope.  A
    one-shot release needs no other law: about 0.9 ms at n = 5 and 2 ms at
    n = 6 on one core of a 2-core Xeon."""
    eps = _check_epsilon(epsilon)
    bases, groups = _restricted_groups(g.n, eps, cfg)
    row = group_distance_row(g.n, groups, graph_index(g))
    return extend_mechanism(bases, row[None], eps / 2.0)(0)


def extended_density_estimator(
    g: LabeledGraph,
    epsilon: float,
    cfg: HomogeneityConfig,
    rng: np.random.Generator,
) -> DensityEstimate:
    """Sample the materialized extension: eps-node-DP on every graph, n <= 6.
    Larger n takes the promise release, restricted_density_estimator."""
    eps = _check_epsilon(epsilon)
    return DensityEstimate(
        value=float(extended_density_law(g, eps, cfg).sample(rng)),
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
