"""Exhaustive privacy audits at tiny scale.

Everything here enumerates: every graph, every pair, exact rewiring
distances, exact output laws.  A passing audit is a certificate for the
checked order and grid, not an asymptotic claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .block_estimator import (
    EstimatorConfig,
    block_mechanism,
    measured_score_sensitivity,
    theoretical_sensitivity,
)
from .errors import ResourceLimitError
from .graphs import LabeledGraph, all_graphs, cover_table, graph_space_size
from .mechanisms import max_violation

from .density import graph_space_oracle  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .graphs import adjacent_graphs, node_distance  # noqa: F401  (likewise)

# The pair kernel takes all P x P distances at once: 8 MiB at n = 5, 8 GiB
# at n = 6.
PAIR_AUDIT_MAX_N = 5


@dataclass(frozen=True)
class AuditReport:
    mechanism: str
    n: int
    epsilon: float
    max_violation: float
    pairs_checked: int
    witness: tuple | None = None
    # per-pair worst rows (pair id, d_v, grid point, log ratio, bound,
    # violation), populated on request
    rows: tuple = ()

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_violation <= tol

    def to_csv(self) -> str:
        lines = ["pair_i,pair_j,d_v,grid_q,log_ratio,bound,violation"]
        for i, j, d, q, ratio, bound, violation in self.rows:
            lines.append(
                f"{i},{j},{d:.17g},{q:.17g},{ratio:.17g},{bound:.17g},{violation:.17g}"
            )
        return "\n".join(lines) + "\n"


def _graph_distances(n: int, adjacent_only: bool = False) -> np.ndarray:
    """[P, P] rewiring distances between all graphs of order n, in
    ``all_graphs`` order, read from the cover table.  Pairs that are not
    compared are +inf: the diagonal, and with adjacent_only every pair at
    distance above 1."""
    if n > PAIR_AUDIT_MAX_N:
        raise ResourceLimitError(f"pairwise audits limited to n <= {PAIR_AUDIT_MAX_N}")
    ids = np.arange(graph_space_size(n))
    dist = cover_table(n)[ids[:, None] ^ ids].astype(float)
    dist[dist == 0] = np.inf  # only a graph and itself are at distance 0
    if adjacent_only:
        dist[dist > 1] = np.inf
    return dist


def _on_grid(witness, grid):
    """(i, j, t) with the column index t replaced by its grid point."""
    return None if witness is None else (witness[0], witness[1], float(grid[witness[2]]))


def audit_density_mechanism(
    mechanism: Callable[[LabeledGraph], object],
    n: int,
    epsilon: float,
    grid,
    name: str = "density-mechanism",
    max_n: int = 5,
    collect_rows: bool = False,
) -> AuditReport:
    """Check log f_G(q) - log f_G'(q) <= eps * d_v(G, G') over all graph pairs
    and grid points.  Density objects must expose log_pdf."""
    if n > max_n:
        raise ResourceLimitError(f"density audit limited to n <= {max_n}")
    dist = _graph_distances(n)
    grid = np.asarray(grid, dtype=float)
    logs = np.stack([np.asarray(mechanism(g).log_pdf(grid)) for g in all_graphs(n)])
    v = max_violation(logs, dist, epsilon, collect_rows)
    rows = tuple((i, j, d, float(grid[t]), r, b, gap) for i, j, d, t, r, b, gap in v.rows)
    return AuditReport(name, n, epsilon, v.worst, v.pairs, _on_grid(v.witness, grid), rows)


def audit_finite_mechanism(
    mechanism: Callable[[LabeledGraph], object],
    n: int,
    epsilon: float,
    name: str = "finite-mechanism",
    adjacent_only: bool = True,
    max_n: int = 4,
) -> AuditReport:
    """Check exact pmf ratios of a finite-output mechanism against
    exp(eps * d_v).  Candidate lists must align across inputs (compare by
    index).  With adjacent_only, only rewiring neighbors are compared, which
    is the binding case for path metrics."""
    if n > max_n:
        raise ResourceLimitError(f"finite audit limited to n <= {max_n}")
    dist = _graph_distances(n, adjacent_only)
    logs = []
    for g in all_graphs(n):
        lp = np.asarray(mechanism(g).log_probs, dtype=float)
        if logs and lp.size != logs[0].size:
            raise ValueError("candidate lists differ across inputs")
        logs.append(lp)
    v = max_violation(np.stack(logs), dist, epsilon)
    return AuditReport(name, n, epsilon, v.worst, v.pairs, v.witness)


def audit_block_mechanism(
    n: int, rho_hat: float, cfg: EstimatorConfig, epsilon_claimed: float
) -> AuditReport:
    """Exact pmf audit of the selection stage, conditional on the released
    density (composition with the density step is additive and is audited
    separately on its own output law)."""

    def mech(g: LabeledGraph):
        m, _, _, _ = block_mechanism(g, rho_hat, cfg)
        return m

    return audit_finite_mechanism(
        mech, n, epsilon_claimed, name=f"block-mechanism(rho_hat={rho_hat})"
    )


@dataclass(frozen=True)
class SensitivityReport:
    n: int
    k: int
    d: int
    mu: float
    measured: float
    theoretical: float

    @property
    def within_theory(self) -> bool:
        return self.measured <= self.theoretical * (1.0 + 1e-9)


def audit_score_sensitivity(
    n: int, k: int, d: int, mu: float, candidate_budget: int = 10**6
) -> SensitivityReport:
    """Measure the exact worst-case change of the degree-capped best score
    over adjacent pairs and compare against 4 d mu / n^2."""
    measured = measured_score_sensitivity(n, k, mu, d, candidate_budget)
    return SensitivityReport(
        n=n,
        k=k,
        d=d,
        mu=mu,
        measured=measured,
        theoretical=theoretical_sensitivity(n, float(d), mu),
    )


# -- reduction from bit strings ---------------------------------------------------


def bernoulli_reduction_graph(bits: Sequence[int]) -> LabeledGraph:
    """Two cliques: one on the positions holding 1, one on the positions
    holding 0.  Flipping one bit rewires exactly one vertex."""
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    n = len(bits)
    ones = [i for i, b in enumerate(bits) if b == 1]
    zeros = [i for i, b in enumerate(bits) if b == 0]
    edges = [
        (u, v)
        for group in (ones, zeros)
        for a, u in enumerate(group)
        for v in group[a + 1 :]
    ]
    return LabeledGraph.from_edges(n, edges)


def audit_bitstring_reduction(
    mechanism: Callable[[LabeledGraph], object],
    n_bits: int,
    epsilon: float,
    grid,
    max_bits: int = 6,
) -> AuditReport:
    """Audit mechanism(bit-string graph) against Hamming distance on inputs.

    Node privacy of the graph mechanism implies the same epsilon against
    bit flips because one flip rewires one vertex.
    """
    if n_bits > max_bits:
        raise ResourceLimitError(f"bit-string audit limited to {max_bits} bits")
    grid = np.asarray(grid, dtype=float)
    ids = np.arange(1 << n_bits)
    strings = [tuple((i >> t) & 1 for t in range(n_bits)) for i in ids.tolist()]
    logs = np.stack(
        [np.asarray(mechanism(bernoulli_reduction_graph(s)).log_pdf(grid)) for s in strings]
    )
    flips = ids[:, None] ^ ids
    hamming = ((flips[:, :, None] >> np.arange(n_bits)) & 1).sum(axis=2).astype(float)
    np.fill_diagonal(hamming, np.inf)
    v = max_violation(logs, hamming, epsilon)
    return AuditReport(
        "bitstring-reduction", n_bits, epsilon, v.worst, v.pairs, _on_grid(v.witness, grid)
    )
