"""Exhaustive privacy audits at tiny scale.

Everything here enumerates: every graph, every pair one rewiring apart,
exact output laws.  Node distance is the shortest-path metric of single-
vertex rewirings, so the bound eps on those pairs implies eps * d_v on every
pair.  A passing audit is a certificate for the checked order and grid, not
an asymptotic claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .block_estimator import (
    EstimatorConfig,
    block_laws,
    measured_score_sensitivity,
    theoretical_sensitivity,
)
from .errors import ResourceLimitError
from .graphs import LabeledGraph, all_graphs, graph_space_size, rewiring_pairs
from .mechanisms import fill_table, max_violation

from .block_estimator import block_mechanism  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .density import graph_space_oracle  # noqa: F401  (likewise)
from .graphs import adjacent_graphs, node_distance  # noqa: F401  (likewise)

# The density audit builds one mechanism and one log-density row per graph
# and checks every rewiring pair, comparing each distinct pair of rows once:
# 1,024 graphs and 66,560 pairs (77 distinct for the Laplace baseline) at
# n = 5 in about 15 ms.  At n = 6 it is 32,768 graphs and 5,603,328 pairs,
# about 0.5 s and 270 MiB peak RSS on a 200-point grid, so the table binds,
# not the pair count: its rows alone take 250 MiB on the CLI's 1,000-point
# grid.
PAIR_AUDIT_MAX_N = 5
# The finite audit builds one mechanism per graph, 64 at n = 4, and the
# block audit one block_laws table with a row per graph.
FINITE_AUDIT_MAX_N = 4
# The bit-string audit builds one mechanism per string: 64 at 6 bits.
BITSTRING_AUDIT_MAX_BITS = 6
# Largest violation of the DP inequality a passing audit may show: float
# round-off in the log-ratio, not slack in epsilon.
AUDIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AuditReport:
    mechanism: str
    n: int
    epsilon: float
    max_violation: float
    pairs_checked: int
    witness: tuple | None = None
    # per-pair worst rows (pair id, grid point or candidate index, log ratio,
    # bound, violation) over rewiring pairs, populated on request
    rows: tuple = ()
    # what the third entry of a row is: grid_q (grid audits) or candidate
    column: str = "grid_q"

    def passed(self) -> bool:
        return self.max_violation <= AUDIT_TOLERANCE

    def to_csv(self) -> str:
        lines = [f"pair_i,pair_j,{self.column},log_ratio,bound,violation"]
        for i, j, q, ratio, bound, violation in self.rows:
            lines.append(f"{i},{j},{q:.17g},{ratio:.17g},{bound:.17g},{violation:.17g}")
        return "\n".join(lines) + "\n"


def _report(name: str, n: int, epsilon: float, v, grid=None) -> AuditReport:
    """The AuditReport of max_violation's result v.  A column t of the witness
    and rows is given as its grid point grid[t] in a grid audit, and as the
    candidate index t in a pmf audit (grid None)."""
    at = int if grid is None else (lambda t: float(grid[t]))
    witness = None if v.witness is None else (v.witness[0], v.witness[1], at(v.witness[2]))
    rows = tuple((i, j, at(t), r, b, gap) for i, j, t, r, b, gap in v.rows)
    column = "candidate" if grid is None else "grid_q"
    return AuditReport(name, n, epsilon, v.worst, v.pairs, witness, rows, column)


def audit_density_mechanism(
    mechanism: Callable[[LabeledGraph], object],
    n: int,
    epsilon: float,
    grid,
    name: str = "density-mechanism",
    collect_rows: bool = False,
) -> AuditReport:
    """Check log f_G(q) - log f_G'(q) <= eps over every pair of graphs one
    rewiring apart and every grid point, which implies eps * d_v(G, G') on
    every pair.  Density objects must expose log_pdf."""
    if n > PAIR_AUDIT_MAX_N:
        raise ResourceLimitError(f"pairwise audits limited to n <= {PAIR_AUDIT_MAX_N}")
    grid = np.asarray(grid, dtype=float)
    logs = fill_table(
        (mechanism(g).log_pdf(grid) for g in all_graphs(n)), graph_space_size(n), "grid points"
    )
    v = max_violation(logs, *rewiring_pairs(n), epsilon, collect_rows)
    return _report(name, n, epsilon, v, grid)


def audit_finite_mechanism(
    mechanism: Callable[[LabeledGraph], object],
    n: int,
    epsilon: float,
    name: str = "finite-mechanism",
    collect_rows: bool = False,
) -> AuditReport:
    """Check exact pmf ratios of a finite-output mechanism against exp(eps)
    over every pair of graphs one rewiring apart.  Candidate lists must align
    across inputs (compare by index)."""
    if n > FINITE_AUDIT_MAX_N:
        raise ResourceLimitError(f"finite audit limited to n <= {FINITE_AUDIT_MAX_N}")
    logs = fill_table(
        (mechanism(g).log_probs for g in all_graphs(n)), graph_space_size(n), "candidates"
    )
    v = max_violation(logs, *rewiring_pairs(n), epsilon, collect_rows)
    return _report(name, n, epsilon, v)


def audit_block_mechanism(
    n: int,
    rho_hat: float,
    cfg: EstimatorConfig,
    epsilon_claimed: float,
    collect_rows: bool = False,
) -> AuditReport:
    """Exact pmf audit of the selection stage, conditional on the released
    density (composition with the density step is additive and is audited
    separately on its own output law).  Every graph's law comes from one
    block_laws call, as a row of its log-pmf table, with the bytes
    block_mechanism's mechanism gives that graph."""
    if n > FINITE_AUDIT_MAX_N:
        raise ResourceLimitError(f"finite audit limited to n <= {FINITE_AUDIT_MAX_N}")
    logs = block_laws(list(all_graphs(n)), rho_hat, cfg).log_probs()
    v = max_violation(logs, *rewiring_pairs(n), epsilon_claimed, collect_rows)
    return _report(f"block-mechanism(rho_hat={rho_hat})", n, epsilon_claimed, v)


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


def audit_score_sensitivity(n: int, k: int, d: int, mu: float) -> SensitivityReport:
    """Measure the exact worst-case change of the degree-capped best score
    over adjacent pairs and compare against 4 d mu / n^2."""
    measured = measured_score_sensitivity(n, k, mu, d)
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
) -> AuditReport:
    """Audit mechanism(bit-string graph) over every pair of strings one bit
    flip apart.  Hamming distance is the path metric of these flips, so the
    bound eps on them implies eps * Hamming on every pair.

    Node privacy of the graph mechanism implies the same epsilon against
    bit flips because one flip rewires one vertex.
    """
    if n_bits > BITSTRING_AUDIT_MAX_BITS:
        raise ResourceLimitError(
            f"bit-string audit limited to {BITSTRING_AUDIT_MAX_BITS} bits"
        )
    grid = np.asarray(grid, dtype=float)
    ids = np.arange(1 << n_bits)
    strings = [tuple((i >> t) & 1 for t in range(n_bits)) for i in ids.tolist()]
    logs = fill_table(
        (mechanism(bernoulli_reduction_graph(s)).log_pdf(grid) for s in strings),
        ids.size,
        "grid points",
    )
    flipped = np.sort(ids[:, None] ^ (1 << np.arange(n_bits)), axis=1)
    v = max_violation(logs, np.repeat(ids, n_bits), flipped.ravel(), epsilon)
    return _report("bitstring-reduction", n_bits, epsilon, v, grid)
