"""Exhaustive privacy audits at tiny scale.

Everything here enumerates: every graph, every pair one rewiring apart,
exact output laws.  Node distance is the shortest-path metric of single-
vertex rewirings, so the bound eps on those pairs implies eps * d_v on every
pair.  A passing audit is a certificate for the checked order and grid, not
an asymptotic claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .block_estimator import (
    EstimatorConfig,
    block_laws,
    measured_score_sensitivity,
    theoretical_sensitivity,
)
from .errors import ResourceLimitError
from .graphs import LabeledGraph, REWIRING_PAIRS_MAX_N, all_adjacencies, all_graphs
from .graphs import graph_space_size, rewiring_pairs
from .mechanisms import LawTable, fill_table, max_violation

from .block_estimator import block_mechanism  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .density import graph_space_oracle  # noqa: F401  (likewise)
from .graphs import adjacent_graphs, node_distance  # noqa: F401  (likewise)

# Every pair audit refuses n > REWIRING_PAIRS_MAX_N before any law is
# built (_check_pair_order), and its law table is bounded by
# AUDIT_TABLE_BYTES alone.  At n = 6 (5,603,328 rewiring pairs) the Laplace
# baseline's 16 laws or the extension's 51 take about 0.21 s and a 100 MiB
# tracemalloc peak on a 1,000-point grid, and the audited block audit's
# 128 laws (k = 2, rho_hat = 0.5) about 1.9 s and a 340 MiB peak RSS, its
# scoring included.

# Per-pair rows are Python tuples, one per rewiring pair: 66,560 at n = 5,
# where an audit returns them; 5,603,328 at n = 6, where it refuses to.
PAIR_ROWS_MAX_N = 5
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


def _check_pair_order(n: int) -> None:
    """Refuse n past REWIRING_PAIRS_MAX_N, before any law is built."""
    if n > REWIRING_PAIRS_MAX_N:
        raise ResourceLimitError(f"pairwise audits limited to n <= {REWIRING_PAIRS_MAX_N}")


def _law_table(laws: Iterable, grid: np.ndarray) -> LawTable:
    """The LawTable on the grid of the given laws, one per input, keyed in
    one dict: a frozen dataclass such as LaplaceDensity by value, a shared
    law object by itself.  Each distinct law fills one log_pdf row."""
    keys: dict = {}
    law_of = np.fromiter((keys.setdefault(law, len(keys)) for law in laws), np.intp)
    rows = fill_table((law.log_pdf(grid) for law in keys), len(keys), "grid points")
    return LawTable(rows, law_of)


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
    every pair.  Density objects must expose log_pdf and be hashable; the
    graphs' laws form one _law_table: the n = 5 extension fills 22 rows, the
    Laplace baseline one per edge count."""
    _check_pair_order(n)
    if collect_rows and n > PAIR_ROWS_MAX_N:
        raise ResourceLimitError(f"per-pair audit rows limited to n <= {PAIR_ROWS_MAX_N}")
    grid = np.asarray(grid, dtype=float)
    table = _law_table(map(mechanism, all_graphs(n)), grid)
    v = max_violation(table, *rewiring_pairs(n), epsilon, collect_rows)
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
    across inputs (compare by index); each graph's is its own law."""
    _check_pair_order(n)
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
    block_laws call on the all_adjacencies stack, whose log-pmf LawTable
    the kernel takes as it is: each graph's row has the bytes
    block_mechanism's mechanism gives that graph."""
    _check_pair_order(n)
    table = block_laws(all_adjacencies(n), rho_hat, cfg).log_probs()
    v = max_violation(table, *rewiring_pairs(n), epsilon_claimed, collect_rows)
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
    measured = measured_score_sensitivity(n, k, mu, d).delta
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
    strings = ([(i >> t) & 1 for t in range(n_bits)] for i in ids.tolist())
    table = _law_table((mechanism(bernoulli_reduction_graph(s)) for s in strings), grid)
    flipped = np.sort(ids[:, None] ^ (1 << np.arange(n_bits)), axis=1)
    v = max_violation(table, np.repeat(ids, n_bits), flipped.ravel(), epsilon)
    return _report("bitstring-reduction", n_bits, epsilon, v, grid)
