"""Private block-model estimation.

Pipeline: a Laplace-noised edge density fixes the degree cap d and the
candidate ceiling mu, the score of each candidate block matrix is maximized
over equipartitions after projecting the graph to max degree d, and a block
matrix is drawn from the exponential mechanism over the 1/n-grid candidates.
The noisy-density step and the selection step each spend half the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError
from .graphs import LabeledGraph, all_graphs, cover_table, degree_cap
from .graphs import adjacent_graphs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .graphons import (
    BlockMatrix,
    Equipartition,
    canonical_sizes,
    equipartition_array,
    equipartition_count,
)
from .mechanisms import (
    FiniteMechanism,
    exponential_mechanism_distribution,
    sample_laplace,
    _check_epsilon,
)


@dataclass(frozen=True)
class EstimatorConfig:
    epsilon: float
    lam: float
    k: int
    candidate_budget: int = 10**6
    equipartition_budget: int = 10**7
    sensitivity_mode: str = "theoretical"  # or "audited"

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.lam < 1:
            raise ValueError("lambda must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.sensitivity_mode not in ("theoretical", "audited"):
            raise ValueError("sensitivity_mode must be 'theoretical' or 'audited'")


class PrivateDensity(NamedTuple):
    value: float  # clamped to [1/n^2, 1]
    raw: float  # unclamped, for audits


def private_density(g: LabeledGraph, epsilon: float, rng: np.random.Generator) -> PrivateDensity:
    """e(G) + Lap(4/(n eps)), clamped to [1/n^2, 1].

    Spends eps/2 of the budget: rewiring one vertex moves the density by at
    most 2/n, so scale 4/(n eps) gives an (eps/2)-node-DP release.  The clamp
    floor keeps later divisions by the estimate finite.
    """
    eps = _check_epsilon(epsilon)
    raw = g.edge_count / (g.n * (g.n - 1) / 2) + float(
        sample_laplace(4.0 / (g.n * eps), rng)
    )
    return PrivateDensity(min(max(raw, 1.0 / g.n**2), 1.0), raw)


# -- Score over equipartitions ----------------------------------------------------


def _as_block_values(b) -> np.ndarray:
    if isinstance(b, BlockMatrix):
        return b.values
    return np.asarray(b, dtype=float)


def _as_adjacency(a) -> np.ndarray:
    if isinstance(a, LabeledGraph):
        return a.adjacency.astype(float)
    return np.asarray(a, dtype=float)


def score(b, pi: Equipartition | np.ndarray, a) -> float:
    """Score(B, pi, A) = ||A||^2 - ||A - B_pi||^2 under normalized norms."""
    bv = _as_block_values(b)
    av = _as_adjacency(a)
    assignment = pi.assignment if isinstance(pi, Equipartition) else np.asarray(pi, int)
    expanded = bv[np.ix_(assignment, assignment)]
    n = av.shape[0]
    return float((av**2).sum() - ((av - expanded) ** 2).sum()) / n**2


# Bytes one candidate chunk of the score table may take.  Scoring walks the
# candidate axis in chunks of this size, so memory stays bounded whatever
# the candidate and partition counts are.
_SCORE_CHUNK_BYTES = 16 * 2**20


@lru_cache(maxsize=32)
def _partition_tensors(n: int, k: int) -> np.ndarray:
    """Stacked assignments [P, n], lex order, read-only."""
    assignments = equipartition_array(n, k)
    assignments.flags.writeable = False
    return assignments


def _pair_counts(a: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    """E_ab(pi) = sum of A over ordered pairs with classes (a, b), per
    partition, as [P, k, k]: one scatter-add per nonzero entry of A."""
    p = assignments.shape[0]
    counts = np.zeros((p, k, k))
    flat = counts.reshape(-1)
    base = np.arange(p) * (k * k)
    for i, j in zip(*np.nonzero(a)):
        flat[base + assignments[:, i].astype(np.intp) * k + assignments[:, j]] += a[i, j]
    return counts


class BulkScores(NamedTuple):
    values: np.ndarray  # [C] best score per candidate
    argmax: np.ndarray  # [C] index of the first maximizing partition
    distinct_rows: int  # distinct count matrices among the partitions


def _best_scores_bulk(cands: np.ndarray, a: np.ndarray, n: int, k: int) -> BulkScores:
    """Exact max-over-equipartitions score for every candidate at once.

    Score = (2 <E(pi), B> - ||B_pi||^2) / n^2, and the second term is
    partition-independent because canonical class sizes are fixed, so a
    partition enters only through its count matrix E(pi).  Each distinct
    E(pi) is scored once, against chunks of candidates under
    _SCORE_CHUNK_BYTES.  Distinct rows keep the order of their first
    occurrence in the lex-ordered enumeration and the argmax takes the first
    maximum, so ties resolve to the lexicographically smallest assignment.
    """
    counts = _pair_counts(a, _partition_tensors(n, k), k)
    # one opaque key per row; np.unique returns each key's first occurrence
    keys = counts.reshape(len(counts), -1).view(np.dtype((np.void, counts.itemsize * k * k)))
    first = np.sort(np.unique(keys.ravel(), return_index=True)[1])
    rows = counts[first]
    sizes = np.array(canonical_sizes(n, k), dtype=float)
    cc = np.outer(sizes, sizes)
    total = cands.shape[0]
    values = np.empty(total)
    argmax = np.empty(total, dtype=np.intp)
    step = max(1, _SCORE_CHUNK_BYTES // (8 * (rows.shape[0] + k * k)))
    for lo in range(0, total, step):
        chunk = cands[lo : lo + step]
        table = np.einsum("ckl,pkl->cp", chunk, rows)
        table *= 2.0
        table -= np.einsum("kl,ckl->c", cc, chunk**2)[:, None]
        table /= n**2
        best = table.argmax(axis=1)
        values[lo : lo + step] = table[np.arange(chunk.shape[0]), best]
        argmax[lo : lo + step] = first[best]
    return BulkScores(values, argmax, rows.shape[0])


class BestScore(NamedTuple):
    value: float
    assignment: np.ndarray
    exact: bool


def best_score(
    b,
    a,
    budget: int = 10**7,
    restarts: int = 20,
    rng: np.random.Generator | None = None,
) -> BestScore:
    """max over k-equipartitions of Score(B, pi, A).

    Exact enumeration over the canonical size profile when its count fits the
    budget; otherwise a restarted swap hill-climb flagged non-exact.
    """
    bv = _as_block_values(b)
    av = _as_adjacency(a)
    n, k = av.shape[0], bv.shape[0]
    if equipartition_count(n, k) <= budget:
        bulk = _best_scores_bulk(bv[None], av, n, k)
        assignment = _partition_tensors(n, k)[bulk.argmax[0]].astype(int)
        return BestScore(float(bulk.values[0]), assignment, True)
    if rng is None:
        rng = np.random.default_rng(0)
    base = np.repeat(np.arange(k), canonical_sizes(n, k))
    best_val, best_assign = -math.inf, None
    for _ in range(restarts):
        assignment = rng.permutation(base)
        current = score(bv, assignment, av)
        improved = True
        while improved:
            improved = False
            for i in range(n):
                for j in range(i + 1, n):
                    if assignment[i] == assignment[j]:
                        continue
                    assignment[i], assignment[j] = assignment[j], assignment[i]
                    trial = score(bv, assignment, av)
                    if trial > current + 1e-15:
                        current = trial
                        improved = True
                    else:
                        assignment[i], assignment[j] = assignment[j], assignment[i]
        if current > best_val:
            best_val, best_assign = current, assignment.copy()
    return BestScore(best_val, best_assign, False)


def lipschitz_score(b, a: LabeledGraph, d: int, budget: int = 10**7) -> float:
    """Best score against the degree-capped graph.

    Coincides with best_score on graphs whose max degree is already <= d.
    Whether it never exceeds the uncapped best score is deliberately not
    assumed; see score_extension_gap for the recorded comparison.
    """
    return best_score(b, degree_cap(a, d), budget).value


def score_extension_gap(b, a: LabeledGraph, d: int, budget: int = 10**7) -> tuple[float, float]:
    """(capped score, uncapped score) for diagnostics."""
    return lipschitz_score(b, a, d, budget), best_score(b, a, budget).value


# -- candidate grid -----------------------------------------------------------------


def candidate_count(n: int, k: int, mu: float) -> int:
    levels = int(math.floor(n * mu + 1e-9)) + 1
    return levels ** (k * (k + 1) // 2)


def candidate_matrices(n: int, k: int, mu: float, budget: int = 10**6) -> np.ndarray:
    """All symmetric k x k matrices with entries in {0, 1/n, ..., floor(n mu)/n}.

    Ordered lexicographically over the upper-triangle entries.
    """
    total = candidate_count(n, k, mu)
    if total > budget:
        raise ResourceLimitError(
            f"candidate set has {total} matrices, over the budget of {budget}"
        )
    count = int(math.floor(n * mu + 1e-9)) + 1
    levels = np.arange(count) / n
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    out = np.empty((total, k, k))
    grid = out.reshape((count,) * len(pairs) + (k, k))
    for (i, j), index in zip(pairs, np.indices((count,) * len(pairs), sparse=True)):
        grid[..., i, j] = grid[..., j, i] = levels[index]
    return out


# -- sensitivity ---------------------------------------------------------------------


def theoretical_sensitivity(n: int, d: float, mu: float) -> float:
    """Delta = 4 d mu / n^2 (with d = lambda rho n this is 4 lambda^2 rho^2 / n)."""
    return 4.0 * d * mu / n**2


@lru_cache(maxsize=64)
def measured_score_sensitivity(
    n: int,
    k: int,
    mu: float,
    d: int,
    candidate_budget: int = 10**6,
    max_n: int = 6,
) -> float:
    """Exhaustive max over candidates and adjacent graph pairs of the change
    in the degree-capped best score.  Exact, so calibrating the exponential
    mechanism to this value yields exact DP at the audited order."""
    if n > max_n:
        raise ResourceLimitError(f"audited sensitivity limited to n <= {max_n}")
    cands = candidate_matrices(n, k, mu, candidate_budget)
    row_of: dict[bytes, int] = {}  # capped graph -> its row of best scores
    rows = []
    graphs = list(all_graphs(n))
    capped_row = np.empty(len(graphs), dtype=np.intp)
    for i, g in enumerate(graphs):
        h = degree_cap(g, d)
        if h.key not in row_of:
            row_of[h.key] = len(rows)
            rows.append(_best_scores_bulk(cands, h.adjacency.astype(float), n, k).values)
        capped_row[i] = row_of[h.key]
    # Adjacent graphs differ by an edge set covered by one vertex, so the
    # neighbours of index i are i ^ f for the f with cover size 1.  Each
    # unordered pair is kept once (|difference| is symmetric), as a pair of
    # distinct score rows.
    ids = np.arange(len(graphs))
    codes = [np.empty(0, dtype=np.intp)]
    for flip in np.flatnonzero(cover_table(n) == 1):
        nbr = ids ^ flip
        upper = nbr > ids
        codes.append(capped_row[upper] * len(rows) + capped_row[nbr[upper]])
    first, second = np.divmod(np.unique(np.concatenate(codes)), len(rows))
    first, second = first[first != second], second[first != second]
    scores = np.stack(rows)
    worst = 0.0
    step = max(1, _SCORE_CHUNK_BYTES // (8 * scores.shape[1]))
    for lo in range(0, first.size, step):
        gaps = np.abs(scores[first[lo : lo + step]] - scores[second[lo : lo + step]])
        worst = max(worst, float(gaps.max()))
    return worst


# -- full pipeline -----------------------------------------------------------------


@dataclass(frozen=True)
class BlockEstimate:
    rho_hat: float
    raw_rho: float
    b_hat: BlockMatrix
    mu: float
    delta: float
    diagnostics: dict = field(default_factory=dict)
    dp_domain: str = "unspecified"  # where the stated epsilon is guaranteed

    def normalized(self) -> BlockMatrix:
        """Estimate of the density-normalized graphon: b_hat / rho_hat."""
        return BlockMatrix(self.b_hat.values / self.rho_hat)


def block_mechanism(
    g: LabeledGraph, rho_hat: float, cfg: EstimatorConfig
) -> tuple[FiniteMechanism, np.ndarray, float, dict]:
    """Selection stage given the released density: the exponential mechanism
    over the candidate grid, spending the remaining eps/2.

    Returns (mechanism, candidate array, delta, diagnostics)."""
    n = g.n
    mu = cfg.lam * rho_hat
    d_real = cfg.lam * rho_hat * n
    d_int = int(math.floor(d_real + 1e-9))
    cands = candidate_matrices(n, cfg.k, mu, cfg.candidate_budget)
    capped = degree_cap(g, d_int)
    equipartitions = equipartition_count(n, cfg.k)
    exact_search = equipartitions <= cfg.equipartition_budget
    distinct_rows = None
    if exact_search:
        bulk = _best_scores_bulk(cands, capped.adjacency.astype(float), n, cfg.k)
        scores, distinct_rows = bulk.values, bulk.distinct_rows
    else:
        rng = np.random.default_rng(0)  # fixed restarts: scoring is not private data
        scores = np.array(
            [
                best_score(c, capped, cfg.equipartition_budget, rng=rng).value
                for c in cands
            ]
        )
    if cfg.sensitivity_mode == "audited":
        delta = measured_score_sensitivity(n, cfg.k, mu, d_int, cfg.candidate_budget)
    else:
        delta = theoretical_sensitivity(n, d_real, mu)
    diagnostics = {
        "candidate_count": cands.shape[0],
        "degree_cap": d_int,
        "exact_search": exact_search,
        "equipartitions": equipartitions,
        "distinct_count_rows": distinct_rows,
        "sensitivity_mode": cfg.sensitivity_mode,
    }
    if delta <= 0.0:
        # Scores cannot depend on the input (measured zero sensitivity);
        # exp(eps/(4*0) * score) degenerates to uniform over the argmax set.
        lw = np.where(scores >= scores.max() - 1e-12, 0.0, -1e9)
        mech = FiniteMechanism(list(range(cands.shape[0])), lw)
        diagnostics["coefficient"] = math.inf
    else:
        coef = cfg.epsilon / (4.0 * delta)
        mech = exponential_mechanism_distribution(list(range(cands.shape[0])), scores, coef)
        diagnostics["coefficient"] = coef
    diagnostics["scores"] = scores
    return mech, cands, delta, diagnostics


def _dp_domain(n: int, exact_search: bool, sensitivity_mode: str) -> str:
    """Where a block release's epsilon holds, given how it was computed."""
    if not exact_search:
        return (
            "not established: the hill-climb over equipartitions is data-dependent"
            " and the score sensitivity does not cover its path"
        )
    if sensitivity_mode == "audited":
        return f"all graphs on {n} vertices"
    return (
        "all graphs if degree_cap is stable under one rewiring; Delta = 4 d mu / n^2"
        " assumes it and it is unproven"
    )


def estimate_blocks(
    g: LabeledGraph, cfg: EstimatorConfig, rng: np.random.Generator
) -> BlockEstimate:
    """Run the full private pipeline on one graph."""
    rho = private_density(g, cfg.epsilon, rng)
    mech, cands, delta, diagnostics = block_mechanism(g, rho.value, cfg)
    idx = mech.sample(rng)
    chosen = cands[idx]
    diag = {key: value for key, value in diagnostics.items() if key != "scores"}
    diag["chosen_score"] = float(diagnostics["scores"][idx])
    return BlockEstimate(
        rho_hat=rho.value,
        raw_rho=rho.raw,
        b_hat=BlockMatrix(chosen),
        mu=cfg.lam * rho.value,
        delta=delta,
        dp_domain=_dp_domain(g.n, diagnostics["exact_search"], cfg.sensitivity_mode),
        diagnostics=diag,
    )
