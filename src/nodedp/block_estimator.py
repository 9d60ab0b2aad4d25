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
from typing import NamedTuple, Sequence

import numpy as np

from .density import laplace_density_mechanism
from .errors import ResourceLimitError
from .graphs import LabeledGraph, all_graphs, degree_cap, graph_index, rewiring_pairs
from .graphs import adjacent_graphs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .graphons import BlockMatrix, canonical_sizes, equipartition_array, equipartition_count
from .graphons import relabellings
from .mechanisms import (
    FiniteMechanism,
    exponential_log_weights,
    exponential_mechanism_distribution,
    check_table_size,
    max_violation,
    normalized_log_weights,
    _check_epsilon,
)


@dataclass(frozen=True)
class EstimatorConfig:
    epsilon: float
    lam: float
    k: int
    sensitivity_mode: str = "theoretical"  # or "audited"

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.lam < 1:
            raise ValueError("lambda must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.sensitivity_mode not in ("theoretical", "audited"):
            raise ValueError("sensitivity_mode must be 'theoretical' or 'audited'")


# -- Score over equipartitions ----------------------------------------------------

# Most equipartitions the selection stage maximizes over.  The maximum must be
# exact for the exponential mechanism's sensitivity to cover it, so larger
# (n, k) are refused rather than searched heuristically.
EQUIPARTITION_BUDGET = 10**7

# Bytes one chunk of the scoring arrays may take.  Scoring walks the
# partitions, the graphs and the candidates in chunks of this size, so
# memory stays bounded whatever their counts are, beside the [G, C] score
# table itself.
_SCORE_CHUNK_BYTES = 16 * 2**20


@lru_cache(maxsize=32)
def _partition_tensors(
    n: int, k: int
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...], np.ndarray]:
    """Scoring's relabelling group at (n, k) and one partition per orbit.
    The group is relabellings(n, k), the S size-preserving permutations of
    the k classes, the identity first.  Returns the assignments [P / S, n]
    of equipartition_array, in lex order; for each permutation, the axes that
    permute an array [G] + [count] * T of values over the candidate grid as
    it permutes the upper-triangle coordinates of _level_layout, S tuples;
    and the int64 weights [T, S] whose product with a count row gives the
    mixed-radix keys of its S images.  The arrays are read-only."""
    rows, cols, fold, _, radix = _level_layout(n, k)
    perms = relabellings(n, k)
    coordinate = fold.argmax(axis=1).reshape(k, k)  # the coordinate (a, b) folds into
    images = coordinate[perms[:, rows], perms[:, cols]]
    assignments = equipartition_array(n, k)
    assignments.flags.writeable = False
    place = [math.prod(radix[t + 1 :]) for t in range(rows.size)]
    weights = np.array(place, dtype=np.int64)[images.T]
    weights.flags.writeable = False
    axes = tuple((0,) + tuple(1 + i for i in image) for image in images.tolist())
    return assignments, axes, weights


@lru_cache(maxsize=32)
def _level_layout(
    n: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Constants of level scoring at (n, k): the row and column indices of
    the T = k(k+1)/2 upper-triangle coordinates, the 0/1 [k * k, T] matrix
    that sums entries (a, b) and (b, a) into their coordinate, the penalty
    weight w |a| |b| of each coordinate, with w = 2 off the diagonal (these
    arrays read-only), and the radix of each coordinate of the folded
    counts, one more than the largest value a 0/1 adjacency with zero
    diagonal gives: |a| (|a| - 1) + 1 on the diagonal, 2 |a| |b| + 1 off it."""
    rows, cols = np.triu_indices(k)
    fold = np.zeros((k, k, rows.size))
    fold[rows, cols, np.arange(rows.size)] = fold[cols, rows, np.arange(rows.size)] = 1.0
    sizes = np.array(canonical_sizes(n, k))
    diagonal = rows == cols
    penalty = np.where(diagonal, 1.0, 2.0) * sizes[rows] * sizes[cols]
    radix = tuple((penalty - diagonal * sizes[rows] + 1).astype(int).tolist())
    layout = (rows, cols, fold.reshape(k * k, rows.size), penalty)
    for array in layout:
        array.flags.writeable = False
    return layout + (radix,)


def _one_of_each(key: np.ndarray) -> np.ndarray:
    """Indices of one occurrence of each distinct value of the 1-d array
    key, in increasing order of the values."""
    order = key.argsort()
    key = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return order[new]


def _distinct_count_rows(
    a: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One count row w E(pi) per orbit of the relabelling group of
    _partition_tensors, for each of the G adjacencies a [G, n, n].

    Returns the rows [U, T] float64, on the upper-triangle coordinates of
    _level_layout (E_ab = number of ordered edges with classes (a, b), and
    w = 2 off the diagonal), graph by graph; the index of each graph's
    first row [G], its rows running to the next graph's first; and each
    graph's number of distinct rows among all the equipartitions [G], the
    sum of its orbits' sizes.

    a must be 0/1 with zero diagonal; anything else raises ValueError.
    A relabelling sigma takes the row of pi to the row of sigma pi, so
    the rows of the orbit representatives of equipartition_array reach
    every orbit.  The graphs and the partitions are taken in chunks under
    _SCORE_CHUNK_BYTES.  The chunk's class indicators [k, P, n] times the
    graphs' adjacencies side by side, [n, G * n] (one BLAS product), dotted
    row-wise with each class's indicators, give E_ab; the fold matrix of
    _level_layout takes them to w E on the upper triangle.  Every count is
    an exact integer below its radix.  One int64 product with the weights
    of _partition_tensors gives the mixed-radix keys of every row's images,
    each below the product K of the radices.  A row's least key names its
    orbit, and the key g K + least names it in graph g: on these the rows
    are deduplicated in each chunk and once more across the chunks, which
    leaves them in graph order.  The number of distinct keys of a row's
    images is its orbit's size.

    Every key is exact while G K <= 2^63.  With one graph that fails only at
    (10, 9), (10, 10), (11, 8) and (11, 9), whose grids hold one candidate
    and are never scored (block_laws), and several graphs are scored only
    at n <= SENSITIVITY_AUDIT_MAX_N, where K < 2^24; elsewhere it raises
    ValueError."""
    if a.diagonal(axis1=1, axis2=2).any() or (a * (a - 1)).any():
        raise ValueError("adjacency must be 0/1 with zero diagonal")
    _, _, fold, _, radix = _level_layout(n, k)
    bound = math.prod(radix)
    if a.shape[0] * bound > 2**63:
        raise ValueError(f"count-row keys of {a.shape[0]} graphs at n={n}, k={k} pass 2^63")
    assignments, axes, weights = _partition_tensors(n, k)
    dtype = np.min_scalar_type(max(radix) - 1)
    # per (partition, graph): the products with A, the k x k counts, the
    # folded row as float and integer, its S image keys, and its graph's
    # offset, its key and the dedup's; per partition, its k indicator rows
    pair = k * n + k * k + 2 * fold.shape[1] + len(axes) + 5
    graph_step = max(1, _SCORE_CHUNK_BYTES // (8 * pair))
    classes = np.arange(k)[:, None, None]
    parts = []
    for glo in range(0, a.shape[0], graph_step):
        block = a[glo : glo + graph_step]
        g = block.shape[0]
        side_by_side = block.transpose(1, 0, 2).reshape(n, g * n)
        step = max(1, _SCORE_CHUNK_BYTES // (8 * (k * n + g * pair)))
        for lo in range(0, assignments.shape[0], step):
            chunk = assignments[lo : lo + step]
            p = chunk.shape[0]
            members = np.equal(chunk, classes, out=np.empty((k,) + chunk.shape))
            products = members @ side_by_side
            # E_ab per graph and partition
            counts = np.einsum("apgv,bpv->gpab", products.reshape(k, p, g, n), members)
            del products  # before the next chunk's indicators
            rows = (counts.reshape(-1, k * k) @ fold).astype(dtype)
            image_keys = weights.T @ rows.T  # [S, rows]: the min works across whole rows
            key = image_keys.min(axis=0)
            key.reshape(g, p)[:] += np.arange(glo, glo + g)[:, None] * bound
            first = _one_of_each(key)
            parts.append((key[first], rows[first], image_keys[:, first].T))
    key, rows, image_keys = (np.concatenate(part) for part in zip(*parts))
    first = _one_of_each(key)
    key, rows, image_keys = key[first], rows[first], image_keys[first]
    image_keys.sort()  # an orbit's size is its row's number of distinct image keys
    sizes = 1 + np.count_nonzero(image_keys[:, 1:] != image_keys[:, :-1], axis=1)
    starts = np.searchsorted(key, np.arange(a.shape[0]) * bound)
    return rows.astype(float), starts, np.add.reduceat(sizes, starts)


class BulkScores(NamedTuple):
    values: np.ndarray  # [G, C] best score per graph and candidate, C-contiguous
    distinct_rows: np.ndarray  # [G] distinct count matrices among each graph's partitions


def _best_scores_bulk(levels: np.ndarray, a: np.ndarray, n: int, k: int) -> BulkScores:
    """Exact max-over-equipartitions score of each of the G adjacencies
    a [G, n, n] at every candidate, from their orbit rows
    (_distinct_count_rows) by one _grid_scores call."""
    rows, starts, distinct = _distinct_count_rows(a, n, k)
    return BulkScores(_grid_scores(levels, rows, starts, n, k), distinct)


def _grid_scores(
    levels: np.ndarray, rows: np.ndarray, starts: np.ndarray, n: int, k: int
) -> np.ndarray:
    """The scores [G, C], C-contiguous, of G graphs given as their orbit
    rows [U, T] and the index of each graph's first row [G]
    (_distinct_count_rows), at every candidate.

    Candidates are the full grid of integer levels L = n B of
    candidate_matrices, [C, T]; any other array raises ValueError.
    Score = (2 <E(pi), B> - ||B_pi||^2) / n^2; in levels it is
    (2n <w E(pi), L> - <w cc, L^2>) / n^4, with w = 2 off the diagonal and
    cc the products of the canonical class sizes, so the second term is
    partition-independent and a partition enters only through E(pi).
    Every graph's orbit rows are scored by one matrix product per chunk of
    candidates under _SCORE_CHUNK_BYTES, and each graph's maximum is taken
    over its own columns and copied into its row of the table.  Each
    chunk's row indices, its levels' mixed-radix values, must count up from
    the chunk's first: with C = count^T and every level below count, that
    holds only on the full grid.

    That is the maximum over the orbit representatives.  The score is
    invariant when one relabelling of equal-size classes acts on both the
    partition and the candidate, s(sigma pi, sigma B) = s(pi, B): sigma keeps the
    class sizes, so the penalty <w cc, L^2> is unchanged.  So a candidate's
    score is the largest value at its images sigma B.  On the grid, the
    values as an array [G] + [count] * T, sigma B sits where the candidate
    axes are permuted as sigma permutes the coordinates: one in-place
    maximum with that transposed view per sigma, in chunks of the first
    candidate axis under _SCORE_CHUNK_BYTES, takes each value to that
    largest one.  Values only rise, and never past their orbit's maximum,
    so reading a value already raised is exact too.

    For a 0/1 adjacency every term is an integer of at most
    n^2 max(L) max(2n, max(L)), below 2^53 for every k >= 2 that
    EQUIPARTITION_BUDGET and CANDIDATE_BUDGET admit (n <= 25, L <= 99).
    There the arithmetic is exact, whatever the order of a sum, and each
    value is the exact rational correctly rounded.  The exponential
    mechanism reads only these values, not which equipartition attains
    them.
    """
    axes = _partition_tensors(n, k)[1]
    penalty = _level_layout(n, k)[3]
    t = penalty.size
    count = int(levels.max(initial=0)) + 1
    if levels.dtype.kind != "u" or levels.shape != (count**t, t):
        raise ValueError("levels must be the full grid of candidate_matrices")
    place = float(count) ** np.arange(t - 1, -1, -1)
    rows = rows * (2 * n)
    total = levels.shape[0]
    values = np.empty((starts.size, total))
    # per candidate: a row of the products and of the graphs' maxima, its
    # float levels and the previous chunk's, and a few scalars; every
    # chunk's products and maxima are written into the same buffers
    step = max(1, _SCORE_CHUNK_BYTES // (8 * (rows.shape[0] + starts.size + 2 * t + 4)))
    table = np.empty((min(step, total), rows.shape[0]))
    best = np.empty((min(step, total), starts.size))
    for lo in range(0, total, step):
        chunk = levels[lo : lo + step].astype(float)
        width = chunk.shape[0]
        if (chunk @ place != np.arange(lo, lo + width)).any():
            raise ValueError("levels must be the full grid of candidate_matrices")
        products = np.matmul(chunk, rows.T, out=table[:width])
        out = np.maximum.reduceat(products, starts, axis=1, out=best[:width])
        np.square(chunk, out=chunk)
        out -= (chunk @ penalty)[:, None]
        out /= n**4
        values[:, lo : lo + width] = out.T
    del table, best, products, out, chunk
    grid = values.reshape((starts.size,) + (count,) * t)
    # per value of a chunk of the first candidate axis: the value, and the
    # copy of its image's that the overlapping in-place maximum makes
    step = max(1, _SCORE_CHUNK_BYTES // (16 * values.size // count))
    for perm in axes[1:]:
        image = grid.transpose(perm)
        for lo in range(0, count, step):
            part = grid[:, lo : lo + step]
            np.maximum(part, image[:, lo : lo + step], out=part)
    return values


# -- candidate grid -----------------------------------------------------------------

# Largest candidate grid any caller builds.  10^6 k = 3 candidates are 6 MB
# of uint8 levels, so the budget bounds the scoring time and the selection
# pmf's [C] float64 arrays rather than the grid.
CANDIDATE_BUDGET = 10**6


def _top_level(n: int, mu: float) -> int:
    """floor(n mu), with slack for round-off: the top candidate level and the degree cap."""
    return int(math.floor(n * mu + 1e-9))


def candidate_count(n: int, k: int, mu: float) -> int:
    return (_top_level(n, mu) + 1) ** (k * (k + 1) // 2)


def candidate_matrices(n: int, k: int, mu: float) -> np.ndarray:
    """All symmetric k x k matrices B with entries in {0, 1/n, ..., floor(n mu)/n},
    as integer levels L = n B [C, T] in the smallest unsigned dtype, on the
    T = k(k+1)/2 upper-triangle coordinates of _level_layout.  Ordered
    lexicographically over the coordinates; only the released candidate
    becomes a matrix (_level_matrix).
    """
    total = candidate_count(n, k, mu)
    if total > CANDIDATE_BUDGET:
        raise ResourceLimitError(
            f"candidate set has {total} matrices, over the budget of {CANDIDATE_BUDGET}"
        )
    count, t = _top_level(n, mu) + 1, k * (k + 1) // 2  # levels, coordinates
    return np.indices((count,) * t, dtype=np.min_scalar_type(count - 1)).reshape(t, -1).T


def _level_matrix(levels: np.ndarray, n: int, k: int) -> np.ndarray:
    """The symmetric k x k matrix L / n of one candidate's levels [T], on
    the upper-triangle coordinates of _level_layout: its fold matrix, read
    the other way, copies each coordinate to entries (a, b) and (b, a)."""
    return (_level_layout(n, k)[2] @ levels).reshape(k, k) / n


# -- sensitivity ---------------------------------------------------------------------


def theoretical_sensitivity(n: int, d: float, mu: float) -> float:
    """Delta = 4 d mu / n^2 (with d = lambda rho n this is 4 lambda^2 rho^2 / n)."""
    return 4.0 * d * mu / n**2


# Largest order whose graphs measured_score_sensitivity enumerates: 2^15
# graphs at n = 6.
SENSITIVITY_AUDIT_MAX_N = 6


@lru_cache(maxsize=64)
def measured_score_sensitivity(n: int, k: int, mu: float, d: int) -> float:
    """Exhaustive max over candidates and adjacent graph pairs of the change
    in the degree-capped best score.  Exact, so calibrating the exponential
    mechanism to this value yields exact DP at the audited order."""
    if n > SENSITIVITY_AUDIT_MAX_N:
        raise ResourceLimitError(
            f"audited sensitivity limited to n <= {SENSITIVITY_AUDIT_MAX_N}"
        )
    cands = candidate_matrices(n, k, mu)
    capped = [degree_cap(g, d) for g in all_graphs(n)]
    # one row of best scores per distinct capped graph, all on one grid
    _, reps, capped_row = np.unique(
        [graph_index(h) for h in capped], return_index=True, return_inverse=True
    )
    check_table_size(len(reps), cands.shape[0], "candidates")
    adjacencies = np.stack([capped[i].adjacency for i in reps]).astype(float)
    scores = _best_scores_bulk(cands, adjacencies, n, k).values
    # the largest |s_G - s_G'| over adjacent graphs is the worst signed gap
    # over the ordered rewiring pairs, each of which lists its reverse;
    # max_violation compares each distinct pair of score rows once
    i, j = rewiring_pairs(n)
    return max(0.0, max_violation(scores, capped_row[i], capped_row[j], 0.0).worst)


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


class BlockLaws(NamedTuple):
    """The selection stage's laws of G graphs of one order, given one
    released density: they share the candidate grid, the degree cap and
    Delta, and differ in their scores."""

    levels: np.ndarray  # [C, T] candidate levels
    scores: np.ndarray  # [G, C] best score per graph and candidate, C-contiguous
    distinct_rows: np.ndarray  # [G] distinct count matrices among each graph's partitions
    degree_cap: int
    equipartitions: int
    delta: float
    coefficient: float  # eps / (4 Delta); inf at Delta = 0

    def log_probs(self) -> np.ndarray:
        """The [G, C] log pmfs, C-contiguous: each row normalized by
        normalized_log_weights from exponential_log_weights, as
        exponential_mechanism_distribution normalizes one graph's scores,
        in row chunks under _SCORE_CHUNK_BYTES."""
        out = np.empty(self.scores.shape)
        # per score: about eight float temporaries of the normalization
        step = max(1, _SCORE_CHUNK_BYTES // (64 * self.scores.shape[1]))
        for lo in range(0, out.shape[0], step):
            weights = exponential_log_weights(self.scores[lo : lo + step], self.coefficient)
            out[lo : lo + step] = normalized_log_weights(weights)[0]
        return out


def block_laws(graphs: Sequence[LabeledGraph], rho_hat: float, cfg: EstimatorConfig) -> BlockLaws:
    """Selection stage given the released density, for every graph at once:
    the exponential mechanism over the candidate grid, spending the
    remaining eps/2.

    The candidates are candidate_matrices(n, k, lambda rho_hat), integer
    levels on the 1/n grid, and every graph is capped at degree
    d = floor(lambda rho_hat n) and scored on them by one
    _best_scores_bulk call: each score is the exact max over
    equipartitions, correctly rounded.  Delta is the measured sensitivity
    in audited mode and 4 d mu / n^2 in theoretical mode.

    Where the grid is the zero matrix alone, d = 0 as well, and every score
    is 0 whatever the graph: that law is returned before any partition is
    enumerated or graph capped, so EQUIPARTITION_BUDGET binds only grids
    with more than one candidate.  Each graph reports the one count row of
    the empty capped graph, and audited mode the exact Delta, 0."""
    n = graphs[0].n
    mu = cfg.lam * rho_hat
    d_int = _top_level(n, mu)
    equipartitions = equipartition_count(n, cfg.k)
    if d_int == 0:
        # candidate_matrices' one-candidate grid, without its np.indices
        # call, which fails from k = 11 (an array of T + 1 > 64 axes)
        levels = np.zeros((1, cfg.k * (cfg.k + 1) // 2), dtype=np.uint8)
        bulk = BulkScores(np.zeros((len(graphs), 1)), np.ones(len(graphs), dtype=int))
    else:
        if equipartitions > EQUIPARTITION_BUDGET:
            raise ResourceLimitError(
                f"exact scoring over {equipartitions} equipartitions exceeds the budget "
                f"of {EQUIPARTITION_BUDGET}"
            )
        levels = candidate_matrices(n, cfg.k, mu)
        check_table_size(len(graphs), levels.shape[0], "candidates")
        capped = np.stack([degree_cap(g, d_int).adjacency for g in graphs]).astype(float)
        bulk = _best_scores_bulk(levels, capped, n, cfg.k)
    if cfg.sensitivity_mode == "theoretical":
        delta = theoretical_sensitivity(n, mu * n, mu)
    else:  # exact: 0 on the one-candidate grid
        delta = measured_score_sensitivity(n, cfg.k, mu, d_int) if d_int else 0.0
    # Delta = 0: the scores cannot depend on the input, and exp(eps/(4*0) *
    # score) degenerates to uniform over the argmax set
    coefficient = math.inf if delta <= 0.0 else cfg.epsilon / (4.0 * delta)
    return BlockLaws(
        levels, bulk.values, bulk.distinct_rows, d_int, equipartitions, delta, coefficient
    )


def block_mechanism(
    g: LabeledGraph, rho_hat: float, cfg: EstimatorConfig
) -> tuple[FiniteMechanism, np.ndarray, float, dict]:
    """Selection stage of one graph: the one-graph case of block_laws.

    Returns (mechanism, candidate levels [C, T], delta, diagnostics)."""
    laws = block_laws([g], rho_hat, cfg)
    scores = laws.scores[0]
    diagnostics = {
        "candidate_count": laws.levels.shape[0],
        "degree_cap": laws.degree_cap,
        "equipartitions": laws.equipartitions,
        "distinct_count_rows": int(laws.distinct_rows[0]),
        "sensitivity_mode": cfg.sensitivity_mode,
        "coefficient": laws.coefficient,
        "scores": scores,
    }
    mech = exponential_mechanism_distribution(scores, laws.coefficient)
    return mech, laws.levels, laws.delta, diagnostics


def _dp_domain(n: int, sensitivity_mode: str) -> str:
    """Where a block release's epsilon holds, given its sensitivity mode."""
    if sensitivity_mode == "audited":
        return f"all graphs on {n} vertices"
    return (
        "the stated epsilon does not hold in general: Delta = 4 d mu / n^2 assumes"
        " degree_cap is stable under one rewiring and that is disproved (one rewiring"
        " moves the capped score by 1.71 Delta on a pinned n=9 pair and by 2 Delta on"
        " pairs found by search)"
    )


def estimate_blocks(
    g: LabeledGraph, cfg: EstimatorConfig, rng: np.random.Generator
) -> BlockEstimate:
    """Run the full private pipeline on one graph.

    Stage 1 samples the baseline's law, laplace_density_mechanism, and
    spends eps/2 of the budget: rewiring one vertex moves the density by at
    most 2/n, so scale 4/(n eps) gives an (eps/2)-node-DP release.  The draw
    is clamped to [1/n^2, 1]; the floor keeps divisions by rho_hat finite.
    """
    raw = float(laplace_density_mechanism(g, cfg.epsilon).sample(rng))
    rho_hat = min(max(raw, 1.0 / g.n**2), 1.0)
    mech, cands, delta, diagnostics = block_mechanism(g, rho_hat, cfg)
    idx = mech.sample(rng)
    diag = {key: value for key, value in diagnostics.items() if key != "scores"}
    diag["chosen_score"] = float(diagnostics["scores"][idx])
    return BlockEstimate(
        rho_hat=rho_hat,
        raw_rho=raw,
        b_hat=BlockMatrix(_level_matrix(cands[idx], g.n, cfg.k)),
        mu=cfg.lam * rho_hat,
        delta=delta,
        dp_domain=_dp_domain(g.n, cfg.sensitivity_mode),
        diagnostics=diag,
    )
