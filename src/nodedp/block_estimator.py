"""Private block-model estimation.

Pipeline: a Laplace-noised edge density fixes the degree cap d and the
candidate ceiling mu, the score of each candidate block matrix is maximized
over equipartitions after projecting the graph to max degree d, and a block
matrix is drawn from the exponential mechanism over the 1/n-grid candidates.
The noisy-density step and the selection step each spend half the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .density import laplace_density_mechanism
from .errors import ResourceLimitError
from .graphs import LabeledGraph, all_graphs, degree_cap, graph_index, rewiring_pairs
from .graphs import adjacent_graphs  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .graphons import BlockMatrix, canonical_sizes, equipartition_array, equipartition_count
from .mechanisms import (
    FiniteMechanism,
    exponential_mechanism_distribution,
    check_table_size,
    max_violation,
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

# Bytes one candidate chunk of the score table may take.  Scoring walks the
# candidate axis in chunks of this size, so memory stays bounded whatever
# the candidate and partition counts are.
_SCORE_CHUNK_BYTES = 16 * 2**20

# Most classes whose relabellings scoring folds into orbits.  Any group of
# relabellings of equal-size classes gives the exact maximum (see
# _grid_scores); bounding the classes bounds the group at 5! = 120
# permutations whatever k is, where all k! would be 3.6 M at k = 10.
_RELABEL_MAX_CLASSES = 5


@lru_cache(maxsize=32)
def _partition_tensors(
    n: int, k: int
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...], np.ndarray | None]:
    """Scoring's relabelling group at (n, k) and one partition per orbit.
    The group is the S size-preserving permutations of the first
    _RELABEL_MAX_CLASSES classes, the identity first, or the identity alone
    where one count row's mixed-radix key would pass 2^63.  Returns the
    assignments [P / S, n] of equipartition_array for the group, in lex
    order; for each permutation, the axes that permute an array
    [count] * T + [G] of values over the candidate grid as it permutes the
    upper-triangle coordinates of _level_layout, S tuples; and the int64
    weights [T, S] whose product with a count row gives the keys of its S
    images (None with the identity alone).  The arrays are read-only."""
    rows, cols, _, _, radix = _level_layout(n, k)
    fits = math.prod(radix) <= 2**63
    relabelled = min(k, _RELABEL_MAX_CLASSES) if fits else 0
    sizes = canonical_sizes(n, k)
    perms = np.array(
        [
            p + tuple(range(relabelled, k))
            for p in itertools.permutations(range(relabelled))
            if all(sizes[c] == sizes[p[c]] for c in range(relabelled))
        ]
    )
    coordinate = np.empty((k, k), dtype=np.intp)
    coordinate[rows, cols] = coordinate[cols, rows] = np.arange(rows.size)
    images = coordinate[perms[:, rows], perms[:, cols]]
    assignments = equipartition_array(n, k, relabelled)
    assignments.flags.writeable = False
    weights = None
    if len(perms) > 1:
        place = [math.prod(radix[t + 1 :]) for t in range(rows.size)]
        weights = np.array(place, dtype=np.int64)[images.T]
        weights.flags.writeable = False
    axes = tuple(tuple(image) + (rows.size,) for image in images.tolist())
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


def _first_occurrences(rows: np.ndarray, radix: tuple[int, ...]) -> np.ndarray:
    """Sorted indices of the first occurrence of each distinct row of the
    nonnegative integer array rows [m, T], whose column t is below radix[t].

    Each row gets one exact int64 key below bound, mixed-radix over the
    columns, and the first occurrences come from one sort of
    key * m + index < bound * m.  Where the next column would take that
    bound past 2^63, the keys are first replaced by their ranks, below m;
    so nothing wraps as long as m^2 max(radix) <= 2^63, which holds for
    m <= P at every (n, k) that EQUIPARTITION_BUDGET admits."""
    m = rows.shape[0]
    key = np.zeros(m, dtype=np.int64)
    bound = 1
    for column, base in zip(rows.T, radix):
        if bound * base * m > 2**63:
            key = np.unique(key, return_inverse=True)[1]
            bound = m
        key *= base
        key += column
        bound *= base
    key *= m
    key += np.arange(m)
    key.sort()
    index = key % m
    key -= index  # now the sorted row keys, times m
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return np.sort(index[new])


def _one_of_each(key: np.ndarray) -> np.ndarray:
    """Indices of one occurrence of each distinct value of the 1-d array
    key, in increasing order of the values."""
    order = key.argsort()
    key = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return order[new]


def _distinct_count_rows(a: np.ndarray, n: int, k: int) -> tuple[np.ndarray, int]:
    """One count row w E(pi) per orbit of the relabelling group of
    _partition_tensors, [U, T] float64, on the upper-triangle coordinates of
    _level_layout (E_ab = number of ordered edges with classes (a, b), and
    w = 2 off the diagonal); and the number of distinct rows among all the
    equipartitions, the sum of the orbits' sizes.

    a must be 0/1 with zero diagonal; anything else raises ValueError.
    A relabelling takes the row of pi to the row of the relabelled pi, so
    the rows of the orbit representatives of equipartition_array reach
    every orbit.  They are taken in chunks under _SCORE_CHUNK_BYTES.  The
    chunk's class indicators [k, P, n] times A (one BLAS product), dotted
    row-wise with each class's indicators, give E_ab; the fold matrix of
    _level_layout takes them to w E on the upper triangle.  Every count is
    an exact integer below its radix.  One int64 product with the weights
    of _partition_tensors gives the mixed-radix keys of every row's images:
    a row's least key names its orbit, on which the rows are deduplicated
    in each chunk and once more across the chunks, and the number of
    distinct keys of a row's images is its orbit's size.  With the
    identity alone, _first_occurrences deduplicates the rows themselves."""
    if a.diagonal().any() or (a * (a - 1)).any():
        raise ValueError("adjacency must be 0/1 with zero diagonal")
    assignments, axes, weights = _partition_tensors(n, k)
    _, _, fold, _, radix = _level_layout(n, k)
    dtype = np.min_scalar_type(max(radix) - 1)
    # per partition: k indicator rows and their products with A, the k x k
    # counts, the folded row as float and integer, its S image keys, and
    # its least key and the dedup's
    width = 2 * k * n + k * k + 2 * fold.shape[1] + len(axes) + 4
    step = max(1, _SCORE_CHUNK_BYTES // (8 * width))
    classes = np.arange(k)[:, None, None]
    parts, keys = [], []
    for lo in range(0, assignments.shape[0], step):
        chunk = assignments[lo : lo + step]
        members = np.equal(chunk, classes, out=np.empty((k,) + chunk.shape))
        counts = np.einsum("apv,bpv->pab", members @ a, members)  # E_ab per partition
        rows = (counts.reshape(-1, k * k) @ fold).astype(dtype)
        if weights is None:
            parts.append(rows[_first_occurrences(rows, radix)])
        else:
            image_keys = rows @ weights
            first = _one_of_each(image_keys.min(axis=1))
            parts.append(rows[first])
            keys.append(image_keys[first])
    rows = np.concatenate(parts)
    if weights is None:
        if len(parts) > 1:  # one chunk's rows are distinct already
            rows = rows[_first_occurrences(rows, radix)]
        return rows.astype(float), rows.shape[0]
    keys = np.concatenate(keys)
    if len(parts) > 1:  # one chunk's orbits are distinct already
        first = _one_of_each(keys.min(axis=1))
        rows, keys = rows[first], keys[first]
    keys.sort(axis=1)  # an orbit's size is its row's number of distinct image keys
    return rows.astype(float), keys.shape[0] + int(np.count_nonzero(keys[:, 1:] != keys[:, :-1]))


class BulkScores(NamedTuple):
    values: np.ndarray  # [C] best score per candidate
    distinct_rows: int  # distinct count matrices among the partitions


def _best_scores_bulk(levels: np.ndarray, a: np.ndarray, n: int, k: int) -> BulkScores:
    """Exact max-over-equipartitions score for every candidate at once, from
    the orbit rows of a (_distinct_count_rows) by _grid_scores."""
    rows, distinct = _distinct_count_rows(a, n, k)
    return BulkScores(_grid_scores(levels, [rows], n, k)[0], distinct)


def _grid_scores(levels: np.ndarray, rows: list[np.ndarray], n: int, k: int) -> np.ndarray:
    """The scores [G, C] of G graphs, given as their orbit rows
    (_distinct_count_rows), at every candidate.

    Candidates are the full grid of integer levels L = n B of
    candidate_matrices, [C, T]; any other array raises ValueError.
    Score = (2 <E(pi), B> - ||B_pi||^2) / n^2; in levels it is
    (2n <w E(pi), L> - <w cc, L^2>) / n^4, with w = 2 off the diagonal and
    cc the products of the canonical class sizes, so the second term is
    partition-independent and a partition enters only through E(pi).
    Every graph's orbit rows are scored by one matrix product per chunk of
    candidates under _SCORE_CHUNK_BYTES, and each graph's maximum is taken
    over its own columns.  Each chunk's row indices, its levels'
    mixed-radix values, must count up from the chunk's first: with
    C = count^T and every level below count, that holds only on the full
    grid.

    That is the maximum over the orbit representatives.  The score is
    invariant when equal-size classes are relabelled in both the partition
    and the candidate, s(sigma pi, sigma B) = s(pi, B): sigma preserves the
    class sizes, so the penalty <w cc, L^2> is unchanged.  So a candidate's
    score is the largest value at its images sigma B.  On the grid, the
    values as an array [count] * T + [G], sigma B sits where the axes are
    permuted as sigma permutes the coordinates: one in-place maximum with
    that transposed view per sigma, in chunks of the first axis under
    _SCORE_CHUNK_BYTES, takes each value to that largest one.  Values only
    rise, and never past their orbit's maximum, so reading a value already
    raised is exact too.

    For a 0/1 adjacency every term is an integer of at most
    n^2 max(L) max(2n, max(L)), below 2^53 for every k >= 2 that
    EQUIPARTITION_BUDGET and CANDIDATE_BUDGET admit (n <= 25, L <= 99).
    There the arithmetic is exact, and each value is the exact rational
    correctly rounded.  The exponential mechanism reads only these values,
    not which equipartition attains them.
    """
    axes = _partition_tensors(n, k)[1]
    penalty = _level_layout(n, k)[3]
    t = penalty.size
    count = int(levels.max(initial=0)) + 1
    if levels.dtype.kind != "u" or levels.shape != (count**t, t):
        raise ValueError("levels must be the full grid of candidate_matrices")
    place = float(count) ** np.arange(t - 1, -1, -1)
    starts = list(itertools.accumulate(map(len, rows[:-1]), initial=0))
    rows = np.concatenate(rows) * (2 * n)
    total = levels.shape[0]
    values = np.empty((total, len(starts)))
    # per candidate: a table row, its float levels and the previous chunk's,
    # and a few scalars; the table is allocated once and every chunk's
    # product is written into it
    step = max(1, _SCORE_CHUNK_BYTES // (8 * (rows.shape[0] + 2 * t + 4)))
    table = np.empty((min(step, total), rows.shape[0]))
    for lo in range(0, total, step):
        chunk = levels[lo : lo + step].astype(float)
        if (chunk @ place != np.arange(lo, lo + chunk.shape[0])).any():
            raise ValueError("levels must be the full grid of candidate_matrices")
        products = np.matmul(chunk, rows.T, out=table[: chunk.shape[0]])
        out = np.maximum.reduceat(products, starts, axis=1, out=values[lo : lo + step])
        np.square(chunk, out=chunk)
        out -= (chunk @ penalty)[:, None]
        out /= n**4
    del table, products, chunk
    grid = values.reshape((count,) * t + (len(starts),))
    # per value of a chunk of the grid's first axis: the value, and the copy
    # of its image's that the overlapping in-place maximum makes
    step = max(1, _SCORE_CHUNK_BYTES // (16 * values.size // count))
    for perm in axes[1:]:
        image = grid.transpose(perm)
        for lo in range(0, count, step):
            np.maximum(grid[lo : lo + step], image[lo : lo + step], out=grid[lo : lo + step])
    return values.T


# -- candidate grid -----------------------------------------------------------------

# Largest candidate grid any caller builds.  10^6 k = 3 candidates are 6 MB
# of uint8 levels, so the budget bounds the scoring time and the selection
# pmf's [C] float64 arrays rather than the grid.
CANDIDATE_BUDGET = 10**6


def candidate_count(n: int, k: int, mu: float) -> int:
    levels = int(math.floor(n * mu + 1e-9)) + 1
    return levels ** (k * (k + 1) // 2)


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
    count, t = candidate_count(n, 1, mu), k * (k + 1) // 2  # levels, coordinates
    return np.indices((count,) * t, dtype=np.min_scalar_type(count - 1)).reshape(t, -1).T


def _level_matrix(levels: np.ndarray, n: int, k: int) -> np.ndarray:
    """The symmetric k x k matrix L / n of one candidate's levels [T]."""
    rows, cols = _level_layout(n, k)[:2]
    out = np.empty((k, k))
    out[rows, cols] = out[cols, rows] = levels / n
    return out


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
    scores = _grid_scores(
        cands, [_distinct_count_rows(capped[i].adjacency.astype(float), n, k)[0] for i in reps], n, k
    )
    # Each unordered pair of adjacent graphs is kept once (|difference| is
    # symmetric), as a pair of distinct score rows.
    i, j = rewiring_pairs(n)
    upper = j > i
    codes = np.unique(capped_row[i[upper]] * len(reps) + capped_row[j[upper]])
    first, second = np.divmod(codes, len(reps))
    first, second = first[first != second], second[first != second]
    # the largest |s_i - s_j|, as the worse of the two signed gaps, one
    # max_violation pass over the unordered pairs each
    return max(
        0.0,
        max_violation(scores, first, second, 0.0).worst,
        max_violation(scores, second, first, 0.0).worst,
    )


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

    The candidates are candidate_matrices(n, k, lambda rho_hat), integer
    levels on the 1/n grid, so _best_scores_bulk scores them exactly: each
    score is the exact max over equipartitions, correctly rounded.

    Returns (mechanism, candidate levels [C, T], delta, diagnostics)."""
    n = g.n
    equipartitions = equipartition_count(n, cfg.k)
    if equipartitions > EQUIPARTITION_BUDGET:
        raise ResourceLimitError(
            f"exact scoring over {equipartitions} equipartitions exceeds the budget "
            f"of {EQUIPARTITION_BUDGET}"
        )
    mu = cfg.lam * rho_hat
    d_real = cfg.lam * rho_hat * n
    d_int = int(math.floor(d_real + 1e-9))
    cands = candidate_matrices(n, cfg.k, mu)
    capped = degree_cap(g, d_int)
    bulk = _best_scores_bulk(cands, capped.adjacency.astype(float), n, cfg.k)
    scores = bulk.values
    if cfg.sensitivity_mode == "audited":
        delta = measured_score_sensitivity(n, cfg.k, mu, d_int)
    else:
        delta = theoretical_sensitivity(n, d_real, mu)
    diagnostics = {
        "candidate_count": cands.shape[0],
        "degree_cap": d_int,
        "equipartitions": equipartitions,
        "distinct_count_rows": bulk.distinct_rows,
        "sensitivity_mode": cfg.sensitivity_mode,
    }
    if delta <= 0.0:
        # Scores cannot depend on the input (measured zero sensitivity);
        # exp(eps/(4*0) * score) degenerates to uniform over the argmax set.
        lw = np.where(scores >= scores.max() - 1e-12, 0.0, -1e9)
        mech = FiniteMechanism(lw)
        diagnostics["coefficient"] = math.inf
    else:
        coef = cfg.epsilon / (4.0 * delta)
        mech = exponential_mechanism_distribution(scores, coef)
        diagnostics["coefficient"] = coef
    diagnostics["scores"] = scores
    return mech, cands, delta, diagnostics


def _dp_domain(n: int, sensitivity_mode: str) -> str:
    """Where a block release's epsilon holds, given its sensitivity mode."""
    if sensitivity_mode == "audited":
        return f"all graphs on {n} vertices"
    return (
        "all graphs if degree_cap is stable under one rewiring; Delta = 4 d mu / n^2"
        " assumes it and it is unproven"
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
