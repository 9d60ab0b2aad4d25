"""Step graphons, random-graph samplers, equipartitions, and L2-type distances.

Matrix norms are normalized: ||A||_2 = sqrt(sum A_ij^2 / n^2), so that an
n x n matrix embedded as an n-equal-block step function on [0,1]^2 has the
same norm as the function.  The one minimized distance here,
delta2_hat_blocks, minimizes over simultaneous permutations of block
indices, an upper bound on the measure-preserving infimum (exact for
equal-block comparisons up to the permutation class).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graphs import LabeledGraph, upper_slots

# -- block matrices and step graphons -----------------------------------------


def _as_symmetric(values) -> np.ndarray:
    vals = np.array(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise ValueError("block matrix must be square")
    if not np.allclose(vals, vals.T, atol=1e-12):
        raise ValueError("block matrix must be symmetric")
    if (vals < -1e-12).any():
        raise ValueError("block matrix entries must be nonnegative")
    vals = np.maximum((vals + vals.T) / 2.0, 0.0)
    vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class BlockMatrix:
    """Symmetric nonnegative k x k matrix of connection values."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_symmetric(self.values))

    @property
    def k(self) -> int:
        return self.values.shape[0]

    def to_text(self) -> str:
        rows = [" ".join(f"{v:.17g}" for v in row) for row in self.values]
        return f"{self.k}\n" + "\n".join(rows) + "\n"


@dataclass(frozen=True)
class StepGraphon:
    """Step function on [0,1]^2 with interval blocks.

    boundaries: 0 = t_0 < t_1 < ... < t_k = 1
    values: symmetric k x k matrix; W(x, y) = values[c(x), c(y)] where c(x)
    is the block whose half-open interval [t_c, t_{c+1}) contains x (x = 1
    falls in the last block).
    """

    boundaries: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bnd = np.array(self.boundaries, dtype=float)
        if bnd.ndim != 1 or bnd.size < 2:
            raise ValueError("boundaries must be a 1-d array with >= 2 entries")
        if not (abs(bnd[0]) < 1e-12 and abs(bnd[-1] - 1.0) < 1e-12):
            raise ValueError("boundaries must start at 0 and end at 1")
        if not (np.diff(bnd) > 0).all():
            raise ValueError("boundaries must be strictly increasing")
        bnd = bnd.copy()
        bnd[0], bnd[-1] = 0.0, 1.0
        bnd.flags.writeable = False
        vals = _as_symmetric(self.values)
        if vals.shape[0] != bnd.size - 1:
            raise ValueError("values size must match number of blocks")
        object.__setattr__(self, "boundaries", bnd)
        object.__setattr__(self, "values", vals)

    @classmethod
    def equal_blocks(cls, values) -> "StepGraphon":
        vals = _as_symmetric(values)
        k = vals.shape[0]
        return cls(np.linspace(0.0, 1.0, k + 1), vals)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    def block_of(self, x) -> np.ndarray:
        idx = np.searchsorted(self.boundaries, np.asarray(x, dtype=float), side="right") - 1
        return np.clip(idx, 0, self.k - 1)

    def evaluate(self, x, y) -> np.ndarray:
        bx, by = self.block_of(x), self.block_of(y)
        return self.values[bx, by]


def two_clique_graphon(q: float) -> StepGraphon:
    """Two-block 0/1 graphon with diagonal blocks of sizes q and 1-q.

    Samples are unions of two cliques; the density is q^2 + (1-q)^2.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    return StepGraphon(np.array([0.0, q, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))


# -- normalized matrix norms ---------------------------------------------------


def normalized_l2(a, b) -> float:
    """||a - b||_2 under the 1/n^2 normalization."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    n = a.shape[0]
    return math.sqrt(float(((a - b) ** 2).sum()) / n**2)


# -- equipartitions ------------------------------------------------------------


def canonical_sizes(n: int, k: int) -> list[int]:
    """Class sizes ceil(n/k) for the first n mod k classes, floor(n/k) after."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def equipartition_count(n: int, k: int) -> int:
    """Number of assignments with the canonical size profile."""
    sizes = canonical_sizes(n, k)
    count = math.factorial(n)
    for s in sizes:
        count //= math.factorial(s)
    return count


def relabellings(n: int, k: int) -> np.ndarray:
    """The size-preserving relabellings of the canonical classes, [S, k] in
    lexicographic order, the identity first: classes of equal size permute
    among themselves, so S = r!(k - r)! with r = n mod k.
    equipartition_array keeps one assignment per orbit of this group."""
    sizes = canonical_sizes(n, k)
    runs = [tuple(run) for _, run in itertools.groupby(range(k), key=sizes.__getitem__)]
    choices = itertools.product(*map(itertools.permutations, runs))
    return np.array([sum(choice, ()) for choice in choices])


def equipartition_array(n: int, k: int) -> np.ndarray:
    """One canonical-profile assignment per orbit of relabellings(n, k), as
    one [P / S, n] array in lexicographic order of the rows.

    The representative is the assignment in which classes of equal size
    first appear in increasing order.  No class is empty, so no relabelling
    but the identity fixes an assignment, and every orbit has S members.
    Built one column at a time: each prefix is extended by every class with
    room left that may open, a class opening only after the one before it
    when the two are of equal size, and np.nonzero walks (prefix, class) in
    row-major order, so the prefixes stay lexicographically sorted.  The
    dtype is the smallest unsigned integer type that holds k - 1.
    """
    dtype = np.min_scalar_type(k - 1)
    prefix = np.zeros((1, 0), dtype=dtype)
    sizes = np.array(canonical_sizes(n, k))
    # the classes that open only after the class before them
    follow = 1 + np.flatnonzero(sizes[1:] == sizes[:-1])
    remaining = sizes[None]
    for _ in range(n):
        room = remaining > 0
        if follow.size:
            room[:, follow] &= remaining[:, follow - 1] < sizes[follow - 1]
        rows, classes = np.nonzero(room)
        prefix = np.column_stack((prefix[rows], classes.astype(dtype)))
        remaining = remaining[rows]
        remaining[np.arange(rows.size), classes] -= 1
    return prefix


# -- permutation-minimized distance --------------------------------------------


# Largest block count whose k! permutations delta2_hat_blocks searches:
# 40,320 at k = 8.
PERMUTATION_SEARCH_MAX_K = 8


def delta2_hat_blocks(b1: BlockMatrix, b2: BlockMatrix) -> float:
    """min over simultaneous row/column permutations of ||b1^s - b2||_2."""
    if b1.k != b2.k:
        raise ValueError("block counts differ")
    if b1.k > PERMUTATION_SEARCH_MAX_K:
        raise ResourceLimitError(
            f"permutation search limited to k <= {PERMUTATION_SEARCH_MAX_K}"
        )
    best = math.inf
    v2 = b2.values
    for perm in itertools.permutations(range(b1.k)):
        p = list(perm)
        v1 = b1.values[np.ix_(p, p)]
        best = min(best, normalized_l2(v1, v2))
    return best


# -- W-random samples ----------------------------------------------------------


@dataclass(frozen=True)
class WRandomSample:
    """A graph drawn from G_n(rho * W) together with its latent structure."""

    graph: LabeledGraph
    labels: np.ndarray
    rho: float


def sample_w_random(
    w: StepGraphon, rho: float, n: int, rng: np.random.Generator
) -> WRandomSample:
    """n uniform labels; edge (i,j) present independently w.p. rho*W(x_i,x_j)."""
    if rho * w.max_value > 1.0 + 1e-12:
        raise ValueError(f"rho * sup W = {rho * w.max_value:.6g} exceeds 1")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    labels = rng.random(n)
    probs = upper_slots(rho * w.evaluate(labels[:, None], labels[None, :]))
    g = LabeledGraph.from_slots(n, rng.random(probs.size) < probs)
    labels.flags.writeable = False
    return WRandomSample(g, labels, rho)


# -- G(n,p), G(n,m) and the rewired coupling model ------------------------------


def sample_gnp(n: int, p: float, rng: np.random.Generator) -> LabeledGraph:
    """Erdos-Renyi graph: each edge independently present with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return LabeledGraph.from_slots(n, rng.random(n * (n - 1) // 2) < p)


def sample_gnm(n: int, m: int, rng: np.random.Generator) -> LabeledGraph:
    """Uniform graph with exactly m edges."""
    nslots = n * (n - 1) // 2
    if not 0 <= m <= nslots:
        raise ValueError(f"m={m} out of range [0, {nslots}]")
    bits = np.zeros(nslots, dtype=bool)
    bits[rng.choice(nslots, size=m, replace=False)] = True
    return LabeledGraph.from_slots(n, bits)


def sample_gnm_rewired_coupled(
    n: int, m: int, k: int, rng: np.random.Generator
) -> tuple[LabeledGraph, LabeledGraph]:
    """Stage-one G(n, m+k) sample and the graph after deleting min(deg, k)
    uniformly chosen edges at a uniformly chosen vertex."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    stage1 = sample_gnm(n, m + k, rng)
    v = int(rng.integers(n))
    nbrs = stage1.neighbors(v)
    drop = rng.choice(nbrs, size=min(len(nbrs), k), replace=False) if len(nbrs) else nbrs
    adj = stage1.adjacency.copy()
    adj[v, drop] = adj[drop, v] = False
    return stage1, LabeledGraph(adj)


def sample_gnm_rewired(n: int, m: int, k: int, rng: np.random.Generator) -> LabeledGraph:
    return sample_gnm_rewired_coupled(n, m, k, rng)[1]


def rewired_model_pmf(g0: LabeledGraph, m: int, k: int) -> float:
    """Exact probability that the rewired model with parameters (m, k) outputs g0.

    Stage one is uniform over graphs with m+k edges; deleting j = m+k-e(g0)
    edges at the chosen vertex yields g0.  For j = k the count of compatible
    stage-one graphs per vertex v is C(n-1-d(v), k), each reached with
    probability 1/(n C(d(v)+k, k)); for j < k the chosen vertex loses its
    whole neighborhood, so only vertices isolated in g0 contribute, each via
    C(n-1, j) stage-one graphs reached with probability 1/n.
    """
    n = g0.n
    nslots = n * (n - 1) // 2
    if k < 0 or m < 0 or m + k > nslots:
        raise ValueError("invalid (m, k) for this graph order")
    e0 = g0.edge_count
    if not m <= e0 <= m + k:
        raise ValueError(
            f"graph has {e0} edges, outside the reachable range [{m}, {m + k}]"
        )
    j = m + k - e0
    degs = g0.degrees
    if j == k:
        total = sum(
            math.comb(n - 1 - int(d), k) / math.comb(int(d) + k, k) for d in degs
        )
    else:
        isolated = int((degs == 0).sum())
        total = isolated * math.comb(n - 1, j)
    return total / (n * math.comb(nslots, m + k))
