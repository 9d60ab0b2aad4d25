"""Noise mechanisms, piecewise-exponential output densities, and the
inf-convolution extension operator.

Continuous mechanisms here release a value in [0,1] whose density is
proportional to exp(shape(q)) for a piecewise-linear shape; that family is
closed under the operations the extension needs (shifting by a constant and
pointwise minimum in log space) and admits closed-form normalization, CDF
and inverse CDF, so sampling is deterministic given a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ResourceLimitError


def _check_epsilon(epsilon: float) -> float:
    eps = float(epsilon)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"epsilon must be a positive finite real, got {epsilon!r}")
    return eps


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a 1-d array, by scipy.special.logsumexp's own
    algorithm, so the two agree bit for bit: the maxima are summed apart and
    enter through log1p, and a non-finite result falls back to the direct
    formula."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    top = a.max()
    at_top = a == top
    count = np.float64(np.count_nonzero(at_top))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum()
        if rest != 0:
            rest = rest / count
        out = np.log1p(rest) + np.log(count) + top
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


# -- Laplace -------------------------------------------------------------------


def sample_laplace(scale: float, rng: np.random.Generator, size=None):
    """Laplace(0, scale) via inverse CDF, so replay from a stream is exact."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


@dataclass(frozen=True)
class LaplaceDensity:
    """Law of center + Laplace(scale) on the whole real line."""

    center: float
    scale: float

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.abs(x - self.center) / self.scale - math.log(2.0 * self.scale)

    def sample(self, rng: np.random.Generator, size=None):
        return self.center + sample_laplace(self.scale, rng, size)


# -- finite-output mechanisms ----------------------------------------------------


class FiniteMechanism:
    """Distribution over a finite candidate list, normalized in log space."""

    def __init__(self, candidates: Sequence, log_weights) -> None:
        if len(candidates) == 0:
            raise ValueError("candidate list must be nonempty")
        lw = np.asarray(log_weights, dtype=float)
        if lw.shape != (len(candidates),):
            raise ValueError("one log weight per candidate required")
        if not np.isfinite(lw).all():
            raise ValueError("log weights must be finite")
        self.candidates = list(candidates)
        log_probs = lw - logsumexp(lw)
        probs = np.exp(log_probs)
        residue = probs.sum()  # 1 +- a few ulps per candidate after exp()
        self.log_probs = log_probs - math.log(residue)
        probs = probs / residue
        total = probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise AssertionError(f"normalization drift: sum(probs) = {total!r}")
        self._cum = np.cumsum(probs)
        self._cum[-1] = 1.0

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def sample_index(self, rng: np.random.Generator) -> int:
        return int(np.searchsorted(self._cum, rng.random(), side="right"))

    def sample(self, rng: np.random.Generator):
        return self.candidates[self.sample_index(rng)]

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.searchsorted(self._cum, rng.random(size), side="right")


def exponential_mechanism_distribution(
    candidates: Sequence, scores, coefficient: float
) -> FiniteMechanism:
    """P(c) proportional to exp(coefficient * score(c))."""
    s = np.asarray(scores, dtype=float)
    if len(candidates) == 0:
        raise ValueError("candidate list must be nonempty")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not (math.isfinite(coefficient) and coefficient >= 0):
        raise ValueError("coefficient must be a finite nonnegative real")
    return FiniteMechanism(candidates, coefficient * s)


def exponential_mechanism(
    candidates: Sequence,
    score: Callable,
    coefficient: float,
    rng: np.random.Generator,
):
    """Sample a candidate with probability proportional to exp(coef * score).

    The caller supplies the calibrated coefficient (for Score with
    sensitivity D and budget eps, eps / (4 D) makes the draw eps/2-DP).
    """
    scores = [score(c) for c in candidates]
    return exponential_mechanism_distribution(candidates, scores, coefficient).sample(rng)


# -- piecewise-linear log shapes -------------------------------------------------


class PiecewiseLinear:
    """Continuous piecewise-linear function: linear between sorted knots."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys) -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d knot arrays with >= 2 knots")
        if not (np.diff(xs) > 0).all():
            raise ValueError("knots must be strictly increasing")
        self.xs = xs
        self.ys = ys

    def __call__(self, q):
        return np.interp(q, self.xs, self.ys)

    @property
    def lo(self) -> float:
        return float(self.xs[0])

    @property
    def hi(self) -> float:
        return float(self.xs[-1])

    def shift(self, c: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.xs, self.ys + c)


def _min2(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    if abs(f.lo - g.lo) > 1e-12 or abs(f.hi - g.hi) > 1e-12:
        raise ValueError("domains must agree")
    knots = np.unique(np.concatenate([f.xs, g.xs]))
    fk, gk = f(knots), g(knots)
    extra = []
    for i in range(knots.size - 1):
        d0 = fk[i] - gk[i]
        d1 = fk[i + 1] - gk[i + 1]
        if d0 * d1 < 0:  # strict sign change: one interior crossing
            t = d0 / (d0 - d1)
            extra.append(knots[i] + t * (knots[i + 1] - knots[i]))
    if extra:
        knots = np.unique(np.concatenate([knots, np.array(extra)]))
    return PiecewiseLinear(knots, np.minimum(f(knots), g(knots)))


def piecewise_min(funcs: Sequence[PiecewiseLinear]) -> PiecewiseLinear:
    """Pointwise minimum of piecewise-linear functions on a shared domain."""
    if not funcs:
        raise ValueError("need at least one function")
    out = funcs[0]
    for f in funcs[1:]:
        out = _min2(out, f)
    return out


def _log_e1m(d: np.ndarray) -> np.ndarray:
    """log((exp(d) - 1) / d) elementwise, stable for any real d (0 -> 0)."""
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    small = np.abs(d) < 1e-9
    out[small] = d[small] / 2.0
    pos = (~small) & (d > 0)
    big = pos & (d > 700)
    mid = pos & ~big
    out[mid] = np.log(np.expm1(d[mid])) - np.log(d[mid])
    out[big] = d[big] - np.log(d[big])
    neg = (~small) & (d < 0)
    out[neg] = np.log(-np.expm1(d[neg])) - np.log(-d[neg])
    return out


class PiecewiseExpDensity:
    """Probability density on [lo, hi] proportional to exp(shape(q)).

    The normalizer, CDF and inverse CDF come from the closed-form integral
    of exp over each linear piece; no quadrature or rejection anywhere.
    """

    def __init__(self, shape: PiecewiseLinear) -> None:
        self.shape = shape
        top = float(shape.ys.max())
        h = shape.ys - top  # work in a shifted scale where exp() never overflows
        w = np.diff(shape.xs)
        d = np.diff(h)
        log_pieces = h[:-1] + np.log(w) + _log_e1m(d)
        log_total = float(logsumexp(log_pieces))
        self.log_normalizer = log_total + top
        self._h0 = h[:-1] - log_total  # shifted so piece masses sum to one
        self._beta = d / w
        self._cum = np.concatenate([[0.0], np.cumsum(np.exp(log_pieces - log_total))])
        self._cum[-1] = 1.0

    @property
    def lo(self) -> float:
        return self.shape.lo

    @property
    def hi(self) -> float:
        return self.shape.hi

    def log_pdf(self, q):
        return self.shape(q) - self.log_normalizer

    def pdf(self, q):
        return np.exp(self.log_pdf(q))

    evaluate = pdf

    def cdf(self, q):
        q = np.asarray(q, dtype=float)
        idx = np.clip(np.searchsorted(self.shape.xs, q, side="right") - 1, 0, len(self._h0) - 1)
        t = np.clip(q - self.shape.xs[idx], 0.0, None)
        h0 = self._h0[idx]
        beta = self._beta[idx]
        bt = beta * t
        safe_beta = np.where(beta == 0, 1.0, beta)
        # A rising piece may start far below the peak (exp(h0) underflows while
        # expm1(beta t) overflows), so its mass exp(h0 + bt) (1 - exp(-bt)) / beta
        # is taken in log space.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            part = np.where(
                np.abs(bt) < 1e-12,
                np.exp(h0) * t,
                np.where(
                    bt > 0,
                    np.exp(h0 + bt + np.log(-np.expm1(-bt)) - np.log(np.abs(safe_beta))),
                    np.exp(h0) * np.expm1(bt) / safe_beta,
                ),
            )
        return np.clip(self._cum[idx] + part, 0.0, 1.0)

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(np.clip(u, 0.0, 1.0))
        idx = np.clip(np.searchsorted(self._cum, u, side="right") - 1, 0, len(self._h0) - 1)
        tau = u - self._cum[idx]  # remaining mass inside the piece
        h0 = self._h0[idx]
        beta = self._beta[idx]
        safe_beta = np.where(beta == 0, 1.0, beta)
        # Solve exp(h0) (exp(beta t) - 1) / beta = tau for t.  Directly while
        # beta tau exp(-h0) is finite; a piece that climbs more than ~709
        # log-units overflows it, and those draws are solved in log space.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = tau * np.exp(-h0)
            product = beta * scaled
            t = np.where(
                np.abs(beta) < 1e-14,
                scaled,
                np.log1p(np.maximum(product, -1.0 + 1e-300)) / safe_beta,
            )
            bad = ~np.isfinite(product)
            if bad.any():
                b, sb = beta[bad], safe_beta[bad]
                log_bs = np.log(tau[bad]) - h0[bad] + np.log(np.abs(sb))  # log |sb * scaled|
                t[bad] = np.select(
                    [b > 0, b < 0],
                    [np.logaddexp(0.0, log_bs), np.log1p(-np.minimum(np.exp(log_bs), 1.0))],
                    np.exp(log_bs),  # flat piece: t = scaled
                ) / sb
        widths = np.diff(self.shape.xs)[idx]
        x = self.shape.xs[idx] + np.clip(t, 0.0, widths)
        return float(x[0]) if scalar else x

    def sample(self, rng: np.random.Generator, size=None):
        return self.inverse_cdf(rng.random(size))


# -- concrete density families ---------------------------------------------------


def truncation_rate(n: int, rho: float) -> float:
    """r_n = n^{3/2} / (max(sqrt(rho), sqrt(log n / n)) * sqrt(log n))."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    logn = math.log(n)
    return n**1.5 / (max(math.sqrt(rho), math.sqrt(logn / n)) * math.sqrt(logn))


def truncated_laplace_density(
    center: float, epsilon: float, C: float, rho: float, n: int
) -> PiecewiseExpDensity:
    """Density on [0,1] proportional to
    exp(-(eps/2) * (1/(8C)) * min(r_n * |center - q|, n)).

    The clipped penalty keeps the worst-case log ratio between two centers
    bounded by the same clipped function of their distance, which is what
    calibrates this mechanism to vertex-rewiring distance on homogeneous
    graphs.
    """
    eps = _check_epsilon(epsilon)
    if not C > 48:
        raise ValueError(f"C must exceed 48, got {C}")
    if n < 3:
        raise ValueError("n must be at least 3 (log n degenerate below)")
    if not 0.0 <= center <= 1.0:
        raise ValueError("center must lie in [0, 1]")
    rate = truncation_rate(n, rho)
    radius = n / rate
    coef = eps / (16.0 * C)  # (eps/2) * 1/(8C)
    knots = {0.0, 1.0, center, center - radius, center + radius}
    xs = np.array(sorted(x for x in knots if 0.0 <= x <= 1.0))
    ys = -coef * np.minimum(rate * np.abs(xs - center), float(n))
    return PiecewiseExpDensity(PiecewiseLinear(xs, ys))


def unit_laplace_density(center: float, scale: float) -> PiecewiseExpDensity:
    """Laplace(center, scale) restricted to [0,1] and renormalized."""
    if not 0.0 <= center <= 1.0:
        raise ValueError("center must lie in [0, 1]")
    if not scale > 0:
        raise ValueError("scale must be positive")
    knots = np.array(sorted({0.0, 1.0, float(center)}))
    return PiecewiseExpDensity(PiecewiseLinear(knots, -np.abs(knots - center) / scale))


# -- generic extension and audits --------------------------------------------------


@dataclass(frozen=True)
class MetricSpaceOracle:
    """Enumerable input space with a metric and a hypothesis-set predicate."""

    points: Sequence
    distance: Callable[[object, object], float]
    contains: Callable[[object], bool] = field(default=lambda _: True)


def extend_mechanism(
    space: MetricSpaceOracle,
    base_density: Callable[[object], PiecewiseExpDensity],
    epsilon: float,
    budget: int = 10**5,
    promise_in_h: bool = False,
) -> Callable[[object], PiecewiseExpDensity]:
    """Extend an epsilon-DP-on-H mechanism to the whole space at 2*epsilon.

    The extended density at input D is proportional to
        inf over D' in H of exp(epsilon * d(D, D')) * f_{D'},
    renormalized.  On H the infimum is attained at D' = D (that is exactly
    the DP inequality for the base), so the extension reproduces the base
    there; everywhere it satisfies the 2*epsilon ratio bound.

    In promise mode the base runs directly and the result is DP only on H.
    """
    eps = _check_epsilon(epsilon)
    points = list(space.points)
    h_points = [p for p in points if space.contains(p)]
    if not h_points:
        raise ValueError("hypothesis set H is empty")
    if promise_in_h:
        return base_density
    if len(points) * len(h_points) > budget:
        raise ResourceLimitError(
            f"{len(points)} x {len(h_points)} exact extension exceeds budget "
            f"{budget}; rerun with promise_in_h=True (DP only on H)"
        )
    # Base laws often share one normalized log shape (the density bases
    # depend on e(G) alone).  Since min_j (f + eps d_j) = f + eps min_j d_j,
    # and floating-point addition is monotone, each shape enters the
    # envelope once, shifted by its nearest member's distance.
    groups: dict[tuple[bytes, bytes], tuple[PiecewiseLinear, list]] = {}
    for p in h_points:
        dens = base_density(p)
        shape = dens.shape.shift(-dens.log_normalizer)
        groups.setdefault((shape.xs.tobytes(), shape.ys.tobytes()), (shape, []))[1].append(p)
    cache: dict = {}

    def extended(d_input) -> PiecewiseExpDensity:
        if d_input in cache:
            return cache[d_input]
        shifted = [
            shape.shift(eps * min(space.distance(d_input, p) for p in members))
            for shape, members in groups.values()
        ]
        dens = PiecewiseExpDensity(piecewise_min(shifted))
        cache[d_input] = dens
        return dens

    return extended


# Bytes one chunk of max_violation's [rows, P, T] gap tensor may take.  The
# kernel walks the first point axis in chunks of this size, so memory stays
# bounded whatever the point and grid counts are.
_AUDIT_CHUNK_BYTES = 16 * 2**20


class Violation(NamedTuple):
    worst: float  # largest gap over compared pairs and columns; -inf if none
    pairs: int  # ordered pairs compared (finite distance)
    witness: tuple[int, int, int] | None  # (i, j, t) of the first largest gap
    # per compared pair in row-major order, on request:
    # (i, j, distance, t, log ratio, epsilon * distance, gap)
    rows: tuple = ()


def max_violation(logs, dist, epsilon: float, collect_rows: bool = False) -> Violation:
    """Worst privacy gap log p_i[t] - log p_j[t] - epsilon * dist[i, j] over
    ordered pairs (i, j) and columns t.

    logs is [P, T]: log densities on a grid or log pmfs over candidates, one
    row per input.  dist is [P, P]; a pair that is not compared (the
    diagonal, non-neighbours) has distance +inf.  Each pair reports its first
    maximizing column, and the witness is the first maximum in row-major
    (i, j, t) order; a NaN gap is never a witness.  A nonpositive worst gap
    (within tolerance) certifies epsilon-DP on the compared pairs.
    """
    logs = np.asarray(logs, dtype=float)
    dist = np.asarray(dist, dtype=float)
    points, width = logs.shape
    if dist.shape != (points, points):
        raise ValueError(f"need a {points} x {points} distance matrix, got {dist.shape}")
    step = max(1, _AUDIT_CHUNK_BYTES // (8 * points * width))
    worst, witness, pairs = -math.inf, None, 0
    columns = []
    for lo in range(0, points, step):
        block = dist[lo : lo + step]
        compared = block < math.inf
        bound = epsilon * np.where(compared, block, 0.0)
        gaps = logs[lo : lo + step, None, :] - logs[None, :, :]
        gaps -= bound[:, :, None]
        t = gaps.argmax(axis=2)
        pair_gap = np.take_along_axis(gaps, t[:, :, None], axis=2)[:, :, 0]
        ranked = np.where(compared & ~np.isnan(pair_gap), pair_gap, -math.inf)
        best = int(ranked.argmax())
        if ranked.flat[best] > worst:
            i, j = divmod(best, points)
            worst, witness = float(ranked.flat[best]), (lo + i, j, int(t[i, j]))
        ii, jj = np.nonzero(compared)
        pairs += ii.size
        if collect_rows:
            tt = t[ii, jj]
            ratio = logs[lo + ii, tt] - logs[jj, tt]
            columns.append((lo + ii, jj, block[ii, jj], tt, ratio, bound[ii, jj], pair_gap[ii, jj]))
    rows = ()
    if collect_rows and columns:
        rows = tuple(zip(*(np.concatenate(c).tolist() for c in zip(*columns))))
    return Violation(worst, pairs, witness, rows)


def dp_audit_densities(
    space: MetricSpaceOracle,
    mechanism: Callable[[object], object],
    epsilon: float,
    grid,
    budget: int = 10**8,
) -> float:
    """Max over ordered point pairs and grid points of
    log f_D - log f_{D'} - epsilon * d(D, D').

    A nonpositive return (within tolerance) certifies epsilon-DP on the grid.
    Density objects must expose log_pdf.
    """
    eps = _check_epsilon(epsilon)
    points = list(space.points)
    grid = np.asarray(grid, dtype=float)
    if len(points) ** 2 * grid.size > budget:
        raise ResourceLimitError("audit grid exceeds budget")
    logs = np.stack([np.asarray(mechanism(p).log_pdf(grid)) for p in points])
    dist = np.array([[space.distance(a, b) for b in points] for a in points], dtype=float)
    np.fill_diagonal(dist, math.inf)
    return max_violation(logs, dist, eps).worst
