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
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ResourceLimitError


def _check_epsilon(epsilon: float) -> float:
    eps = float(epsilon)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"epsilon must be a positive finite real, got {epsilon!r}")
    return eps


def logsumexp(a):
    """log(sum(exp(a))) along the last axis, row by row by
    scipy.special.logsumexp's own algorithm, so the two agree bit for bit:
    a row's maxima are counted apart and the rest enters through log1p, and
    a row whose result is not finite falls back to the direct formula.  A
    1-d input gives a scalar."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 0:
        return np.full(a.shape[:-1], -np.inf)[()]
    top = a.max(axis=-1, keepdims=True)
    at_top = a == top
    count = np.add.reduce(at_top, axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=-1, keepdims=True)
        # scipy divides only a nonzero rest; 0 / count is 0 all the same,
        # since count is 0 only on a NaN row, whose rest is NaN
        rest /= count
        out = (np.log1p(rest) + np.log(count) + top)[..., 0]
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=-1)))
    return out[()]


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


def normalized_log_weights(log_weights) -> tuple[np.ndarray, np.ndarray]:
    """The log pmfs and pmfs of the laws proportional to exp(log_weights)
    along the last axis of a [..., C] array, each row normalized on its own.

    A row's log pmf is its log weights less their logsumexp; the pmf exp()
    gives sums to 1 within a few ulps per candidate, so both are divided
    once more by that residue, whose log is math.log's, and a row still
    more than 1e-12 off 1 raises AssertionError.  Log weights that are not
    all finite raise ValueError."""
    lw = np.asarray(log_weights, dtype=float)
    if not np.isfinite(lw).all():
        raise ValueError("log weights must be finite")
    log_probs = lw - np.expand_dims(logsumexp(lw), -1)
    probs = np.exp(log_probs)
    residue = probs.sum(axis=-1, keepdims=True)
    log_probs -= np.fromiter(map(math.log, residue.ravel().tolist()), float).reshape(residue.shape)
    probs /= residue
    total = probs.sum(axis=-1)
    if (abs(total - 1.0) > 1e-12).any():
        raise AssertionError(f"normalization drift: sum(probs) = {total!r}")
    return log_probs, probs


class FiniteMechanism:
    """Distribution over candidate indices 0..C-1, normalized in log space
    by normalized_log_weights."""

    def __init__(self, log_weights) -> None:
        lw = np.asarray(log_weights, dtype=float)
        if lw.ndim != 1 or lw.size == 0:
            raise ValueError("need a nonempty 1-d array of log weights, one per candidate")
        self.log_probs, probs = normalized_log_weights(lw)
        self._cum = np.cumsum(probs)
        self._cum[-1] = 1.0

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def sample(self, rng: np.random.Generator) -> int:
        """One candidate index."""
        return int(np.searchsorted(self._cum, rng.random(), side="right"))


def exponential_log_weights(scores, coefficient: float) -> np.ndarray:
    """Log weights coefficient * scores of the exponential mechanism along
    the last axis of [..., C] scores.  An infinite coefficient gives the
    limit law, uniform over each row's maximum set: log weight 0 within
    1e-12 of the row's maximum and -1e9 elsewhere."""
    s = np.asarray(scores, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not coefficient >= 0:
        raise ValueError("coefficient must be a nonnegative real")
    if math.isinf(coefficient):
        return np.where(s >= s.max(axis=-1, keepdims=True) - 1e-12, 0.0, -1e9)
    return coefficient * s


def exponential_mechanism_distribution(scores, coefficient: float) -> FiniteMechanism:
    """P(c) proportional to exp(coefficient * scores[c]); see
    exponential_log_weights."""
    return FiniteMechanism(exponential_log_weights(scores, coefficient))


# -- piecewise-linear log shapes -------------------------------------------------


class PiecewiseLinear:
    """Continuous piecewise-linear function: linear between sorted knots."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys) -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d knot arrays with >= 2 knots")
        if not (xs[1:] > xs[:-1]).all():
            raise ValueError("knots must be strictly increasing")
        self.xs = xs
        self.ys = ys

    def __call__(self, q):
        return np.interp(q, self.xs, self.ys)


def _interp_rows(q: np.ndarray, xp: np.ndarray, fp: np.ndarray, last: np.ndarray) -> np.ndarray:
    """np.interp(q[r], xp[r, :last[r] + 1], fp[r, :last[r] + 1]) for each row
    r of [R, M] queries and [R, K] knots and values, padded past each row's
    last knot, in np.interp's own float operations, so the two agree bit for
    bit: fp[0] below the first knot, fp[j] at a knot x == xp[j] or at and
    past the last, and slope * (x - xp[j]) + fp[j] inside piece j.  Lanes
    past a row's last knot compute inf - inf before they are dropped, so the
    caller silences invalid-value warnings."""
    j = (xp[:, None, :] <= q[:, :, None]).sum(axis=-1) - 1
    at = np.minimum(np.maximum(j, 0), last[:, None])
    rows = np.arange(q.shape[0])[:, None]
    x0, y0 = xp[rows, at], fp[rows, at]
    right = np.minimum(at + 1, last[:, None])
    inside = (fp[rows, right] - y0) / (xp[rows, right] - x0) * (q - x0) + y0
    return np.where((j >= 0) & (j < last[:, None]) & (x0 != q), inside, y0)


def _union_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct finite entries of each row of a, as np.unique
    gives them, padded with +inf to the longest row, and each row's count."""
    a = np.sort(a, axis=1)
    keep = a < np.inf
    keep[:, 1:] &= a[:, 1:] != a[:, :-1]
    counts = keep.sum(axis=1)
    out = np.full((a.shape[0], counts.max()), np.inf)
    out[np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]] = a[keep]
    return out, counts


def _lower_envelopes(layers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise minima of piecewise-linear functions on a shared domain, R
    of them at once.  Each layer (xs [K], ys [R, K]) gives every row one
    function, with knots shared by the rows, and the layers are folded in
    order, row by row: the union of the two knot sets, their interior
    crossings, and the minimum at the merged knots, in the float operations
    of np.unique, np.interp and np.minimum on each row alone.  Both operands
    of a fold are evaluated at each union of knots by one _interp_rows call
    over their rows stacked, padded with +inf past each row's last knot.
    Returns the [R, W] knots and values, padded with +inf past each row's
    last knot, and each row's knot count."""
    xs, ys = layers[0]
    ys = np.array(ys, dtype=float)
    rows = ys.shape[0]
    xs = np.repeat(np.asarray(xs, dtype=float)[None], rows, axis=0)
    counts = np.full(rows, xs.shape[1])
    # crossings are interior, so every row spans the union of the layers' domains
    lo, hi = float(xs[0, 0]), float(xs[0, -1])
    # padding makes inf - inf and inf * 0 in lanes that are then dropped
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for gx, gy in layers[1:]:
            if abs(lo - gx[0]) > 1e-12 or abs(hi - gx[-1]) > 1e-12:
                raise ValueError("domains must agree")
            lo, hi = min(lo, float(gx[0])), max(hi, float(gx[-1]))
            # the operands' knots and values, f's rows then g's
            width = max(xs.shape[1], gx.size)
            xp, fp = np.full((2, 2 * rows, width), np.inf)
            xp[:rows, : xs.shape[1]], fp[:rows, : xs.shape[1]] = xs, ys
            xp[rows:, : gx.size], fp[rows:, : gx.size] = gx, gy
            last = np.concatenate([counts - 1, np.full(rows, gx.size - 1)])
            knots, counts = _union_rows(np.concatenate([xs, np.broadcast_to(gx, gy.shape)], axis=1))
            both = _interp_rows(np.concatenate([knots, knots]), xp, fp, last)
            f, g = both[:rows], both[rows:]
            diff = f - g
            # a strict sign change between consecutive knots: one interior crossing
            cross = np.arange(knots.shape[1] - 1) < (counts - 1)[:, None]
            cross &= diff[:, :-1] * diff[:, 1:] < 0
            if cross.any():
                d0, d1 = diff[:, :-1][cross], diff[:, 1:][cross]
                left = knots[:, :-1][cross]
                extra = np.full(cross.shape, np.inf)
                extra[cross] = left + d0 / (d0 - d1) * (knots[:, 1:][cross] - left)
                knots, counts = _union_rows(np.concatenate([knots, extra], axis=1))
                both = _interp_rows(np.concatenate([knots, knots]), xp, fp, last)
                f, g = both[:rows], both[rows:]
            xs, ys = knots, np.minimum(f, g)
    return xs, ys, counts


def piecewise_min(funcs: Sequence[PiecewiseLinear]) -> PiecewiseLinear:
    """Pointwise minimum of piecewise-linear functions on a shared domain:
    the one-row case of _lower_envelopes."""
    if not funcs:
        raise ValueError("need at least one function")
    xs, ys, counts = _lower_envelopes([(f.xs, f.ys[None]) for f in funcs])
    return PiecewiseLinear(xs[0, : counts[0]], ys[0, : counts[0]])


def _log_e1m(d: np.ndarray) -> np.ndarray:
    """log((exp(d) - 1) / d) elementwise, stable for any real d (0 -> 0)."""
    d = np.asarray(d, dtype=float)
    ad = np.abs(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ad = np.log(ad)
        out = np.where(d > 700, d - log_ad, np.log(np.abs(np.expm1(d))) - log_ad)
    return np.where(ad < 1e-9, d / 2.0, out)


def _piece_tables(xs: np.ndarray, ys: np.ndarray):
    """Closed-form tables of the laws proportional to exp(ys) on the knots
    xs, along the last axis of [..., K] arrays: the log normalizer [...],
    and per piece its height at the left knot h0 and slope beta [..., K-1],
    scaled so the piece masses sum to one, and the cumulative masses cum
    [..., K]."""
    top = ys.max(axis=-1, keepdims=True)
    h = ys - top  # work in a shifted scale where exp() never overflows
    w = xs[..., 1:] - xs[..., :-1]
    d = h[..., 1:] - h[..., :-1]
    log_pieces = h[..., :-1] + np.log(w) + _log_e1m(d)
    log_total = logsumexp(log_pieces)[..., None]
    cum = np.zeros(xs.shape)
    np.add.accumulate(np.exp(log_pieces - log_total), axis=-1, out=cum[..., 1:])
    cum[..., -1] = 1.0
    return (log_total + top)[..., 0], h[..., :-1] - log_total, d / w, cum


def _piece_quantiles(xs, h0, beta, cum, u, rows=None) -> np.ndarray:
    """Inverse CDF of laws with knots xs and _piece_tables' h0, beta, cum.
    One law ([K] tables): at every probability in u, of any shape.  A stack
    ([B, K] tables): at each u[j] of a 1-d u, under the law rows[j]."""
    u = np.minimum(np.maximum(u, 0.0), 1.0)
    if rows is None:
        idx = np.searchsorted(cum, u, side="right") - 1
    else:
        # the count of cumulative masses <= u: the same piece for u < 1, since
        # only the last of them (set to 1) may fall below the one before it
        idx = (cum[rows] <= u[:, None]).sum(axis=-1) - 1
    idx = np.minimum(np.maximum(idx, 0), h0.shape[-1] - 1)
    piece, right = (idx, idx + 1) if rows is None else ((rows, idx), (rows, idx + 1))
    tau = u - cum[piece]  # remaining mass inside the piece
    h0 = h0[piece]
    beta = beta[piece]
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
    left = xs[piece]
    return left + np.minimum(np.maximum(t, 0.0), xs[right] - left)


class PiecewiseExpDensity:
    """Probability density on [shape.xs[0], shape.xs[-1]] proportional to
    exp(shape(q)).

    The normalizer, CDF and inverse CDF come from the closed-form integral
    of exp over each linear piece; no quadrature or rejection anywhere.  The
    tables and the inverse CDF are _piece_tables and _piece_quantiles, which
    also serve stacks of laws with equal knot counts
    (truncated_laplace_quantiles).
    """

    def __init__(self, shape: PiecewiseLinear) -> None:
        self.shape = shape
        log_normalizer, self._h0, self._beta, self._cum = _piece_tables(shape.xs, shape.ys)
        self.log_normalizer = float(log_normalizer)

    @classmethod
    def _read_only_stack(cls, xs: np.ndarray, ys: np.ndarray) -> list["PiecewiseExpDensity"]:
        """The laws exp(ys[r]) on the knots xs[r] of [B, K] float arrays, bit
        for bit those __init__ builds on each row, from one _piece_tables
        call.  Every row's knots are checked, as PiecewiseLinear checks one
        row's, by one test over the stack.  The laws keep views of xs, ys and
        the tables, all made read-only."""
        if xs.ndim != 2 or xs.shape != ys.shape or xs.shape[1] < 2:
            raise ValueError("need matching [B, K] knot arrays with K >= 2")
        if not (xs[:, 1:] > xs[:, :-1]).all():
            raise ValueError("knots must be strictly increasing")
        tables = _piece_tables(xs, ys)
        laws = []
        for a in (xs, ys, *tables[1:]):
            a.flags.writeable = False
        for r, log_normalizer in enumerate(tables[0].tolist()):
            law = cls.__new__(cls)
            law.shape = PiecewiseLinear.__new__(PiecewiseLinear)
            law.shape.xs, law.shape.ys = xs[r], ys[r]
            law.log_normalizer = log_normalizer
            law._h0, law._beta, law._cum = (a[r] for a in tables[1:])
            laws.append(law)
        return laws

    def log_pdf(self, q):
        return self.shape(q) - self.log_normalizer

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
        x = _piece_quantiles(self.shape.xs, self._h0, self._beta, self._cum, u)
        return float(x) if u.ndim == 0 else x

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


def _read_only_laws(
    xs: np.ndarray, ys: np.ndarray, counts: np.ndarray
) -> list[PiecewiseExpDensity]:
    """The laws exp(ys[r]) on the knots xs[r] of [R, W] arrays, each row's
    first counts[r] entries, from one PiecewiseExpDensity._read_only_stack
    call per knot count, so read-only."""
    widths = sorted(set(counts.tolist()))
    if len(widths) == 1:  # one knot count: the stack is every row, in order
        k = widths[0]
        return PiecewiseExpDensity._read_only_stack(xs[:, :k].copy(), ys[:, :k].copy())
    laws = [None] * len(counts)
    for k in widths:
        group = np.flatnonzero(counts == k)
        stack = PiecewiseExpDensity._read_only_stack(xs[group, :k], ys[group, :k])
        for r, law in zip(group.tolist(), stack):
            laws[r] = law
    return laws


def _truncated_laplace_knots(centres, epsilon: float, C: float, rho: float, n: int):
    """Knots xs and log shape ys, each [B, 5], and knot counts [B] of
    truncated_laplace_density at each of the B centres, each row's knots
    first and +inf past them.  A law's knots are {0, 1, c, c - r, c + r}
    intersected with [0, 1]: the distinct entries of the sorted row
    clip([0, c - r, c, c + r, 1], 0, 1), first copies kept.  Centres
    outside [0, 1] raise ValueError."""
    centres = np.asarray(centres, dtype=float)
    if not ((centres >= 0.0) & (centres <= 1.0)).all():
        raise ValueError("centres must lie in [0, 1]")
    eps = _check_epsilon(epsilon)
    if not C > 48:
        raise ValueError(f"C must exceed 48, got {C}")
    if n < 3:
        raise ValueError("n must be at least 3 (log n degenerate below)")
    rate = truncation_rate(n, rho)
    radius = n / rate
    coef = eps / (16.0 * C)  # (eps/2) * 1/(8C)
    c = centres[:, None]
    # xs = row[:, 1:] are the sorted candidates and row[:, :-1] the one before
    # each, so an exact duplicate equals its predecessor; the leading NaN
    # equals nothing, which keeps the knot 0
    row = np.minimum(
        np.maximum(c + np.array([np.nan, -np.inf, -radius, 0.0, radius, np.inf]), 0.0), 1.0
    )
    keep = row[:, 1:] != row[:, :-1]
    xs = np.sort(np.where(keep, row[:, 1:], np.inf), axis=1)  # the kept knots, then +inf
    ys = -coef * np.minimum(rate * np.abs(xs - c), float(n))
    return xs, ys, keep.sum(axis=1)


def truncated_laplace_laws(
    centres, epsilon: float, C: float, rho: float, n: int
) -> list[PiecewiseExpDensity]:
    """truncated_laplace_density at each of the given centres, read-only: one
    table build over the laws of each knot count."""
    return _read_only_laws(*_truncated_laplace_knots(centres, epsilon, C, rho, n))


def truncated_laplace_density(
    center: float, epsilon: float, C: float, rho: float, n: int
) -> PiecewiseExpDensity:
    """Density on [0,1] proportional to
    exp(-(eps/2) * (1/(8C)) * min(r_n * |center - q|, n)), read-only: the
    one-centre case of truncated_laplace_laws.

    The clipped penalty keeps the worst-case log ratio between two centers
    bounded by the same clipped function of their distance, which is what
    calibrates this mechanism to vertex-rewiring distance on homogeneous
    graphs.
    """
    if not 0.0 <= center <= 1.0:
        raise ValueError("center must lie in [0, 1]")
    return truncated_laplace_laws([center], epsilon, C, rho, n)[0]


def truncated_laplace_quantiles(
    centres, laws, u, epsilon: float, C: float, rho: float, n: int
) -> np.ndarray:
    """truncated_laplace_density(centres[laws[j]], ...).inverse_cdf(u[j]) for
    every draw j, bit for bit when u lies in [0, 1): one table build over
    the laws of each knot count and one inverse-CDF pass over their draws.
    centres are the distinct centres, and laws and u are arrays with one
    entry per draw."""
    xs, ys, knots = _truncated_laplace_knots(centres, epsilon, C, rho, n)
    out = np.empty(len(laws))
    for k in sorted(set(knots.tolist())):
        group = knots == k
        gx, gy = xs[group, :k], ys[group, :k]
        _, h0, beta, cum = _piece_tables(gx, gy)
        draws = np.flatnonzero(group[laws])
        if len(gx) == 1:  # one law: the one-law lookup is the cheaper one
            out[draws] = _piece_quantiles(gx[0], h0[0], beta[0], cum[0], u[draws])
        else:
            rows = np.searchsorted(np.flatnonzero(group), laws[draws])
            out[draws] = _piece_quantiles(gx, h0, beta, cum, u[draws], rows)
    return out


def unit_laplace_density(center: float, scale: float) -> PiecewiseExpDensity:
    """Laplace(center, scale) restricted to [0,1] and renormalized."""
    if not 0.0 <= center <= 1.0:
        raise ValueError("center must lie in [0, 1]")
    if not scale > 0:
        raise ValueError("scale must be positive")
    knots = np.array(sorted({0.0, 1.0, float(center)}))
    return PiecewiseExpDensity(PiecewiseLinear(knots, -np.abs(knots - center) / scale))


# -- generic extension and audits --------------------------------------------------


def extend_mechanism(
    bases: Sequence[PiecewiseExpDensity], distances, epsilon: float
) -> Callable[[int], PiecewiseExpDensity]:
    """Extend an epsilon-DP-on-H mechanism to the whole space at 2*epsilon.

    The extended density at input D is proportional to
        inf over D' in H of exp(epsilon * d(D, D')) * f_{D'},
    renormalized.  On H the infimum is attained at D' = D (that is exactly
    the DP inequality for the base), so the extension reproduces the base
    there; everywhere it satisfies the 2*epsilon ratio bound.

    The H points come in groups that share one base law: bases[j] is the
    law of group j, and distances[x, j] (integers, [inputs, groups]) is the
    distance from input x to the nearest member of group j.  Since
    min_j (f + eps d_j) = f + eps min_j d_j, and floating-point addition is
    monotone, each law enters the envelope once, shifted by that distance.

    Inputs with equal distance rows have the same law, so the extension is
    a table of laws, one per distinct row, built here: one _lower_envelopes
    fold over the groups for all rows at once, bit for bit piecewise_min of
    each row's shifted shapes, and one table build per knot count.  The
    returned function looks an input's law up and returns that object,
    read-only, for every input with its row; the table belongs to this one
    extension.  The 1,024 inputs of the n = 5 density extension share 22
    laws over its 6 groups, built together in about 1.7 ms on one core of
    a 2-core Xeon; a single input's law, from its row alone, in about
    0.5 ms.
    """
    eps = _check_epsilon(epsilon)
    distances = np.asarray(distances)
    if distances.ndim != 2 or distances.shape[1] != len(bases):
        raise ValueError("distances must be [inputs, groups], one column per base law")
    if not len(bases):
        raise ValueError("hypothesis set H is empty")
    # the distinct rows, from one lexicographic sort; row_of[x] is x's
    order = np.lexsort(distances.T)
    ranked = distances[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    row_of = np.empty(len(order), dtype=np.intp)
    row_of[order] = np.cumsum(first) - 1
    shifts = eps * ranked[first]
    xs, ys, counts = _lower_envelopes(
        [(b.shape.xs, b.shape.ys - b.log_normalizer + shifts[:, [j]]) for j, b in enumerate(bases)]
    )
    laws = _read_only_laws(xs, ys, counts)
    return lambda x: laws[row_of[x]]


# Bytes an audit's float64 table of log densities, log pmfs or scores may
# take, a row per law it holds: 256 MiB, about 650 times the 51 x 1,000
# table of the n = 6 extension audit on the command line's default grid.
AUDIT_TABLE_BYTES = 256 * 2**20


def check_table_size(rows: int, columns: int, what: str) -> None:
    """Refuse a [rows, columns] float64 table over AUDIT_TABLE_BYTES; what
    names the columns in the message."""
    size = 8 * rows * columns
    if size > AUDIT_TABLE_BYTES:
        raise ResourceLimitError(
            f"{rows} rows x {columns} {what} take a {size}-byte table, over the "
            f"cap of {AUDIT_TABLE_BYTES} bytes"
        )


def fill_table(rows: Iterable, count: int, what: str) -> np.ndarray:
    """The [R, T] float64 table of the given rows, at most count of them.
    The first row fixes T, and a [count, T] table is refused by
    check_table_size before it is allocated; a row of another length raises
    ValueError."""
    table = None
    r = -1
    for r, row in enumerate(rows):
        row = np.asarray(row, dtype=float)
        if table is None:
            check_table_size(count, row.size, what)
            table = np.empty((count, row.size))
        elif row.shape != table.shape[1:]:
            raise ValueError("candidate lists differ across inputs")
        table[r] = row
    return table[: r + 1]


# Bytes one chunk of max_violation's pair codes or [pairs, T] gaps may take,
# so that its memory stays bounded whatever the pair and column counts are.
_AUDIT_CHUNK_BYTES = 16 * 2**20


class LawTable(NamedTuple):
    """The output laws of an audit's inputs: rows [R, T], log densities on a
    grid or log pmfs over candidates, and law_of [inputs], the row of each
    input.  The producer names the laws: inputs share a law exactly when
    they share a row, and max_violation never reads the rows to merge them."""

    rows: np.ndarray
    law_of: np.ndarray


class Violation(NamedTuple):
    worst: float  # largest gap over compared pairs and columns; -inf if none
    pairs: int  # ordered pairs compared
    witness: tuple[int, int, int] | None  # (i, j, t) of the first largest gap
    # per compared pair in the given order, on request:
    # (i, j, t, log ratio, epsilon, gap)
    rows: tuple = ()


def max_violation(table, first, second, epsilon: float, collect_rows: bool = False) -> Violation:
    """Worst privacy gap log p_i[t] - log p_j[t] - epsilon over the pairs
    (i, j) = (first[s], second[s]) of inputs and columns t, given a
    LawTable, or a [P, T] table as the shorthand for one law per row.  Each
    pair reports its first maximizing column, and the witness is the first
    maximum in pair order, then column order; a NaN gap is never a witness.
    A nonpositive worst gap (within tolerance) certifies the bound epsilon.

    A law is a row of the table, named by its index in law_of, and each
    distinct pair of laws is compared once, at its first pair, found in
    chunks of pairs by a table of all law pairs where it is no larger than
    the pair list, else by np.unique: the 66,560 rewiring pairs of the
    n = 5 Laplace audit are 77 law pairs.
    """
    if not isinstance(table, LawTable):
        table = LawTable(table, np.arange(len(table)))
    logs = np.asarray(table.rows, dtype=float)
    laws = np.asarray(table.law_of, dtype=np.intp)
    first = np.asarray(first, dtype=np.intp)
    second = np.asarray(second, dtype=np.intp)
    if first.ndim != 1 or first.shape != second.shape:
        raise ValueError("first and second must be 1-d index arrays of equal length")
    if logs.ndim != 2 or logs.shape[1] == 0:
        raise ValueError("rows must be [R, T] with T >= 1 grid points or outputs")
    if laws.ndim != 1 or ((laws < 0) | (laws >= len(logs))).any():
        raise ValueError("law_of must give each input a row of the table")
    count = len(logs)  # a law pair is one integer

    def law_pairs(lo=0, hi=None):
        """The law pair of each of the pairs lo..hi, as one integer."""
        return laws[first[lo:hi]] * count + laws[second[lo:hi]]

    # codes[u] is the u-th distinct law pair, in increasing order, and at[u]
    # its first pair
    step = max(1, _AUDIT_CHUNK_BYTES // 32)
    starts = range(0, max(first.size, 1), step)
    if count * count <= first.size:
        at = np.full(count * count, first.size, dtype=np.min_scalar_type(first.size))
        for lo in starts:
            codes = law_pairs(lo, lo + step)
            np.minimum.at(at, codes, np.arange(lo, lo + codes.size, dtype=at.dtype))
        codes = np.flatnonzero(at < first.size)
        at = at[codes].astype(np.intp)
    else:  # each chunk's distinct law pairs, then the first of each of those
        parts = [np.unique(law_pairs(lo, lo + step), return_index=True) for lo in starts]
        codes, keep = np.unique(np.concatenate([c for c, _ in parts]), return_index=True)
        at = np.concatenate([lo + i for lo, (_, i) in zip(starts, parts)])[keep]
    step = max(1, _AUDIT_CHUNK_BYTES // (8 * logs.shape[1]))
    t = np.empty(at.size, dtype=np.intp)
    pair_gap = np.empty(at.size)
    ratio = np.empty(at.size)
    for lo in range(0, at.size, step):
        part = slice(lo, lo + step)
        i, j = laws[first[at[part]]], laws[second[at[part]]]
        gaps = logs[i]
        gaps -= logs[j]
        gaps -= epsilon
        t[part] = gaps.argmax(axis=1)
        pair_gap[part] = gaps[np.arange(i.size), t[part]]
        if collect_rows:
            ratio[part] = logs[i, t[part]] - logs[j, t[part]]
    worst, witness = -math.inf, None
    ranked = np.where(np.isnan(pair_gap), -math.inf, pair_gap)
    if ranked.size:
        # of the law pairs that reach the top, the one whose first pair comes first
        tied = np.flatnonzero(ranked == ranked.max())
        u = tied[at[tied].argmin()]
        if ranked[u] > worst:
            worst, witness = float(ranked[u]), (int(first[at[u]]), int(second[at[u]]), int(t[u]))
    rows = ()
    if collect_rows and first.size:
        back = np.searchsorted(codes, law_pairs())  # each pair's place in at
        columns = (t[back], ratio[back], np.full(first.size, float(epsilon)), pair_gap[back])
        rows = tuple(zip(first.tolist(), second.tolist(), *(c.tolist() for c in columns)))
    return Violation(worst, first.size, witness, rows)
