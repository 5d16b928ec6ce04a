"""Statistical checkers for the three group-fairness axioms.

Each axiom is operationalized as an independence test on continuous
data:

* independence (statistical parity): price independent of D — a
  distance-correlation test.
* separation (equalized odds): price independent of D given Y — the
  response is sliced into N_BINS equal-probability bins, the test runs
  inside each bin, and per-bin p-values are Fisher-combined.
* sufficiency (predictive parity): Y independent of D given the price —
  the same machinery with the roles of Y and the price exchanged.

The core discretizes both variables into quantile levels and works on
the resulting contingency table: the distance covariance of the
discretized pair is <N, A~ N B~> for fixed centered level-distance
matrices, at O(levels^3) per table instead of O(n^2).  Every table takes
the same deterministic null: under independence (n - 1) dCov^2 of the
table tends to Q = sum_kl lambda_k mu_l Z_kl^2 (Szekely, Rizzo & Bakirov
2007), with lambda and mu the eigenvalues of diag(sqrt p) A~ diag(sqrt p)
for each side's level probabilities p.  This law, and everything its
tail needs, depends on the two sides' level counts alone, so it is built
once per pair of level counts (_spectral_law): the untied bins of a
check, all of one size, share one.  Its upper tail comes from

* the exact chi-square tail with one degree of freedom, for one weight;
* in the bulk, Imhof's (1961) inversion of the characteristic function
  summed on a fixed midpoint grid whose step and length follow from
  stated error bounds (Davies 1980, AS 155), or, where that grid would
  be long and the weights are few, Ruben's (1962) chi-square series;
* the Lugannani-Rice saddlepoint approximation (Kuonen 1999) where the
  bulk puts p below 1e-3 or q lies past the grid's aliasing range, kept
  in log space so that no p-value underflows before Fisher's
  combination.

Nothing is drawn: no p-value depends on a test seed or a permutation
count, and the tail runs on numpy and math alone, as do Fisher's
combination (the closed-form chi-square tail for even df), Mills' ratio
and the saddlepoint's root, so no check loads a scipy module.

Each full-length column is sorted once: normal_scores reads the copula
ranks, the normal scores and the level ids of both checkers off one
order, and the checkers take a scored column's ids instead of sorting
it again.  Quantile edges are read off the sorted column by index.

Within conditioning bins, both tested variables are linearly detrended
on the conditioning variable (all three on the normal-scores scale), to
remove the spurious dependence that finite-width bins otherwise leak in
the tails of the conditioning variable.  Per-bin log p-values feed
Fisher's combination, which keeps its chi-square reference because
each p-value is continuous.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, EmptyBin, LengthMismatch, NonFiniteInput,
                     TooFewSamples)
from .streams import check_seed, normal_ppf

POWER_GUARD_N = 100_000  # HOLDS requires at least this many observations

MIN_BIN_COUNT = 30
N_LEVELS = 64  # quantile levels per variable; conditional bins use half
N_BINS = 20  # equal-probability bins of the conditioning variable

# the ceiling a sampled null once had (2^30 bytes of 64 x 64 tables);
# n_permutations keeps it as its valid range, see TestConfig
MAX_PERMUTATIONS = 32768


def __getattr__(name):
    """scipy.stats, imported on first use as the attribute sps.  No
    checker reads it; the benchmark's tracer (perfbench/spans.py) wraps
    it and reads rankdata from it, so the name stays until the tracer
    drops it."""
    if name == "sps":
        from scipy import stats
        globals()["sps"] = stats
        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"

INDEPENDENCE = "independence"
SEPARATION = "separation"
SUFFICIENCY = "sufficiency"
AXIOM_KINDS = (INDEPENDENCE, SEPARATION, SUFFICIENCY)


@dataclass(frozen=True)
class Axiom:
    kind: str

    def __post_init__(self):
        if self.kind not in AXIOM_KINDS:
            raise ValueError(f"unknown axiom kind {self.kind!r}")


@dataclass(frozen=True)
class TestConfig:
    """Knobs for the statistical checkers.

    alpha is the level of every check.  n_permutations and seed act on
    no p-value: every table takes the spectral law, which draws
    nothing.  They are still validated and recorded in each verdict
    and report, because existing configs, command lines and the
    benchmark pass them; they go when those callers stop.  The
    resolution of the tests (N_LEVELS, N_BINS) is fixed.
    """

    alpha: float = 0.01
    n_permutations: int = 999
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if not 99 <= self.n_permutations <= MAX_PERMUTATIONS:
            raise ConfigError(f"n_permutations must be in [99, {MAX_PERMUTATIONS}], "
                              f"got {self.n_permutations}")
        # a frozen field: a numpy seed is stored as the int a report can hold
        object.__setattr__(self, "seed", check_seed(self.seed, "test seed"))


@dataclass(frozen=True)
class FairnessVerdict:
    """Per-axiom outcome; exactly one of p_value / analytic_criterion
    drives the verdict, recorded in `source`."""

    axiom: Axiom
    statistic: float
    p_value: Optional[float]
    analytic_criterion: Optional[float]
    verdict: str
    alpha: float
    n_used: int
    seed: int
    source: str = "statistical"

    def to_dict(self) -> dict:
        """The fields in declaration order, the axiom as its kind."""
        return {**asdict(self), "axiom": self.axiom.kind}

    @classmethod
    def from_dict(cls, raw: dict) -> FairnessVerdict:
        """Inverse of to_dict."""
        return cls(**{**raw, "axiom": Axiom(raw["axiom"])})


def _verdict_from_p(p: float, alpha: float, n_used: int) -> str:
    if p < alpha:
        return VIOLATED
    return HOLDS if n_used >= POWER_GUARD_N else INCONCLUSIVE


def _independence_levels(n: int) -> int:
    """Quantile levels per variable of check_independence at n points."""
    return max(4, min(N_LEVELS, n // 16))


def _as_columns(*cols):
    arrays = [np.asarray(c, dtype=np.float64).ravel() for c in cols]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise LengthMismatch("input vectors have unequal lengths")
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteInput("input vectors hold NaN or infinite values")
    return arrays


# ---------------------------------------------------------------------------
# one sort per column: ranks, normal scores and quantile level ids
# ---------------------------------------------------------------------------

def _sorted_ranks(xs: np.ndarray) -> np.ndarray:
    """Average ranks of the sorted column xs.

    Each block of equal values gets the mean of the positions it covers,
    (start + 1) + (count - 1) / 2, an exact half-integer, so the ranks
    divided by n + 1 equal scipy's rankdata(x) / (n + 1) byte for byte.
    """
    n = xs.shape[0]
    new_block = xs[1:] != xs[:-1]
    if new_block.all():
        return np.arange(1.0, n + 1.0)
    starts = np.flatnonzero(np.concatenate(([True], new_block)))
    counts = np.diff(starts, append=n)
    return np.repeat((starts + 1.0) + (counts - 1.0) / 2.0, counts)


def _quantile_positions(n: int, probs: np.ndarray):
    """Where np.quantile's default "linear" method reads probs off n
    sorted values: the order statistics at floor((n - 1) p) and the
    next index, the fraction gamma between them, 1 - gamma, and which
    side numpy's _lerp interpolates from."""
    vi = (n - 1) * probs
    lo = np.floor(vi)
    gamma = vi - lo
    lo = lo.astype(np.intp)
    return lo, np.minimum(lo + 1, n - 1), gamma, 1.0 - gamma, gamma >= 0.5


@functools.lru_cache(maxsize=256)
def _level_positions(n: int, n_levels: int):
    """_quantile_positions of the n_levels - 1 inner level edges, kept
    per (n, n_levels): the bins of one check mostly share both."""
    positions = _quantile_positions(n, np.linspace(0.0, 1.0, n_levels + 1)[1:-1])
    for a in positions:
        a.flags.writeable = False
    return positions


def _read_quantiles(xs: np.ndarray, positions) -> np.ndarray:
    """The quantiles of the sorted column xs at _quantile_positions.

    numpy's linear method partitions its input to find the two order
    statistics; in a sorted column they already sit there.  The
    two-sided interpolation is numpy's own (_lerp), so the result is
    the same bytes without the partition.
    """
    lo, hi, gamma, one_minus_gamma, upper = positions
    below, above = xs[lo], xs[hi]
    diff = above - below
    out = below + diff * gamma
    np.subtract(above, diff * one_minus_gamma, out=out, where=upper)
    return out


def _level_counts(xs: np.ndarray, n_levels: int) -> np.ndarray:
    """Number of values of the sorted column xs at each quantile level.

    A value's level is its count of distinct quantile edges at or below
    it, so each level is the run of xs cut where the edges fall.  The
    edges of a sorted column do not decrease, so equal ones are
    neighbours.
    """
    n = xs.shape[0]
    edges = _read_quantiles(xs, _level_positions(n, n_levels))
    distinct = np.ones(edges.shape[0], dtype=bool)
    np.not_equal(edges[1:], edges[:-1], out=distinct[1:])
    cuts = np.searchsorted(xs, edges[distinct], side="left")
    bounds = np.concatenate(([0], cuts, [n]))
    return bounds[1:] - bounds[:-1]


def _level_ids(order: np.ndarray, counts: np.ndarray):
    """(ids, counts): the level id of each value in the column's own
    order, in the smallest unsigned type that holds them, from the
    column's sorting order and its level counts."""
    k = counts.shape[0]
    ids = np.empty(order.shape[0], dtype=np.min_scalar_type(k - 1))
    ids[order] = np.repeat(np.arange(k, dtype=ids.dtype), counts)
    return ids, counts


def _quantile_level_ids(x: np.ndarray, n_levels: int):
    """(ids, counts) of x at n_levels quantile levels, from one sort.

    numpy's default sort is not stable and its kernel depends on the
    CPU, but it only reorders equal values, which share an id: the ids
    are the same on every CPU.
    """
    order = np.argsort(x)
    return _level_ids(order, _level_counts(x[order], n_levels))


class NormalScores(np.ndarray):
    """A column already mapped to the normal scores of its copula ranks,
    read-only, with the level ids of both checkers cut from the same
    sort of the column.

    ``levels`` is the (ids, counts) pair of check_independence's level
    count, cut on the raw values; ``bins`` is the (ids, counts) pair of
    the N_BINS conditioning bins, cut on the scores.  The checkers take
    such a column, and these pairs, as they are instead of sorting the
    column again, so an audit sorts each column once.  Views and copies
    carry None for both pairs, and the checkers then cut again.
    """

    levels = None
    bins = None


def normal_scores(x) -> NormalScores:
    """normal_ppf of the copula ranks of x, marked as scored and carrying
    the level ids of both checkers, all from one sort of x.

    The independence ids are cut on the sorted raw values, as
    check_independence cuts a raw column, so they equal what it would
    compute from x.  The bin ids are cut on the sorted scores, which are
    normal_ppf of the sorted ranks: ranks are multiples of 1 / (2 (n + 1))
    and normal_ppf rises by far more between two of them than its
    rounding can take back, so the sorted scores are the scores in
    sorted order, and the cut equals the one _conditional_check makes
    on the scored column.  The scores are read-only, so the ids cannot
    go stale.
    """
    (x,) = _as_columns(x)
    n = x.shape[0]
    order = np.argsort(x)
    xs = x[order]
    levels = _level_counts(xs, _independence_levels(n))
    ranks = _sorted_ranks(xs)
    del xs
    ranks /= n + 1.0
    sorted_scores = normal_ppf(ranks)
    del ranks
    scores = np.empty(n).view(NormalScores)
    scores[order] = sorted_scores
    scores.levels = _level_ids(order, levels)
    scores.bins = _level_ids(order, _level_counts(sorted_scores, N_BINS))
    scores.flags.writeable = False
    return scores


# ---------------------------------------------------------------------------
# discretized distance correlation and its spectral null
# ---------------------------------------------------------------------------

def _level_side(counts: np.ndarray, n: int):
    """(level probabilities, centered level distances, distance
    variance) of one variable, from its level counts.

    Level positions are copula midranks, so everything depends on the
    order of the values only.
    """
    probs = counts / n
    values = np.cumsum(probs) - probs / 2.0
    Dt = _centered_level_distances(values, probs)
    return probs, Dt, float(probs @ (Dt * Dt) @ probs)


def _centered_level_distances(values, probs):
    D = np.abs(values[:, None] - values[None, :])
    r = D @ probs
    return D - r[:, None] - r[None, :] + probs @ D @ probs


def _table_dcov(N, At, Bt, n):
    return float(np.vdot(N, At @ N @ Bt)) / n**2


def _dcor_from_parts(dcov2, dvar_a, dvar_b) -> float:
    if dvar_a <= 0.0 or dvar_b <= 0.0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / math.sqrt(dvar_a * dvar_b))


def _null_weights(pa, At, pb, Bt) -> np.ndarray:
    """The positive weights lambda_k mu_l of the limiting null law.

    Both scaled matrices are negative semidefinite (|x - y| is a
    conditionally negative definite kernel), so every product of two
    negative eigenvalues is a positive weight.  eigvalsh leaves each
    eigenvalue within O(eps x levels x max |eigenvalue|) of the exact
    one, so products below eps x (levels_a + levels_b) times the
    largest weight are rounding of a zero eigenvalue (the centering's,
    or an empty level's) and are dropped.
    """
    sa, sb = np.sqrt(pa), np.sqrt(pb)
    lam = np.linalg.eigvalsh(sa[:, None] * At * sa[None, :])
    mu = np.linalg.eigvalsh(sb[:, None] * Bt * sb[None, :])
    w = np.outer(lam[lam < 0.0], mu[mu < 0.0]).ravel()
    return w[w > np.finfo(float).eps * (pa.shape[0] + pb.shape[0]) * np.max(w)]


# every bound on the error of the bulk tail (the grid's aliasing and
# truncation, Ruben's remainder) is held to this absolute error in p
_TAIL_EPS = 1e-9

# the saddlepoint tail is off by up to ~5% of p (relative) in the bulk,
# so it gives way there to the grid or Ruben's series, within a few
# _TAIL_EPS of the exact tail; below this bound their absolute error
# would be a large part of p, while the saddlepoint keeps its relative
# accuracy
_BULK_MIN_P = 1e-3

# no grid of more nodes, and no series of more terms, than this is
# built: laws of a few weights spread over orders of magnitude need more
# of both, and the saddlepoint decides their whole tail
_BULK_MAX_TERMS = 4096

# grid weights w with w u <= this at the last node u are summed as
# power series of _FOLD_TERMS terms, whose remainders are below
# 0.5^(2 _FOLD_TERMS) relative
_FOLD_MAX_WU = 0.5
_FOLD_TERMS = 12

# below this |w|, the saddlepoint formula loses digits to cancellation
# and the one-term Edgeworth expansion at the mean takes over
_SADDLEPOINT_CENTRAL = 1e-3

_SQRT_2PI = np.sqrt(2 * np.pi)


class _MixtureTail:
    """The upper tail of Q = sum_j w_j Z_j^2 for iid standard normal Z_j
    and weights w_j > 0, with what its bulk needs built once.

    The law is scale-free, so the weights are kept over their mean.
    One weight is the chi-square law with one df.  Otherwise a bulk
    P(Q > q) within a few _TAIL_EPS is built for q below x_hi, past
    which P(Q > q) <= _TAIL_EPS (_bulk_tail); the saddlepoint takes the
    rest of the tail.
    """

    def __init__(self, w: np.ndarray):
        self.mean = float(np.sum(w))
        self.weights = w / self.mean if w.size else w
        self.x_hi, self._bulk_sf = (_bulk_tail(self.weights) if w.size > 1
                                    else (0.0, None))

    def log_sf(self, q: float) -> float:
        """log P(Q > q)."""
        w = self.weights
        if w.size == 0 or q <= 0.0:
            return 0.0
        q = q / self.mean
        if w.size == 1:
            # chi-square with one df: P(Z^2 > q) = 2 phi(z) M(z) at z = sqrt(q)
            return min(math.log(2.0) - 0.5 * q - 0.5 * math.log(2.0 * math.pi)
                       + math.log(_mills_ratio(math.sqrt(q))), 0.0)
        if q < self.x_hi:
            p = self._bulk_sf(q)
            if p >= _BULK_MIN_P:
                return math.log(min(p, 1.0))
        return _saddlepoint_log_sf(q, w)


def _bulk_tail(w: np.ndarray):
    """(x_hi, sf): P(Q > x_hi) <= _TAIL_EPS, and sf(q), P(Q > q) for
    q < x_hi within a few _TAIL_EPS, Q the mixture of the weights w
    (mean 1, at least two).

    sf sums Imhof's integrand on a midpoint grid (_imhof_grid) or
    Ruben's chi-square series (_ruben_series), whichever its error bound
    says takes less work to build: nodes times weights evaluated at each
    node, or the series' quadratic recurrence.  Many weights make the
    integrand decay fast and the grid short; few weights of similar size
    make the series short.  Where neither fits in _BULK_MAX_TERMS, sf is
    None and x_hi is 0.
    """
    x_hi = _chernoff_upper(w)
    h = 2.0 * math.pi / x_hi
    nodes = math.ceil(_last_node(w) / h + 0.5)
    beta, terms = _ruben_terms(w)
    grid_work = ruben_work = math.inf
    if nodes <= _BULK_MAX_TERMS:
        explicit = int(np.sum(w > _FOLD_MAX_WU / ((nodes - 0.5) * h)))
        grid_work = nodes * (explicit + _FOLD_TERMS)
    if terms <= _BULK_MAX_TERMS:
        ruben_work = terms * (terms // 2 + w.size)
    if grid_work == ruben_work == math.inf:
        return 0.0, None
    if grid_work <= ruben_work:
        return x_hi, functools.partial(_grid_sf, *_imhof_grid(w, h, nodes))
    return x_hi, functools.partial(_ruben_sf, *_ruben_series(w, beta, terms))


def _chernoff_upper(w: np.ndarray) -> float:
    """An x_hi with P(Q > x_hi) <= _TAIL_EPS, Q the mean-1 mixture.

    With K(t) = -sum log(1 - 2 t w) / 2, Chernoff's bound
    P(Q > K'(t)) <= exp(f(t)), f(t) = K(t) - t K'(t), holds at every t
    in (0, 1 / (2 w_max)).  f falls from 0 there, f' = -t K'', and is
    concave, so Newton's method on f(t) = log _TAIL_EPS, started right
    of the root, stays right of it, every step a valid bound, and falls
    monotonically into it.
    """
    target = math.log(_TAIL_EPS)
    t_pole = 0.5 / float(np.max(w))

    def chernoff(t):
        r = w / (1.0 - 2.0 * t * w)
        return -0.5 * float(np.sum(np.log1p(-2.0 * t * w))) - t * float(np.sum(r)), r

    t = 0.5 * t_pole
    f, r = chernoff(t)
    while f > target:
        t = 0.5 * (t + t_pole)
        f, r = chernoff(t)
    for _ in range(_ROOT_MAX_ITER):
        step = (f - target) / (2.0 * t * float(np.sum(r * r)))
        if -step <= 1e-3 * t:
            break
        t += step
        f, r = chernoff(t)
    return float(np.sum(r))


def _last_node(w: np.ndarray) -> float:
    """The least u, to 1%, past which Imhof's integrand adds at most
    _TAIL_EPS to P(Q > q), for every q.

    The integrand is sin(theta(u)) / (pi u rho(u)) with
    log rho(u) = sum log(1 + w^2 u^2) / 4, which is convex in log u with
    slope c(u) / 2, c(u) = sum w^2 u^2 / (1 + w^2 u^2).  Past U,
    rho(u) >= rho(U) (u / U)^(c(U) / 2), so the integral of
    1 / (pi u rho(u)) beyond U is at most 2 / (pi c(U) rho(U)).  That
    integrand decreases, so the same bound holds for the midpoint nodes
    past a last node at U.
    """
    target = math.log(_TAIL_EPS)

    def log_bound(u):
        x2 = (w * u) ** 2
        return (math.log(2.0 / math.pi) - math.log(float(np.sum(x2 / (1.0 + x2))))
                - 0.25 * float(np.sum(np.log1p(x2))))

    hi = 1.0
    while log_bound(hi) > target:
        hi *= 2.0
    lo = 0.5 * hi
    while hi > 1.01 * lo:
        mid = math.sqrt(lo * hi)
        if log_bound(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _imhof_grid(w: np.ndarray, h: float, nodes: int):
    """(u, half-angle, envelope) of Imhof's integrand on the midpoint
    nodes u_k = (k + 1/2) h: sum arctan(w u) / 2 and h / (pi u rho(u)).

    Davies (1980, AS 155): the midpoint sum at step h = 2 pi / x_hi
    differs from P(Q > q), q < x_hi, by at most P(Q > q + x_hi), which
    _chernoff_upper holds below _TAIL_EPS; _last_node bounds the nodes
    left out.  Weights w with w u <= _FOLD_MAX_WU at every node enter
    through their power sums, in _FOLD_TERMS terms of the series of
    arctan(x) and log(1 + x^2): the exact characteristic function up to
    the series' remainder.
    """
    u = (np.arange(nodes) + 0.5) * h
    explicit = w > _FOLD_MAX_WU / u[-1]
    x = np.multiply.outer(u, w[explicit])
    half_angle = 0.5 * np.sum(np.arctan(x), axis=1)
    log_rho = 0.25 * np.sum(np.log1p(x * x), axis=1)
    small = w[~explicit]
    if small.size:
        # sums[k - 1] = sum small^k
        sums = np.sum(np.cumprod(np.broadcast_to(small, (2 * _FOLD_TERMS, small.size)),
                                 axis=0), axis=1)
        j = np.arange(_FOLD_TERMS)
        sign = np.where(j % 2 == 0, 1.0, -1.0)
        # arctan(x) = sum_j (-1)^j x^(2j+1) / (2j+1),
        # log(1 + x^2) = sum_j (-1)^j x^(2j+2) / (j+1), by Horner in u^2
        u2 = u * u
        odd = np.zeros(nodes)
        even = np.zeros(nodes)
        for c_odd, c_even in zip((sign * sums[0::2] / (2 * j + 1))[::-1],
                                 (sign * sums[1::2] / (j + 1))[::-1]):
            odd = odd * u2 + c_odd
            even = even * u2 + c_even
        half_angle += 0.5 * u * odd
        log_rho += 0.25 * u2 * even
    envelope = h / (math.pi * u) * np.exp(-log_rho)
    for a in (u, half_angle, envelope):
        a.flags.writeable = False
    return u, half_angle, envelope


def _grid_sf(u, half_angle, envelope, q: float) -> float:
    """P(Q > q) = 1/2 + sum_k sin(theta_k - q u_k / 2) envelope_k, with
    elementwise products summed by numpy's pairwise sum, not a BLAS dot
    product."""
    return 0.5 + float(np.sum(np.sin(half_angle - (0.5 * q) * u) * envelope))


def _ruben_terms(w: np.ndarray):
    """(beta, K): the scale of Ruben's series and its number of terms.

    Ruben (1962): P(Q > q) = sum_k a_k P(chi2_{m+2k} > q / beta) for the
    m weights, where the a_k are the coefficients of
    G(s) = a_0 prod_j (1 - c_j s)^(-1/2), c_j = 1 - beta / w_j,
    a_0 = prod_j sqrt(beta / w_j).  beta = 2 / (1/w_min + 1/w_max) makes
    max |c_j| smallest.  The a_k may take either sign, but |a_k| is at
    most the k-th coefficient of B(s) = a_0 prod_j (1 - |c_j| s)^(-1/2),
    all nonnegative, so the terms from K on add at most B(s) s^(-K), for
    every s in [1, 1 / max |c_j|).  K is the least count that this bound,
    taken over a fixed set of s, holds below _TAIL_EPS.
    """
    beta = 2.0 / (1.0 / float(np.min(w)) + 1.0 / float(np.max(w)))
    c = np.abs(1.0 - beta / w)
    delta = float(np.max(c))
    if delta == 0.0:
        # equal weights: the law is beta times chi-square with m df
        return beta, 1
    # each factor of B(s) is at least 1 for s >= 1, so the bound is above
    # delta^K: spread weights need more terms than any series is given,
    # and the search over s is skipped
    least = math.ceil(math.log(_TAIL_EPS) / math.log(delta))
    if least > _BULK_MAX_TERMS:
        return beta, least
    log_a0 = 0.5 * float(np.sum(np.log(beta / w)))
    s = 1.0 + (1.0 / delta - 1.0) * (1.0 - np.exp2(-0.25 * np.arange(1.0, 81.0)))
    log_b = log_a0 - 0.5 * np.sum(np.log1p(-np.multiply.outer(s, c)), axis=1)
    terms = np.ceil((log_b - math.log(_TAIL_EPS)) / np.log(s))
    return beta, max(1, int(np.min(terms)))


def _ruben_series(w: np.ndarray, beta: float, terms: int):
    """(beta, m, a, log_gammas): the coefficients a_0..a_{terms-1} of
    Ruben's series, by the recurrence a_k = sum_{r<k} g_{k-r} a_r / (2k)
    with g_r = sum_j c_j^r, and the log Gamma values _ruben_sf needs."""
    m = w.size
    c = 1.0 - beta / w
    g = np.sum(np.cumprod(np.broadcast_to(c, (terms, m)), axis=0), axis=1)
    a = np.empty(terms)
    a[0] = math.exp(0.5 * float(np.sum(np.log(beta / w))))
    for k in range(1, terms):
        a[k] = float(np.sum(g[k - 1::-1] * a[:k])) / (2 * k)
    half_df0 = 1.0 - 0.5 * (m % 2)
    log_gammas = np.array([math.lgamma(half_df0 + i + 1.0)
                           for i in range((m - 1) // 2 + terms - 1)])
    a.flags.writeable = False
    log_gammas.flags.writeable = False
    return beta, m, a, log_gammas


def _ruben_sf(beta: float, m: int, a, log_gammas, q: float) -> float:
    """P(Q > q) = sum_k a_k P(chi2_{m+2k} > q / beta).

    The chi-square tails rise from the one- or two-df tail (by the
    parity of m), erfc(sqrt(y)) or exp(-y) at y = q / (2 beta): each 2
    more df add exp(-y) y^(nu/2) / Gamma(nu/2 + 1) at nu df, summed in
    log space.
    """
    y = 0.5 * q / beta
    half_df0 = 1.0 - 0.5 * (m % 2)
    base = math.exp(-y) if m % 2 == 0 else math.erfc(math.sqrt(y))
    half_df = half_df0 + np.arange(log_gammas.size)
    steps = np.exp(half_df * math.log(y) - y - log_gammas)
    tails = base + np.concatenate(([0.0], np.cumsum(steps)))
    return float(np.sum(a * tails[(m - 1) // 2:]))


def _normal_pdf(z: float) -> float:
    """The standard normal density, written as scipy.stats.norm.pdf
    evaluates it."""
    return np.exp(-(z * z) / 2.0) / _SQRT_2PI


def _normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# Mills' ratio comes from erfc below this z and from Laplace's continued
# fraction, cut at this depth, above it: both stay within 2e-15 of
# scipy's erfcx, the fraction's truncation error falling as z grows
_MILLS_FRACTION_MIN_Z = 3.0
_MILLS_FRACTION_DEPTH = 60


def _mills_ratio(z: float) -> float:
    """P(Z > z) / phi(z) for a standard normal Z and z >= 0, finite
    where both the tail and the density underflow."""
    if z < _MILLS_FRACTION_MIN_Z:
        return float(_normal_sf(z) / _normal_pdf(z))
    # 1 / (z + 1 / (z + 2 / (z + 3 / (z + ...)))), from the inside out
    t = z
    for k in range(_MILLS_FRACTION_DEPTH, 0, -1):
        t = z + k / t
    return 1.0 / t


_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_MAX_ITER = 500


def _saddlepoint_root(q: float, w: np.ndarray) -> float:
    """The root t of K'(t) = sum w / (1 - 2 t w) = q, to _ROOT_RTOL
    relative.

    K' increases on (-inf, 1/(2 wmax)); its largest term and its term
    count bound the root on either side of 0.  K' is also convex, so
    Newton's method started at the upper bound steps right of the root
    each time and falls monotonically into it.  A step that leaves the
    bracket, which only rounding can cause, is replaced by bisection.
    """
    wmax = float(np.max(w))
    if float(np.sum(w)) <= q:
        lo, hi = 0.0, (1.0 - 0.5 * wmax / q) / (2.0 * wmax)
    else:
        lo, hi = -w.size / q, 0.0
    t = hi
    for _ in range(_ROOT_MAX_ITER):
        r = w / (1.0 - 2.0 * t * w)
        excess = float(np.sum(r)) - q
        if excess > 0.0:
            hi = t
        else:
            lo = t
        step = t - excess / (2.0 * float(np.sum(r * r)))
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        if abs(step - t) <= _ROOT_RTOL * abs(step):
            return step
        t = step
    return t


def _saddlepoint_log_sf(q: float, w: np.ndarray) -> float:
    """Lugannani-Rice saddlepoint approximation of log P(Q > q), Q the
    chi-square mixture of _log_sf_chi2_mixture with mean 1 (Kuonen 1999).

    With the cumulant generating function K(t) = -sum log(1 - 2 t w_j)/2
    and the root t of K'(t) = q: z = sign(t) sqrt(2 (t q - K(t))),
    u = t sqrt(K''(t)) and P = Phi(-z) + phi(z) (1/u - 1/z).  In the
    upper tail the normal tail is written as phi(z) times Mills' ratio,
    so log P stays finite far below the log of the smallest double.
    """
    t = _saddlepoint_root(q, w)
    k = -0.5 * float(np.sum(np.log1p(-2.0 * t * w)))
    z = math.copysign(math.sqrt(max(2.0 * (t * q - k), 0.0)), t)
    if abs(z) < _SADDLEPOINT_CENTRAL:
        k2 = 2.0 * float(np.sum(w * w))
        skew = 8.0 * float(np.sum(w**3)) / k2**1.5
        zc = (q - 1.0) / math.sqrt(k2)
        p = _normal_sf(zc) + _normal_pdf(zc) * skew * (zc * zc - 1.0) / 6.0
        return min(math.log(p), 0.0)
    r = w / (1.0 - 2.0 * t * w)
    u = t * math.sqrt(2.0 * float(np.sum(r * r)))
    if z > 0.0:
        return min(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                   + math.log(_mills_ratio(z) + 1.0 / u - 1.0 / z), 0.0)
    p = _normal_sf(z) + _normal_pdf(z) * (1.0 / u - 1.0 / z)
    return min(math.log(p), 0.0)


# level-count pairs whose law is kept: the untied bins of one check
# share one, and an audit meets a few
_SPECTRAL_LAWS = 64


@functools.lru_cache(maxsize=_SPECTRAL_LAWS)
def _spectral_law(counts_a: tuple, counts_b: tuple):
    """(side a, side b, tail) of a table with these level counts (tuples
    of ints): each side's _level_side and the _MixtureTail of the
    table's null weights, whose arrays are read-only.  A constant side
    leaves no weight."""
    n = sum(counts_a)
    side_a, side_b = (_level_side(np.array(c), n) for c in (counts_a, counts_b))
    (pa, At, dva), (pb, Bt, dvb) = side_a, side_b
    for a in (pa, At, pb, Bt):
        a.flags.writeable = False
    w = (_null_weights(pa, At, pb, Bt) if dva > 0.0 and dvb > 0.0
         else np.empty(0))
    return side_a, side_b, _MixtureTail(w)


def _table_test(side_a, side_b):
    """(dcor, p, log p) of the discretized dCov test of two variables,
    each given as its (level ids, level counts), against the spectral
    law of the two level counts."""
    (ga, counts_a), (gb, counts_b) = side_a, side_b
    n = ga.shape[0]
    (pa, At, dva), (pb, Bt, dvb), tail = _spectral_law(
        tuple(counts_a.tolist()), tuple(counts_b.tolist()))
    if dva <= 0.0 or dvb <= 0.0:
        # a constant side is independent of anything
        return 0.0, 1.0, 0.0
    na, nb = pa.shape[0], pb.shape[0]
    N = np.bincount(ga.astype(np.intp) * nb + gb, minlength=na * nb).reshape(na, nb)
    N = N.astype(np.float64)
    s_obs = _table_dcov(N, At, Bt, n)
    # (n - 1) rather than n: the hypergeometric covariance carries
    # n / (n - 1), so this matches the null mean exactly
    log_p = tail.log_sf((n - 1) * s_obs)
    return _dcor_from_parts(s_obs, dva, dvb), math.exp(log_p), log_p


# ---------------------------------------------------------------------------
# p-value combination and axiom checkers
# ---------------------------------------------------------------------------

def _chi2_even_sf(x: float, k: int) -> float:
    """P(X > x) for X chi-square with 2k degrees of freedom: the Poisson
    sum exp(-x/2) sum_{j<k} (x/2)^j / j!, in log space.

    The terms are scaled by the largest, exp(m), and exp(m - x/2) carries
    the rounding error of m - x/2 as a factor, so p keeps a relative
    error of a few eps times k even where -log p is in the hundreds.
    """
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    log_y = math.log(y)
    log_terms = [j * log_y - math.lgamma(j + 1.0) for j in range(k)]
    m = max(log_terms)
    total = math.fsum(math.exp(t - m) for t in log_terms)
    # Knuth's two-sum: m - y == d + err exactly
    d = m - y
    back = d - m
    err = (m - (d - back)) + (-y - back)
    return min(math.exp(d) * total * (1.0 + err), 1.0)


def _fisher_from_logs(log_p: np.ndarray) -> tuple[float, float]:
    """Fisher's method on log p-values, which may lie far below the log
    of the smallest double: (statistic -2 sum(log p), its p-value against
    chi-square with 2k df)."""
    # + 0.0 turns the -0.0 of all-ones inputs into 0.0
    stat = -2.0 * float(np.sum(log_p)) + 0.0
    return stat, _chi2_even_sf(stat, log_p.size)


def check_independence(prices, d, cfg: TestConfig) -> FairnessVerdict:
    """Statistical parity: price independent of the protected coordinate.

    The level table depends on the order of the values only, so the
    test cuts the raw columns into quantile levels and is still
    rank-invariant.  A column that comes as NormalScores brings the
    level ids normal_scores cut on its raw values, the same ids, and is
    not sorted again.
    """
    cols = _as_columns(prices, d)
    n = cols[0].shape[0]
    if n < 100:
        raise TooFewSamples(f"need >= 100 observations, got {n}")
    levels = _independence_levels(n)
    side_p, side_d = (getattr(orig, "levels", None)
                      or _quantile_level_ids(col, levels)
                      for orig, col in zip((prices, d), cols))
    dcor, p, _ = _table_test(side_p, side_d)
    return FairnessVerdict(
        axiom=Axiom(INDEPENDENCE), statistic=dcor, p_value=p,
        analytic_criterion=None,
        verdict=_verdict_from_p(p, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)


def check_separation(prices, d, y, cfg: TestConfig) -> FairnessVerdict:
    """Equalized odds: price independent of D conditionally on Y.

    Any column may come as NormalScores, which the check then does not
    sort again: it takes the scores and, for the conditioning column,
    the bin ids that normal_scores cut.  The result is the same.
    """
    return _conditional_check(a=prices, b=d, given=y, cfg=cfg, axiom=SEPARATION)


def check_sufficiency(y, d, prices, cfg: TestConfig) -> FairnessVerdict:
    """Predictive parity: Y independent of D conditionally on the price.

    Identical machinery to check_separation with the roles of the
    response and the price exchanged.
    """
    return _conditional_check(a=y, b=d, given=prices, cfg=cfg, axiom=SUFFICIENCY)


def _residualize(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    # elementwise products summed by numpy's pairwise sum, not BLAS dot
    # products, whose rounding depends on the CPU kernel
    gc = g - g.mean()
    den = float(np.sum(gc * gc))
    if den <= 0.0:
        return v
    return v - (float(np.sum(v * gc)) / den) * gc


def _conditional_check(a, b, given, cfg: TestConfig, axiom: str) -> FairnessVerdict:
    n = _as_columns(a, b, given)[0].shape[0]
    if n < 100 * N_BINS:
        raise TooFewSamples(
            f"need >= {100 * N_BINS} observations for {N_BINS} bins, got {n}")
    a, b, given = (c if isinstance(c, NormalScores) else normal_scores(c)
                   for c in (a, b, given))
    bin_ids, counts = given.bins or _quantile_level_ids(given, N_BINS)
    # ties can leave quantile bins with no points at all; those are a
    # degenerate-edge artifact and collapse away, while nonempty bins
    # below the minimum count are a genuine data problem
    keep = counts > 0
    bin_ids = (np.cumsum(keep) - 1).astype(bin_ids.dtype)[bin_ids]
    counts = counts[keep]
    n_bins = counts.shape[0]
    if counts.min() < MIN_BIN_COUNT:
        raise EmptyBin(
            f"a conditioning bin holds {counts.min()} < {MIN_BIN_COUNT} points")
    # a stable sort keeps each bin's rows in their original order, the
    # order a boolean mask would select them in; on the narrow unsigned
    # ids, numpy sorts by radix.  Each bin gathers its own rows, so no
    # sorted copy of the three columns is held alongside them
    order = np.argsort(bin_ids, kind="stable")
    a, b, given = (np.asarray(c) for c in (a, b, given))
    ends = np.cumsum(counts)
    log_ps = np.empty(n_bins)
    for k in range(n_bins):
        rows = order[ends[k] - counts[k]:ends[k]]
        gk = given[rows]
        ak = _residualize(a[rows], gk)
        bk = _residualize(b[rows], gk)
        levels = max(2, min(N_LEVELS // 2, int(counts[k]) // 16))
        _, _, log_ps[k] = _table_test(_quantile_level_ids(ak, levels),
                                      _quantile_level_ids(bk, levels))
    stat, p_comb = _fisher_from_logs(log_ps)
    return FairnessVerdict(
        axiom=Axiom(axiom), statistic=stat, p_value=p_comb,
        analytic_criterion=None,
        verdict=_verdict_from_p(p_comb, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)
