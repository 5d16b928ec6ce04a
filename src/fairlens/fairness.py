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
check, all of one size, share one.  Its upper tail takes one of two
routes:

* in the bulk, Imhof's (1961) inversion of the characteristic function
  summed on a fixed midpoint grid whose step and length follow from
  stated error bounds (Davies 1980, AS 155), within 1e-9 in p, where
  p >= 1e-3 and the grid fits in _BULK_MAX_TERMS nodes;
* everywhere else, Rice's (1980) inversion integral on a parabola
  through the saddle point (Weideman & Trefethen 2007) by the
  trapezoid rule: one weight, a few, or weights too spread for a grid,
  and every p below 1e-3.  It is within 1e-12 relative in p of exact
  chi-square and Ruben-series references from p near 1 down to
  log p = -2000, and it gives log p itself, so no p-value underflows
  before Fisher's combination.

Nothing is drawn: no p-value depends on a test seed or a permutation
count, and the tail runs on numpy and math alone, as does Fisher's
combination (the closed-form chi-square tail for even df), so no check
loads a scipy module.

Every checker, and check_axioms, takes its columns through _prepared:
each comes back as a read-only NormalScores column carrying the level
cuts its checks read and, if a check conditions on it, its N_BINS bin
order.  A column _prepared made earlier that carries those cuts passes
through, so no checker validates or sorts a column check_axioms
prepared; any other is validated and sorted once, and its copula ranks,
normal scores and level ids are read off that one order.  Level j of L
starts at sorted position ceil((n - 1) j / L), computed in integers and
moved back to the start of its tie block.  A column without ties has
the sorted scores normal_ppf(k / (n + 1)), k = 1 .. n, which depend on
n alone: up to 2^17 values (1 MiB) they are kept per n, and past that
computed once per _prepared call.

check_axioms runs check_separation on one worker thread while the
calling thread runs the other two checks.  The two threads read the
same prepared columns and write nothing the other reads, so every
verdict is bit for bit that of three calls in a row.  glibc gives the
worker a malloc arena of its own, which keeps its high-water mark, so
every full-length array is built on the calling thread before the
worker starts; the worker allocates per-bin arrays only.

Within conditioning bins, both tested variables are linearly detrended
on the conditioning variable (all three on the normal-scores scale), to
remove the spurious dependence that finite-width bins otherwise leak in
the tails of the conditioning variable.  The centered conditioning
scores and their sum of squares are computed once per bin for both.
Per-bin log p-values feed Fisher's combination, which keeps its
chi-square reference because each p-value is continuous.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import (ConfigError, EmptyBin, LengthMismatch, NonFiniteInput,
                     TooFewSamples)
from .streams import check_integer, check_seed, normal_ppf, shown

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
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ConfigError(f"alpha must be a number, got {shown(self.alpha)}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must be in (0, 0.5), got {shown(self.alpha)}")
        n_permutations = check_integer(self.n_permutations, "n_permutations")
        if not 99 <= n_permutations <= MAX_PERMUTATIONS:
            raise ConfigError(f"n_permutations must be in [99, {MAX_PERMUTATIONS}], "
                              f"got {shown(n_permutations)}")
        # frozen fields: numpy numbers are stored as the float and the
        # ints a report can hold
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "n_permutations", n_permutations)
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


def _n_levels(n: int, most: int) -> int:
    """Quantile levels per variable of a table of n points: one per 16
    points, at least 2 and at most `most`."""
    return max(2, min(most, n // 16))


# ---------------------------------------------------------------------------
# one sort per column: ranks, normal scores and quantile level ids
# ---------------------------------------------------------------------------

def _sorted_ranks(new_block: np.ndarray, n: int) -> np.ndarray:
    """Average ranks of a sorted column of n values, from its tie mask
    new_block = xs[1:] != xs[:-1].

    Each block of equal values gets the mean of the positions it covers,
    (start + 1) + (count - 1) / 2, an exact half-integer, so the ranks
    divided by n + 1 equal scipy's rankdata(x) / (n + 1) byte for byte.
    """
    if new_block.all():
        return np.arange(1.0, n + 1.0)
    starts = np.flatnonzero(np.concatenate(([True], new_block)))
    counts = np.diff(starts, append=n)
    return np.repeat((starts + 1.0) + (counts - 1.0) / 2.0, counts)


def _untied_vector(n: int) -> np.ndarray:
    """normal_ppf((1 .. n) / (n + 1)), the sorted scores of every column
    of n distinct values, read-only."""
    scores = normal_ppf(np.arange(1.0, n + 1.0) / (n + 1.0))
    scores.flags.writeable = False
    return scores


# untied score vectors of at most this many values (1 MiB) are kept, for
# 8 lengths at most: a calibration loop scores columns of one length over
# and over, while an audit's long columns would each pin 8 bytes a row
# (_prepared shares a longer one among the columns of one call only)
_CACHED_SCORES_MAX_N = 1 << 17
_untied_scores = functools.lru_cache(maxsize=8)(_untied_vector)


@functools.lru_cache(maxsize=256)
def _level_starts(n: int, n_levels: int) -> np.ndarray:
    """The sorted positions ceil((n - 1) j / n_levels), j = 1 .. n_levels - 1,
    at which the inner levels of n values start, computed in integers.
    Kept per (n, n_levels), read-only: the bins of one check mostly
    share both."""
    starts = -((-(n - 1) * np.arange(1, n_levels)) // n_levels)
    starts.flags.writeable = False
    return starts


def _level_counts(xs: np.ndarray, n_levels: int) -> np.ndarray:
    """Number of values of the sorted column xs at each quantile level.

    Each inner level starts at its _level_starts position, moved back
    to the first position of the tie block that holds it.  Cuts that
    meet merge and a cut at 0 goes, so no level is empty.  The cut uses
    only positions and comparisons, so any increasing map of xs keeps
    it.  An empty column has no level.
    """
    n = xs.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    cuts = np.searchsorted(xs, xs[_level_starts(n, n_levels)], side="left")
    bounds = np.concatenate(([0], cuts, [n]))
    counts = bounds[1:] - bounds[:-1]
    return counts[counts > 0]


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
    """A read-only column of normal scores made by _prepared.  ``cuts``
    maps a level count to the column's (ids, counts) pair at that many
    quantile levels, and ``bin_rows``, set where N_BINS is among them,
    is the stable order of the column's N_BINS ids.  Views, copies and
    arrays cast to the class carry neither, and _prepared scores them
    again."""

    cuts = None
    bin_rows = None


def _prepared(columns, cuts) -> list:
    """The columns as read-only NormalScores of one length, each
    carrying the (ids, counts) pairs at the level counts of its entry
    of cuts and, where N_BINS is among them, its bin_rows.

    A column that _prepared made and that carries those cuts passes
    through untouched.  The others are validated (LengthMismatch, and
    NonFiniteInput for values that are not finite real numbers; bools
    pass) before any is scored from one sort (_scored), and each
    validated copy goes once its column is scored.  Their untied
    columns share one sorted score vector: the kept one up to
    _CACHED_SCORES_MAX_N values, past that one for this call, dropped
    before the bin rows are built so as not to raise the peak.
    """
    out, fresh = list(columns), []
    for i, (col, wanted) in enumerate(zip(columns, cuts)):
        if not (isinstance(col, NormalScores) and col.cuts is not None
                and col.cuts.keys() >= set(wanted)):
            col = np.asarray(col)
            if col.dtype.kind not in "biuf":
                raise NonFiniteInput(f"input vectors must hold real numbers, not {col.dtype}")
            out[i] = col.astype(np.float64, copy=False).ravel()
            fresh.append(i)
    del col  # a validated copy goes once its column is scored
    n = out[0].shape[0]
    if any(col.shape[0] != n for col in out):
        raise LengthMismatch("input vectors have unequal lengths")
    if not all(np.isfinite(out[i]).all() for i in fresh):
        raise NonFiniteInput("input vectors hold NaN or infinite values")
    untied = _untied_scores if n <= _CACHED_SCORES_MAX_N else functools.cache(_untied_vector)
    for i in fresh:
        out[i] = _scored(out[i], cuts[i], untied)
    del untied
    for i in fresh:
        if N_BINS in cuts[i]:
            out[i].bin_rows = np.argsort(out[i].cuts[N_BINS][0], kind="stable")
    return out


def _scored(x: np.ndarray, cuts, untied) -> NormalScores:
    """normal_ppf of the copula ranks of the validated column x, carrying
    the (ids, counts) pair of x at each level count in cuts, all from
    one sort of x.

    The pairs are cut on the sorted raw values.  A cut reads only the
    order and the ties of a column, which the scores keep (see
    TestScoresKeepTheirOrder), so each pair is a cut of the scores too.
    A column of n distinct values takes its sorted scores, which depend
    on n alone, from untied(n); any other column runs the inverse CDF
    on its own ranks.
    """
    n = x.shape[0]
    order = np.argsort(x)
    xs = x[order]
    counts = {k: _level_counts(xs, k) for k in cuts}
    new_block = xs[1:] != xs[:-1]
    del xs
    if new_block.all():
        sorted_scores = untied(n)
    else:
        ranks = _sorted_ranks(new_block, n)
        del new_block
        ranks /= n + 1.0
        sorted_scores = normal_ppf(ranks)
        del ranks
    scores = np.empty(n).view(NormalScores)
    scores[order] = sorted_scores
    scores.cuts = MappingProxyType({k: _level_ids(order, c) for k, c in counts.items()})
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
    largest weight are rounding of the centering's zero eigenvalue and
    are dropped.
    """
    sa, sb = np.sqrt(pa), np.sqrt(pb)
    lam = np.linalg.eigvalsh(sa[:, None] * At * sa[None, :])
    mu = np.linalg.eigvalsh(sb[:, None] * Bt * sb[None, :])
    w = np.outer(lam[lam < 0.0], mu[mu < 0.0]).ravel()
    return w[w > np.finfo(float).eps * (pa.shape[0] + pb.shape[0]) * np.max(w)]


# every bound on the error of the grid (its aliasing and truncation) is
# held to this absolute error in p
_TAIL_EPS = 1e-9

# below this bound the grid's absolute error would be a large part of p,
# and the contour, whose error is relative to p, takes over
_BULK_MIN_P = 1e-3

# no grid of more nodes than this is built: few weights, or weights
# spread over orders of magnitude, make Imhof's integrand decay slowly,
# and the contour gives their whole tail
_BULK_MAX_TERMS = 4096

# grid weights w with w u <= this at the last node u are summed as
# power series of _FOLD_TERMS terms, whose remainders are below
# 0.5^(2 _FOLD_TERMS) relative; the contour folds its small weights at
# the same bound
_FOLD_MAX_WU = 0.5
_FOLD_TERMS = 12

# the contour's trapezoid rule leaves errors of order e^-_CONTOUR_DECAY
# relative to p; its folded power series stop where their remainder in
# log p is below _CONTOUR_FOLD_EPS
_CONTOUR_DECAY = 38.0
_CONTOUR_FOLD_EPS = 1e-12


class _MixtureTail:
    """The upper tail of Q = sum_j w_j Z_j^2 for iid standard normal Z_j
    and weights w_j > 0, with what its bulk needs built once.

    The law is scale-free, so the weights are kept over their mean.
    Where a grid fits (_bulk_tail), it gives P(Q > q) within a few
    _TAIL_EPS for q below x_hi, past which P(Q > q) <= _TAIL_EPS; the
    contour (_contour_log_sf) takes the rest of the tail, and the whole
    tail of one weight, of few weights and of weights too spread for a
    grid.
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
        if q < self.x_hi:
            p = self._bulk_sf(q)
            if p >= _BULK_MIN_P:
                return math.log(min(p, 1.0))
        return _contour_log_sf(q, w)


def _bulk_tail(w: np.ndarray):
    """(x_hi, sf): P(Q > x_hi) <= _TAIL_EPS, and sf(q), P(Q > q) for
    q < x_hi within a few _TAIL_EPS, Q the mixture of the weights w
    (mean 1, at least two), by Imhof's integrand summed on a midpoint
    grid (_imhof_grid).  Where the grid would need more than
    _BULK_MAX_TERMS nodes, sf is None and x_hi is 0.
    """
    x_hi = _chernoff_upper(w)
    h = 2.0 * math.pi / x_hi
    nodes = math.ceil(_last_node(w) / h + 0.5)
    if nodes > _BULK_MAX_TERMS:
        return 0.0, None
    return x_hi, functools.partial(_grid_sf, *_imhof_grid(w, h, nodes))


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


def _contour_log_sf(q: float, w: np.ndarray) -> float:
    """log P(Q > q), Q the chi-square mixture of _MixtureTail with mean-1
    weights w, by Rice's (1980) inversion integral on a parabola
    (Weideman & Trefethen 2007).

    With K(s) = -sum log(1 - 2 s w) / 2, analytic left of
    s_min = 1 / (2 w_max), P(Q > q) is 1 / (2 pi i) times the integral of
    exp(K(s) - s q) / s up the line Re s = c, for 0 < c < s_min, and 1
    plus it for c < 0.  The parabola s(y) = c + a y^2 + i y with
    a = 1 / (4 (s_min - c)) has its focus at s_min: it leaves the pole at
    0 and the branch cut [s_min, inf) on the line's sides, and along it
    the integrand is conjugate-symmetric in y, so that
    P(Q > q) = exp(K(c) - c q) I for c > 0, with
    I = (1 / pi) int_0^inf Im(exp(K(s) - K(c) - (s - c) q) s'(y) / s) dy.
    log p is K(c) - c q + log I, which does not underflow.

    c is the saddle point of K(s) - s q, moved out to
    +-min(s_min / 4, 1 / sqrt(K''(0))) near the mean, where it would meet
    the pole.  As a function of y the integrand is analytic in a strip
    of half-width d, bounded by the pole's preimage and by the line
    Im y = -1 / (2 a), which s maps onto the branch cut.  The trapezoid
    rule at step h = pi min(sqrt(2 / (D K''(c))), d / D),
    D = _CONTOUR_DECAY, errs by about e^-D relative to p, on the
    Gaussian of variance 1 / K''(c) that the integrand is at the saddle
    point and on the half strip; the nodes stop at y = sqrt(D / (a q)),
    past which exp(-(s - c) q) is below e^-D.

    K(s) - K(c) = -sum log(1 - 2 (s - c) r) / 2, r = w / (1 - 2 c w).
    Weights with 2 |s - c| r <= _FOLD_MAX_WU at the last node enter
    through power sums, in as many terms of the series of that log as
    hold the remainder below _CONTOUR_FOLD_EPS.
    """
    s_min = 0.5 / float(np.max(w))
    c = _saddlepoint_root(q, w)
    c_min = min(0.25 * s_min, 1.0 / math.sqrt(2.0 * float(np.sum(w * w))))
    if abs(c) < c_min:
        c = math.copysign(c_min, q - 1.0)
    r = w / (1.0 - 2.0 * c * w)
    a = 0.25 / (s_min - c)
    d = min(2.0 * abs(c) / (1.0 + math.sqrt(1.0 + 4.0 * a * c)), 0.5 / a)
    h = math.pi * min(1.0 / math.sqrt(_CONTOUR_DECAY * float(np.sum(r * r))),
                      d / _CONTOUR_DECAY)
    y = h * np.arange(1.0, math.ceil(math.sqrt(_CONTOUR_DECAY / (a * q)) / h) + 1.0)
    t = a * y * y + 1j * y  # s - c
    t_last = abs(complex(t[-1]))
    explicit = 2.0 * t_last * r > _FOLD_MAX_WU
    phi = (-0.5 * np.sum(np.log(1.0 - 2.0 * np.multiply.outer(t, r[explicit])), axis=1)
           - q * t)
    small = r[~explicit]
    if small.size:
        # the series' terms past the k-th add at most
        # t_last sum(small) rho^k / (1 - rho), rho = 2 t_last max(small)
        rho = 2.0 * t_last * float(np.max(small))
        terms = max(1, math.ceil(
            math.log(t_last * float(np.sum(small)) / ((1.0 - rho) * _CONTOUR_FOLD_EPS))
            / -math.log(rho)))
        # sums[k - 1] = sum (2 small)^k; the series is sum_k sums[k - 1] t^k / (2 k)
        sums = np.sum(np.cumprod(np.broadcast_to(2.0 * small, (terms, small.size)),
                                 axis=0), axis=1)
        fold = np.zeros_like(t)
        for coef in (sums / (2.0 * np.arange(1, terms + 1)))[::-1]:
            fold = (fold + coef) * t
        phi += fold
    integrand = np.imag(np.exp(phi) * (2.0 * a * y + 1j) / (c + t))
    # the node at y = 0, where the integrand is 1 / c, has half weight
    integral = h / math.pi * (0.5 / c + float(np.sum(integrand)))
    log_scale = -0.5 * float(np.sum(np.log1p(-2.0 * c * w))) - c * q
    if c > 0.0:
        return min(log_scale + math.log(integral), 0.0)
    return min(math.log1p(math.exp(log_scale) * integral), 0.0)


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
    test is rank-invariant.  Both columns are cut into quantile levels
    by _prepared, which passes a column check_axioms prepared through.
    """
    levels = _n_levels(np.size(prices), N_LEVELS)
    prices, d = _prepared((prices, d), ((levels,), (levels,)))
    n = prices.shape[0]
    if n < 100:
        raise TooFewSamples(f"need >= 100 observations, got {n}")
    dcor, p, _ = _table_test(prices.cuts[levels], d.cuts[levels])
    return FairnessVerdict(
        axiom=Axiom(INDEPENDENCE), statistic=dcor, p_value=p,
        analytic_criterion=None,
        verdict=_verdict_from_p(p, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)


def check_separation(prices, d, y, cfg: TestConfig) -> FairnessVerdict:
    """Equalized odds: price independent of D conditionally on Y.

    The columns are scored and y cut into N_BINS bins by _prepared,
    which passes a column check_axioms prepared through.
    """
    return _conditional_check(a=prices, b=d, given=y, cfg=cfg, axiom=SEPARATION)


def check_sufficiency(y, d, prices, cfg: TestConfig) -> FairnessVerdict:
    """Predictive parity: Y independent of D conditionally on the price.

    Identical machinery to check_separation with the roles of the
    response and the price exchanged.
    """
    return _conditional_check(a=y, b=d, given=prices, cfg=cfg, axiom=SUFFICIENCY)


def check_axioms(prices, d, y, cfg: TestConfig) -> tuple:
    """The three checkers' verdicts on one portfolio, in AXIOM_KINDS
    order; a check that raises TooFewSamples or EmptyBin reads
    INCONCLUSIVE, and any other exception is raised here.

    _prepared validates and sorts each column once, with the cuts its
    checks read: the price with independence's levels and the
    conditioning bins, d with the levels, y with the bins, so the
    checkers pass all three through.  Separation then runs on one
    worker thread while this one runs independence and sufficiency:
    the checks read the prepared columns and write nothing the other
    reads, so the verdicts are those of three calls in a row.  The
    worker has ended when this returns or raises.  The checkers are
    called by their module names, so a wrapper bound in their place
    sees every call.
    """
    levels = _n_levels(np.size(prices), N_LEVELS)
    # prepared here, so that the worker allocates no full-length array
    # in an arena of its own, whose high-water mark would stay
    sp, sd, sy = _prepared((prices, d, y), ((levels, N_BINS), (levels,), (N_BINS,)))
    n = sp.shape[0]

    def run(kind, check, *columns):
        try:
            return check(*columns, cfg)
        except (TooFewSamples, EmptyBin):
            return FairnessVerdict(
                axiom=Axiom(kind), statistic=0.0, p_value=None, analytic_criterion=None,
                verdict=INCONCLUSIVE, alpha=cfg.alpha, n_used=n, seed=cfg.seed)

    separation = []

    def run_separation():
        try:
            separation.append(run(SEPARATION, check_separation, sp, sd, sy))
        except BaseException as exc:  # raised in the caller, after join
            separation.append(exc)

    worker = threading.Thread(target=run_separation, name="fairlens-separation")
    worker.start()
    try:
        independence = run(INDEPENDENCE, check_independence, sp, sd)
        sufficiency = run(SUFFICIENCY, check_sufficiency, sy, sd, sp)
    finally:
        worker.join()
    if isinstance(separation[0], BaseException):
        raise separation[0]
    return independence, separation[0], sufficiency


def _detrend(gc: np.ndarray, *columns: np.ndarray) -> None:
    """Center gc, the conditioning scores of one bin, and subtract from
    each column its least-squares slope on them, all in place.

    gc and its sum of squares are computed once for every column.  The
    sums are np.add.reduce of elementwise products, numpy's pairwise
    sum, not BLAS dot products, whose rounding depends on the CPU
    kernel.  A constant gc leaves the columns as they are.
    """
    gc -= np.add.reduce(gc) / gc.shape[0]
    den = float(np.add.reduce(gc * gc))
    if den <= 0.0:
        return
    for v in columns:
        v -= (float(np.add.reduce(v * gc)) / den) * gc


def _conditional_check(a, b, given, cfg: TestConfig, axiom: str) -> FairnessVerdict:
    a, b, given = _prepared((a, b, given), ((), (), (N_BINS,)))
    n = given.shape[0]
    if n < 100 * N_BINS:
        raise TooFewSamples(
            f"need >= {100 * N_BINS} observations for {N_BINS} bins, got {n}")
    # ties merge quantile bins, so there may be fewer than N_BINS, none
    # empty; a bin below the minimum count is a genuine data problem
    counts = given.cuts[N_BINS][1]
    n_bins = counts.shape[0]
    if counts.min() < MIN_BIN_COUNT:
        raise EmptyBin(
            f"a conditioning bin holds {counts.min()} < {MIN_BIN_COUNT} points")
    # bin_rows, the stable order of the bin ids, keeps each bin's rows
    # in their original order, the order a boolean mask would select
    # them in.  Each bin gathers its own rows from the plain arrays, so
    # no sorted copy of the three columns is held alongside them
    order = given.bin_rows
    a, b, given = (np.asarray(c) for c in (a, b, given))
    ends = np.cumsum(counts)
    log_ps = np.empty(n_bins)
    for k in range(n_bins):
        rows = order[ends[k] - counts[k]:ends[k]]
        ak, bk = a[rows], b[rows]
        _detrend(given[rows], ak, bk)
        levels = _n_levels(int(counts[k]), N_LEVELS // 2)
        _, _, log_ps[k] = _table_test(_quantile_level_ids(ak, levels),
                                      _quantile_level_ids(bk, levels))
    stat, p_comb = _fisher_from_logs(log_ps)
    return FairnessVerdict(
        axiom=Axiom(axiom), statistic=stat, p_value=p_comb,
        analytic_criterion=None,
        verdict=_verdict_from_p(p_comb, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)
