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
matrices, at O(levels^3) per table instead of O(n^2).  Permuting one
variable induces exactly the fixed-margins hypergeometric law on
tables, and two nulls stand for it:

* spectral, once the table holds at least SPECTRAL_MIN_CELL_MEAN points
  per cell on average: under independence (n - 1) dCov^2 of the table
  tends to sum_kl lambda_k mu_l Z_kl^2 (Szekely, Rizzo & Bakirov 2007),
  with lambda and mu the eigenvalues of diag(sqrt p) A~ diag(sqrt p) for
  each side's level probabilities p.  Its upper tail comes from the
  Lugannani-Rice saddlepoint approximation (Kuonen 1999), kept in log
  space so that no p-value underflows before Fisher's combination, and
  from Imhof's (1961) inversion where p > 1e-3.  This null draws
  nothing: the test seed does not affect its p-values.
* sampled, on sparser tables such as 500-point bins on 31 levels:
  n_permutations tables drawn directly from the hypergeometric law, on
  streams keyed by the test seed.  They are the tables
  scipy.stats.random_table draws by its default rule: Boyett's label
  shuffle, here in numpy, while n <= log(n + 1) x cells, and scipy's
  Patefield sampler on denser tables.

scipy is imported where it is used, not with this module: scipy.stats
only for Patefield tables and integrate only for Imhof's inversion.
Fisher's combination (the closed-form chi-square tail for even df), the
saddlepoint's normal tail (Mills' ratio) and its root (Newton's method)
run on numpy and math, so a sampled check, and an audit whose spectral
p-values all lie below 1e-3, load no scipy module.

Each full-length column is sorted once: normal_scores reads the copula
ranks, the normal scores and the level ids of both checkers off one
order, and the checkers take a scored column's ids instead of sorting
it again.  Quantile edges are read off the sorted column by index.

Within conditioning bins, both tested variables are linearly detrended
on the conditioning variable (all three on the normal-scores scale), to
remove the spurious dependence that finite-width bins otherwise leak in
the tails of the conditioning variable.  Per-bin mid-p values feed
Fisher's combination so that the combined statistic keeps its
chi-square reference despite the permutation p-value grid; the
spectral p-value is continuous and is its own mid-p.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, EmptyBin, LengthMismatch, NonFiniteInput,
                     TooFewSamples)
from .streams import check_seed, generator, normal_ppf

POWER_GUARD_N = 100_000  # HOLDS requires at least this many observations

MIN_BIN_COUNT = 30
N_LEVELS = 64  # quantile levels per variable; conditional bins use half
N_BINS = 20  # equal-probability bins of the conditioning variable

# the spectral null replaces sampled tables once the level table holds
# at least this many points per cell on average: every table of an
# audit at n >= 409,600 (independence 64 x 64, bins 32 x 32),
# none at n = 2e4 (at most 19.5 per cell, the one collapsed bin of a
# constant price); criterion 7's 500-point bins on 31 levels hold 0.5
SPECTRAL_MIN_CELL_MEAN = 20.0

# the sampled null holds all n_permutations tables at once, at most
# N_LEVELS x N_LEVELS 8-byte cells each (independence below n = 81,920);
# the ceiling keeps that batch within 1 GiB (its two float64 products
# take as much again each), so 32,768 permutations
NULL_BATCH_BUDGET_BYTES = 1 << 30
MAX_PERMUTATIONS = NULL_BATCH_BUDGET_BYTES // (N_LEVELS * N_LEVELS * 8)

# names read as attributes of the module, not as globals, go through
# __getattr__ below and see a caller's rebinding
_module = sys.modules[__name__]


def __getattr__(name):
    """scipy.stats, imported on first use as the attribute sps: only
    Patefield tables need it, and it takes longer to import than a small
    check takes to run.  Callers may rebind fairness.sps."""
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

# pre-assigned permutation sub-streams (one per bin index) so results do
# not depend on scheduling; the two conditional checkers share the same
# streams, which makes the separation/sufficiency role exchange an exact
# identity on the same inputs
_STREAM_INDEPENDENCE = 0xFA01
_STREAM_BIN_BASE = 0xFB00


@dataclass(frozen=True)
class Axiom:
    kind: str

    def __post_init__(self):
        if self.kind not in AXIOM_KINDS:
            raise ValueError(f"unknown axiom kind {self.kind!r}")


@dataclass(frozen=True)
class TestConfig:
    """Knobs for the statistical checkers.

    alpha and the permutation budget follow the usual trade-off; the
    permutation RNG is keyed by `seed` only, independent of the seeds
    that generated the data.  Both the budget and `seed` act only on
    tables below SPECTRAL_MIN_CELL_MEAN points per cell, whose null is
    sampled.  The resolution of the tests (N_LEVELS, N_BINS) is fixed.
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


def _sorted_quantiles(xs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.quantile(xs, probs) of the sorted column xs, read off by index."""
    return _read_quantiles(xs, _quantile_positions(xs.shape[0], probs))


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
# discretized distance correlation with a spectral or a sampled null
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


def _random_tables(rows: np.ndarray, cols: np.ndarray, n_draws: int, rng):
    """n_draws tables with margins rows and cols from the fixed-margins
    hypergeometric law: the tables scipy.stats.random_table draws on rng
    by its default method, shape (n_draws, len(rows), len(cols)).

    scipy's rule takes Boyett's (1979, AS 144) label shuffle while
    n <= log(n + 1) x cells and Patefield's algorithm on denser tables.
    The shuffle runs here in numpy: the column labels, laid out in
    column order, are shuffled once per table, each shuffle continuing
    from the last arrangement as scipy's rcont1 does, and the first
    rows[0] labels fall in row 0, the next rows[1] in row 1 and so on.
    numpy's shuffle draws the same swaps from the same bit generator,
    so the tables are scipy's, counted into a float64 batch.  Patefield
    tables still come from scipy.stats, read as the attribute sps of
    this module.
    """
    na, nb = rows.shape[0], cols.shape[0]
    n = int(rows.sum())
    if n > np.log(n + 1) * (na * nb):
        return _module.sps.random_table(rows, cols).rvs(size=n_draws, random_state=rng)
    labels = np.repeat(np.arange(nb), cols)
    cells = np.repeat(np.arange(0, na * nb, nb), rows)
    tables = np.empty((n_draws, na * nb))
    for table in tables:
        rng.shuffle(labels)
        table[:] = np.bincount(cells + labels, minlength=na * nb)
    return tables.reshape(n_draws, na, nb)


def _null_dcov_draws(N, At, Bt, n, n_draws, rng):
    rows = N.sum(axis=1).astype(np.int64)
    cols = N.sum(axis=0).astype(np.int64)
    tables = _random_tables(rows, cols, n_draws, rng)
    inner = np.matmul(np.matmul(At, tables), Bt)
    return np.einsum("bij,bij->b", tables, inner) / n**2


def _null_weights(pa, At, pb, Bt) -> np.ndarray:
    """The positive weights lambda_k mu_l of the limiting null law.

    Both scaled matrices are negative semidefinite (|x - y| is a
    conditionally negative definite kernel), so every product of two
    negative eigenvalues is a positive weight; the rest are rounding.
    """
    sa, sb = np.sqrt(pa), np.sqrt(pb)
    lam = np.linalg.eigvalsh(sa[:, None] * At * sa[None, :])
    mu = np.linalg.eigvalsh(sb[:, None] * Bt * sb[None, :])
    return np.outer(lam[lam < 0.0], mu[mu < 0.0]).ravel()


# the saddlepoint tail is off by up to ~5% of p (relative) in the bulk,
# so p-values it puts above this bound are recomputed by Imhof's
# inversion, within ~1e-7 of the exact tail; far below it the inversion
# loses its relative accuracy while the saddlepoint keeps it
_IMHOF_MIN_P = 1e-3

# below this |w|, the saddlepoint formula loses digits to cancellation
# and the one-term Edgeworth expansion at the mean takes over
_SADDLEPOINT_CENTRAL = 1e-3

_SQRT_2PI = np.sqrt(2 * np.pi)


def _log_sf_chi2_mixture(q: float, w: np.ndarray) -> float:
    """log P(sum_j w_j Z_j^2 > q) for iid standard normal Z_j and w_j > 0."""
    if w.size == 0 or q <= 0.0:
        return 0.0
    # the law is scale-free: put the mean at 1
    mean = float(np.sum(w))
    q, w = q / mean, w / mean
    log_p = _saddlepoint_log_sf(q, w)
    if log_p < math.log(_IMHOF_MIN_P):
        return log_p
    p = _imhof_sf(q, w)
    return log_p if p is None else math.log(p)


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


def _imhof_sf(q: float, w: np.ndarray) -> Optional[float]:
    """P(Q > q) by Imhof's (1961) inversion of the characteristic
    function, or None where the integral does not converge."""
    from scipy import integrate

    def integrand(u):
        x = w * u
        theta = 0.5 * (float(np.arctan(x).sum()) - q * u)
        log_rho = 0.25 * float(np.log1p(x * x).sum())
        return math.sin(theta) * math.exp(-log_rho) / u

    # with full_output, quad reports a failure in its return value
    # instead of warning
    out = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-9,
                         epsrel=1e-7, limit=500, full_output=1)
    if len(out) > 3:
        return None
    p = 0.5 + out[0] / math.pi
    return min(p, 1.0) if p > 0.0 else None


def _table_test(side_a, side_b, n_permutations, seed, stream):
    """(dcor, p, log mid-p) of the discretized dCov test of two
    variables, each given as its (level ids, level counts).

    The spectral null runs on tables with at least
    SPECTRAL_MIN_CELL_MEAN points per cell, the sampled one elsewhere,
    on the (seed, stream) generator.
    """
    (ga, counts_a), (gb, counts_b) = side_a, side_b
    n = ga.shape[0]
    pa, At, dva = _level_side(counts_a, n)
    pb, Bt, dvb = _level_side(counts_b, n)
    if dva <= 0.0 or dvb <= 0.0:
        # a constant side is independent of anything
        return 0.0, 1.0, 0.0
    na, nb = pa.shape[0], pb.shape[0]
    N = np.bincount(ga.astype(np.intp) * nb + gb, minlength=na * nb).reshape(na, nb)
    N = N.astype(np.float64)
    s_obs = _table_dcov(N, At, Bt, n)
    dcor = _dcor_from_parts(s_obs, dva, dvb)
    if n >= SPECTRAL_MIN_CELL_MEAN * na * nb:
        # (n - 1) rather than n: the hypergeometric covariance carries
        # n / (n - 1), so this matches the null mean exactly
        log_p = _log_sf_chi2_mixture((n - 1) * s_obs, _null_weights(pa, At, pb, Bt))
        return dcor, math.exp(log_p), log_p
    null = _null_dcov_draws(N, At, Bt, n, n_permutations, generator(seed, stream))
    greater = int(np.sum(null > s_obs))
    ties = int(np.sum(null == s_obs))
    p_exact = (1 + greater + ties) / (n_permutations + 1)
    p_mid = (greater + 0.5 * (ties + 1)) / (n_permutations + 1)
    return dcor, p_exact, float(np.log(p_mid))


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
    dcor, p, _ = _table_test(side_p, side_d, cfg.n_permutations,
                             cfg.seed, _STREAM_INDEPENDENCE)
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
        _, _, log_ps[k] = _table_test(
            _quantile_level_ids(ak, levels), _quantile_level_ids(bk, levels),
            cfg.n_permutations, cfg.seed, _STREAM_BIN_BASE + k)
    stat, p_comb = _fisher_from_logs(log_ps)
    return FairnessVerdict(
        axiom=Axiom(axiom), statistic=stat, p_value=p_comb,
        analytic_criterion=None,
        verdict=_verdict_from_p(p_comb, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)
