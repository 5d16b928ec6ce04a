"""Statistical checkers for the three group-fairness axioms.

Each axiom is tested on the normal scores of the ranks of its columns,
normal_ppf(rank / (n + 1)), so every verdict depends on the order of
the values only:

* independence (statistical parity): price independent of D.  The
  statistic is the correlation r of the two score columns, and
  z = sqrt(n - 1) r is standard normal under independence, so
  p = erfc(|z| / sqrt 2).
* separation (equalized odds): price independent of D given Y.  Y is
  sliced into N_BINS equal-probability bins, and inside each bin both
  tested columns are linearly detrended on the conditioning scores and
  centered on their bin means.  z1 is the generalized covariance measure
  of Shah & Peters (2020), sqrt(n) mean(r_a r_b) / sd(r_a r_b), pooled
  over every bin; z2 is the same statistic on the squared residuals,
  each centered on its bin mean.  The statistic is z1^2 + z2^2 and p is
  its chi-square tail with 2 df, exp(-statistic / 2).
* sufficiency (predictive parity): Y independent of D given the price —
  the same statistic with the roles of Y and the price exchanged.

The tests look at the first two conditional moments only.  That is
where the portfolio model puts every violation: (price, D) is a
Gaussian pair or a constant, and Y | (X, D) ~ N(X1, 1 + X2^2), so rho1
moves Cov(price, D | Y) and rho2 moves Var(Y | price, D).  A dependence
that leaves both moments alone is not seen.

Detrending within bins removes the spurious dependence that
finite-width bins otherwise leak in the tails of the conditioning
variable.  It removes the slope but not the mean, so each bin centers
its residuals before taking products: without that, the per-bin means
add up to a bias that grows with n.  A side that is constant leaves
zero residuals, whose z reads 0 (p = 1).  Every sum is np.add.reduce of
elementwise products, numpy's pairwise sum, not a BLAS dot product,
whose rounding depends on the CPU kernel, and the per-bin sums are
pooled by math.fsum.  Nothing is drawn: no p-value depends on a test
seed or a permutation count, and no check loads a scipy module.

Every checker, and check_axioms, takes its columns through _prepared:
each comes back as a read-only NormalScores column carrying, if a check
conditions on it, its N_BINS bins.  A column _prepared made earlier
that carries what is asked passes through, so no checker validates or
sorts a column check_axioms prepared; any other is validated and sorted
once, and its copula ranks, normal scores and bins are read off that
one order.  Bin j of L starts at sorted position ceil((n - 1) j / L),
computed in integers and moved back to the start of its tie block; its
rows are its run of the order, sorted.  An untied column has the sorted
scores normal_ppf(k / (n + 1)), k = 1 .. n, which depend on n alone: up
to 2^17 values (1 MiB) they are kept per n, past that made per call.

check_axioms runs check_separation on one worker thread while the
calling thread runs the other two checks.  The two threads read the
same prepared columns and write nothing the other reads, so every
verdict is bit for bit that of three calls in a row.  glibc gives the
worker a malloc arena of its own, which keeps its high-water mark, so
every full-length array is built on the calling thread before the
worker starts; the worker allocates per-bin arrays only.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, EmptyBin, LengthMismatch, NonFiniteInput,
                     TooFewSamples)
from .streams import check_integer, check_seed, normal_ppf, shown

POWER_GUARD_N = 100_000  # HOLDS requires at least this many observations

MIN_BIN_COUNT = 30
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
    no p-value: every statistic has a closed-form normal or chi-square
    reference, which draws nothing.  They are still validated and
    recorded in each verdict and report, because existing configs,
    command lines and the benchmark pass them; they go when those
    callers stop.  The resolution of the tests (N_BINS) is fixed.
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


# ---------------------------------------------------------------------------
# one sort per column: ranks, normal scores and conditioning bins
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


def _level_starts(n: int, n_levels: int) -> np.ndarray:
    """The sorted positions ceil((n - 1) j / n_levels), j = 1 .. n_levels - 1,
    at which the inner levels of n values start, computed in integers."""
    return -((-(n - 1) * np.arange(1, n_levels)) // n_levels)


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


class NormalScores(np.ndarray):
    """A read-only column of normal scores made by _prepared.  A column
    cut into the N_BINS conditioning bins carries ``bins``, the pair
    (counts, rows): the number of values in each bin, and the column's
    sorting order with each bin's run sorted, the order a boolean mask
    of its bin would select its rows in.  Views, copies and arrays cast
    to the class are not ``prepared`` and carry no bins, and _prepared
    scores them again."""

    prepared = False
    bins = None


def _prepared(columns, binned) -> list:
    """The columns as read-only NormalScores of one length, each
    carrying its bins where its entry of binned is true.

    A column that _prepared made and that carries what is asked passes
    through untouched.  The others are validated (LengthMismatch, and
    NonFiniteInput for values that are not finite real numbers, ragged
    rows, or more than one axis longer than 1; bools pass) before any
    is scored from one sort (_scored), and each validated copy goes once
    its column is scored.  Their untied columns share one sorted score
    vector: the kept one up to _CACHED_SCORES_MAX_N values, past that
    one for this call.
    """
    out, fresh = list(columns), []
    for i, (col, want) in enumerate(zip(columns, binned)):
        if not (isinstance(col, NormalScores) and col.prepared
                and (col.bins is not None or not want)):
            try:
                col = np.asarray(col)
            except ValueError:
                raise NonFiniteInput("input vectors must be flat columns of "
                                     "real numbers, not ragged rows") from None
            if col.dtype.kind not in "biuf":
                raise NonFiniteInput(f"input vectors must hold real numbers, not {col.dtype}")
            if sum(length > 1 for length in col.shape) > 1:
                raise NonFiniteInput(f"input vectors must be flat columns, not {col.shape}")
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
        out[i] = _scored(out[i], binned[i], untied)
    return out


def _scored(x: np.ndarray, binned: bool, untied) -> NormalScores:
    """normal_ppf of the copula ranks of the validated column x,
    carrying, if binned, its N_BINS bins, all from one sort of x.

    The bins are cut on the sorted raw values.  A cut reads only the
    order and the ties of a column, which the scores keep (see
    TestScoresKeepTheirOrder), so the bins are a cut of the scores too.
    Each bin's rows are its run of the order, sorted in place: the sort
    of x reorders only equal values, which share a bin, so the rows are
    the same on every CPU.  A column of n distinct values takes its
    sorted scores from untied(n); any other column ranks its own.
    """
    n = x.shape[0]
    order = np.argsort(x)
    xs = x[order]
    counts = _level_counts(xs, N_BINS) if binned else None
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
    scores.prepared = True
    scores.flags.writeable = False
    if binned:
        for end, count in zip(np.cumsum(counts).tolist(), counts.tolist()):
            order[end - count:end].sort()
        scores.bins = (counts, order)
    return scores


# ---------------------------------------------------------------------------
# moment statistics and axiom checkers
# ---------------------------------------------------------------------------

def _correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson's correlation of two columns, 0 where one is constant.

    Normal scores are centered up to rounding, so the centering is
    taken out of the raw sums, with one full-length temporary at a
    time.  A constant column scores exactly 0 everywhere, so its sums
    are exactly 0.
    """
    n = a.shape[0]
    sa, sb = float(np.add.reduce(a)), float(np.add.reduce(b))
    va = float(np.add.reduce(a * a)) - sa * sa / n
    vb = float(np.add.reduce(b * b)) - sb * sb / n
    if va <= 0.0 or vb <= 0.0:
        return 0.0
    return (float(np.add.reduce(a * b)) - sa * sb / n) / math.sqrt(va * vb)


def _bin_moment_sums(ra: np.ndarray, rb: np.ndarray) -> list:
    """[s1, q1, s2, q2] for the residuals ra, rb of one bin: the sum and
    the sum of squares of the products of the residuals (s1, q1) and of
    the products of their squares (s2, q2), each factor centered on its
    bin mean first.  Works in place."""
    sums = []
    for _ in range(2):  # the residuals, then their squares
        ra -= np.add.reduce(ra) / ra.shape[0]
        rb -= np.add.reduce(rb) / rb.shape[0]
        prod = ra * rb
        sums.append(float(np.add.reduce(prod)))
        prod *= prod
        sums.append(float(np.add.reduce(prod)))
        ra *= ra
        rb *= rb
    return sums


def _gcm_z(total: float, total_sq: float, n: int) -> float:
    """sqrt(n) mean / sd of n products with this sum and sum of
    squares; 0 where their sd is 0."""
    var = total_sq / n - (total / n) ** 2
    return total / math.sqrt(n * var) if var > 0.0 else 0.0


def check_independence(prices, d, cfg: TestConfig) -> FairnessVerdict:
    """Statistical parity: price independent of the protected coordinate.

    The statistic is the correlation r of the two columns' normal
    scores, and p = erfc(sqrt((n - 1) / 2) |r|).  Both columns are
    scored by _prepared, which passes a column check_axioms prepared
    through.
    """
    prices, d = _prepared((prices, d), (False, False))
    n = prices.shape[0]
    if n < 100:
        raise TooFewSamples(f"need >= 100 observations, got {n}")
    r = _correlation(np.asarray(prices), np.asarray(d))
    p = math.erfc(abs(r) * math.sqrt(0.5 * (n - 1)))
    return FairnessVerdict(
        axiom=Axiom(INDEPENDENCE), statistic=r, p_value=p,
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

    _prepared validates and sorts each column once, cutting the bins of
    the two conditioning columns, the price and y, so the checkers pass
    all three through.  Separation then runs on one worker thread while
    this one runs independence and sufficiency: the checks read the
    prepared columns and write nothing the other reads, so the verdicts
    are those of three calls in a row.  The worker has ended when this
    returns or raises.  The checkers are called by their module names,
    so a wrapper bound in their place sees every call.
    """
    # prepared here, so that the worker allocates no full-length array
    # in an arena of its own, whose high-water mark would stay
    sp, sd, sy = _prepared((prices, d, y), (True, False, True))
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
    a, b, given = _prepared((a, b, given), (False, False, True))
    n = given.shape[0]
    if n < 100 * N_BINS:
        raise TooFewSamples(
            f"need >= {100 * N_BINS} observations for {N_BINS} bins, got {n}")
    # ties merge quantile bins, so there may be fewer than N_BINS, none
    # empty; a bin below the minimum count is a genuine data problem
    counts, order = given.bins
    if counts.min() < MIN_BIN_COUNT:
        raise EmptyBin(
            f"a conditioning bin holds {counts.min()} < {MIN_BIN_COUNT} points")
    # each bin gathers its own rows from the plain arrays, so no sorted
    # copy of the three columns is held alongside them
    a, b, given = (np.asarray(c) for c in (a, b, given))
    ends = np.cumsum(counts)
    sums = []
    for k in range(counts.shape[0]):
        rows = order[ends[k] - counts[k]:ends[k]]
        ak, bk = a[rows], b[rows]
        _detrend(given[rows], ak, bk)
        sums.append(_bin_moment_sums(ak, bk))
    s1, q1, s2, q2 = (math.fsum(column) for column in zip(*sums))
    stat = _gcm_z(s1, q1, n) ** 2 + _gcm_z(s2, q2, n) ** 2
    p = math.exp(-0.5 * stat)
    return FairnessVerdict(
        axiom=Axiom(axiom), statistic=stat, p_value=p,
        analytic_criterion=None,
        verdict=_verdict_from_p(p, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)
