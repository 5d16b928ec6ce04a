"""Brute-force oracles that cross-check the package's closed forms.

None of these is on the audit path: they are the independent
references (grid integration, slice rejection, the conditional checks'
moment statistic by its definition, scipy's ranks, quantile levels
from scipy's minimum ranks, the Gaussian log density and
Schur-complement conditioning, and the closed-form X2 posterior
density and Var(Y | X1, D) of the portfolio model, and the Monte Carlo
moments summed over whole chunks) that the tests hold the fast code
against.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from fairlens import fairness, oracles
from fairlens.errors import EmptyBin, LengthMismatch
from fairlens.model import require_valid_rho_pair
from fairlens.oracles import _posterior_weight_and_variance
from fairlens.streams import _bit_generator, normal_ppf, standard_normals

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# grid integration and slice rejection
# ---------------------------------------------------------------------------

def grid_moments(density_fn, lo: float, hi: float, n_points: int = 4001):
    """Mean and variance of an unnormalized 1-d density on a Simpson grid."""
    if n_points % 2 == 0:
        n_points += 1
    x = np.linspace(lo, hi, n_points)
    f = density_fn(x)
    mass = _simpson(f, x)
    mean = _simpson(f * x, x) / mass
    var = _simpson(f * (x - mean) ** 2, x) / mass
    return float(mean), float(var), float(mass)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


@dataclass(frozen=True)
class SliceEstimate:
    """Conditional moments of a slice-rejection sample."""

    mean: float
    var: float
    se_mean: float
    se_var: float
    n_accepted: int


def slice_rejection_moments(draws_fn, slice_columns, slice_values, target_column,
                            half_width: float = 0.025, min_accepted: int = 10**4,
                            max_rounds: int = 256, block: int = 1 << 22) -> SliceEstimate:
    """Conditional moments of a column near a slice, by rejection.

    draws_fn(n, round_index) must return a (n, k) matrix of independent
    draws; rounds are keyed so the budget auto-expands deterministically
    until min_accepted samples fall inside every +-half_width window.
    """
    slice_columns = list(slice_columns)
    slice_values = np.asarray(slice_values, dtype=np.float64)
    kept = []
    total = 0
    for rnd in range(max_rounds):
        x = draws_fn(block, rnd)
        mask = np.ones(x.shape[0], dtype=bool)
        for col, val in zip(slice_columns, slice_values):
            mask &= np.abs(x[:, col] - val) < half_width
        kept.append(x[mask, target_column])
        total += int(mask.sum())
        if total >= min_accepted:
            break
    else:
        raise RuntimeError(
            f"slice acceptance too low: {total} accepted after {max_rounds} rounds")
    vals = np.concatenate(kept)
    n = vals.size
    mean = float(vals.mean())
    var = float(vals.var())
    centered = vals - mean
    m4 = float(np.mean(centered**4))
    se_mean = float(vals.std(ddof=1) / np.sqrt(n))
    se_var = float(np.sqrt(max(m4 - var**2, 0.0) / n))
    return SliceEstimate(mean=mean, var=var, se_mean=se_mean, se_var=se_var,
                         n_accepted=int(n))


def generator(seed: int, stream: int) -> np.random.Generator:
    """A numpy Generator on its own (seed, stream) Philox key."""
    return np.random.Generator(_bit_generator(seed, stream))


# ---------------------------------------------------------------------------
# the conditional checks' moment statistic by its definition
# ---------------------------------------------------------------------------

def _flat_pair(a, b):
    """a and b as flat float64 arrays of one length; this module's own
    check, apart from the one of the code it is a reference for."""
    a, b = (np.asarray(c, dtype=np.float64).ravel() for c in (a, b))
    if a.shape != b.shape:
        raise LengthMismatch("input vectors have unequal lengths")
    return a, b


def residualize(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """v less its least-squares line on g, the per-bin detrend as first
    written: one tested column at a time, centering g again for each,
    every sum numpy's pairwise np.sum of elementwise products."""
    gc = g - g.mean()
    den = float(np.sum(gc * gc))
    if den <= 0.0:
        return v
    return v - (float(np.sum(v * gc)) / den) * gc


def conditional_check_reference(a, b, given) -> tuple[float, float]:
    """(statistic, p) of a conditional check by its definition.

    Each column becomes normal_ppf of its scipy ranks, and the
    conditioning scores are cut into N_BINS bins by quantile_level_ids.
    Each bin's rows are picked by a boolean mask, each tested column is
    residualized on its own, and each residual, then each square of
    one, is centered on its bin mean.  The products of the pairs are
    pooled over every bin, and z = sqrt(n) mean / sd of each pooled
    product, by numpy's two-pass mean and sd (0 where the sd is 0).
    The statistic is z1^2 + z2^2 and p its chi-square tail with 2 df.
    Raises EmptyBin where a bin holds fewer than MIN_BIN_COUNT points.
    """
    a, b = _flat_pair(a, b)
    given, _ = _flat_pair(given, a)
    a, b, given = (normal_ppf(copula_ranks(c)) for c in (a, b, given))
    bin_ids = quantile_level_ids(given, fairness.N_BINS)
    counts = np.bincount(bin_ids)
    if counts.min() < fairness.MIN_BIN_COUNT:
        raise EmptyBin(f"a conditioning bin holds {counts.min()} points")
    products = ([], [])
    for k in range(counts.shape[0]):
        rows = bin_ids == k
        ra, rb = (residualize(c[rows], given[rows]) for c in (a, b))
        ra, rb = ra - ra.mean(), rb - rb.mean()
        products[0].append(ra * rb)
        sa, sb = ra * ra, rb * rb
        products[1].append((sa - sa.mean()) * (sb - sb.mean()))
    stat = 0.0
    for parts in products:
        pooled = np.concatenate(parts)
        sd = float(pooled.std())
        if sd > 0.0:
            stat += (math.sqrt(pooled.size) * float(pooled.mean()) / sd) ** 2
    return stat, math.exp(-0.5 * stat)


# ---------------------------------------------------------------------------
# copula ranks and quantile levels by their definitions
# ---------------------------------------------------------------------------

def copula_ranks(x) -> np.ndarray:
    """scipy's average ranks of x divided by n + 1."""
    x = np.asarray(x, dtype=np.float64)
    return sps.rankdata(x) / (x.shape[0] + 1.0)


def quantile_level_ids(x, n_levels: int) -> np.ndarray:
    """Each value's level among n_levels equal-count levels, by ranks.

    Inner level j starts at sorted position ceil((n - 1) j / n_levels),
    in Python ints, moved back to the first position of its tie block,
    which is scipy's minimum rank there less one.  A value's level is the
    number of distinct nonzero starts at or below its own tie block's.
    """
    n = len(x)
    block = sps.rankdata(x, method="min").astype(np.int64) - 1
    block_at = np.sort(block)  # the block start of each sorted position
    starts = {int(block_at[-(-(n - 1) * j // n_levels)]) for j in range(1, n_levels)}
    return np.searchsorted(np.array(sorted(starts - {0}), dtype=np.int64), block,
                           side="right")


# ---------------------------------------------------------------------------
# closed forms of the portfolio model
# ---------------------------------------------------------------------------

def x2_unnormalized_density_y0_d0(rho1: float, rho2: float, x2) -> np.ndarray | float:
    """Unnormalized density of X2 given (Y=0, D=0); even in x2.

    A leading 1/sqrt(1+x2^2) factor cancels against sqrt(1+x2^2)
    inside the square root, which leaves the posterior weight times
    exp(-x2^2/2); at rho1=rho2=0 that is (2+x2^2)^(-1/2) * exp(-x2^2/2).
    """
    require_valid_rho_pair(rho1, rho2)
    x2 = np.asarray(x2, dtype=np.float64)
    w, _ = _posterior_weight_and_variance(x2, rho1, rho2)
    core = w * np.exp(-0.5 * x2**2)
    return core if core.ndim else float(core)


def second_moment_mc_whole_chunks(pairs, n: int, seed: int):
    """oracles.second_moment_x1_given_y0_d0_mc as first written: each
    chunk's (2k x chunk) columns are filled, then every column and
    every product of two columns is summed with one .sum() over the
    whole chunk.  The same (estimates, cov), at several times the
    memory."""
    n_cols = 2 * len(pairs)
    first = np.zeros(n_cols)
    second = np.zeros((n_cols, n_cols))
    cols = np.empty((n_cols, min(n, oracles.MC_CHUNK)))
    prod = np.empty(cols.shape[1])
    done = 0
    block = 0
    while done < n:
        take = min(oracles.MC_CHUNK, n - done)
        x = standard_normals(take, seed, stream=oracles._MC_STREAM_BASE + block)
        for lo in range(0, take, oracles._MC_SLICE):
            hi = min(lo + oracles._MC_SLICE, take)
            for j, (rho1, rho2) in enumerate(pairs):
                w, v = _posterior_weight_and_variance(x[lo:hi], rho1, rho2)
                np.multiply(v, w, out=cols[2 * j, lo:hi])
                cols[2 * j + 1, lo:hi] = w
        for a in range(n_cols):
            first[a] += cols[a, :take].sum()
            for b in range(a, n_cols):
                np.multiply(cols[a, :take], cols[b, :take], out=prod[:take])
                second[a, b] += prod[:take].sum()
        done += take
        block += 1
    ratios, cov = oracles._ratio_covariance(first, second, n)
    estimates = tuple(
        oracles.MomentEstimate(value=float(value), std_error=float(np.sqrt(max(var, 0.0))),
                               n=n, method="monte_carlo")
        for value, var in zip(ratios, np.diag(cov)))
    return estimates, cov


def var_y_given_price_and_d(rho1: float, rho2: float, x1: float, d: float) -> float:
    """Var(Y | X1=x1, D=d) = 1 + m^2 + v via the X2 | (X1, D) conditional."""
    require_valid_rho_pair(rho1, rho2)
    m = rho2 / (1.0 - rho1**2) * (d - rho1 * x1)
    v = (1.0 - rho1**2 - rho2**2) / (1.0 - rho1**2)
    return 1.0 + m * m + v


# ---------------------------------------------------------------------------
# Gaussian log density and conditioning
# ---------------------------------------------------------------------------

def log_density(mean, cov, point) -> float:
    """Exact multivariate normal log density at the point."""
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    x = np.atleast_1d(np.asarray(point, dtype=np.float64))
    lower = np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
    u = np.linalg.solve(lower, x - mean)
    half_logdet = float(np.sum(np.log(np.diag(lower))))
    return float(-0.5 * mean.shape[0] * _LOG_2PI - half_logdet - 0.5 * u @ u)


def condition(mean, cov, observed_indices, observed_values):
    """Exact conditional (mean, cov) of the remaining coordinates.

    The Schur complement; the conditional covariance does not depend on
    observed_values.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    obs = np.asarray(sorted(set(int(i) for i in np.atleast_1d(observed_indices))))
    vals = np.atleast_1d(np.asarray(observed_values, dtype=np.float64))
    rest = np.setdiff1d(np.arange(mean.shape[0]), obs)

    s_oo = cov[np.ix_(obs, obs)]
    s_ro = cov[np.ix_(rest, obs)]
    s_rr = cov[np.ix_(rest, rest)]
    l_oo = np.linalg.cholesky(s_oo)
    # gain = s_ro @ inv(s_oo) via two triangular solves
    tmp = np.linalg.solve(l_oo, s_ro.T)
    gain = np.linalg.solve(l_oo.T, tmp).T
    new_mean = mean[rest] + gain @ (vals - mean[obs])
    new_cov = s_rr - gain @ s_ro.T
    return new_mean, (new_cov + new_cov.T) / 2.0
