"""Brute-force oracles that cross-check the package's closed forms.

None of these is on the audit path: they are the independent
references (grid integration, slice rejection, the exact O(n^2)
distance correlation, the generic permutation p-value, the level-table
test's mid-p over scipy's sampled tables, the conditional checks'
per-bin loop as first written, scipy's ranks, quantile levels from
scipy's minimum ranks, the chi-square tail in 40-digit decimals, the
saddlepoint root by scipy's root finder, the odd-df chi-square tail
in log space, the chi-square mixture's tail by Ruben's series in
50-digit decimals, by Imhof's inversion on scipy's adaptive
quadrature and by Monte Carlo, the two-weight tail by adaptive
quadrature over the smaller weight's normal, the Gaussian log density
and Schur-complement conditioning, and the closed-form X2 posterior
density and Var(Y | X1, D) of the portfolio model, and the Monte Carlo
moments summed over whole chunks) that the tests hold the fast code
against.
"""

import decimal
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, optimize, special
from scipy import stats as sps

from fairlens import fairness, oracles
from fairlens.errors import ConfigError, EmptyBin, LengthMismatch
from fairlens.fairness import _dcor_from_parts
from fairlens.model import require_valid_rho_pair
from fairlens.oracles import _posterior_weight_and_variance
from fairlens.streams import _bit_generator, standard_normals

_LOG_2PI = float(np.log(2.0 * np.pi))

# permutation sub-stream of permutation_pvalue, apart from the checkers'
_STREAM_GENERIC = 0xFA00


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


# ---------------------------------------------------------------------------
# exact distance correlation and the generic permutation p-value
# ---------------------------------------------------------------------------

def distance_correlation(a, b) -> float:
    """Empirical distance correlation of two 1-d samples, in [0, 1].

    The plain V-statistic with double centering, evaluated exactly in
    row chunks so no n x n matrix is materialized.
    """
    a, b = _flat_pair(a, b)
    n = a.shape[0]
    if n < 4:
        raise LengthMismatch("need at least 4 observations")
    row_a = _abs_row_means(a)
    row_b = _abs_row_means(b)
    mu_a = float(row_a.mean())
    mu_b = float(row_b.mean())
    s_ab = s_aa = s_bb = 0.0
    chunk = max(1, (1 << 22) // n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        A = (np.abs(a[lo:hi, None] - a[None, :])
             - row_a[lo:hi, None] - row_a[None, :] + mu_a)
        B = (np.abs(b[lo:hi, None] - b[None, :])
             - row_b[lo:hi, None] - row_b[None, :] + mu_b)
        s_ab += float(np.vdot(A, B))
        s_aa += float(np.vdot(A, A))
        s_bb += float(np.vdot(B, B))
    return _dcor_from_parts(s_ab / n**2, s_aa / n**2, s_bb / n**2)


def _flat_pair(a, b):
    """a and b as flat float64 arrays of one length; this module's own
    check, apart from the one of the code it is a reference for."""
    a, b = (np.asarray(c, dtype=np.float64).ravel() for c in (a, b))
    if a.shape != b.shape:
        raise LengthMismatch("input vectors have unequal lengths")
    return a, b


def _abs_row_means(x: np.ndarray) -> np.ndarray:
    """Row means of the pairwise |x_i - x_j| matrix, via sorting."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    csum = np.cumsum(xs)
    ranks = np.arange(1, n + 1)
    sums_sorted = xs * (2 * ranks - n) - 2 * csum + csum[-1]
    out = np.empty(n)
    out[order] = sums_sorted / n
    return out


def generator(seed: int, stream: int) -> np.random.Generator:
    """A numpy Generator on its own (seed, stream) Philox key."""
    return np.random.Generator(_bit_generator(seed, stream))


def permutation_pvalue(statistic_fn: Callable, a, b, n_permutations: int,
                       seed: int) -> float:
    """p = (1 + #{permuted statistic >= observed}) / (n_permutations + 1).

    Permutations are applied to b only; deterministic in seed.
    """
    if n_permutations < 99:
        raise ConfigError("n_permutations must be >= 99")
    a, b = _flat_pair(a, b)
    observed = statistic_fn(a, b)
    rng = generator(seed, _STREAM_GENERIC)
    exceed = 0
    for _ in range(n_permutations):
        exceed += statistic_fn(a, b[rng.permutation(b.shape[0])]) >= observed
    return (1 + exceed) / (n_permutations + 1)


def sampled_table_mid_p(side_a, side_b, n_draws: int, seed: int) -> float:
    """Mid-p of the level-table dCov test of two variables, each given
    as its (level ids, level counts), against n_draws tables that
    scipy.stats.random_table draws on the observed table's margins by
    its default method, scored with fairness._table_dcov."""
    (ga, counts_a), (gb, counts_b) = side_a, side_b
    n = ga.shape[0]
    _, At, _ = fairness._level_side(counts_a, n)
    _, Bt, _ = fairness._level_side(counts_b, n)
    na, nb = counts_a.shape[0], counts_b.shape[0]
    N = np.zeros((na, nb))
    np.add.at(N, (ga.astype(np.intp), gb.astype(np.intp)), 1.0)
    observed = fairness._table_dcov(N, At, Bt, n)
    rows, cols = (N.sum(axis=k).astype(np.int64) for k in (1, 0))
    tables = sps.random_table(rows, cols).rvs(
        size=n_draws, random_state=np.random.default_rng(seed))
    null = np.array([fairness._table_dcov(t, At, Bt, n) for t in tables])
    greater = int(np.sum(null > observed))
    ties = int(np.sum(null == observed))
    return (greater + 0.5 * (ties + 1)) / (n_draws + 1)


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
    """(statistic, p) of a conditional check by its per-bin loop as
    first written: the columns scored by fairness._prepared with the
    conditioning bins cut, each bin's rows picked by a boolean mask of
    the conditioning bin ids, each tested column residualized on its
    own, and each bin's level table tested by fairness._table_test.
    Raises EmptyBin where a bin holds fewer than MIN_BIN_COUNT
    points."""
    a, b, given = fairness._prepared((a, b, given), ((), (), (fairness.N_BINS,)))
    bin_ids, counts = given.cuts[fairness.N_BINS]
    if counts.min() < fairness.MIN_BIN_COUNT:
        raise EmptyBin(f"a conditioning bin holds {counts.min()} points")
    a, b, given = (np.asarray(c) for c in (a, b, given))
    log_ps = []
    for k in range(counts.shape[0]):
        rows = bin_ids == k
        levels = fairness._n_levels(int(counts[k]), fairness.N_LEVELS // 2)
        sides = [fairness._quantile_level_ids(residualize(c[rows], given[rows]), levels)
                 for c in (a, b)]
        log_ps.append(fairness._table_test(*sides)[2])
    return fairness._fisher_from_logs(np.array(log_ps))


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
# chi-square tails
# ---------------------------------------------------------------------------

def chi2_even_sf_decimal(x: float, k: int) -> float:
    """P(X > x) for X chi-square with 2k df, the Poisson sum
    exp(-x/2) sum_{j<k} (x/2)^j / j! evaluated in 40 significant digits
    and rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        y = decimal.Decimal(x) / 2
        term = total = decimal.Decimal(1)
        for j in range(1, k):
            term = term * y / j
            total += term
        return float((-y).exp() * total)


def saddlepoint_root_brentq(q: float, w: np.ndarray) -> float:
    """The root t of K'(t) = sum w / (1 - 2 t w) = q by scipy's brentq,
    on the bracket fairness._saddlepoint_root starts from."""
    def excess(t):  # K'(t) - q
        return float(np.sum(w / (1.0 - 2.0 * t * w))) - q

    wmax = float(np.max(w))
    if excess(0.0) <= 0.0:
        lo, hi = 0.0, (1.0 - 0.5 * wmax / q) / (2.0 * wmax)
    else:
        lo, hi = -w.size / q, 0.0
    return optimize.brentq(excess, lo, hi, xtol=1e-300,
                           rtol=4.0 * np.finfo(float).eps, maxiter=500)


def chi2_odd_log_sf(x: float, df: int) -> float:
    """log P(X > x) for X chi-square with an odd df, finite far below
    the smallest double: erfc(sqrt(x/2)) plus
    exp(-x/2) sum_{j<(df-1)/2} (x/2)^(j+1/2) / Gamma(j+3/2), every term
    positive and taken through its log (scipy's log_ndtr for the first),
    summed by logsumexp."""
    y = x / 2.0
    j = np.arange(df // 2) + 0.5
    logs = j * math.log(y) - special.gammaln(j + 1.0) - y
    return float(special.logsumexp(np.append(
        logs, math.log(2.0) + float(special.log_ndtr(-math.sqrt(x))))))


def ruben_sf_decimal(q: float, w, digits: int = 50) -> decimal.Decimal:
    """P(sum_j w_j Z_j^2 > q) for an even number m of weights, by Ruben's
    (1962) series sum_k a_k P(chi2_{m+2k} > q / beta) evaluated in
    `digits` significant digits, as a Decimal that does not underflow.

    beta = 2 / (1/w_min + 1/w_max).  The a_k are the coefficients of
    G(s) = a_0 prod_j (1 - c_j s)^(-1/2), c_j = 1 - beta / w_j,
    a_0 = prod_j sqrt(beta / w_j); with P(s) = prod_j (1 - c_j s),
    P G' = -P' G / 2 gives each next one from the m before it.  Every
    chi-square tail has an even df, the finite Poisson sum
    exp(-y) sum_{i<n} y^i / i!, y = q / (2 beta).  Each tail is at most 1
    and |a_k| is at most a_0 binom(k + m/2 - 1, k) delta^k,
    delta = max |c_j|, so the series stops where that majorant's
    remainder is below 10^-digits of the sum.
    """
    m = len(w)
    if m % 2:
        raise ValueError("Ruben's series in decimal takes an even number of weights")
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        w = [decimal.Decimal(float(x)) for x in w]
        beta = 2 / (1 / min(w) + 1 / max(w))
        c = [1 - beta / x for x in w]
        delta = max(abs(x) for x in c)
        poly = [decimal.Decimal(1)]  # coefficients of P
        for cj in c:
            poly = [u - cj * v for u, v in zip(poly + [0], [0] + poly)]
        a = [math.prod((beta / x).sqrt() for x in w)]
        y = decimal.Decimal(q) / (2 * beta)
        half = m // 2
        term, partial = decimal.Decimal(1), decimal.Decimal(0)  # y^i / i!, sum_{i<n}
        for i in range(half):
            partial += term
            term = term * y / (i + 1)
        total = a[0] * partial
        bound = a[0]
        scale = (-y).exp()
        for k in itertools.count(1):
            ratio = delta * (k - 1 + half) / k
            if ratio < 1 and bound * ratio / (1 - ratio) < scale * total * ctx.power(10, -digits):
                return scale * total
            # the coefficient of s^(k-1) in P G' + P' G / 2 = 0:
            # k a_k = -sum_{i=1}^{m} p_i (k - i/2) a_{k-i}
            a.append(-sum(poly[i] * (k - decimal.Decimal(i) / 2) * a[k - i]
                          for i in range(1, min(k, m) + 1)) / k)
            partial += term
            term = term * y / (half + k)
            total += a[k] * partial
            bound *= ratio


def imhof_sf(q: float, w: np.ndarray, epsabs: float = 1e-13,
             epsrel: float = 1e-10) -> float:
    """P(sum_j w_j Z_j^2 > q) by Imhof's (1961) inversion of the
    characteristic function, integrated by scipy's adaptive quad; raises
    where quad reports that the integral did not converge (as it does on
    a few weights, whose integrand decays slowly)."""
    def integrand(u):
        x = w * u
        theta = 0.5 * (float(np.arctan(x).sum()) - q * u)
        log_rho = 0.25 * float(np.log1p(x * x).sum())
        return math.sin(theta) * math.exp(-log_rho) / u

    # with full_output, quad reports a failure in its return value
    # instead of warning
    out = integrate.quad(integrand, 0.0, math.inf, epsabs=epsabs,
                         epsrel=epsrel, limit=2000, full_output=1)
    if len(out) > 3:
        raise RuntimeError(f"quad did not converge at q={q}: {out[3]}")
    return 0.5 + out[0] / math.pi


def two_weight_sf_quad(q: float, w_big: float, w_small: float) -> float:
    """P(w_big Z1^2 + w_small Z2^2 > q) integrated over Z2 itself by
    scipy's adaptive quad: P(|Z2| > s) plus the integral over |z| < s,
    s = sqrt(q / w_small), of phi(z) P(Z1^2 > (q - w_small z^2) / w_big),
    whose derivative is singular at z = s."""
    s = math.sqrt(q / w_small)

    def integrand(z):
        rest = max(q - w_small * z * z, 0.0) / w_big
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * math.erfc(
            math.sqrt(0.5 * rest))

    breaks = [z for z in (1.0, 3.0, 6.0) if z < s] or None
    inner, _ = integrate.quad(integrand, 0.0, s, epsabs=1e-15, epsrel=1e-13,
                              limit=500, points=breaks)
    return math.erfc(s / math.sqrt(2.0)) + 2.0 * inner


def chi2_mixture_sf_monte_carlo(qs, w: np.ndarray, draws: int, seed: int):
    """(p, standard errors) of P(sum_j w_j Z_j^2 > q) at each q of qs,
    from `draws` independent vectors Z."""
    qs = np.asarray(qs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hits = np.zeros(qs.size)
    block = 1 << 18
    for lo in range(0, draws, block):
        z = rng.standard_normal((min(block, draws - lo), w.size))
        mix = np.sum(z * z * w, axis=1)
        hits += np.sum(mix[:, None] > qs[None, :], axis=0)
    p = hits / draws
    return p, np.sqrt(p * (1.0 - p) / draws)


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
