"""Brute-force oracles that cross-check the package's closed forms.

None of these is on the audit path: they are the independent
references (grid integration, slice rejection, the exact O(n^2)
distance correlation, the generic permutation p-value, the level-table
test's mid-p over scipy's sampled tables, scipy's ranks, numpy's
quantiles and quantile levels by comparison, the chi-square tail in
40-digit decimals, the saddlepoint tail on scipy's special functions
and root finder, the chi-square mixture's tail by Imhof's inversion on
scipy's adaptive quadrature and by Monte Carlo, the Gaussian log
density and Schur-complement
conditioning, and the closed-form X2 posterior density and
Var(Y | X1, D) of the portfolio model) that the tests hold the fast
code against.
"""

import decimal
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, optimize, special
from scipy import stats as sps

from fairlens import fairness
from fairlens.errors import ConfigError, LengthMismatch
from fairlens.fairness import _as_columns, _dcor_from_parts
from fairlens.model import require_valid_rho_pair
from fairlens.oracles import _posterior_weight_and_variance
from fairlens.streams import generator

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
    a, b = _as_columns(a, b)
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


def permutation_pvalue(statistic_fn: Callable, a, b, n_permutations: int,
                       seed: int) -> float:
    """p = (1 + #{permuted statistic >= observed}) / (n_permutations + 1).

    Permutations are applied to b only; deterministic in seed.
    """
    if n_permutations < 99:
        raise ConfigError("n_permutations must be >= 99")
    a, b = _as_columns(a, b)
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


# ---------------------------------------------------------------------------
# copula ranks and quantile levels by their definitions
# ---------------------------------------------------------------------------

def copula_ranks(x) -> np.ndarray:
    """scipy's average ranks of x divided by n + 1."""
    x = np.asarray(x, dtype=np.float64)
    return sps.rankdata(x) / (x.shape[0] + 1.0)


def sorted_quantiles(xs, probs) -> np.ndarray:
    """np.quantile with numpy's default linear method."""
    return np.quantile(xs, probs)


def quantile_level_ids(x, n_levels: int) -> np.ndarray:
    """Each value's count of distinct quantile edges at or below it, the
    edges at the n_levels - 1 inner equal-probability points."""
    probs = np.linspace(0.0, 1.0, n_levels + 1)[1:-1]
    return np.searchsorted(np.unique(np.quantile(x, probs)), x, side="right")


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


def saddlepoint_log_sf_scipy(q: float, w: np.ndarray) -> float:
    """The Lugannani-Rice log P(Q > q) of fairness._saddlepoint_log_sf,
    Q a chi-square mixture with mean 1, as written on scipy: brentq for
    the root of K'(t) = q, ndtr for the normal tail and erfcx for Mills'
    ratio."""
    def pdf(z):
        return np.exp(-(z * z) / 2.0) / np.sqrt(2 * np.pi)

    t = saddlepoint_root_brentq(q, w)
    k = -0.5 * float(np.sum(np.log1p(-2.0 * t * w)))
    z = math.copysign(math.sqrt(max(2.0 * (t * q - k), 0.0)), t)
    if abs(z) < 1e-3:
        k2 = 2.0 * float(np.sum(w * w))
        skew = 8.0 * float(np.sum(w**3)) / k2**1.5
        zc = (q - 1.0) / math.sqrt(k2)
        p = special.ndtr(-zc) + pdf(zc) * skew * (zc * zc - 1.0) / 6.0
        return min(math.log(p), 0.0)
    r = w / (1.0 - 2.0 * t * w)
    u = t * math.sqrt(2.0 * float(np.sum(r * r)))
    if z > 0.0:
        mills = math.sqrt(math.pi / 2.0) * float(special.erfcx(z / math.sqrt(2.0)))
        return min(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                   + math.log(mills + 1.0 / u - 1.0 / z), 0.0)
    p = special.ndtr(-z) + pdf(z) * (1.0 / u - 1.0 / z)
    return min(math.log(p), 0.0)


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
