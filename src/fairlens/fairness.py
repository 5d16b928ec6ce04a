"""Statistical checkers for the three group-fairness axioms.

Each axiom is operationalized as an independence test on continuous
data:

* independence (statistical parity): price independent of D — a
  distance-correlation permutation test.
* separation (equalized odds): price independent of D given Y — the
  response is sliced into equal-probability bins, the permutation test
  runs inside each bin, and per-bin p-values are Fisher-combined.
* sufficiency (predictive parity): Y independent of D given the price —
  the same machinery with the roles of Y and the price exchanged.

The permutation core discretizes both variables into quantile levels
and works on the resulting contingency table: the distance covariance
of the discretized pair is <N, A~ N B~> for fixed centered
level-distance matrices, and permuting one variable induces exactly the
fixed-margins hypergeometric law on tables, which is sampled directly
(Patefield's algorithm).  This keeps every observation in play at
O(levels^3) per permutation instead of O(n^2).

Within conditioning bins, both tested variables are linearly detrended
on the conditioning variable (all three on the normal-scores scale), to
remove the spurious dependence that finite-width bins otherwise leak in
the tails of the conditioning variable.  Per-bin mid-p values feed
Fisher's combination so that the combined statistic keeps its
chi-square reference despite the permutation p-value grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy import stats as sps

from .errors import ConfigError, EmptyBin, LengthMismatch, OutOfRange, TooFewSamples
from .streams import generator, normal_ppf

POWER_GUARD_N = 100_000  # HOLDS requires at least this many observations

MIN_BIN_COUNT = 30
N_LEVELS = 64  # quantile levels per variable; conditional bins use half

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
    that generated the data.  n_bins_y is the number of
    equal-probability bins of the conditioning variable.
    """

    alpha: float = 0.01
    n_permutations: int = 999
    n_bins_y: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if self.n_permutations < 99:
            raise ConfigError("n_permutations must be >= 99")
        if self.n_bins_y < 5:
            raise ConfigError("n_bins_y must be >= 5")


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


def _copula_ranks(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    return sps.rankdata(x) / (n + 1.0)


def _as_columns(*cols):
    arrays = [np.asarray(c, dtype=np.float64).ravel() for c in cols]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise LengthMismatch("input vectors have unequal lengths")
    return arrays


# ---------------------------------------------------------------------------
# discretized distance correlation with a fixed-margins permutation null
# ---------------------------------------------------------------------------

def _quantile_level_ids(x: np.ndarray, n_levels: int):
    probs = np.linspace(0.0, 1.0, n_levels + 1)[1:-1]
    edges = np.unique(np.quantile(x, probs))
    return np.searchsorted(edges, x, side="right"), edges.shape[0] + 1


def _level_table(a, b, n_levels):
    """Contingency table of quantile levels plus centered distance parts.

    Returns (N, At, Bt, dvar_a, dvar_b).  Level positions are copula
    midranks, so the table depends on the order of the values only.
    """
    ga, na = _quantile_level_ids(a, n_levels)
    gb, nb = _quantile_level_ids(b, n_levels)
    N = np.zeros((na, nb))
    np.add.at(N, (ga, gb), 1.0)
    n = a.shape[0]
    pa = N.sum(axis=1) / n
    pb = N.sum(axis=0) / n
    va = np.cumsum(pa) - pa / 2.0
    vb = np.cumsum(pb) - pb / 2.0
    At = _centered_level_distances(va, pa)
    Bt = _centered_level_distances(vb, pb)
    dvar_a = float(pa @ (At * At) @ pa)
    dvar_b = float(pb @ (Bt * Bt) @ pb)
    return N, At, Bt, dvar_a, dvar_b


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


def _null_dcov_draws(N, At, Bt, n, n_draws, rng):
    rows = N.sum(axis=1).astype(np.int64)
    cols = N.sum(axis=0).astype(np.int64)
    tables = sps.random_table(rows, cols).rvs(size=n_draws, random_state=rng)
    tables = tables.reshape(n_draws, rows.shape[0], cols.shape[0])
    inner = np.matmul(np.matmul(At, tables), Bt)
    return np.einsum("bij,bij->b", tables, inner) / n**2


def _table_permutation_test(a, b, n_levels, n_permutations, rng):
    """(dcor, exact p, mid p) for the discretized permutation test."""
    N, At, Bt, dva, dvb = _level_table(a, b, n_levels)
    n = a.shape[0]
    if dva <= 0.0 or dvb <= 0.0:
        # a constant side is independent of anything
        return 0.0, 1.0, 1.0
    s_obs = _table_dcov(N, At, Bt, n)
    null = _null_dcov_draws(N, At, Bt, n, n_permutations, rng)
    greater = int(np.sum(null > s_obs))
    ties = int(np.sum(null == s_obs))
    p_exact = (1 + greater + ties) / (n_permutations + 1)
    p_mid = (greater + 0.5 * (ties + 1)) / (n_permutations + 1)
    return _dcor_from_parts(s_obs, dva, dvb), p_exact, p_mid


# ---------------------------------------------------------------------------
# p-value combination and axiom checkers
# ---------------------------------------------------------------------------

def combine_pvalues_fisher(pvals) -> tuple[float, float]:
    """Fisher's method: (statistic -2 sum(log p), its p-value against
    chi-square with 2k df)."""
    p = np.asarray(pvals, dtype=np.float64).ravel()
    if p.size == 0:
        raise OutOfRange("need at least one p-value")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise OutOfRange("p-values must lie in (0, 1]")
    # + 0.0 turns the -0.0 of all-ones inputs into 0.0
    stat = -2.0 * float(np.sum(np.log(p))) + 0.0
    return stat, float(sps.chi2.sf(stat, 2 * p.size))


def check_independence(prices, d, cfg: TestConfig) -> FairnessVerdict:
    """Statistical parity: price independent of the protected coordinate.

    The level table depends on the order of the values only, so the
    test runs on the raw columns and is still rank-invariant.
    """
    prices, d = _as_columns(prices, d)
    n = prices.shape[0]
    if n < 100:
        raise TooFewSamples(f"need >= 100 observations, got {n}")
    levels = max(4, min(N_LEVELS, n // 16))
    rng = generator(cfg.seed, _STREAM_INDEPENDENCE)
    dcor, p_exact, _ = _table_permutation_test(
        prices, d, levels, cfg.n_permutations, rng)
    return FairnessVerdict(
        axiom=Axiom(INDEPENDENCE), statistic=dcor, p_value=p_exact,
        analytic_criterion=None,
        verdict=_verdict_from_p(p_exact, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)


def check_separation(prices, d, y, cfg: TestConfig) -> FairnessVerdict:
    """Equalized odds: price independent of D conditionally on Y."""
    return _conditional_check(a=prices, b=d, given=y, cfg=cfg, axiom=SEPARATION)


def check_sufficiency(y, d, prices, cfg: TestConfig) -> FairnessVerdict:
    """Predictive parity: Y independent of D conditionally on the price.

    Identical machinery to check_separation with the roles of the
    response and the price exchanged.
    """
    return _conditional_check(a=y, b=d, given=prices, cfg=cfg, axiom=SUFFICIENCY)


def _residualize(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    gc = g - g.mean()
    den = float(gc @ gc)
    if den <= 0.0:
        return v
    return v - (float(v @ gc) / den) * gc


def _conditional_check(a, b, given, cfg: TestConfig, axiom: str) -> FairnessVerdict:
    a, b, given = _as_columns(a, b, given)
    n = a.shape[0]
    if n < 100 * cfg.n_bins_y:
        raise TooFewSamples(
            f"need >= {100 * cfg.n_bins_y} observations for {cfg.n_bins_y} bins, got {n}")
    a = normal_ppf(_copula_ranks(a))
    b = normal_ppf(_copula_ranks(b))
    given = normal_ppf(_copula_ranks(given))
    bin_ids, n_bins = _quantile_level_ids(given, cfg.n_bins_y)
    # ties can leave quantile bins with no points at all; those are a
    # degenerate-edge artifact and collapse away, while nonempty bins
    # below the minimum count are a genuine data problem
    occupied = np.unique(bin_ids)
    bin_ids = np.searchsorted(occupied, bin_ids)
    n_bins = occupied.shape[0]
    counts = np.bincount(bin_ids, minlength=n_bins)
    if counts.min() < MIN_BIN_COUNT:
        raise EmptyBin(
            f"a conditioning bin holds {counts.min()} < {MIN_BIN_COUNT} points")
    mid_ps = np.empty(n_bins)
    for k in range(n_bins):
        sel = bin_ids == k
        gk = given[sel]
        ak = _residualize(a[sel], gk)
        bk = _residualize(b[sel], gk)
        levels = max(2, min(N_LEVELS // 2, int(counts[k]) // 16))
        rng = generator(cfg.seed, _STREAM_BIN_BASE + k)
        _, _, p_mid = _table_permutation_test(
            ak, bk, levels, cfg.n_permutations, rng)
        mid_ps[k] = p_mid
    stat, p_comb = combine_pvalues_fisher(mid_ps)
    return FairnessVerdict(
        axiom=Axiom(axiom), statistic=stat, p_value=p_comb,
        analytic_criterion=None,
        verdict=_verdict_from_p(p_comb, cfg.alpha, n),
        alpha=cfg.alpha, n_used=n, seed=cfg.seed)
