"""Multivariate Gaussian distributions: validation, sampling, conditioning.

The portfolio law of (X1, X2, D) lives here, together with the exact
conditioning machinery (Schur complement) that the conditional-moment
oracles are built on.  Instances are immutable and safe to share across threads;
sampling is a pure function of (distribution, n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric
from .streams import standard_normals

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GaussianDistribution:
    """Validated multivariate normal with a cached Cholesky factor.

    chol is the read-only lower-triangular L with L @ L.T == cov.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def make_gaussian(mean, cov) -> GaussianDistribution:
    """Validate (mean, cov) and build a distribution with cached factor.

    The covariance is symmetrized (absorbing parser round-off up to
    1e-12) and must admit a Cholesky factorization; positive
    semi-definite but singular matrices are rejected.

    Raises
    ------
    DimensionMismatch
        mean is not a vector, cov not square, or sizes disagree.
    NotSymmetric
        max |cov - cov.T| exceeds 1e-12.
    NotPositiveDefinite
        Cholesky factorization fails, e.g. an invalid (rho1, rho2)
        pair with 1 - rho1^2 - rho2^2 <= 0.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if mean.ndim != 1 or cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"mean shape {mean.shape}, cov shape {cov.shape}")
    if mean.shape[0] != cov.shape[0]:
        raise DimensionMismatch(
            f"mean length {mean.shape[0]} != cov dimension {cov.shape[0]}")
    asym = float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    cov = (cov + cov.T) / 2.0
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    mean = mean.copy()
    mean.setflags(write=False)
    cov = cov.copy()
    cov.setflags(write=False)
    lower.setflags(write=False)
    return GaussianDistribution(mean=mean, cov=cov, chol=lower)


def sample(dist: GaussianDistribution, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n rows of mean + L @ z with deterministic, stream-partitioned z.

    Identical (dist, n, seed, stream) give byte-identical output, and
    ``sample(dist, k, ...)`` equals the first k rows of
    ``sample(dist, n, ...)`` for k <= n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = dist.dim
    z = standard_normals(n * k, seed, stream).reshape(n, k)
    return dist.mean + z @ dist.chol.T


def condition(dist: GaussianDistribution, observed_indices, observed_values) -> GaussianDistribution:
    """Exact conditional law of the remaining coordinates (Schur complement).

    The conditional covariance does not depend on observed_values.

    Raises
    ------
    DimensionMismatch
        empty, duplicated or out-of-range index set, a non-strict
        subset, or a value vector of the wrong length.
    NotPositiveDefinite
        singular observed-block covariance.
    """
    obs = np.asarray(sorted(set(int(i) for i in np.atleast_1d(observed_indices))))
    vals = np.atleast_1d(np.asarray(observed_values, dtype=np.float64))
    k = dist.dim
    if obs.size == 0 or obs.size >= k:
        raise DimensionMismatch("observed indices must be a strict nonempty subset")
    if obs.min() < 0 or obs.max() >= k:
        raise DimensionMismatch("observed index out of range")
    if vals.shape[0] != obs.size:
        raise DimensionMismatch("observed_values length != number of indices")
    rest = np.setdiff1d(np.arange(k), obs)

    s_oo = dist.cov[np.ix_(obs, obs)]
    s_ro = dist.cov[np.ix_(rest, obs)]
    s_rr = dist.cov[np.ix_(rest, rest)]
    try:
        l_oo = np.linalg.cholesky(s_oo)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"observed block not invertible: {exc}") from None
    # gain = s_ro @ inv(s_oo) via two triangular solves
    tmp = np.linalg.solve(l_oo, s_ro.T)
    gain = np.linalg.solve(l_oo.T, tmp).T
    new_mean = dist.mean[rest] + gain @ (vals - dist.mean[obs])
    new_cov = s_rr - gain @ s_ro.T
    new_cov = (new_cov + new_cov.T) / 2.0
    return make_gaussian(new_mean, new_cov)

