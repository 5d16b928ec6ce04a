"""Closed-form conditionals, moment estimators and analytic axiom verdicts.

This module holds the exact machinery behind the three impossibility
results for the running portfolio model: the conditional law of X1
given (Y=0, X2, D=0) and the X2 posterior weight under the same
conditioning, the ratio-of-expectations estimator for
E[X1^2 | Y=0, D=0] (Monte Carlo and quadrature routes), and the
analytic verdict for each fairness axiom as a function of
(rho1, rho2), for the x1 and the constant price.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError
from .fairness import (AXIOM_KINDS, HOLDS, INDEPENDENCE, SUFFICIENCY,
                       VIOLATED)
from .model import require_valid_rho_pair
from .streams import shown, standard_normals

MC_CHUNK = 1 << 20
# values per leaf of the summation tree: a leaf's columns, products and
# posterior temporaries stay in cache
_MC_SLICE = 1 << 14

# chunk streams live far from the simulator's covariate/response streams
# so sharing a seed across estimators and datasets never shares draws
_MC_STREAM_BASE = 0x200

# half-range for the x2 quadrature; the exp(-x^2/2) factor bounds the
# discarded tail mass below 1e-30
QUAD_HALF_RANGE = 12.0
_QUAD_NODES = 24
_QUAD_MAX_PANELS = 4096
# the quadrature route's default tolerance, which the analytic
# separation verdict uses
SEPARATION_QUAD_TOL = 1e-8


@dataclass(frozen=True)
class MomentEstimate:
    """Point estimate with uncertainty; std_error 0 only for quadrature."""

    value: float
    std_error: float
    n: int
    method: str

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.std_error == 0.0 and self.method != "quadrature":
            raise ValueError("zero std_error is reserved for quadrature")


def _posterior_weight_and_variance(x, rho1: float, rho2: float):
    """(w, v) at X2 = x: w is the X2-posterior weight given (Y=0, D=0)
    relative to the standard normal density, v = Var(X1 | Y=0, X2=x, D=0).
    """
    x2 = x**2
    t = 2.0 + x2
    den = t * (1.0 - rho2**2) - rho1**2
    w = (np.sqrt((1.0 - rho1**2 - rho2**2) / den)
         * np.exp(-0.5 * x2 * t * rho2**2 / den))
    v = (1.0 + x2) * (1.0 - rho1**2 - rho2**2) / den
    return w, v


def x1_given_y0_x2_d0(rho1: float, rho2: float, x2: float) -> tuple[float, float]:
    """(mean, variance) of the normal law of X1 given (Y=0, X2=x2, D=0)."""
    require_valid_rho_pair(rho1, rho2)
    # valid_rho_pair's rule: a real number, not a bool, compared before
    # any arithmetic, so a huge int is refused rather than overflowing
    if (isinstance(x2, bool) or not isinstance(x2, numbers.Real)
            or not abs(x2) <= sys.float_info.max):
        raise ValueError(f"x2 must be a finite real number, got {shown(x2)}")
    _, v = _posterior_weight_and_variance(x2, rho1, rho2)
    mean = -rho1 * rho2 * x2 * v / (1.0 - rho1**2 - rho2**2)
    return float(mean), float(v)


def _ratio_covariance(first, second, n):
    """(ratios, cov): the ratios of sample means first[2j] / first[2j+1]
    and their delta-method covariance.

    first holds the sums of the columns (num_0, den_0, num_1, ...) and
    second the upper triangle of their product sums.  Ratio j has the
    influence function (num_j - ratio_j den_j) / mean(den_j), so its
    covariance with ratio l is the sum of that gradient's outer
    product against the column covariance over both 2 x 2 blocks.
    Elementwise throughout: no BLAS call.
    """
    mean = first / n
    upper = np.triu(second / n - np.outer(mean, mean))
    cov_cols = upper + np.triu(upper, 1).T
    ratio = mean[0::2] / mean[1::2]
    grad = np.empty_like(mean)
    grad[0::2] = 1.0 / mean[1::2]
    grad[1::2] = -ratio / mean[1::2]
    k = ratio.shape[0]
    terms = grad[:, None] * cov_cols * grad[None, :]
    return ratio, terms.reshape(k, 2, k, 2).sum(axis=(1, 3)) / n


def second_moment_x1_given_y0_d0_mc(pairs, n: int, seed: int):
    """Monte Carlo route for each (rho1, rho2) in pairs, on one pass of draws.

    Each estimate is a ratio of sample means over X ~ N(0,1); every pair
    reads the same draws, so an estimate does not depend on which other
    pairs share the pass.  Chunked accumulation with a fixed block size
    keeps the result deterministic in (n, seed) regardless of how
    callers schedule it.  Each chunk is summed in one pass of
    cache-sized leaves, combined as numpy's pairwise summation would
    combine them, so the sums keep the bits of whole-chunk sums.

    Returns (estimates, cov): one MomentEstimate per pair, and the k x k
    delta-method covariance of their values.  The shared draws correlate
    the estimates, so the standard error of a difference of two needs
    the off-diagonal terms; each std_error is the square root of its
    diagonal entry.
    """
    pairs = tuple(pairs)
    for rho1, rho2 in pairs:
        require_valid_rho_pair(rho1, rho2)
    if n < 10**4:
        raise ValueError("monte_carlo requires n >= 1e4")
    # columns (w*v, w) per pair, a leaf of them at a time
    n_cols = 2 * len(pairs)
    cols = np.empty((n_cols, min(n, _MC_SLICE)))
    prod = np.empty(cols.shape[1])
    # per level of the summation tree, which halves a chunk at each
    # level: the column sums in row 0 and the upper triangle of the
    # product sums below (the lower stays zero)
    sums = np.zeros((MC_CHUNK.bit_length(), n_cols + 1, n_cols))
    total = np.zeros((n_cols + 1, n_cols))

    def leaf_sums(x, out):
        m = x.shape[0]
        for j, (rho1, rho2) in enumerate(pairs):
            w, v = _posterior_weight_and_variance(x, rho1, rho2)
            np.multiply(v, w, out=cols[2 * j, :m])
            cols[2 * j + 1, :m] = w
        np.add.reduce(cols[:, :m], axis=1, out=out[0])
        for a in range(n_cols):
            for b in range(a, n_cols):
                np.multiply(cols[a, :m], cols[b, :m], out=prod[:m])
                out[1 + a, b] = prod[:m].sum()

    def tree_sums(x, level):
        # numpy's pairwise summation (pairwise_sum in its add loop) splits
        # a length m > 128 at m // 2 rounded down to a multiple of 8, and
        # adds left + right; this walks the same tree down to leaves of
        # at most _MC_SLICE values, which numpy sums itself, so each sum
        # has the bits of one .sum() over the whole chunk
        m = x.shape[0]
        if m <= _MC_SLICE:
            leaf_sums(x, sums[level])
            return
        half = m // 2 - (m // 2) % 8
        tree_sums(x[:half], level + 1)
        sums[level] = sums[level + 1]
        tree_sums(x[half:], level + 1)
        sums[level] += sums[level + 1]

    done = 0
    block = 0
    while done < n:
        take = min(MC_CHUNK, n - done)
        tree_sums(standard_normals(take, seed, stream=_MC_STREAM_BASE + block), 0)
        total += sums[0]
        done += take
        block += 1
    ratios, cov = _ratio_covariance(total[0], total[1:], n)
    estimates = tuple(
        MomentEstimate(value=float(value), std_error=float(np.sqrt(max(var, 0.0))),
                       n=n, method="monte_carlo")
        for value, var in zip(ratios, np.diag(cov)))
    return estimates, cov


def _adaptive_even_quadrature(f, tol: float) -> float:
    """Integral of an even function over the real line.

    Composite Gauss-Legendre on [0, QUAD_HALF_RANGE], doubled; panel
    count doubles until two successive refinements agree within tol.
    """
    nodes, weights = leggauss(_QUAD_NODES)
    panels = 4
    prev = None
    while panels <= _QUAD_MAX_PANELS:
        edges = np.linspace(0.0, QUAD_HALF_RANGE, panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = f(pts.ravel()).reshape(pts.shape)
        # an elementwise product summed in numpy's fixed order, not a
        # BLAS matrix-vector product, whose rounding depends on the CPU
        # kernel
        total = float(np.sum(half * np.add.reduce(vals * weights, axis=1))) * 2.0
        if prev is not None and abs(total - prev) <= tol * (1.0 + abs(total)):
            return total
        prev = total
        panels *= 2
    raise QuadratureError(f"no convergence at tol={tol}")


def second_moment_x1_given_y0_d0_quad(
        rho1: float, rho2: float, tol: float = SEPARATION_QUAD_TOL) -> MomentEstimate:
    """Quadrature route for the same ratio, with adaptive error control."""
    require_valid_rho_pair(rho1, rho2)

    def phi(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    def numerator(x):
        w, v = _posterior_weight_and_variance(x, rho1, rho2)
        return w * v * phi(x)

    num = _adaptive_even_quadrature(numerator, tol)
    den = _adaptive_even_quadrature(
        lambda x: _posterior_weight_and_variance(x, rho1, rho2)[0] * phi(x), tol)
    return MomentEstimate(value=num / den, std_error=0.0, n=0, method="quadrature")


def analytic_verdict(axiom: str, rho1: float, rho2: float,
                     price_is_x1: bool) -> tuple[float, str]:
    """(criterion, HOLDS/VIOLATED) for the x1 or the constant price.

    Any valid signed pair is accepted: flipping the sign of D or X2 is a
    measure-preserving relabeling that maps (rho1, rho2) to any sign
    combination and leaves all three axioms untouched, so the x1 rules
    read |rho1| and |rho2|.

    x1 price. independence: Cov(price, D) = rho1, so HOLDS iff rho1 = 0
    (joint Gaussianity upgrades zero covariance to independence).
    sufficiency: Var(Y | X1, D) is constant in (X1, D) iff rho2 = 0.
    separation: HOLDS iff rho1 = rho2 = 0.  At (0, 0), D is independent
    of (X1, X2, Y).  Otherwise X1 and D are dependent given Y:

    - rho1 != 0.  The law of (X1, X2, Y) is symmetric under X2 -> -X2
      and Z (D's own noise) is independent of (X1, X2, Y), so
      E[X1 X2 | Y] = 0 and Cov(X1, D | Y) = rho1 Var(X1 | Y) != 0.
    - rho1 = 0, rho2 != 0.  Given (Y=0, X2=x, D=0), X1 is centred with
      variance v, so E[X1^2 | Y=0, D=0] = E_w[v] over the X2 posterior
      weight w.  Let w0, v0 be their (0, 0) values and t = 2 + x^2:
      v0 = (1+x^2)/t increases strictly in x^2; v <= v0 pointwise, with
      equality iff rho1 = 0; and w/w0 is nonincreasing in x^2 for every
      valid pair (its square-root factor t/(a t - b) decreases, with
      a = 1 - rho2^2 and b = rho1^2 < a, and its exponent
      (t^2 - 2t)/(a t - b) has derivative proportional to
      a t^2 - 2 b t + 2 b > 0 for t >= 2).  Chebyshev's association
      inequality gives E_w[v] <= E_w[v0] <= E_w0[v0], strictly unless
      rho1 = rho2 = 0, and E_w0[v0] = E[X1^2 | Y=0] since the law of
      (X1, X2, Y) does not involve (rho1, rho2).

    The reported separation criterion is the quadrature gap
    |E_w[v] - E_w0[v0]| for the pair (|rho1|, |rho2|).

    Constant price. The two price-side axioms hold trivially;
    sufficiency reduces to the independence of Y and D, which holds iff
    rho1 = rho2 = 0, reported with criterion rho1^2 + rho2^2.
    """
    require_valid_rho_pair(rho1, rho2)
    if axiom not in AXIOM_KINDS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if not price_is_x1:
        if axiom == SUFFICIENCY:
            verdict = HOLDS if rho1 == 0.0 and rho2 == 0.0 else VIOLATED
            return rho1**2 + rho2**2, verdict
        return 0.0, HOLDS
    r1, r2 = abs(rho1), abs(rho2)
    if axiom == INDEPENDENCE:
        return float(r1), HOLDS if r1 == 0.0 else VIOLATED
    if axiom == SUFFICIENCY:
        return float(r2), HOLDS if r2 == 0.0 else VIOLATED
    if r1 == 0.0 and r2 == 0.0:
        return 0.0, HOLDS
    with_d = second_moment_x1_given_y0_d0_quad(r1, r2).value
    without_d = second_moment_x1_given_y0_d0_quad(0.0, 0.0).value
    return abs(with_d - without_d), VIOLATED
