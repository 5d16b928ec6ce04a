"""Shared fixtures and oracle helpers."""

import numpy as np
import pytest

from fairlens import make_example_model, simulate

PANEL_SEEDS = tuple(range(1, 21))


def verdict_for(report, axiom):
    """The AxiomOutcome of an AuditReport for the named axiom."""
    for outcome in report.verdicts:
        if outcome.axiom == axiom:
            return outcome
    raise KeyError(axiom)


@pytest.fixture(scope="session")
def reference_model():
    return make_example_model(0.1, 0.9)


@pytest.fixture(scope="session")
def reference_dataset_cache(reference_model):
    """Lazily cached n=1e6 datasets of the reference model, keyed by seed."""
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = simulate(reference_model, 10**6, seed)
        return cache[seed]

    return get


def native_draws_fn(rho1, rho2, seed, x1=None, x2=None):
    """(x1, x2, d, y) draws from an independent sampler (numpy ziggurat).

    Used as the raw-sample source for rejection oracles: it shares no
    code with the package's deterministic inverse-CDF sampler, so
    agreement genuinely cross-validates the distributional claims.

    X1 and X2 are exogenous, so conditioning on either is exact: a
    given x1 or x2 overwrites that column of the standard normals.  The
    Cholesky factor is lower-triangular with X1 and X2 first, so the
    column is X1 or X2 itself and every other value is the one the
    unconditioned sampler draws.
    """
    cov = np.array([[1.0, 0.0, rho1], [0.0, 1.0, rho2], [rho1, rho2, 1.0]])
    lower = np.linalg.cholesky(cov)

    def draws(n, round_index):
        rng = np.random.default_rng((seed, round_index))
        z = rng.standard_normal((n, 3))
        for col, value in ((0, x1), (1, x2)):
            if value is not None:
                z[:, col] = value
        x = z @ lower.T
        y = x[:, 0] + np.sqrt(1.0 + x[:, 1] ** 2) * rng.standard_normal(n)
        return np.column_stack([x, y])

    return draws


def trivariate_log_density(rho1, rho2, x1, x2, d):
    """Normal log density of (X1, X2, D) written out directly.

    Independent of the package's Cholesky-based evaluator: uses the
    explicit inverse quadratic form of the model covariance.
    """
    det = 1.0 - rho1**2 - rho2**2
    quad = (x1**2 * (1 - rho2**2) + x2**2 * (1 - rho1**2) + d**2
            + 2 * x1 * x2 * rho1 * rho2 - 2 * x1 * d * rho1 - 2 * x2 * d * rho2)
    return -1.5 * np.log(2 * np.pi) - 0.5 * np.log(det) - 0.5 * quad / det


def response_log_density(y, x1, x2):
    s2 = 1.0 + x2**2
    return -0.5 * np.log(2 * np.pi * s2) - 0.5 * (y - x1) ** 2 / s2
