"""The portfolio's covariate law (X1, X2, D), sampled in closed form.

X1 and X2 are independent standard normals and
D = rho1 X1 + rho2 X2 + sqrt(1 - rho1^2 - rho2^2) Z with Z standard
normal and independent of both, so every coordinate has unit variance
and Cov(Xi, D) = rho_i.  Sampling is elementwise numpy with no BLAS or
LAPACK call, a pure function of (rho1, rho2, n, seed, stream).
"""

from __future__ import annotations

import numpy as np

from .streams import standard_normals


def sample(rho1: float, rho2: float, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n rows of (x1, x2, d) with deterministic, stream-partitioned normals.

    The caller checks the pair (``model.valid_rho_pair``) and n; the
    scale of Z is written as that predicate writes it, so a valid pair
    always gets a positive scale.  Identical arguments give
    byte-identical output, and ``sample(rho1, rho2, k, ...)`` equals the
    first k rows of ``sample(rho1, rho2, n, ...)`` for k <= n.
    """
    x = standard_normals(3 * n, seed, stream).reshape(n, 3)
    x[:, 2] = rho1 * x[:, 0] + rho2 * x[:, 1] + np.sqrt(1.0 - rho1**2 - rho2**2) * x[:, 2]
    return x
