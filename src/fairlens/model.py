"""The running portfolio example: generative model and pricing functionals.

Covariates (X1, X2, D) are centered Gaussian with unit variances,
Cov(X1, X2) = 0 and Cov(Xi, D) = rho_i; the response is
Y | (X, D) ~ N(X1, 1 + X2^2), so the protected coordinate D carries no
information about Y beyond X.  All pricing functionals for this model
have closed forms (the conditional mean is X1), so every price is
either x1 or 0 and is computed exactly rather than fitted.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, LengthMismatch, NotPositiveDefinite
from .gaussian import sample
from .streams import check_integer, shown, standard_normals

FLOAT_FMT = "%.17g"

_COVARIATE_STREAM = 0
_RESPONSE_STREAM = 1  # separate sub-stream: adding columns never perturbs others

# Whether each named pricing functional evaluates to x1 (else to 0).
# The conditional mean of Y is X1, so best_estimate, unawareness and
# discrimination_free all equal x1; the null price is E[Y] = 0; subset
# prices are E[Y | selected covariates], i.e. x1 when X1 is selected
# and 0 otherwise (X1 and X2 are independent).  No price depends on d.
PRICE_IS_X1 = {
    "best_estimate": True,
    "unawareness": True,
    "discrimination_free": True,
    "null": False,
    "subset:x1": True,
    "subset:x2": False,
    "subset:x1,x2": True,
}


def valid_rho_pair(rho1: float, rho2: float) -> bool:
    """Two real numbers with 1 - rho1^2 - rho2^2 > 0: the covariance is
    positive definite.

    Anything but a real number (a string, None, a complex, a Decimal, a
    bool) is refused before arithmetic could raise TypeError on it.
    The rule implies |rho1|, |rho2| < 1, which is checked first so that
    a huge value is refused rather than overflowing its square; NaN
    fails the comparisons.  The one validity rule for the config, the
    model, the dataset and the oracles.
    """
    return (all(isinstance(rho, numbers.Real) and not isinstance(rho, bool)
                for rho in (rho1, rho2))
            and abs(rho1) < 1.0 and abs(rho2) < 1.0
            and 1.0 - rho1**2 - rho2**2 > 0.0)


def require_valid_rho_pair(rho1: float, rho2: float) -> None:
    """Raise NotPositiveDefinite unless valid_rho_pair(rho1, rho2)."""
    if not valid_rho_pair(rho1, rho2):
        raise NotPositiveDefinite(f"(rho1, rho2)=({shown(rho1)}, {shown(rho2)}) "
                                  "are not two reals with 1 - rho1^2 - rho2^2 > 0")


@dataclass(frozen=True)
class PortfolioModel:
    """Cov(X1, D) = rho1 and Cov(X2, D) = rho2; simulate adds the response law.

    Raises NotPositiveDefinite unless valid_rho_pair(rho1, rho2), checked
    before the pair is stored as floats: float() overflows on an int past
    the largest float.
    """

    rho1: float
    rho2: float

    def __post_init__(self):
        require_valid_rho_pair(self.rho1, self.rho2)
        object.__setattr__(self, "rho1", float(self.rho1))
        object.__setattr__(self, "rho2", float(self.rho2))


@dataclass(frozen=True)
class SimulatedDataset:
    """Columnar draws of (x1, x2, d, y) with their generating seed.

    The rho pair is checked as PortfolioModel checks it and stored as
    floats, so write_csv's sidecar holds JSON numbers that read back
    equal.
    """

    x1: np.ndarray
    x2: np.ndarray
    d: np.ndarray
    y: np.ndarray
    seed: int
    rho1: float
    rho2: float

    def __post_init__(self):
        n = self.x1.shape[0]
        for name in ("x2", "d", "y"):
            if getattr(self, name).shape[0] != n:
                raise LengthMismatch("dataset columns have unequal lengths")
        if n < 1:
            raise ValueError("dataset must hold at least one row")
        require_valid_rho_pair(self.rho1, self.rho2)
        object.__setattr__(self, "rho1", float(self.rho1))
        object.__setattr__(self, "rho2", float(self.rho2))

    @property
    def n(self) -> int:
        return self.x1.shape[0]


def make_example_model(rho1: float, rho2: float) -> PortfolioModel:
    """The portfolio model with Sigma = [[1,0,r1],[0,1,r2],[r1,r2,1]];
    PortfolioModel checks the pair."""
    return PortfolioModel(rho1=rho1, rho2=rho2)


def simulate(model: PortfolioModel, n: int, seed: int) -> SimulatedDataset:
    """n i.i.d. draws of (x1, x2, d, y), deterministic in (model, n, seed);
    ConfigError unless n is an integer of at least 1."""
    if check_integer(n, "n") < 1:
        raise ConfigError(f"n must be >= 1, got {shown(n)}")
    x = sample(model.rho1, model.rho2, n, seed, stream=_COVARIATE_STREAM)
    z = standard_normals(n, seed, stream=_RESPONSE_STREAM)
    y = x[:, 0] + np.sqrt(1.0 + x[:, 1] ** 2) * z
    return SimulatedDataset(x1=x[:, 0], x2=x[:, 1], d=x[:, 2], y=y,
                            seed=seed, rho1=model.rho1, rho2=model.rho2)


# rows per formatted block: one %-format call per block instead of one
# per row, and no more than ~1 MB of text alive at a time
_CSV_BLOCK_ROWS = 8192


def write_csv(dataset: SimulatedDataset, path) -> None:
    """CSV with header x1,x2,d,y plus a {path}.meta.json sidecar.

    CRLF line ends and %.17g values, so every float reads back exactly;
    the bytes are those of np.savetxt with the same format.
    """
    path = Path(path)
    columns = np.column_stack([dataset.x1, dataset.x2, dataset.d, dataset.y])
    row = ",".join([FLOAT_FMT] * columns.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:  # no newline translation
        fh.write("x1,x2,d,y\r\n")
        for lo in range(0, columns.shape[0], _CSV_BLOCK_ROWS):
            block = columns[lo:lo + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    meta = {"n": dataset.n, "seed": dataset.seed,
            "rho1": dataset.rho1, "rho2": dataset.rho2}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta) + "\n")


def read_csv(path) -> SimulatedDataset:
    """Inverse of write_csv."""
    path = Path(path)
    x1, x2, d, y = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, unpack=True)
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    return SimulatedDataset(x1=x1, x2=x2, d=d, y=y, seed=int(meta["seed"]),
                            rho1=float(meta["rho1"]), rho2=float(meta["rho2"]))
