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

from .errors import (ConfigError, LengthMismatch, NonFiniteInput, NotPositiveDefinite,
                     TooFewSamples)
from .gaussian import sample
from .streams import check_integer, check_seed, shown, standard_normals

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


def require_valid_rho_pair(rho1: float, rho2: float) -> tuple[float, float]:
    """The pair as floats if it is two real numbers with
    1 - rho1^2 - rho2^2 > 0 (the covariance is positive definite), else
    NotPositiveDefinite.  The one validity rule for the config, the
    model, the dataset and the oracles.

    Anything but a real number (a string, None, a complex, a Decimal, a
    bool) is refused before arithmetic could raise TypeError on it.
    The rule implies |rho1|, |rho2| < 1, which is checked first so that
    a huge value is refused rather than overflowing its square or
    float(); NaN fails the comparisons.
    """
    if not (all(isinstance(rho, numbers.Real) and not isinstance(rho, bool)
                for rho in (rho1, rho2))
            and abs(rho1) < 1.0 and abs(rho2) < 1.0
            and 1.0 - rho1**2 - rho2**2 > 0.0):
        raise NotPositiveDefinite(f"(rho1, rho2)=({shown(rho1)}, {shown(rho2)}) "
                                  "are not two reals with 1 - rho1^2 - rho2^2 > 0")
    return float(rho1), float(rho2)


@dataclass(frozen=True)
class PortfolioModel:
    """Cov(X1, D) = rho1 and Cov(X2, D) = rho2, as the floats
    require_valid_rho_pair returns; simulate adds the response law."""

    rho1: float
    rho2: float

    def __post_init__(self):
        rho1, rho2 = require_valid_rho_pair(self.rho1, self.rho2)
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "rho2", rho2)


@dataclass(frozen=True)
class SimulatedDataset:
    """Columnar draws of (x1, x2, d, y) with their generating seed.

    The rho pair is checked as PortfolioModel checks it and stored as
    floats, so write_csv's sidecar holds JSON numbers that read back
    equal; the seed is checked as the generator key checks it.
    """

    x1: np.ndarray
    x2: np.ndarray
    d: np.ndarray
    y: np.ndarray
    seed: int
    rho1: float
    rho2: float

    def __post_init__(self):
        columns = (self.x1, self.x2, self.d, self.y)
        if not all(isinstance(c, np.ndarray) and c.ndim == 1 for c in columns):
            raise NonFiniteInput("dataset columns must be 1-d numpy arrays")
        n = self.x1.shape[0]
        if any(c.shape[0] != n for c in columns):
            raise LengthMismatch("dataset columns have unequal lengths")
        if n < 1:
            raise TooFewSamples("dataset must hold at least one row")
        rho1, rho2 = require_valid_rho_pair(self.rho1, self.rho2)
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "rho2", rho2)
        object.__setattr__(self, "seed", check_seed(self.seed))

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
    """Inverse of write_csv.  The sidecar must be a JSON object with n,
    seed, rho1 and rho2 (ConfigError), whose n counts the rows read
    (LengthMismatch); SimulatedDataset checks the other values."""
    path = Path(path)
    x1, x2, d, y = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, unpack=True)
    sidecar = Path(str(path) + ".meta.json")
    try:
        meta = json.loads(sidecar.read_bytes())
    except ValueError:  # not UTF-8 or not JSON
        meta = None
    if not isinstance(meta, dict) or not {"n", "seed", "rho1", "rho2"} <= meta.keys():
        raise ConfigError(f"sidecar {sidecar}: not a JSON object with n, seed, rho1, rho2")
    if meta["n"] != x1.shape[0]:
        raise LengthMismatch(f"sidecar n {shown(meta['n'])} != {x1.shape[0]} rows read")
    return SimulatedDataset(x1=x1, x2=x2, d=d, y=y, seed=meta["seed"],
                            rho1=meta["rho1"], rho2=meta["rho2"])
