"""fairlens: a Gaussian insurance-pricing model with group-fairness audits.

The package implements a three-covariate Gaussian portfolio model whose
response depends only on the non-protected covariates, its pricing
functionals (best-estimate, unawareness, discrimination-free, null and
covariate-subset prices, each of which equals x1 or 0), statistical checkers for the three
group-fairness axioms (statistical parity, equalized odds, predictive
parity), and the closed-form oracles that decide each axiom analytically
as a function of the covariance parameters (rho1, rho2).
"""

from .errors import (ConfigError, EmptyBin, FairlensError, LengthMismatch,
                     NonFiniteInput, NotPositiveDefinite, QuadratureError,
                     TooFewSamples)
from .fairness import (Axiom, FairnessVerdict, TestConfig, check_independence,
                       check_separation, check_sufficiency)
from .harness import (AuditReport, AxiomOutcome, RunConfig, VERSION, cmd_audit,
                      cmd_reproduce_separation, cmd_table, emit_report)
from .model import (PortfolioModel, SimulatedDataset, make_example_model,
                    read_csv, simulate, write_csv)
from .oracles import (MomentEstimate, var_y_given_price_and_d,
                      x1_given_y0_x2_d0, x2_unnormalized_density_y0_d0)

__version__ = VERSION

__all__ = [
    "Axiom", "AuditReport", "AxiomOutcome", "ConfigError", "EmptyBin",
    "FairlensError", "FairnessVerdict", "LengthMismatch", "MomentEstimate",
    "NonFiniteInput", "NotPositiveDefinite", "PortfolioModel",
    "QuadratureError", "RunConfig", "SimulatedDataset", "TestConfig",
    "TooFewSamples", "check_independence", "check_separation",
    "check_sufficiency", "cmd_audit", "cmd_reproduce_separation",
    "cmd_table", "emit_report",
    "make_example_model", "read_csv", "simulate",
    "var_y_given_price_and_d", "write_csv", "x1_given_y0_x2_d0",
    "x2_unnormalized_density_y0_d0", "__version__",
]
