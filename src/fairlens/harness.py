"""Experiment orchestration: audits, reproductions, the regime grid.

A run simulates the portfolio model, prices it, applies the three
statistical checkers, pairs each with the analytic verdict for the same
(rho1, rho2), and emits a CSV/JSON report.  Reports are deterministic
functions of their configuration (the RFC 3339 timestamp is excluded
from determinism comparisons).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import fairness, model, oracles
from .errors import ConfigError, NotPositiveDefinite
from .fairness import (AXIOM_KINDS, HOLDS, INCONCLUSIVE, VIOLATED, Axiom,
                       FairnessVerdict, TestConfig)
from .model import FLOAT_FMT
from .oracles import MomentEstimate
from .streams import check_integer, check_seed, shown

VERSION = "0.1.0"

CSV_HEADER = ("axiom,verdict_statistical,verdict_analytic,statistic,"
              "p_value,analytic_criterion,alpha,n,seed")

TABLE_CSV_HEADER = "rho1,rho2,axiom,analytic,statistical,agree"

DEFAULT_TABLE_PAIRS = ((0.3, 0.5), (0.3, 0.0), (0.0, 0.5), (0.0, 0.0))

FUNCTIONALS = tuple(model.PRICE_IS_X1)

OUTPUT_FORMATS = ("csv", "json")

# the flat --config keys, in report order: test_seed is TestConfig.seed,
# alpha and n_permutations are its other fields, and the rest are
# RunConfig fields; the CLI's audit flags use the same names as their
# argparse dests
CONFIG_KEYS = ("rho1", "rho2", "n", "seed", "alpha", "n_permutations",
               "test_seed", "output_path", "output_format", "functional")

# an audit's numpy heap (tracemalloc peak) is 80.4-81.6 bytes per row
# from n = 2e5 to 2e6, among them 16 for the two conditioning columns'
# bin rows, which check_axioms holds while its two threads run.  Below
# that a fixed ~1 MB counts in the first audit of a process: at n = 2e4
# it peaks at 129 bytes per row, a second audit at 81.  The ceiling, at
# 98 bytes per row, keeps the heap within 4 GiB, so 43,826,196 rows
AUDIT_HEAP_BYTES_PER_ROW = 98
AUDIT_HEAP_BUDGET_BYTES = 4 << 30
MAX_N = AUDIT_HEAP_BUDGET_BYTES // AUDIT_HEAP_BYTES_PER_ROW

# the reproduction's Monte Carlo streams its draws in fixed chunks, so
# its memory does not grow with n but its time does: a 1e7 run spends
# 0.55-0.80 s in it and a 1e9 run 69 s in all (2 vCPUs), while a
# mistyped n such as 1e18 would run until killed instead of exiting 2
MAX_REPRODUCE_N = 10**9


@dataclass(frozen=True)
class RunConfig:
    rho1: float
    rho2: float
    n: int = 10**6
    seed: int = 42
    test: TestConfig = field(default_factory=TestConfig)
    output_path: Optional[str] = None
    output_format: str = "json"
    functional: str = "unawareness"

    def __post_init__(self):
        try:
            model.require_valid_rho_pair(self.rho1, self.rho2)
        except NotPositiveDefinite as exc:
            raise ConfigError(str(exc)) from None
        # frozen fields: rho is stored as a float and a numpy integer as
        # an int, values a report writes and reads back unchanged
        object.__setattr__(self, "rho1", float(self.rho1))
        object.__setattr__(self, "rho2", float(self.rho2))
        object.__setattr__(self, "n", check_integer(self.n, "n"))
        if not 10**3 <= self.n <= MAX_N:
            raise ConfigError(f"n must be in [1000, {MAX_N}], got {shown(self.n)}")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string or None, "
                              f"got {shown(self.output_path)}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output_format must be csv or json, "
                              f"got {shown(self.output_format)}")
        if self.functional not in FUNCTIONALS:
            raise ConfigError(f"functional must be one of {FUNCTIONALS}")


@dataclass(frozen=True)
class AxiomOutcome:
    """Statistical and analytic verdicts for one axiom, side by side."""

    axiom: str
    statistical: FairnessVerdict
    analytic: FairnessVerdict

    @property
    def agree(self) -> bool:
        # an inconclusive statistical verdict is absence of evidence,
        # not a disagreement with the analytic verdict
        if self.statistical.verdict == INCONCLUSIVE:
            return True
        return self.statistical.verdict == self.analytic.verdict


@dataclass(frozen=True)
class AuditReport:
    config: RunConfig
    verdicts: tuple
    reproduction_numbers: dict
    timestamp: str
    version: str = VERSION

    @property
    def all_agree(self) -> bool:
        return all(v.agree for v in self.verdicts)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds").replace(
        "+00:00", "Z")


def _mc_moment(values: np.ndarray) -> MomentEstimate:
    n = values.shape[0]
    se = float(values.std(ddof=1) / np.sqrt(n))
    return MomentEstimate(value=float(values.mean()), std_error=se, n=n,
                          method="monte_carlo")


def cmd_audit(cfg: RunConfig) -> AuditReport:
    """Simulate, price, run all checkers, pair with analytic verdicts.

    Statistical checks that cannot run at the configured sample size
    (too few points per bin) are reported INCONCLUSIVE; the analytic
    verdicts are emitted regardless.
    """
    portfolio = model.make_example_model(cfg.rho1, cfg.rho2)
    data = model.simulate(portfolio, cfg.n, cfg.seed)
    price_is_x1 = model.PRICE_IS_X1[cfg.functional]
    prices = data.x1 if price_is_x1 else np.zeros(cfg.n)

    outcomes = []
    for axiom, stat in zip(AXIOM_KINDS, fairness.check_axioms(
            prices, data.d, data.y, cfg.test)):
        criterion, verdict = oracles.analytic_verdict(
            axiom, cfg.rho1, cfg.rho2, price_is_x1)
        analytic = FairnessVerdict(
            axiom=Axiom(axiom), statistic=criterion, p_value=None,
            analytic_criterion=criterion, verdict=verdict,
            alpha=cfg.test.alpha, n_used=0, seed=cfg.seed, source="analytic")
        outcomes.append(AxiomOutcome(axiom=axiom, statistical=stat,
                                     analytic=analytic))

    x1d = (data.x1 - data.x1.mean()) * (data.d - data.d.mean())
    reproduction = {
        "cov_x1_d": _mc_moment(x1d),
        "mean_y": _mc_moment(data.y),
        "var_y": _mc_moment((data.y - data.y.mean()) ** 2),
    }
    return AuditReport(config=cfg, verdicts=tuple(outcomes),
                       reproduction_numbers=reproduction, timestamp=_utc_now())


def cmd_reproduce_separation(n: int, seed: int) -> dict:
    """The Monte Carlo moments behind the separation counterexample.

    Returns both conditional second moments (with and without D in the
    conditioning), their standard errors, and the strict-ordering check
    value1 < value2 < 1 with margins in standard errors.  Both moments
    read the same draws, so the gap's standard error takes their
    covariance into account.
    """
    n = check_integer(n, "n")
    if not 10**6 <= n <= MAX_REPRODUCE_N:
        raise ConfigError(f"reproduction requires n in [{10**6}, {MAX_REPRODUCE_N}], "
                          f"got {shown(n)}")
    check_seed(seed)
    (with_d, without_d), cov = oracles.second_moment_x1_given_y0_d0_mc(
        ((0.1, 0.9), (0.0, 0.0)), n, seed)
    gap_se = float(np.sqrt(max(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1], 0.0)))
    return {
        "e_x1sq_given_y0_d0": with_d,
        "e_x1sq_given_y0": without_d,
        "ordering_ok": bool(with_d.value < without_d.value < 1.0),
        "gap_margin_se": (without_d.value - with_d.value) / gap_se,
        "unit_margin_se": (1.0 - without_d.value) / without_d.std_error,
    }


def cmd_table(rho_pairs=None, n: int = 10**6, seed: int = 7,
              test: TestConfig | None = None) -> list[dict]:
    """The regime grid: YES/NO over (rho1, rho2), analytic and statistical.

    One row per (pair, axiom): the analytic verdict, the statistical
    verdict from an audit at sample size n, and an agreement flag.
    """
    pairs = tuple(rho_pairs) if rho_pairs is not None else DEFAULT_TABLE_PAIRS
    test = test if test is not None else TestConfig()
    # pair k runs on seed + k; every pair's configuration is checked
    # before the first audit runs
    seed = check_seed(seed)
    if seed + len(pairs) > 1 << 64:
        raise ConfigError(f"pair k runs on seed + k, which leaves [0, 2^64) "
                          f"for seed {seed} and {len(pairs)} pairs")
    configs = [RunConfig(rho1=rho1, rho2=rho2, n=n, seed=seed + k, test=test)
               for k, (rho1, rho2) in enumerate(pairs)]
    cells = []
    for cfg in configs:
        for outcome in cmd_audit(cfg).verdicts:
            cells.append({
                "rho1": cfg.rho1,
                "rho2": cfg.rho2,
                "axiom": outcome.axiom,
                "analytic": _yes_no(outcome.analytic.verdict),
                "statistical": _yes_no(outcome.statistical.verdict),
                "agree": outcome.agree,
            })
    return cells


def _yes_no(verdict: str) -> str:
    if verdict == HOLDS:
        return "YES"
    if verdict == VIOLATED:
        return "NO"
    return "INCONCLUSIVE"


def format_table(cells: list[dict]) -> str:
    """Human-readable grid, one line per (rho1, rho2) pair, each column
    as wide as its widest entry."""
    pairs = list(dict.fromkeys((c["rho1"], c["rho2"]) for c in cells))
    rows = [["(rho1, rho2)", *AXIOM_KINDS]]
    for rho1, rho2 in pairs:
        row = {c["axiom"]: c for c in cells
               if (c["rho1"], c["rho2"]) == (rho1, rho2)}
        rows.append([f"({rho1:.2f}, {rho2:.2f})"] + [
            f"{row[a]['analytic']}/{row[a]['statistical']}"
            + ("" if row[a]["agree"] else "!") for a in AXIOM_KINDS])
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = ["  ".join([r[0].ljust(widths[0])]
                       + [e.rjust(w) for e, w in zip(r[1:], widths[1:])])
             for r in rows]
    lines.append("legend: analytic/statistical; ! disagreement")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _config_to_dict(cfg: RunConfig) -> dict:
    test = asdict(cfg.test)
    test["test_seed"] = test.pop("seed")
    return {key: test[key] if key in test else getattr(cfg, key)
            for key in CONFIG_KEYS}


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from the flat JSON mapping used by --config.

    Unknown keys and a missing rho1 or rho2 are refused here, and an
    integral float under a count or seed key becomes an int; RunConfig
    and TestConfig check every value, so a mistyped file is a
    ConfigError.  Keys the file leaves out take the dataclass defaults.
    """
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "rho1" not in raw or "rho2" not in raw:
        raise ConfigError("config requires rho1 and rho2")
    values = dict(raw)
    # JSON may write a count or a seed as an integral float such as 1e6
    for key in ("n", "seed", "n_permutations", "test_seed"):
        value = values.get(key)
        if isinstance(value, float) and value.is_integer():
            values[key] = int(value)
    test = {("seed" if key == "test_seed" else key): values.pop(key)
            for key in ("alpha", "n_permutations", "test_seed")
            if key in values}
    return RunConfig(test=TestConfig(**test), **values)


def report_to_dict(report: AuditReport) -> dict:
    return {
        "config": _config_to_dict(report.config),
        "verdicts": [
            {
                "axiom": v.axiom,
                "statistical": v.statistical.to_dict(),
                "analytic": v.analytic.to_dict(),
                "agree": v.agree,
            }
            for v in report.verdicts
        ],
        "reproduction_numbers": {
            name: asdict(m) for name, m in report.reproduction_numbers.items()
        },
        "timestamp": report.timestamp,
        "version": report.version,
    }


def report_from_dict(raw: dict) -> AuditReport:
    """Inverse of report_to_dict; exact round trip.

    Verdicts are built from named keys, so keys this version no longer
    writes (the "tag" of older reports) are ignored.
    """
    verdicts = tuple(
        AxiomOutcome(axiom=v["axiom"],
                     statistical=FairnessVerdict.from_dict(v["statistical"]),
                     analytic=FairnessVerdict.from_dict(v["analytic"]))
        for v in raw["verdicts"])
    reproduction = {
        name: MomentEstimate(**m)
        for name, m in raw["reproduction_numbers"].items()}
    return AuditReport(config=config_from_dict(raw["config"]),
                       verdicts=verdicts, reproduction_numbers=reproduction,
                       timestamp=raw["timestamp"], version=raw["version"])


def report_json_bytes(report: AuditReport) -> bytes:
    """Serialized report; Python float repr round-trips exactly (never
    more than 17 significant digits)."""
    return (json.dumps(report_to_dict(report), indent=2, allow_nan=False)
            + "\n").encode()


def report_csv_text(report: AuditReport) -> str:
    """One row per axiom with the fixed column schema."""
    lines = [CSV_HEADER]
    for v in report.verdicts:
        stat = v.statistical
        p_text = "" if stat.p_value is None else FLOAT_FMT % stat.p_value
        criterion = v.analytic.analytic_criterion
        lines.append(",".join([
            v.axiom, stat.verdict, v.analytic.verdict,
            FLOAT_FMT % stat.statistic, p_text, FLOAT_FMT % criterion,
            FLOAT_FMT % stat.alpha, str(report.config.n),
            str(report.config.seed)]))
    return "\n".join(lines) + "\n"


def render_report(report: AuditReport, output_format: str) -> str:
    """The report as CSV or JSON text with deterministic field order."""
    if output_format == "json":
        return report_json_bytes(report).decode()
    if output_format == "csv":
        return report_csv_text(report)
    raise ConfigError(f"unknown output format {output_format!r}")


def emit_report(report: AuditReport, output_format: str, path) -> None:
    """Write render_report's text to path, byte for byte."""
    Path(path).write_bytes(render_report(report, output_format).encode())


def table_csv_text(cells: list[dict]) -> str:
    lines = [TABLE_CSV_HEADER]
    for c in cells:
        lines.append(",".join([
            FLOAT_FMT % c["rho1"], FLOAT_FMT % c["rho2"], c["axiom"],
            c["analytic"], c["statistical"], str(c["agree"]).lower()]))
    return "\n".join(lines) + "\n"


def emit_table(cells: list[dict], output_format: str, path) -> None:
    path = Path(path)
    if output_format == "json":
        path.write_text(json.dumps(cells, indent=2, allow_nan=False) + "\n")
    elif output_format == "csv":
        path.write_text(table_csv_text(cells))
    else:
        raise ConfigError(f"unknown output format {output_format!r}")


def determinism_digest(report_bytes: bytes) -> str:
    """SHA-256 of the report with the timestamp field removed."""
    raw = json.loads(report_bytes.decode())
    raw.pop("timestamp", None)
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True).encode()).hexdigest()
