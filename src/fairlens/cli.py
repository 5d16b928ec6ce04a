"""Command-line interface.

Subcommands
-----------
audit       simulate, price, check all three axioms, write a report
reproduce   separation-moments: the Monte Carlo counterexample numbers
table       YES/NO grid over (rho1, rho2) regimes, analytic vs statistical

Flags override values from an optional flat JSON --config file.  Exit
codes, all set in main: 0 success, 2 configuration error (any refused
input), 3 statistical/analytic verdict disagreement (calibration
alarm), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .errors import ConfigError, FairlensError
from .fairness import MAX_PERMUTATIONS, TestConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DISAGREEMENT = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main exits 2 on it; subparsers share the class
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fairlens",
        description="Gaussian insurance-pricing model with fairness-axiom audits")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run a full fairness audit")
    audit.add_argument("--config", help="flat JSON config file")
    audit.add_argument("--rho1", type=float)
    audit.add_argument("--rho2", type=float)
    audit.add_argument("--n", type=int)
    audit.add_argument("--seed", type=int)
    audit.add_argument("--alpha", type=float)
    # neither acts on a p-value (every p-value has a closed form);
    # both stay valid options for the configs and scripts that pass them
    audit.add_argument("--permutations", type=int, dest="n_permutations",
                       help=f"validated in [99, {MAX_PERMUTATIONS}] and "
                            "recorded; no p-value depends on it")
    audit.add_argument("--test-seed", type=int, dest="test_seed",
                       help="validated and recorded; no p-value depends on it")
    audit.add_argument("--functional", choices=harness.FUNCTIONALS)
    audit.add_argument("--out", dest="output_path")
    audit.add_argument("--format", dest="output_format", choices=harness.OUTPUT_FORMATS)
    audit.set_defaults(run=_run_audit)

    reproduce = sub.add_parser("reproduce", help="reproduce reported numbers")
    rsub = reproduce.add_subparsers(dest="target", required=True)
    sep = rsub.add_parser("separation-moments",
                          help="E[X1^2 | Y=0, D=0] vs E[X1^2 | Y=0]")
    sep.add_argument("--n", type=int, default=10**7)
    sep.add_argument("--seed", type=int, default=1)
    sep.set_defaults(run=_run_reproduce)

    table = sub.add_parser("table", help="regime grid verification")
    table.add_argument("--pairs",
                       help="semicolon-separated rho pairs, e.g. '0.3,0.5;0,0'")
    table.add_argument("--n", type=int)
    table.add_argument("--seed", type=int)
    table.add_argument("--alpha", type=float)
    table.add_argument("--out", dest="output_path")
    table.add_argument("--format", dest="output_format",
                       choices=harness.OUTPUT_FORMATS, default="csv")
    table.set_defaults(run=_run_table)
    return parser


def _audit_config(args) -> harness.RunConfig:
    raw = {}
    if args.config:
        # a JSON, encoding or integer-length error is a ValueError
        try:
            raw = json.loads(Path(args.config).read_bytes())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    raw.update({key: value for key, value in vars(args).items()
                if key in harness.CONFIG_KEYS and value is not None})
    return harness.config_from_dict(raw)


def _run_audit(args) -> int:
    cfg = _audit_config(args)
    report = harness.cmd_audit(cfg)
    if cfg.output_path:
        harness.emit_report(report, cfg.output_format, cfg.output_path)
    else:
        sys.stdout.write(harness.render_report(report, cfg.output_format))
    for outcome in report.verdicts:
        print(f"{outcome.axiom}: statistical={outcome.statistical.verdict} "
              f"analytic={outcome.analytic.verdict}"
              + ("" if outcome.agree else "  [DISAGREEMENT]"),
              file=sys.stderr)
    return EXIT_OK if report.all_agree else EXIT_DISAGREEMENT


def _run_reproduce(args) -> int:
    frag = harness.cmd_reproduce_separation(args.n, args.seed)
    with_d = frag["e_x1sq_given_y0_d0"]
    without_d = frag["e_x1sq_given_y0"]
    print(f"E[X1^2 | Y=0, D=0] = {with_d.value:.6f} "
          f"(std error {with_d.std_error:.2e}, n={with_d.n})")
    print(f"E[X1^2 | Y=0]      = {without_d.value:.6f} "
          f"(std error {without_d.std_error:.2e}, n={without_d.n})")
    print(f"ordering value1 < value2 < 1: {frag['ordering_ok']} "
          f"(gap margin {frag['gap_margin_se']:.1f} se, "
          f"unit margin {frag['unit_margin_se']:.1f} se)")
    return EXIT_OK


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(";"):
        try:  # not two items, or one that is not a float
            rho1, rho2 = map(float, chunk.split(","))
        except ValueError:
            raise ConfigError(f"bad rho pair {chunk!r}") from None
        pairs.append((rho1, rho2))
    return pairs


def _given(args, *keys) -> dict:
    """The parsed values of the flags named by keys that were given."""
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def _run_table(args) -> int:
    pairs = _parse_pairs(args.pairs) if args.pairs else None
    # flags left out keep the defaults of cmd_table and TestConfig
    test = TestConfig(**_given(args, "alpha"))
    cells = harness.cmd_table(rho_pairs=pairs, test=test,
                              **_given(args, "n", "seed"))
    print(harness.format_table(cells))
    if args.output_path:
        harness.emit_table(cells, args.output_format, args.output_path)
    return EXIT_OK if all(c["agree"] for c in cells) else EXIT_DISAGREEMENT


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except ConfigError as exc:
        print(f"fairlens: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FairlensError as exc:
        print(f"fairlens: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"fairlens: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
