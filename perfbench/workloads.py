"""The benchmark's workloads: inputs from the seed, one op, its output check.

Each workload derives the inputs of op ``i`` from (workload seed, i)
alone, so the same seed gives the same inputs in every run.  ``op``
is the timed part; ``check`` runs after the clock stops and returns a
list of failure messages (empty when the output is correct) plus a dict
of facts worth recording, such as report digests.  Calls go through
module attributes (``cli.main``, ``model.simulate``, ...) so the traced
run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from fairlens import cli, fairness, harness, model


def op_seed(seed: int, i: int) -> int:
    """Data seed of op i, a 32-bit value mixed from (seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class AuditRef:
    """The paper's reference audit, (rho1, rho2) = (0.1, 0.9) at n = 1e6,
    through the CLI with 999 permutations and a JSON report file.

    Per-observation work (ranks, normal scores, quantile binning,
    simulate) and the Patefield null over 20 bins of 50k points both
    weigh here; the null dominates.
    """

    name = "audit-ref-1e6"
    profile = True

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        # work_dir is relative to the checkout: the report records its
        # path, and the digest must not depend on where the checkout lives
        self.report = work_dir / "audit-report.json"

    def inputs(self, i):
        return ["audit", "--rho1", "0.1", "--rho2", "0.9", "--n", "1000000",
                "--seed", str(op_seed(self.seed, i)), "--permutations", "999",
                "--format", "json", "--out", str(self.report)]

    def op(self, argv):
        return _run_cli(argv)

    def check(self, argv, result):
        code, _ = result
        if code != 0:
            return [f"audit exited {code}"], {}
        raw = self.report.read_bytes()
        report = harness.report_from_dict(json.loads(raw))
        failures = []
        for outcome in report.verdicts:
            if outcome.statistical.verdict != fairness.VIOLATED:
                failures.append(f"{outcome.axiom}: statistical "
                                f"{outcome.statistical.verdict}, expected VIOLATED")
            if not outcome.agree:
                failures.append(f"{outcome.axiom}: disagrees with analytic "
                                f"{outcome.analytic.verdict}")
        if harness.report_json_bytes(report) != raw:
            failures.append("report does not survive report_from_dict")
        return failures, {"digest": harness.determinism_digest(raw)}

    def cleanup(self):
        self.report.unlink(missing_ok=True)


class Calibration:
    """The criterion-7 loop: one replicate per op, simulate the (0, 0)
    model at n = 1e4 and run the three checkers at alpha 0.05 with 99
    permutations.

    Many short calls on small bins (500 points, 31 levels), where scipy
    samples tables with its Boyett method and per-call overhead counts.
    """

    name = "calib-1e4"
    profile = False

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.model = model.make_example_model(0.0, 0.0)
        self.rejections = {axiom: 0 for axiom in fairness.AXIOM_KINDS}

    def inputs(self, i):
        return op_seed(self.seed, i)

    def op(self, s):
        ds = model.simulate(self.model, 10_000, s)
        cfg = fairness.TestConfig(alpha=0.05, n_permutations=99, seed=s)
        return (fairness.check_independence(ds.x1, ds.d, cfg),
                fairness.check_separation(ds.x1, ds.d, ds.y, cfg),
                fairness.check_sufficiency(ds.y, ds.d, ds.x1, cfg))

    def check(self, s, verdicts):
        failures = []
        for v in verdicts:
            kind = v.axiom.kind
            if not 0.0 < v.p_value <= 1.0:
                failures.append(f"{kind}: p-value {v.p_value} outside (0, 1]")
            if v.verdict == fairness.HOLDS:
                failures.append(f"{kind}: HOLDS below POWER_GUARD_N")
            self.rejections[kind] += v.verdict == fairness.VIOLATED
        return failures, {}

    def cleanup(self):
        pass


class ReproduceIO:
    """The separation-moments reproduction at n = 1e7 through the CLI,
    plus a write_csv -> read_csv round trip of a simulated 2e5-row
    dataset.

    Counter-based normals, the Monte Carlo moments and dataset I/O
    (writes and reads) do the work; the fairness checkers do none.
    """

    name = "reproduce-io"
    profile = False

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.model = model.make_example_model(0.1, 0.9)
        self.csv = work_dir / "dataset.csv"

    def inputs(self, i):
        s = op_seed(self.seed, i)
        return s, ["reproduce", "separation-moments", "--n", "10000000",
                   "--seed", str(s)]

    def op(self, inputs):
        s, argv = inputs
        code, text = _run_cli(argv)
        ds = model.simulate(self.model, 200_000, s)
        model.write_csv(ds, self.csv)
        return code, text, ds, model.read_csv(self.csv)

    def check(self, inputs, result):
        code, text, ds, back = result
        failures = []
        if code != 0:
            failures.append(f"reproduce exited {code}")
        if "ordering value1 < value2 < 1: True" not in text:
            failures.append("ordering_ok is not true")
        for col in ("x1", "x2", "d", "y"):
            a, b = getattr(ds, col), getattr(back, col)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                failures.append(f"csv column {col} is not bit-identical")
        if (back.n, back.seed, back.rho1, back.rho2) != (ds.n, ds.seed, ds.rho1, ds.rho2):
            failures.append("csv metadata changed in the round trip")
        # each op writes a new file: on ext4, truncating and rewriting the
        # previous one makes the next op wait for its writeback
        self.cleanup()
        return failures, {}

    def cleanup(self):
        self.csv.unlink(missing_ok=True)
        Path(str(self.csv) + ".meta.json").unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (AuditRef, Calibration, ReproduceIO)}
