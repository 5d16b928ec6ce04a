"""The names the benchmark rebinds and reads must keep existing.

perfbench/spans.py traces a run by rebinding module attributes of
fairlens, and perfbench/workloads.py checks each op's output through
public names such as ``verdict.axiom.kind``.  A rename inside the
package would otherwise surface only as a failed benchmark op.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fairlens import RunConfig, TestConfig, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_its_first_op_clean(name, tmp_path):
    """Op 0 of each workload passes its own check, untraced: the audit's
    CLI argv, the calibration checks and the reproduction's CSV round
    trip all still run as the benchmark calls them."""
    workload = workloads.WORKLOADS[name](seed=1, work_dir=tmp_path)
    inputs = workload.inputs(0)
    try:
        failures, _ = workload.check(inputs, workload.op(inputs))
    finally:
        workload.cleanup()
    assert failures == []


def test_rebound_names_exist_and_are_restored(tmp_path):
    tracer = spans.Tracer()
    bindings = spans._bindings(tracer)
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in bindings]
    with spans.installed(tracer):
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, attr
        calib = workloads.WORKLOADS["calib-1e4"](seed=301, work_dir=tmp_path)
        tracer.op = 0
        inputs = calib.inputs(0)
        result = calib.op(inputs)
    failures, _ = calib.check(inputs, result)
    assert failures == []
    names = [span["name"] for span in tracer.spans]
    assert {"model.simulate", *spans.CHECKS} <= set(names)
    # ranks come from numpy's argsort, not scipy's rankdata, and no
    # table of calibration is sampled
    assert names.count("fairness.rankdata") == 0
    assert names.count("fairness.null") == 0
    for module, attr, original in originals:
        assert getattr(module, attr) is original, attr


def test_audit_above_the_floor_ranks_once_and_samples_no_table():
    """At n = 5e5 an audit runs no null span (every p is a closed-form
    tail), and its three columns are scored once for all three checks,
    with one normal_ppf call.  The ranks come from numpy's argsort, so
    scipy's rankdata never runs."""
    n = 500_000
    tracer = spans.Tracer()
    with spans.installed(tracer):
        harness.cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=n, seed=5,
                                    test=TestConfig(seed=5)))
    names = [span["name"] for span in tracer.spans]
    assert names.count("fairness.rankdata") == 0
    assert names.count("streams.normal_ppf") == 1
    assert "fairness.null" not in names
    assert {"harness.cmd_audit", *spans.CHECKS} <= set(names)


def test_audit_sorts_each_full_column_once(monkeypatch):
    """A traced audit at n = 5e5 fully sorts each of its three columns
    once, in check_axioms; every other full-length order it needs, the
    conditioning bins' rows among them, is read off those sorts, so no
    other full-length array is argsorted."""
    n = 500_000
    full, other = [], []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        if a.shape == (n,) and a.dtype == np.float64:
            full.append(kwargs.get("kind"))
        elif a.shape == (n,):
            other.append((a.dtype, kwargs.get("kind")))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    with spans.installed(spans.Tracer()):
        harness.cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=n, seed=5,
                                    test=TestConfig(seed=5)))
    assert full == [None] * 3
    assert other == []


def test_reproduction_draws_its_normals_once():
    """Both separation moments read one pass of draws: one Monte Carlo
    span and exactly n traced normals."""
    n = 10**6
    tracer = spans.Tracer()
    with spans.installed(tracer):
        harness.cmd_reproduce_separation(n, seed=4)
    names = [span["name"] for span in tracer.spans]
    assert names.count("oracles.monte_carlo") == 1
    assert sum(span["counts"]["values"] for span in tracer.spans
               if span["name"] == "streams.standard_normals") == n
