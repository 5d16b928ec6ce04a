"""The names the benchmark rebinds and reads must keep existing.

perfbench/spans.py traces a run by rebinding module attributes of
fairlens, and perfbench/workloads.py checks each op's output through
public names such as ``verdict.axiom.kind``.  A rename inside the
package would otherwise surface only as a failed benchmark op.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


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
    names = {span["name"] for span in tracer.spans}
    assert {"model.simulate", "fairness.null", "fairness.rankdata",
            *spans.CHECKS} <= names
    for module, attr, original in originals:
        assert getattr(module, attr) is original, attr
