"""Spans around the public calls into each fairlens module.

Tracing is installed from outside the package: the names each module
looks up at call time are rebound to timing wrappers and restored
afterwards.  Nothing under ``src/`` knows about it.  Every span records
its name, the op it belongs to, its parent span, start and end, plus
counts of the work it did (tables drawn, normals generated, bytes
written).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from collections import Counter, defaultdict

from fairlens import cli, fairness, gaussian, harness, model, oracles

CHECKS = ("fairness.check_independence", "fairness.check_separation",
          "fairness.check_sufficiency")
HARNESS = ("harness.cmd_audit", "harness.cmd_reproduce_separation",
           "harness.emit_report")


class Tracer:
    """In-memory span recorder; single-threaded, one open-span stack."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    def wrap(self, name, fn, count=None):
        """fn with a span around every call; count(args, kwargs, result)
        returns a dict of work counts for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._open[-1] if self._open else None}
            self._open.append(span["id"])
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced


class _TracedStats:
    """scipy.stats as fairness sees it, with rankdata and the frozen
    random_table's rvs traced; every other name passes through."""

    def __init__(self, stats, tracer):
        self._stats = stats
        self._tracer = tracer
        self.rankdata = tracer.wrap("fairness.rankdata", stats.rankdata)

    def __getattr__(self, name):
        return getattr(self._stats, name)

    def random_table(self, row, col, seed=None):
        frozen = self._stats.random_table(row, col, seed=seed)
        frozen.rvs = self._tracer.wrap(
            "fairness.null", frozen.rvs,
            count=lambda a, k, r: {"tables": int(r.shape[0])})
        return frozen


def _normals_count(args, kwargs, result):
    return {"values": int(result.shape[0])}


def _csv_bytes(args, kwargs, result):
    path = str(args[1] if len(args) > 1 else kwargs["path"])
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".meta.json")}


def _bindings(tracer):
    """(module, attribute, replacement) for every traced call site."""
    t = tracer
    normals = (lambda fn: t.wrap("streams.standard_normals", fn, _normals_count))
    return [
        (cli, "main", t.wrap("cli.main", cli.main)),
        (harness, "cmd_audit", t.wrap("harness.cmd_audit", harness.cmd_audit)),
        (harness, "cmd_reproduce_separation",
         t.wrap("harness.cmd_reproduce_separation", harness.cmd_reproduce_separation)),
        (harness, "emit_report", t.wrap("harness.emit_report", harness.emit_report)),
        (fairness, "check_independence",
         t.wrap("fairness.check_independence", fairness.check_independence)),
        (fairness, "check_separation",
         t.wrap("fairness.check_separation", fairness.check_separation)),
        (fairness, "check_sufficiency",
         t.wrap("fairness.check_sufficiency", fairness.check_sufficiency)),
        (fairness, "normal_ppf", t.wrap("streams.normal_ppf", fairness.normal_ppf)),
        (fairness, "sps", _TracedStats(fairness.sps, t)),
        (model, "simulate", t.wrap("model.simulate", model.simulate)),
        (model, "sample", t.wrap("gaussian.sample", model.sample)),
        (model, "write_csv", t.wrap("model.write_csv", model.write_csv, _csv_bytes)),
        (model, "read_csv", t.wrap("model.read_csv", model.read_csv)),
        (model, "standard_normals", normals(model.standard_normals)),
        (gaussian, "standard_normals", normals(gaussian.standard_normals)),
        (oracles, "standard_normals", normals(oracles.standard_normals)),
        (oracles, "second_moment_x1_given_y0_d0_mc",
         t.wrap("oracles.monte_carlo", oracles.second_moment_x1_given_y0_d0_mc)),
        (oracles, "second_moment_x1_given_y0_d0_quad",
         t.wrap("oracles.quadrature", oracles.second_moment_x1_given_y0_d0_quad)),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Rebind every traced call site for the duration of the block."""
    saved = []
    try:
        for module, attr, replacement in _bindings(tracer):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _op_totals(spans):
    """Inclusive time, self time, calls and counts per span name, one op."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    incl, own, calls, counts = (defaultdict(float), defaultdict(float),
                                Counter(), Counter())
    for span in spans:
        d = span["end"] - span["start"]
        incl[span["name"]] += d
        own[span["name"]] += d - child_time[span["id"]]
        calls[span["name"]] += 1
        for key, value in span.get("counts", {}).items():
            counts[span["name"] + "." + key] += value
    return incl, own, calls, counts


# per-layer metric -> unit; ".s" is inclusive busy time per op,
# ".self.s" that time minus the traced calls made inside it
LAYER_METRICS = {
    "fairness.null.s": "s",
    "fairness.null.calls": "count",
    "fairness.null.tables": "count",
    "fairness.rankdata.s": "s",
    "fairness.rankdata.calls": "count",
    "streams.normal_ppf.s": "s",
    "fairness.check_independence.s": "s",
    "fairness.check_separation.s": "s",
    "fairness.check_sufficiency.s": "s",
    "fairness.self.s": "s",
    "streams.standard_normals.s": "s",
    "streams.standard_normals.values": "count",
    "gaussian.sample.s": "s",
    "model.simulate.s": "s",
    "oracles.monte_carlo.s": "s",
    "oracles.quadrature.s": "s",
    "model.write_csv.s": "s",
    "model.read_csv.s": "s",
    "model.csv_bytes": "bytes",
    "harness.cmd_audit.s": "s",
    "harness.cmd_reproduce_separation.s": "s",
    "harness.emit_report.s": "s",
    "harness.self.s": "s",
    "cli.main.s": "s",
    "cli.self.s": "s",
}


def op_layer_metrics(spans):
    """Every LAYER_METRICS value for the spans of one op."""
    incl, own, calls, counts = _op_totals(spans)
    out = {}
    for name in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if name == "model.csv_bytes":
            out[name] = counts["model.write_csv.bytes"]
        elif layer == "fairness.self":
            out[name] = sum(own[c] for c in CHECKS)
        elif layer == "harness.self":
            out[name] = sum(own[h] for h in HARNESS)
        elif layer == "cli.self":
            out[name] = own["cli.main"]
        elif kind == "s":
            out[name] = incl[layer]
        elif kind == "calls":
            out[name] = calls[layer]
        else:
            out[name] = counts[name]
    return out, dict(own)


def layer_summary(spans, op_ids):
    """Median over ops of each per-op layer metric, plus self time per
    span name (median over ops)."""
    by_op = defaultdict(list)
    for span in spans:
        by_op[span["op"]].append(span)
    per_op = [op_layer_metrics(by_op[op]) for op in op_ids]
    metrics = {name: (statistics.median if unit == "s" else
                      statistics.median_low)(m[name] for m, _ in per_op)
               for name, unit in LAYER_METRICS.items()}
    names = sorted({n for _, own in per_op for n, t in own.items() if t})
    self_time = {n: statistics.median(own.get(n, 0.0) for _, own in per_op)
                 for n in names}
    return metrics, self_time, [m for m, _ in per_op]
