"""fairlens benchmark: end-to-end timings per workload, per-layer spans on request.

Run from the repository root:

    python3 perfbench/run.py --workload audit-ref-1e6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process drives a closed loop: it starts op after op of the
workload, each on inputs derived from (seed, op index), until
``--seconds`` have passed (at least one op).  Every op's output is
checked after its clock stops.  The benchmark imports fairlens from
``src/`` of this checkout and starts no threads.

``--trace 0`` reports the end-to-end metrics:

  setup_s      fresh interpreter -> fairlens imported and one tiny check
               returned; median of SETUP_REPEATS child processes
  op_s         median wall seconds of one op
  peak_rss_mb  peak resident memory of this process

``--trace 1`` spends half the time on untraced ops and half on traced
ops (spans around the public calls of each module, see spans.py) and
reports the per-layer metrics: per-op medians of busy time, self time
and work counts, user+system CPU seconds per op, and the tracing
overhead (traced minus untraced op_s).  On audit-ref-1e6 it then
profiles one more op with cProfile, outside both timed phases.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give the same numbers
for people: op count, failed fraction, op_p90_s where at least 100 ops
ran, output-check results, report digests and provenance.  Details,
spans and the profile go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import glob
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"  # relative to ROOT, the working directory
SETUP_REPEATS = 5
P90_MIN_OPS = 100
PROFILE_TOP = 15

SETUP_SNIPPET = (
    "import fairlens\n"
    "from fairlens import fairness, model\n"
    "ds = model.simulate(model.make_example_model(0.1, 0.9), 500, 0)\n"
    "fairness.check_independence(ds.x1, ds.d, fairness.TestConfig(n_permutations=99))\n"
)


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from workloads.py, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def measure_setup():
    """Median wall time of SETUP_REPEATS fresh interpreters that import
    fairlens and run one tiny check."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=_src_env(),
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(seed):
    import numpy as np
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "workload_seed": seed,
    }


def run_ops(workload, seconds, first_index, tracer=None):
    """Closed loop: ops until `seconds` have passed, at least one."""
    records = []
    deadline = time.perf_counter() + seconds
    i = first_index
    while not records or time.perf_counter() < deadline:
        inputs = workload.inputs(i)
        if tracer is not None:
            tracer.op = i
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = workload.op(inputs)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                failures, facts = workload.check(inputs, result)
            except Exception as exc:  # output the check cannot read
                error = exc
            del result  # so peak_rss_mb never holds two ops' outputs
        if error is not None:
            failures = [f"{type(error).__name__}: {error}"]
            facts = {"traceback": "".join(traceback.format_exception(error))}
            del error
        records.append({"index": i, "op_s": t1 - t0, "cpu_s": cpu1 - cpu0,
                        "failures": failures, **facts})
        i += 1
    return records


def profile_one_op(workload, index):
    """Top cumulative cProfile entries for one op."""
    inputs = workload.inputs(index)
    prof = cProfile.Profile()
    prof.enable()
    result = workload.op(inputs)
    prof.disable()
    failures, _ = workload.check(inputs, result)
    entries = sorted(pstats.Stats(prof).stats.items(),
                     key=lambda kv: kv[1][3], reverse=True)[:PROFILE_TOP]
    top = []
    for (path, line, func), (_, ncalls, tottime, cumtime, _) in entries:
        if path.startswith(str(ROOT)):
            path = os.path.relpath(path, ROOT)
        elif "site-packages" in path:
            path = path.split("site-packages" + os.sep, 1)[1]
        top.append({"function": f"{path}:{line}({func})", "ncalls": ncalls,
                    "tottime_s": tottime, "cumtime_s": cumtime})
    return {"op_index": index, "failures": failures, "top_cumulative": top}


def run_workload(args):
    import spans
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    result = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed)}
    try:
        if args.trace == 0:
            setup_s, setup_all = measure_setup()
            records = run_ops(workload, args.seconds, 0)
            op_times = [r["op_s"] for r in records]
            metrics = {
                "op_s": (statistics.median(op_times), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
            result["setup_runs_s"] = setup_all
            if len(records) >= P90_MIN_OPS:
                result["op_p90_s"] = statistics.quantiles(op_times, n=10)[-1]
        else:
            plain = run_ops(workload, args.seconds / 2, 0)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced = run_ops(workload, args.seconds / 2, len(plain), tracer)
            records = plain + traced
            layers, self_time, per_op = spans.layer_summary(
                tracer.spans, [r["index"] for r in traced])
            plain_s = statistics.median(r["op_s"] for r in plain)
            traced_s = statistics.median(r["op_s"] for r in traced)
            metrics = {name: (layers[name], unit)
                       for name, unit in spans.LAYER_METRICS.items()}
            metrics["process.cpu_s"] = (
                statistics.median(r["cpu_s"] for r in plain), "s")
            metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
            result["self_time_s"] = self_time
            result["layers_per_op"] = per_op
            result["spans"] = tracer.spans
            if workload.profile:
                result["profile"] = profile_one_op(workload, len(records))
                records.append({"index": len(records), "profile_only": True,
                                "failures": result["profile"]["failures"]})
    finally:
        workload.cleanup()

    failed = sum(1 for r in records if r["failures"])
    result["ops"] = records
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if hasattr(workload, "rejections"):
        result["rejections"] = workload.rejections
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    _print_summary(result, len(records), failed, out_file)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


def _print_summary(result, attempted, failed, out_file):
    prov = result["provenance"]
    print(f"workload {result['workload']}  seed {prov['workload_seed']}  "
          f"trace {result['trace']}  ops {attempted}  failed {failed}")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if "op_p90_s" in result:
        rows.append(("op_p90_s", result["op_p90_s"], "s"))
    rows.append(("failed_frac", failed / attempted, "1"))
    for name, value, unit in rows:
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:36s} {text} {unit}")
    if "self_time_s" in result:
        ranked = sorted(result["self_time_s"].items(), key=lambda kv: -kv[1])
        print("  self time per op: " + ", ".join(
            f"{n} {t:.3g} s" for n, t in ranked))
    for r in result["ops"]:
        for msg in r["failures"]:
            print(f"  op {r['index']} check FAILED: {msg}")
    print(f"  output checks: {'all passed' if failed == 0 else 'FAILED'}")
    digests = [f"op{r['index']}:{r['digest'][:16]}"
               for r in result["ops"] if "digest" in r]
    if digests:
        print("  report digests: " + " ".join(digests))
    if "rejections" in result:
        print("  rejections at alpha 0.05: " + ", ".join(
            f"{k} {v}" for k, v in result["rejections"].items()))
    print("  provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"  details: {out_file}")


def run_all(args):
    """Every workload in its own child process; the last line maps each
    workload to its result object."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print(json.dumps({name: row for name, row in rows}))
    return 0


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fairlens" / "__init__.py").is_file():
        print(f"perfbench: no fairlens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS and args.workload != "all":
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
