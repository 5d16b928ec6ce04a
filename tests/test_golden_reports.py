"""Audit reports compared byte for byte with stored golden files.

Criterion 10 compares two runs inside one process, so it cannot see a
change in the report bytes between versions of the code or of numpy and
scipy.  These files can.  Regenerate them, after a change that is meant
to alter the reports, with

    PYTHONPATH=src python tests/test_golden_reports.py

which prints, before it overwrites a golden file, each JSON field whose
value changed: its path, the old and the new value, and for numbers
their distance in ulps.
"""

import ctypes
import glob
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from fairlens import RunConfig, TestConfig, cmd_audit
from fairlens.harness import report_csv_text, report_json_bytes

DATA = Path(__file__).parent / "data"
VERSIONS = DATA / "golden_versions.json"

# (rho1, rho2, functional): the x1 price off the diagonal; a negative rho
# with a constant price (sign bridge and constant-price rules); a
# single-zero regime, whose separation verdict rests on the rho1 = 0 proof
CASES = {
    "unawareness_0.1_0.9": (0.1, 0.9, "unawareness"),
    "null_-0.3_0.0": (-0.3, 0.0, "null"),
    "subset-x1_0.0_0.5": (0.0, 0.5, "subset:x1"),
}

_TIMESTAMP_LINE = re.compile(rb'\n  "timestamp": "[^"]*",')


def render(case: str) -> tuple[bytes, bytes]:
    """(JSON report without its timestamp line, CSV report) for a case."""
    rho1, rho2, functional = CASES[case]
    report = cmd_audit(RunConfig(
        rho1=rho1, rho2=rho2, n=20_000, seed=42, functional=functional,
        test=TestConfig(n_permutations=199, seed=3)))
    json_bytes, count = _TIMESTAMP_LINE.subn(b"", report_json_bytes(report))
    assert count == 1
    return json_bytes, report_csv_text(report).encode()


def _openblas_core():
    """The kernel of the OpenBLAS bundled with numpy (its matmuls differ
    in the last digits between kernels), or None where it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def _ulps(a: float, b: float) -> int:
    """The number of doubles from a to b (adjacent doubles are 1 apart,
    and 0.0 and -0.0 are 0 apart)."""
    def ordinal(x):
        i = int(np.array(x, dtype=np.float64).view(np.int64))
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(ordinal(a) - ordinal(b))


def _changed_fields(old, new, path=""):
    """(path, old, new) of each leaf that differs between two parsed
    JSON documents; a field present on one side only reads None on the
    other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from _changed_fields(old.get(key), new.get(key),
                                      f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changed_fields(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _describe(path, old, new) -> str:
    line = f"  {path}: {old!r} -> {new!r}"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in (old, new)):
        line += f" ({_ulps(old, new)} ulps)"
    return line


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_core": _openblas_core()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case):
    json_bytes, csv_bytes = render(case)
    written = json.loads(VERSIONS.read_text())
    now = _versions()
    where = (f"golden files written with numpy {written['numpy']}, scipy "
             f"{written['scipy']}, OpenBLAS core {written['openblas_core']}; "
             f"this run has numpy {now['numpy']}, scipy {now['scipy']}, "
             f"OpenBLAS core {now['openblas_core']}")
    assert json_bytes == (DATA / f"golden_{case}.json").read_bytes(), where
    assert csv_bytes == (DATA / f"golden_{case}.csv").read_bytes(), where


def test_regeneration_names_the_fields_that_moved():
    old = {"a": {"p": 0.1, "v": "HOLDS"}, "b": [1, 2.0], "gone": 3}
    new = {"a": {"p": float(np.nextafter(0.1, 1.0)), "v": "HOLDS"},
           "b": [1, -2.0], "added": None}
    assert [(path, _ulps(o, n)) if isinstance(o, float) else (path, o, n)
            for path, o, n in _changed_fields(old, new)] == [
        ("a.p", 1), ("b[1]", _ulps(2.0, -2.0)), ("gone", 3, None)]
    assert _ulps(0.0, -0.0) == 0
    assert _ulps(-5e-324, 5e-324) == 2


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in CASES:
        json_bytes, csv_bytes = render(name)
        path = DATA / f"golden_{name}.json"
        if path.exists():
            moved = list(_changed_fields(json.loads(path.read_bytes()),
                                        json.loads(json_bytes)))
            print(f"{name}: {len(moved)} field(s) changed")
            for field in moved:
                print(_describe(*field))
        path.write_bytes(json_bytes)
        (DATA / f"golden_{name}.csv").write_bytes(csv_bytes)
    VERSIONS.write_text(json.dumps(_versions(), indent=2) + "\n")
