"""Audit reports compared byte for byte with stored golden files.

Criterion 10 compares two runs inside one process, so it cannot see a
change in the report bytes between versions of the code or of numpy and
scipy.  These files can.  Regenerate them, after a change that is meant
to alter the reports, with

    PYTHONPATH=src python tests/test_golden_reports.py
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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in CASES:
        json_bytes, csv_bytes = render(name)
        (DATA / f"golden_{name}.json").write_bytes(json_bytes)
        (DATA / f"golden_{name}.csv").write_bytes(csv_bytes)
    VERSIONS.write_text(json.dumps(_versions(), indent=2) + "\n")
